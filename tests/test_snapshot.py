import gc
import os
import re
import struct
import tracemalloc
import warnings
from dataclasses import FrozenInstanceError, replace

import numpy as np
import pytest

from povseg.errors import (
    BadMagicError,
    FormatError,
    InvariantError,
    TruncatedPayloadError,
    VersionMismatchError,
)
from povseg.grad import random_instance
from povseg.losses import LossWeights
from povseg.personalize import _STATE_HEADER, TrainConfig, load_state, save_state
from povseg.snapshot import (
    _FLAG_FEATURES,
    _HEADER,
    FrozenSnapshot,
    Sample,
    _load_vocab_names,
    _load_z_open,
    downsample_mask,
    load_manifest,
    load_mask,
    load_sample,
    load_samples,
    load_snapshot,
    save_mask,
    save_snapshot,
)
from povseg.synthbench import SynthConfig, generate


def minimal_snapshot():
    return FrozenSnapshot(
        t_open=np.array([[1.0, 2.0], [3.0, 4.0]]),
        z_open=np.array([[0.5, -0.5]]),
        m_open=np.array([[[0.0], [0.25]], [[0.5], [1.0]]]),
        vocab_names=["a", "b"],
        logit_scale=1.0,
    )


def expected_size_from_format_table(v, d, n, h, w, hf, wf, names):
    # header: magic + version + flags + 7 u32 + f8 logit scale
    header = 4 + 1 + 1 + 7 * 4 + 8
    arrays = 4 * (v * d + n * d + h * w * n + hf * wf * d)
    vocab = 4 + sum(2 + len(s.encode()) for s in names)
    return header + arrays + vocab


def test_minimal_snapshot_byte_size(tmp_path):
    path = tmp_path / "s.povs"
    save_snapshot(minimal_snapshot(), path)
    assert path.stat().st_size == expected_size_from_format_table(
        2, 2, 1, 2, 2, 0, 0, ["a", "b"])


def test_round_trip_identity(tmp_path, tiny_snapshot):
    path = tmp_path / "s.povs"
    save_snapshot(tiny_snapshot, path)
    back = load_snapshot(path)
    np.testing.assert_array_equal(back.t_open, tiny_snapshot.t_open)
    np.testing.assert_array_equal(back.z_open, tiny_snapshot.z_open)
    np.testing.assert_array_equal(back.m_open, tiny_snapshot.m_open)
    np.testing.assert_array_equal(back.features, tiny_snapshot.features)
    assert back.vocab_names == tiny_snapshot.vocab_names
    assert back.logit_scale == tiny_snapshot.logit_scale


def test_save_is_byte_deterministic(tmp_path, tiny_snapshot):
    a, b = tmp_path / "a.povs", tmp_path / "b.povs"
    save_snapshot(tiny_snapshot, a)
    save_snapshot(tiny_snapshot, b)
    assert a.read_bytes() == b.read_bytes()


def test_out_of_range_mask_refused(tmp_path):
    snap = minimal_snapshot()
    m_open = snap.m_open.copy()
    m_open[0, 0, 0] = 1.5
    with pytest.raises(InvariantError):
        save_snapshot(replace(snap, m_open=m_open), tmp_path / "bad.povs")


def test_nan_refused(tmp_path):
    snap = minimal_snapshot()
    t_open = snap.t_open.copy()
    t_open[0, 0] = np.nan
    with pytest.raises(InvariantError):
        save_snapshot(replace(snap, t_open=t_open), tmp_path / "bad.povs")


@pytest.mark.parametrize("values, message", [
    ((np.nan,), "non-finite value in m_open"),
    ((np.inf,), "non-finite value in m_open"),
    ((-np.inf,), "non-finite value in m_open"),
    ((np.nan, 1.5), "non-finite value in m_open"),
    ((-0.5, np.inf), "non-finite value in m_open"),
    ((1.5,), "m_open entries must lie in [0, 1]"),
    ((-0.5,), "m_open entries must lie in [0, 1]"),
])
def test_bad_mask_values_name_the_first_fault(values, message):
    m_open = minimal_snapshot().m_open.copy()
    m_open.reshape(-1)[:len(values)] = values
    with pytest.raises(InvariantError, match=re.escape(message)):
        replace(minimal_snapshot(), m_open=m_open)


def test_coverage_follows_a_replaced_bank():
    snap = minimal_snapshot()
    np.testing.assert_array_equal(snap.coverage, [[0.0, 0.25], [0.5, 1.0]])
    other = replace(snap, m_open=snap.m_open[::-1].copy())
    np.testing.assert_array_equal(other.coverage, [[0.5, 1.0], [0.0, 0.25]])
    with pytest.raises(FrozenInstanceError):
        snap.m_open = other.m_open
    with pytest.raises(ValueError):
        snap.coverage[0, 0] = 1.0


@pytest.mark.parametrize("build, field, value, message", [
    (LossWeights, "neg_m", np.nan, "loss weight neg_m must be finite and nonnegative, got nan"),
    (TrainConfig, "iterations", 0, "iterations must be >= 1, got 0"),
    (SynthConfig, "n", 3, "need at least 4 proposals"),
    (lambda: random_instance(0)[1], "alpha", 1.5, "alpha 1.5 outside [0, 1]"),
    (minimal_snapshot, "logit_scale", 0.0, "logit scale must be positive, got 0.0"),
    (lambda: Sample(minimal_snapshot(), None, "negative"), "polarity", "neutral",
     "unknown polarity 'neutral'"),
], ids=["LossWeights", "TrainConfig", "SynthConfig", "PersonalState", "FrozenSnapshot",
        "Sample"])
def test_checked_types_are_frozen_and_check_a_replace(build, field, value, message):
    obj = build()
    with pytest.raises(FrozenInstanceError):
        setattr(obj, field, value)
    with pytest.raises(InvariantError, match=re.escape(message)):
        replace(obj, **{field: value})


@pytest.mark.parametrize("polarity, mask, message", [
    ("neutral", None, "unknown polarity 'neutral'"),
    ("positive", None, "positive sample lacks a personal mask"),
    ("positive", np.zeros((2, 3), np.uint8), "mask shape (2, 3) != grid (2, 2)"),
    ("negative", np.zeros((1, 2), np.uint8), "mask shape (1, 2) != grid (2, 2)"),
], ids=["unknown_polarity", "positive_without_mask", "positive_mask_shape",
        "negative_mask_shape"])
def test_sample_refuses_a_broken_rule(polarity, mask, message):
    with pytest.raises(InvariantError, match=re.escape(message)):
        Sample(minimal_snapshot(), mask, polarity)


@pytest.mark.parametrize("loaded", [False, True], ids=["in_memory", "loaded"])
def test_snapshot_arrays_are_read_only(tmp_path, tiny_snapshot, loaded):
    snap = tiny_snapshot
    if loaded:
        save_snapshot(snap, tmp_path / "s.povs")
        snap = load_snapshot(tmp_path / "s.povs")
        # every payload keeps the file's binary32; products promote what they read
        assert {a.dtype for a in (snap.t_open, snap.z_open, snap.m_open, snap.features)} == {
            np.dtype(np.float32)}
    coverage = snap.coverage.copy()
    for name in ("t_open", "z_open", "m_open", "features"):
        with pytest.raises(ValueError, match="read-only"):
            getattr(snap, name)[0] = 0.0
    np.testing.assert_array_equal(snap.coverage, coverage)
    assert snap.coverage.dtype == np.float64
    assert snap.coverage.tobytes() == snap.m_open.sum(axis=2, dtype=np.float64).tobytes()


def test_refused_snapshot_leaves_the_arrays_writable():
    snap = random_instance(0)[0]
    m = snap.m_open.copy()
    m[0, 0, 0] = 1.5
    with pytest.raises(InvariantError, match=re.escape("m_open entries must lie in [0, 1]")):
        replace(snap, m_open=m)
    assert m.flags.writeable


def test_binary32_bank_saves_the_same_bytes(tmp_path):
    snap = random_instance(0)[0]  # uniform float64 entries, not float32-exact
    save_snapshot(snap, tmp_path / "f8.povs")
    save_snapshot(replace(snap, m_open=snap.m_open.astype(np.float32)), tmp_path / "f4.povs")
    assert (tmp_path / "f8.povs").read_bytes() == (tmp_path / "f4.povs").read_bytes()


def test_nonpositive_logit_scale_refused():
    with pytest.raises(InvariantError, match="logit scale must be positive, got 0.0"):
        replace(minimal_snapshot(), logit_scale=0.0)


def test_bad_magic(tmp_path):
    path = tmp_path / "s.povs"
    save_snapshot(minimal_snapshot(), path)
    data = bytearray(path.read_bytes())
    data[:4] = b"XXXX"
    path.write_bytes(bytes(data))
    with pytest.raises(BadMagicError):
        load_snapshot(path)


def test_version_mismatch(tmp_path):
    path = tmp_path / "s.povs"
    save_snapshot(minimal_snapshot(), path)
    data = bytearray(path.read_bytes())
    data[4] = 9
    path.write_bytes(bytes(data))
    with pytest.raises(VersionMismatchError):
        load_snapshot(path)


def test_truncation_rejected_at_any_point(tmp_path):
    path = tmp_path / "s.povs"
    save_snapshot(minimal_snapshot(), path)
    blob = path.read_bytes()
    # every strict prefix must fail with a format error
    for cut in range(8, len(blob), 7):
        path.write_bytes(blob[:cut])
        with pytest.raises((TruncatedPayloadError, FormatError)):
            load_snapshot(path)


def test_trailing_bytes_rejected(tmp_path):
    path = tmp_path / "s.povs"
    save_snapshot(minimal_snapshot(), path)
    path.write_bytes(path.read_bytes() + b"\x00")
    with pytest.raises(FormatError):
        load_snapshot(path)


def _saved_povs(path):
    snapshot, _, _, _ = random_instance(0)
    save_snapshot(snapshot, path)


def _saved_povp(path):
    _, state, _, _ = random_instance(0)
    save_state(state, path)


@pytest.mark.parametrize("save, load", [
    (_saved_povs, load_snapshot),
    (_saved_povp, load_state),
], ids=["povs", "povp"])
def test_every_prefix_and_trailing_byte_rejected(tmp_path, save, load):
    path = tmp_path / "file"
    save(path)
    blob = path.read_bytes()
    for cut in range(len(blob)):
        path.write_bytes(blob[:cut])
        with pytest.raises(FormatError):
            load(path)
    path.write_bytes(blob + b"\x00")
    with pytest.raises(FormatError, match="trailing"):
        load(path)


@pytest.mark.parametrize("save, load, other", [
    (_saved_povs, load_snapshot, _saved_povp),
    (_saved_povp, load_state, _saved_povs),
], ids=["povs", "povp"])
def test_magic_and_version_checked(tmp_path, save, load, other):
    path = tmp_path / "file"
    named = re.escape(str(path))
    save(path)
    blob = path.read_bytes()
    path.write_bytes(b"XXXX" + blob[4:])
    with pytest.raises(BadMagicError, match=f"^{named}: bad magic b'XXXX'$"):
        load(path)
    path.write_bytes(blob[:4] + bytes([9]) + blob[5:])
    with pytest.raises(VersionMismatchError, match=f"^{named}: version 9, expected 1$"):
        load(path)
    other(path)  # the other format's file
    with pytest.raises(BadMagicError, match=f"^{named}: bad magic"):
        load(path)


HUGE = 2**32 - 1  # the largest size a header field holds


def _oversized_povs(path):
    """A POVS whose feature grid claims HUGE x HUGE: more than numpy can allocate."""
    _saved_povs(path)
    blob = path.read_bytes()
    fields = list(_HEADER.unpack_from(blob))
    fields[2] |= _FLAG_FEATURES
    fields[8] = fields[9] = HUGE  # hf, wf
    path.write_bytes(_HEADER.pack(*fields) + blob[_HEADER.size:])


def _oversized_povp(path):
    """A POVP whose embedding dim claims HUGE: 32 GiB for t_per alone."""
    _saved_povp(path)
    blob = path.read_bytes()
    fields = list(_STATE_HEADER.unpack_from(blob))
    fields[3] = HUGE  # d
    path.write_bytes(_STATE_HEADER.pack(*fields) + blob[_STATE_HEADER.size:])


@pytest.mark.parametrize("write, load", [
    (_oversized_povs, load_snapshot),
    (_oversized_povp, load_state),
], ids=["povs", "povp"])
def test_header_size_beyond_the_file_refused_before_allocating(tmp_path, write, load):
    path = tmp_path / "file"
    write(path)
    tracemalloc.start()
    try:
        with pytest.raises(TruncatedPayloadError, match=re.escape(str(path))):
            load(path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # A machine that could allocate the header's size would have, and shown it here.
    assert peak < 1 << 24


def _spliced(blob, offset, data):
    return blob[:offset] + data + blob[offset + len(data):]


@pytest.mark.skipif(not os.path.isdir("/proc/self/fd"), reason="needs /proc/self/fd")
def test_every_read_closes_its_file(tmp_path, tiny_snapshot):
    save_snapshot(tiny_snapshot, tmp_path / "s.povs")
    _saved_povp(tmp_path / "s.povp")
    povs, povp = (tmp_path / "s.povs").read_bytes(), (tmp_path / "s.povp").read_bytes()
    nan = struct.pack("<f", np.nan)
    header = list(_HEADER.unpack_from(povs))
    z_at = _HEADER.size + 4 * header[3] * header[4]  # past t_open (V x D)
    no_flag = _HEADER.pack(*header[:2], 0, *header[3:])
    state_header = list(_STATE_HEADER.unpack_from(povp))
    bad_alpha = _STATE_HEADER.pack(*state_header[:5], 1.5, state_header[6])
    cases = [
        (load_snapshot, povs, None),
        (_load_z_open, povs, None),
        (load_state, povp, None),
        (load_snapshot, b"XXXX" + povs[4:], BadMagicError),
        (load_state, _spliced(povp, 4, b"\x09"), VersionMismatchError),
        (load_snapshot, b"", TruncatedPayloadError),
        (load_snapshot, povs[:z_at + 2], TruncatedPayloadError),
        (load_snapshot, povs[:-2], TruncatedPayloadError),
        (_load_z_open, povs[:z_at + 2], TruncatedPayloadError),
        (load_state, povp[:-3], TruncatedPayloadError),
        (load_snapshot, povs + b"\x00", FormatError),
        (load_state, povp + b"\x00", FormatError),
        (load_snapshot, povs[:-1] + b"\xff", FormatError),
        (load_snapshot, no_flag + povs[_HEADER.size:], FormatError),
        (load_snapshot, povs[:-2] + b"\tt", InvariantError),
        (load_snapshot, _spliced(povs, z_at, nan), InvariantError),
        (_load_z_open, _spliced(povs, z_at, nan), InvariantError),
        (load_state, _spliced(povp, _STATE_HEADER.size, struct.pack("<d", np.nan)),
         FormatError),
        (load_state, bad_alpha + povp[_STATE_HEADER.size:], InvariantError),
    ]
    path = tmp_path / "case"
    for index, (load, blob, error) in enumerate(cases):
        path.write_bytes(blob)
        before = len(os.listdir("/proc/self/fd"))
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            if error is None:
                load(path)
            else:
                with pytest.raises(error, match=re.escape(str(path))):
                    load(path)
            gc.collect()
        assert len(os.listdir("/proc/self/fd")) == before, index
        assert not [w for w in caught if issubclass(w.category, ResourceWarning)], index


def test_vocabulary_names_read_alone_refuse_what_a_whole_load_refuses(tmp_path, bench_dir):
    blob = (bench_dir / "snapshots" / "train_000.povs").read_bytes()
    path = tmp_path / "s.povs"
    path.write_bytes(blob)
    assert _load_vocab_names(path) == load_snapshot(path).vocab_names
    _, _, flags, v, d, n, h, w, hf, wf, _ = _HEADER.unpack_from(blob)
    assert flags & _FLAG_FEATURES  # so the feature map is skipped too
    # the vocabulary count follows t_open, z_open, m_open and the feature map
    count_at = _HEADER.size + 4 * (v * d + n * d + h * w * n + hf * wf * d)
    # every 97th cut, and every cut from the last payload's end, through the names
    cuts = sorted({*range(0, len(blob), 97), *range(count_at - 1, len(blob))})
    cases = [blob[:cut] for cut in cuts] + [_spliced(blob, count_at, struct.pack("<I", 3))]
    for case in cases:
        path.write_bytes(case)
        with pytest.raises(FormatError) as whole:
            load_snapshot(path)
        with pytest.raises(FormatError) as alone:
            _load_vocab_names(path)
        assert (type(alone.value), str(alone.value)) == (type(whole.value), str(whole.value))


def test_bad_utf8_vocab_name_rejected(tmp_path):
    path = tmp_path / "s.povs"
    save_snapshot(minimal_snapshot(), path)
    data = bytearray(path.read_bytes())
    data[-1] = 0xFF  # last byte of the last vocabulary name
    path.write_bytes(bytes(data))
    with pytest.raises(FormatError, match=f"offset {len(data) - 1}"):
        load_snapshot(path)


@pytest.mark.parametrize("ch", ["\t", "\r", "\n"])
def test_vocab_name_with_break_refused(tmp_path, ch):
    with pytest.raises(InvariantError, match="vocab name 1"):
        replace(minimal_snapshot(), vocab_names=["a", f"b{ch}c"])
    # write the name by hand: save a same-length stand-in, then swap its bytes
    path = tmp_path / "s.povs"
    save_snapshot(replace(minimal_snapshot(), vocab_names=["a", "b_c"]), path)
    data = path.read_bytes()
    assert data.endswith(b"b_c")
    path.write_bytes(data[:-3] + f"b{ch}c".encode())
    # the same rule, in FrozenSnapshot, refuses it on load
    with pytest.raises(InvariantError,
                       match=re.escape(f"{path}: vocab name 1 {f'b{ch}c'!r} contains")):
        load_snapshot(path)


@pytest.mark.parametrize("hf, wf", [(0, 1), (1, 0), (3, 2), (2, 3)])
def test_feature_map_outside_grid_refused(tmp_path, monkeypatch, hf, wf):
    message = f"feature map {hf}x{wf} must lie within [1, 2] x [1, 2]"
    with pytest.raises(InvariantError, match=re.escape(message)):
        replace(minimal_snapshot(), features=np.zeros((hf, wf, 2)))
    # build and write the snapshot with its checks bypassed, as a foreign writer could
    path = tmp_path / "s.povs"
    monkeypatch.setattr(FrozenSnapshot, "__post_init__", lambda self: None)
    save_snapshot(replace(minimal_snapshot(), features=np.zeros((hf, wf, 2))), path)
    monkeypatch.undo()
    with pytest.raises(InvariantError, match=re.escape(f"{path}: {message}")):
        load_snapshot(path)
    # the bounds themselves are allowed
    for sides in ((1, 1), (2, 2)):
        save_snapshot(replace(minimal_snapshot(), features=np.zeros((*sides, 2))), path)
        assert load_snapshot(path).features.shape == (*sides, 2)


def test_payload_nan_rejected(tmp_path):
    path = tmp_path / "s.povs"
    save_snapshot(minimal_snapshot(), path)
    data = bytearray(path.read_bytes())
    off = 42  # first float of t_open
    data[off:off + 4] = struct.pack("<f", float("nan"))
    path.write_bytes(bytes(data))
    with pytest.raises(InvariantError, match=re.escape(f"{path}: non-finite value in t_open")):
        load_snapshot(path)


# --- mask files ---

def test_mask_round_trip(tmp_path):
    mask = (np.arange(12).reshape(3, 4) % 2).astype(np.uint8)
    path = tmp_path / "m.mask"
    save_mask(mask, path)
    np.testing.assert_array_equal(load_mask(path, 3, 4), mask)


def test_mask_wrong_size(tmp_path):
    path = tmp_path / "m.mask"
    path.write_bytes(bytes(5))
    with pytest.raises(FormatError):
        load_mask(path, 3, 4)


def test_huge_mask_file_refused_unread(tmp_path):
    path = tmp_path / "m.mask"
    with path.open("wb") as fh:  # sparse: 64 MiB long, no block written
        fh.truncate(64 << 20)
    tracemalloc.start()
    try:
        with pytest.raises(FormatError, match=re.escape(
                f"{path}: {64 << 20} bytes, expected 12 for 3x4")):
            load_mask(path, 3, 4)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


def test_mask_file_shrinking_while_read(tmp_path, monkeypatch):
    path = tmp_path / "m.mask"
    path.write_bytes(bytes(5))
    # fstat says 12 bytes (field 6 is st_size), as for a file cut to 5 once opened.
    monkeypatch.setattr(os, "fstat", lambda fd: os.stat_result((0,) * 6 + (12,) + (0,) * 3))
    with pytest.raises(TruncatedPayloadError, match=re.escape(
            f"{path}: file ended before offset 12")):
        load_mask(path, 3, 4)


def test_mask_bad_byte(tmp_path):
    path = tmp_path / "m.mask"
    path.write_bytes(bytes([0, 1, 2, 0]))
    with pytest.raises(FormatError) as caught:
        load_mask(path, 2, 2)
    assert str(caught.value) == f"{path}: mask byte 2 at flat index 2 is not 0/1"


# --- downsampling ---

def oracle_downsample(mask, hf, wf):
    """Independent fractional-overlap pooling, pixel by pixel."""
    h, w = mask.shape
    out = np.zeros((hf, wf), dtype=np.uint8)
    for i in range(hf):
        for j in range(wf):
            y0, y1 = i * h / hf, (i + 1) * h / hf
            x0, x1 = j * w / wf, (j + 1) * w / wf
            total = 0.0
            for r in range(h):
                for c in range(w):
                    dy = min(y1, r + 1) - max(y0, r)
                    dx = min(x1, c + 1) - max(x0, c)
                    if dy > 0 and dx > 0:
                        total += dy * dx * mask[r, c]
            out[i, j] = 1 if total / ((y1 - y0) * (x1 - x0)) >= 0.5 else 0
    return out


def test_downsample_constant_masks():
    ones = np.ones((4, 4), dtype=np.uint8)
    np.testing.assert_array_equal(downsample_mask(ones, 2, 2), np.ones((2, 2)))
    zeros = np.zeros((4, 4), dtype=np.uint8)
    np.testing.assert_array_equal(downsample_mask(zeros, 2, 2), np.zeros((2, 2)))


def test_downsample_block():
    mask = np.zeros((4, 4), dtype=np.uint8)
    mask[:2, :2] = 1
    expected = oracle_downsample(mask, 2, 2)
    np.testing.assert_array_equal(expected, [[1, 0], [0, 0]])
    np.testing.assert_array_equal(downsample_mask(mask, 2, 2), expected)


def test_downsample_tie_rounds_up():
    mask = np.array([[1, 0], [0, 1]], dtype=np.uint8)
    np.testing.assert_array_equal(downsample_mask(mask, 1, 1), [[1]])


def test_downsample_identity_at_same_resolution():
    rng = np.random.default_rng(3)
    mask = (rng.uniform(size=(5, 7)) < 0.5).astype(np.uint8)
    np.testing.assert_array_equal(downsample_mask(mask, 5, 7), mask)


def test_downsample_matches_oracle_non_divisible():
    rng = np.random.default_rng(7)
    for _ in range(10):
        mask = (rng.uniform(size=(5, 7)) < 0.5).astype(np.uint8)
        np.testing.assert_array_equal(downsample_mask(mask, 3, 2),
                                      oracle_downsample(mask, 3, 2))


def test_downsample_rejects_bad_targets():
    mask = np.ones((4, 4), dtype=np.uint8)
    with pytest.raises(InvariantError):
        downsample_mask(mask, 0, 2)
    with pytest.raises(InvariantError):
        downsample_mask(mask, 5, 2)


# --- manifests ---

def write_dataset(tmp_path, lines):
    path = tmp_path / "manifest.tsv"
    path.write_text("".join(line + "\n" for line in lines))
    return path


def test_manifest_two_entries(tmp_path):
    save_snapshot(minimal_snapshot(), tmp_path / "a.povs")
    save_snapshot(minimal_snapshot(), tmp_path / "b.povs")
    save_mask(np.ones((2, 2), dtype=np.uint8), tmp_path / "a.mask")
    manifest = load_manifest(write_dataset(tmp_path, [
        "a.povs\ta.mask\ttrain\tpositive\tb",
        "b.povs\t-\ttest\tnegative\tb",
    ]))
    assert len(manifest.entries) == 2
    assert manifest.personal_class_name == "b"
    assert len(manifest.split("train")) == 1
    assert manifest.split("test")[0].mask is None


def test_manifest_errors(tmp_path):
    save_snapshot(minimal_snapshot(), tmp_path / "a.povs")
    save_mask(np.ones((2, 2), dtype=np.uint8), tmp_path / "a.mask")
    cases = [
        ["a.povs\ta.mask\tvalidate\tpositive\tb"],          # unknown split
        ["a.povs\ta.mask\ttrain\tneutral\tb"],              # unknown polarity
        ["a.povs\t-\ttrain\tpositive\tb"],                  # train without mask
        ["a.povs\t-\ttest\tpositive\tb"],                   # test positive without mask
        ["missing.povs\ta.mask\ttrain\tpositive\tb"],       # missing snapshot
        ["a.povs\tmissing.mask\ttrain\tpositive\tb"],       # missing mask
        ["a.povs\ta.mask\ttrain\tpositive\tb\textra"],      # bad field count
        [],                                                  # empty manifest
        ["a.povs\ta.mask\ttrain\tpositive\tb",
         "a.povs\ta.mask\ttest\tpositive\tother"],          # two class names
    ]
    for lines in cases:
        with pytest.raises(FormatError, match=re.escape(f"{tmp_path / 'manifest.tsv'}:")):
            load_manifest(write_dataset(tmp_path, lines))
    with pytest.raises(FormatError, match=re.escape(
            f"{tmp_path / 'manifest.tsv'}:1: test positive entry without a mask")):
        load_manifest(write_dataset(tmp_path, ["a.povs\t-\ttest\tpositive\tb"]))


def test_manifest_refuses_train_negative(tmp_path):
    save_snapshot(minimal_snapshot(), tmp_path / "a.povs")
    save_mask(np.ones((2, 2), dtype=np.uint8), tmp_path / "a.mask")
    with pytest.raises(FormatError, match=re.escape(
            f"{tmp_path / 'manifest.tsv'}:2: train entries must be positive")):
        load_manifest(write_dataset(tmp_path, ["a.povs\ta.mask\ttrain\tpositive\tb",
                                               "a.povs\ta.mask\ttrain\tnegative\tb"]))


def test_load_samples_reads_one_split(tmp_path):
    save_snapshot(minimal_snapshot(), tmp_path / "a.povs")
    save_snapshot(minimal_snapshot(), tmp_path / "b.povs")
    save_mask(np.array([[1, 0], [0, 1]], dtype=np.uint8), tmp_path / "a.mask")
    manifest = load_manifest(write_dataset(tmp_path, [
        "a.povs\ta.mask\ttrain\tpositive\tb",
        "b.povs\t-\ttest\tnegative\tb",
        "a.povs\ta.mask\ttrain\tpositive\tb",
    ]))
    train = load_samples(manifest, "train")
    assert [s.polarity for s in train] == ["positive", "positive"]
    np.testing.assert_array_equal(train[1].personal_mask, [[1, 0], [0, 1]])
    (test,) = load_samples(manifest, "test")
    assert test.polarity == "negative" and test.personal_mask is None
    assert test.partner_z is None
    manifest.entries = manifest.split("train")
    with pytest.raises(InvariantError, match="manifest has no 'test' entries"):
        load_samples(manifest, "test")


# NUL, the two mask bits, field/line/path separators and '-', digits (which
# can turn one file name into another that exists), a letter, and bytes that
# are never valid UTF-8 on their own.
CORRUPTION_BYTES = (0x00, 0x01, 0x09, 0x0A, 0x0D, 0x20, 0x2D, 0x2F, 0x30, 0x31,
                    0x41, 0x80, 0xFF)


def test_single_byte_corruption_loads_or_raises_format_error(tmp_path):
    config = SynthConfig(v=6, d=10, n=4, h=8, hf=4, k_train=2, n_test_pos=1,
                         n_test_neg=1)
    manifest_path = generate(config, tmp_path)
    mask_path = load_manifest(manifest_path).split("train")[0].mask
    outcomes = {"loaded": 0, "format_error": 0}
    for target in (manifest_path, mask_path):
        original = target.read_bytes()
        for offset in range(len(original)):
            for value in CORRUPTION_BYTES:
                blob = bytearray(original)
                blob[offset] = value
                target.write_bytes(bytes(blob))
                try:
                    for entry in load_manifest(manifest_path).entries:
                        load_sample(entry)
                except FormatError:
                    outcomes["format_error"] += 1
                else:
                    outcomes["loaded"] += 1
        target.write_bytes(original)
    assert outcomes["loaded"] > 0 and outcomes["format_error"] > 0, outcomes
