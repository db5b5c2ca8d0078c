import re
import struct
from dataclasses import astuple, replace
from functools import cached_property

import numpy as np
import pytest

from povseg.errors import (
    BadMagicError,
    FormatError,
    InvariantError,
    NonFiniteError,
    TruncatedPayloadError,
)
from povseg.grad import backward, random_instance
from povseg.head import build_forward, decode
from povseg.losses import LossWeights
from povseg.personalize import (
    TrainConfig,
    compute_visual_embedding,
    init_state,
    load_state,
    run_personalization,
    save_state,
)
from povseg.snapshot import FrozenSnapshot, Sample, load_manifest, load_samples

rng = np.random.default_rng(17)


def bits(*values) -> list[bytes]:
    """The binary64 bytes of each value, so that -0.0 and 0.0 differ."""
    return [np.asarray(v, dtype=np.float64).tobytes() for v in values]


def make_samples(seed=0, count=3, with_features=True):
    gen = np.random.default_rng(seed)
    samples = []
    for _ in range(count):
        snap = FrozenSnapshot(
            t_open=gen.normal(size=(3, 4)),
            z_open=gen.normal(size=(5, 4)),
            m_open=gen.uniform(0.05, 0.95, size=(6, 6, 5)),
            vocab_names=["a", "b", "c"],
            logit_scale=2.0,
            features=gen.normal(size=(3, 3, 4)) if with_features else None,
        )
        mask = np.zeros((6, 6), dtype=np.uint8)
        mask[2:5, 2:5] = 1
        samples.append(Sample(snap, mask, "positive"))
    return samples


def test_init_state_contents():
    snap = make_samples(count=1)[0].snapshot
    state = init_state(snap, "b", TrainConfig())
    np.testing.assert_array_equal(state.t_per, snap.t_open[1])
    assert not np.shares_memory(state.t_per, snap.t_open)
    assert not state.w_z.any() and not state.w_m.any() and state.b_m == 0.0
    assert state.f_per is None and state.alpha == 0.0
    assert state.k == 3


def test_init_from_vocab_row():
    snap = make_samples(count=1)[0].snapshot
    for row, name in enumerate(snap.vocab_names):
        state = init_state(snap, name, TrainConfig())
        np.testing.assert_array_equal(state.t_per, snap.t_open[row])
        assert not np.shares_memory(state.t_per, snap.t_open)


def test_init_class_not_in_vocabulary():
    with pytest.raises(InvariantError, match="^" + re.escape(
            "sample 0: personal class 'missing' not in the snapshot vocabulary; "
            "cannot initialize the personal embedding") + "$"):
        run_personalization(make_samples(count=1), TrainConfig(), "missing")


def test_visual_embedding_constant_field():
    sample = make_samples(count=1)[0]
    snap = sample.snapshot
    target = float(np.linalg.norm(snap.t_open, axis=1).mean())
    v = rng.normal(size=4)
    v = v / np.linalg.norm(v) * target
    sample = replace(sample, snapshot=replace(
        snap, features=np.broadcast_to(v, (3, 3, 4)).copy()))
    out = compute_visual_embedding([sample])
    np.testing.assert_allclose(out, v, rtol=1e-12)


def test_visual_embedding_two_sample_mean():
    samples = make_samples(count=2)
    u = rng.normal(size=4)
    v = rng.normal(size=4)
    samples = [replace(sample, snapshot=replace(
        sample.snapshot, features=np.broadcast_to(vec, (3, 3, 4)).copy()))
        for sample, vec in zip(samples, (u, v))]
    s1 = samples[0].snapshot
    out = compute_visual_embedding(samples)
    mean = (u + v) / 2.0
    target = float(np.linalg.norm(s1.t_open, axis=1).mean())
    np.testing.assert_allclose(out, mean / np.linalg.norm(mean) * target, rtol=1e-12)


def test_visual_embedding_indexes_masked_cells():
    snap = make_samples(count=1)[0].snapshot
    # 4x4-equivalent mask selecting exactly feature cells (0,0) and (1,1)
    snap = replace(snap, features=rng.normal(size=(2, 2, 4)),
                   m_open=rng.uniform(0.1, 0.9, size=(4, 4, 5)))
    mask = np.zeros((4, 4), dtype=np.uint8)
    mask[0:2, 0:2] = 1
    mask[2:4, 2:4] = 1
    out = compute_visual_embedding([Sample(snap, mask, "positive")])
    pooled = (snap.features[0, 0] + snap.features[1, 1]) / 2.0
    target = float(np.linalg.norm(snap.t_open, axis=1).mean())
    np.testing.assert_allclose(out, pooled / np.linalg.norm(pooled) * target,
                               rtol=1e-12)


def test_visual_embedding_of_binary32_features_matches_promoted(bench_dir):
    samples = load_samples(load_manifest(bench_dir / "manifest.tsv"), "train")
    assert all(s.snapshot.features.dtype == np.float32 for s in samples)
    promoted = [replace(s, snapshot=replace(
        s.snapshot, features=s.snapshot.features.astype(np.float64))) for s in samples]
    assert (compute_visual_embedding(samples).tobytes()
            == compute_visual_embedding(promoted).tobytes())


def test_visual_embedding_errors():
    samples = make_samples(count=1, with_features=False)
    with pytest.raises(InvariantError):
        compute_visual_embedding(samples)
    snap = make_samples(count=1)[0].snapshot
    empty = np.zeros((6, 6), dtype=np.uint8)
    with pytest.raises(InvariantError):
        compute_visual_embedding([Sample(snap, empty, "positive")])


def test_iterations_validation():
    with pytest.raises(InvariantError, match="iterations"):
        TrainConfig(iterations=0)
    with pytest.raises(InvariantError, match="learning rate"):
        TrainConfig(learning_rate=0.0)
    with pytest.raises(InvariantError):
        run_personalization([], TrainConfig(), "b")


def test_coverage_computed_once_per_snapshot(monkeypatch):
    counted = []
    plain = FrozenSnapshot.coverage.func

    def counting(snapshot):
        counted.append(snapshot)
        return plain(snapshot)

    prop = cached_property(counting)
    prop.__set_name__(FrozenSnapshot, "coverage")
    monkeypatch.setattr(FrozenSnapshot, "coverage", prop)
    samples = make_samples(count=2)
    run_personalization(samples, TrainConfig(iterations=7), "b")
    assert [id(s) for s in counted] == [id(sample.snapshot) for sample in samples]


def test_mixed_vocabularies_refused():
    samples = make_samples(count=2)
    samples[1] = replace(samples[1], snapshot=replace(samples[1].snapshot,
                                                      vocab_names=["b", "a", "c"]))
    with pytest.raises(InvariantError, match="sample 1 disagrees"):
        run_personalization(samples, TrainConfig(iterations=1), "b")


@pytest.mark.parametrize("polarity, with_mask", [("negative", True), ("negative", False),
                                                 ("positive", False)])
def test_training_sample_must_be_positive_with_mask(polarity, with_mask):
    samples = make_samples(count=2)
    mask = samples[1].personal_mask if with_mask else None
    if polarity == "positive":  # such a sample cannot be built, so never reaches training
        with pytest.raises(InvariantError, match="positive sample lacks a personal mask"):
            Sample(samples[1].snapshot, mask, polarity)
        return
    samples[1] = Sample(samples[1].snapshot, mask, polarity)
    with pytest.raises(InvariantError, match="sample 1 is not a positive with a mask"):
        run_personalization(samples, TrainConfig(iterations=1), "b")


def test_single_step_is_one_gradient_update():
    samples = make_samples()
    config = TrainConfig(iterations=1, alpha=0.0)
    state, trace = run_personalization(samples, config, "b")
    assert len(trace) == 1

    first = samples[0]
    fresh = init_state(first.snapshot, "b", config)
    _, grads = backward(first.snapshot, fresh, first.personal_mask, LossWeights())
    lr = config.learning_rate
    np.testing.assert_array_equal(state.t_per, first.snapshot.t_open[1] - lr * grads.t_per)
    np.testing.assert_array_equal(state.w_z, -lr * grads.w_z)
    np.testing.assert_array_equal(state.w_m, -lr * grads.w_m)
    assert state.b_m == -lr * grads.b_m


def test_determinism_bitwise():
    samples = make_samples()
    config = TrainConfig(iterations=20)
    s1, t1 = run_personalization(samples, config, "b")
    s2, t2 = run_personalization(samples, config, "b")
    np.testing.assert_array_equal(s1.t_per, s2.t_per)
    np.testing.assert_array_equal(s1.w_z, s2.w_z)
    np.testing.assert_array_equal(s1.w_m, s2.w_m)
    assert s1.b_m == s2.b_m and t1 == t2


def test_frozen_inputs_unchanged_by_training():
    samples = make_samples()
    copies = [(s.t_open.copy(), s.z_open.copy(), s.m_open.copy(), s.features.copy())
              for s in (sample.snapshot for sample in samples)]
    run_personalization(samples, TrainConfig(iterations=15), "b")
    for snap, (t, z, m, f) in zip((sample.snapshot for sample in samples), copies):
        np.testing.assert_array_equal(snap.t_open, t)
        np.testing.assert_array_equal(snap.z_open, z)
        np.testing.assert_array_equal(snap.m_open, m)
        np.testing.assert_array_equal(snap.features, f)


def test_no_injection_independent_of_features():
    config = TrainConfig(iterations=10, alpha=0.0)
    a = make_samples(seed=3)
    b = [replace(sample, snapshot=replace(
        sample.snapshot, features=rng.normal(size=sample.snapshot.features.shape)))
        for sample in make_samples(seed=3)]
    sa, ta = run_personalization(a, config, "b")
    sb, tb = run_personalization(b, config, "b")
    assert ta == tb
    np.testing.assert_array_equal(sa.t_per, sb.t_per)


def test_injection_disabled_equals_alpha_zero():
    a = make_samples(seed=4)
    off, _ = run_personalization(a, TrainConfig(iterations=12, alpha=0.0), "b")
    assert off.f_per is None and off.alpha == 0.0
    # f_per at interpolation weight 0 is neutral, bit for bit
    with_f = replace(off, f_per=compute_visual_embedding(a))
    weights = LossWeights()
    for sample in a:
        loss_off, grads_off = backward(sample.snapshot, off, sample.personal_mask, weights)
        loss_f, grads_f = backward(sample.snapshot, with_f, sample.personal_mask, weights)
        assert bits(*astuple(loss_off)) == bits(*astuple(loss_f))
        assert bits(*astuple(grads_off)) == bits(*astuple(grads_f))
        np.testing.assert_array_equal(decode(build_forward(sample.snapshot, off)),
                                      decode(build_forward(sample.snapshot, with_f)))


@pytest.mark.filterwarnings("ignore:invalid value")
def test_non_finite_loss_reports_step():
    samples = make_samples()
    # The largest finite logit scale overflows S = tau T Z^T: the forward pass at step 1.
    samples[1] = replace(samples[1], snapshot=replace(samples[1].snapshot,
                                                      logit_scale=np.finfo(np.float64).max))
    with pytest.raises(NonFiniteError, match="step 1") as excinfo:
        run_personalization(samples, TrainConfig(iterations=5), "b")
    assert excinfo.value.stage == "forward"


@pytest.mark.filterwarnings("ignore:overflow")
def test_overflowing_last_update_reports_step():
    samples = make_samples()
    config = TrainConfig(iterations=1, learning_rate=1e308, alpha=0.0)
    with pytest.raises(NonFiniteError, match="step 0") as excinfo:
        run_personalization(samples, config, "b")
    assert excinfo.value.stage == "update"


def test_alpha_zero_trains_without_a_feature_map():
    samples = make_samples(with_features=False)
    with pytest.raises(InvariantError, match="no feature map"):
        run_personalization(samples, TrainConfig(iterations=2), "b")
    state, trace = run_personalization(samples, TrainConfig(iterations=2, alpha=0.0), "b")
    assert state.f_per is None and len(trace) == 2


def test_defaults_match_reported_settings():
    config = TrainConfig()
    assert config.learning_rate == 5e-4
    assert config.iterations == 200
    assert config.alpha == 0.1
    weights = LossWeights()
    assert weights.neg_z == 0.1
    assert weights.dice == weights.bce == weights.cls == 1.0


def test_descent_on_bundled_benchmark(bench_dir):
    manifest = load_manifest(bench_dir / "manifest.tsv")
    samples = load_samples(manifest, "train")
    state, trace = run_personalization(samples, TrainConfig(), manifest.personal_class_name)
    assert np.isfinite(trace).all()
    assert np.mean(trace[-10:]) < np.mean(trace[:10])


# --- state files ---

def test_state_round_trip(tmp_path):
    _, state, _, _ = random_instance(0)
    path = tmp_path / "s.povp"
    save_state(state, path)
    back = load_state(path)
    np.testing.assert_array_equal(back.t_per, state.t_per)
    np.testing.assert_array_equal(back.w_z, state.w_z)
    np.testing.assert_array_equal(back.w_m, state.w_m)
    np.testing.assert_array_equal(back.f_per, state.f_per)
    assert back.b_m == state.b_m and back.alpha == state.alpha
    assert back.k == state.k and back.negative_enabled == state.negative_enabled


def test_state_round_trip_without_visual(tmp_path):
    _, state, _, _ = random_instance(0)
    state = replace(state, f_per=None, alpha=0.0, negative_enabled=False)
    path = tmp_path / "s.povp"
    save_state(state, path)
    back = load_state(path)
    assert back.f_per is None and not back.negative_enabled


def test_state_save_deterministic(tmp_path):
    _, state, _, _ = random_instance(1)
    a, b = tmp_path / "a.povp", tmp_path / "b.povp"
    save_state(state, a)
    save_state(state, b)
    assert a.read_bytes() == b.read_bytes()


def test_state_format_errors(tmp_path):
    _, state, _, _ = random_instance(0)
    path = tmp_path / "s.povp"
    save_state(state, path)
    blob = path.read_bytes()

    path.write_bytes(b"XXXX" + blob[4:])
    with pytest.raises(BadMagicError):
        load_state(path)

    path.write_bytes(blob[:30])
    with pytest.raises(TruncatedPayloadError):
        load_state(path)

    path.write_bytes(blob + b"\x01")
    with pytest.raises(FormatError):
        load_state(path)


@pytest.mark.parametrize("field", ["alpha", "t_per", "w_z", "w_m", "b_m", "f_per"])
def test_non_finite_state_field_rejected(tmp_path, field):
    _, state, _, _ = random_instance(0)
    path = tmp_path / "s.povp"
    save_state(state, path)
    d, n = state.t_per.size, state.w_z.size
    offsets = {"alpha": 14, "t_per": 26, "w_z": 26 + 8 * d,
               "w_m": 26 + 8 * (d + n), "b_m": 26 + 8 * (d + 2 * n),
               "f_per": 26 + 8 * (d + 2 * n + 1)}
    blob = bytearray(path.read_bytes())
    blob[offsets[field]:offsets[field] + 8] = struct.pack("<d", float("nan"))
    path.write_bytes(bytes(blob))
    with pytest.raises(FormatError, match=f"{re.escape(str(path))}: .* {field}$"):
        load_state(path)


def test_state_snapshot_compatibility(tmp_path):
    snapshot, state, _, _ = random_instance(0)
    build_forward(snapshot, state)
    bad = FrozenSnapshot(t_open=snapshot.t_open[:, :4],
                         z_open=snapshot.z_open[:, :4],
                         m_open=snapshot.m_open,
                         vocab_names=snapshot.vocab_names,
                         logit_scale=1.0)
    with pytest.raises(InvariantError):
        build_forward(bad, state)
