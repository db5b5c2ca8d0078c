"""Frozen-backbone snapshot model, its binary format, masks, manifests and samples.

A snapshot captures everything the segmentation head needs from one image:
the open-vocabulary text bank ``t_open`` (V x D), per-proposal mask
embeddings ``z_open`` (N x D), soft mask proposals ``m_open`` (H x W x N)
with entries in [0, 1], a logit scale, the vocabulary names, and optionally
an image feature map ``f`` (Hf x Wf x D) for visual-embedding extraction.

On disk everything floating is IEEE-754 binary32 (POVS format, little
endian). A loaded snapshot's ``t_open`` and ``z_open`` are promoted to
float64 in memory, the type decoding and training compute in. Its mask bank
and feature map, nearly all of its bytes, keep the file's binary32, as
``synth`` builds them. Promoting binary32 to float64 is exact, so each
consumer promotes only the pixel rows or gathered rows it reads, and sums
them in the same order as it would a float64 bank: its bits do not depend
on the bank's type. Every snapshot's arrays are read-only, however the
snapshot was built.

This module also holds the one reader and the one writer of both binary
formats, the snapshot here and the personal state (POVP) in ``personalize``.
Both loaders read the file through one handle, which they close however the
read ends, and share its rules: a header ``struct`` led by magic and
version, payloads read front to back, no trailing bytes, and every error
prefixed with the file's path, once, by the reader: a loader builds its
object inside the reader's block, so the object's own checks name the file
too. ``FrozenSnapshot`` and ``Sample`` check their rules when they are
built, so no invalid one exists.
"""

from __future__ import annotations

import os
import struct
from dataclasses import dataclass, field
from functools import cached_property
from pathlib import Path

import numpy as np

from .errors import (
    BadMagicError,
    FormatError,
    InvariantError,
    TruncatedPayloadError,
    VersionMismatchError,
)

MAGIC = b"POVS"
VERSION = 1
_FLAG_FEATURES = 0x01
# magic(4) + version(1) + flags(1) + 7 x u32 + f8 logit scale
_HEADER = struct.Struct("<4sBB7Id")
# Vocabulary names become report rows, so they may not hold a field or line break.
_NAME_BREAKS = "\t\r\n"
# Side of the square pixel blocks that head.predict composes one at a time.
TILE = 16
# Elements per read when a binary32 payload is promoted to float64.
READ_CHUNK = 1 << 17


@dataclass(frozen=True)
class FrozenSnapshot:
    t_open: np.ndarray            # (V, D)
    z_open: np.ndarray            # (N, D)
    m_open: np.ndarray            # (H, W, N), entries in [0, 1], binary32 when loaded
    vocab_names: list[str]
    logit_scale: float = 1.0
    features: np.ndarray | None = None   # (Hf, Wf, D), binary32 when loaded

    def __post_init__(self) -> None:
        if self.t_open.ndim != 2 or self.z_open.ndim != 2 or self.m_open.ndim != 3:
            raise InvariantError("t_open must be 2-D, z_open 2-D, m_open 3-D")
        v, d = self.t_open.shape
        n = self.z_open.shape[0]
        h, w = self.grid_shape
        if v == 0 or h == 0 or w == 0:
            raise InvariantError(f"empty snapshot: V={v}, grid {h}x{w}")
        if self.z_open.shape[1] != d:
            raise InvariantError(
                f"z_open dim {self.z_open.shape[1]} != embedding dim {d}")
        if self.m_open.shape[2] != n:
            raise InvariantError(
                f"m_open has {self.m_open.shape[2]} channels, expected {n}")
        if len(self.vocab_names) != v:
            raise InvariantError(
                f"{len(self.vocab_names)} vocab names for {v} text rows")
        for i, name in enumerate(self.vocab_names):
            if any(ch in name for ch in _NAME_BREAKS):
                raise InvariantError(f"vocab name {i} {name!r} contains a tab or line break")
        for arr, name in ((self.t_open, "t_open"), (self.z_open, "z_open")):
            if not np.isfinite(arr).all():
                raise InvariantError(f"non-finite value in {name}")
        if self.m_open.size:
            # min and max propagate NaN and reach any infinity, so one pass
            # each checks finiteness and range.
            lo, hi = self.m_open.min(), self.m_open.max()
            if not (np.isfinite(lo) and np.isfinite(hi)):
                raise InvariantError("non-finite value in m_open")
            if lo < 0.0 or hi > 1.0:
                raise InvariantError("m_open entries must lie in [0, 1]")
        if not (np.isfinite(self.logit_scale) and self.logit_scale > 0.0):
            raise InvariantError(f"logit scale must be positive, got {self.logit_scale}")
        if self.features is not None:
            if self.features.ndim != 3 or self.features.shape[2] != d:
                raise InvariantError("feature map must be (Hf, Wf, D)")
            hf, wf = self.features.shape[:2]
            if not (1 <= hf <= h and 1 <= wf <= w):
                raise InvariantError(
                    f"feature map {hf}x{wf} must lie within [1, {h}] x [1, {w}]")
            if not np.isfinite(self.features).all():
                raise InvariantError("non-finite value in features")
        # Read-only however the snapshot was built, so that no in-place write
        # can leave ``coverage`` stale or change a snapshot an evaluator shares;
        # set only once the checks pass, so a refused build leaves them writable.
        for arr in (self.t_open, self.z_open, self.m_open, self.features):
            if arr is not None:
                arr.setflags(write=False)

    @property
    def vocab_size(self) -> int:
        return self.t_open.shape[0]

    @property
    def embed_dim(self) -> int:
        return self.t_open.shape[1]

    @property
    def num_proposals(self) -> int:
        return self.m_open.shape[2]

    @property
    def grid_shape(self) -> tuple[int, int]:
        return self.m_open.shape[0], self.m_open.shape[1]

    # Frozen with read-only arrays, so nothing changes under the cache: every
    # training step on this snapshot reads the same per-pixel proposal mass.
    @cached_property
    def coverage(self) -> np.ndarray:  # (H, W) sum_n m_open(p, n)
        out = self.m_open.sum(axis=2, dtype=np.float64)  # promoted through numpy's buffer
        out.setflags(write=False)
        return out

    # Shared, like coverage, by an image's frozen and personalized decodes.
    @cached_property
    def tiles(self) -> list[tuple[slice, slice, np.ndarray]]:
        """``(rows, cols, active)`` for each tile, row-major.

        ``active`` lists, in increasing order, the proposals with a nonzero
        entry in the tile.
        """
        h, w = self.grid_shape
        return [(rows, cols, np.flatnonzero(self.m_open[rows, cols].any(axis=(0, 1))))
                for rows in _tile_spans(h) for cols in _tile_spans(w)]


def _tile_spans(side: int) -> list[slice]:
    """Spans of TILE pixels along one grid side.

    A one-pixel remainder joins the last span, so that no tile is a single
    pixel unless the grid is: numpy sends a one-row product to BLAS gemv,
    which sums in another order than gemm (see ``head``).
    """
    starts = list(range(0, max(side - 1, 1), TILE))
    return [slice(a, b) for a, b in zip(starts, starts[1:] + [side])]


def save_snapshot(snapshot: FrozenSnapshot, path: str | Path) -> None:
    """Write a snapshot in POVS format. Byte-deterministic for equal input."""
    v, d = snapshot.t_open.shape
    n = snapshot.z_open.shape[0]
    h, w = snapshot.grid_shape
    has_f = snapshot.features is not None
    hf, wf = snapshot.features.shape[:2] if has_f else (0, 0)

    # Names are encoded before the file opens, so a refused one writes nothing.
    vocab = [struct.pack("<I", v)]
    for name in snapshot.vocab_names:
        raw = name.encode("utf-8")
        if len(raw) > 0xFFFF:
            raise InvariantError(f"vocab name too long ({len(raw)} bytes)")
        vocab.append(struct.pack("<H", len(raw)) + raw)

    _write(path, _HEADER.pack(MAGIC, VERSION, _FLAG_FEATURES if has_f else 0,
                              v, d, n, h, w, hf, wf, float(snapshot.logit_scale)),
           (snapshot.t_open, snapshot.z_open, snapshot.m_open, snapshot.features),
           "<f4", b"".join(vocab))


def _write(path: str | Path, header: bytes, arrays: tuple[np.ndarray | None, ...],
           dtype: str, tail: bytes = b"") -> None:
    """Write ``header``, each array that is not None as ``dtype``, then ``tail``."""
    with Path(path).open("wb") as fh:
        fh.write(header)
        for arr in arrays:
            if arr is not None:
                # the array's own buffer when it is already C-ordered ``dtype``
                fh.write(np.ascontiguousarray(arr, dtype=dtype))
        fh.write(tail)


class _Reader:
    """A POVS or POVP file, or a mask, read front to back from its open handle.

    Use it in a ``with`` block, which closes the file however the read ends
    and puts the path in front of any ``FormatError`` or ``InvariantError``
    raised inside it, those of the object the loader builds there included.
    ``header`` checks the magic and version that lead the header ``struct``
    and returns its other fields. A payload kept at its file type (``raw``),
    such as a snapshot's mask bank and feature map, is read straight into its
    array. A binary32 payload promoted to float64 (``promoted``) is cast
    through the reader's one buffer of ``READ_CHUNK`` elements, so no copy of
    the file's bytes, whole or per payload, is held.
    """

    def __init__(self, path: Path):
        self.path = path
        self.fh = path.open("rb")
        self.size = os.fstat(self.fh.fileno()).st_size
        self.off = 0
        # One staging buffer per file: a buffer per payload would leave holes
        # in the heap that the next image's mask bank no longer fits.
        self.buf = np.empty(READ_CHUNK, "<f4")

    def __enter__(self) -> _Reader:
        return self

    def __exit__(self, kind, exc, tb) -> None:
        self.fh.close()
        if isinstance(exc, (FormatError, InvariantError)):
            raise type(exc)(f"{self.path}: {exc}") from exc

    def header(self, header: struct.Struct, magic: bytes, version: int) -> list:
        found, found_version, *fields = header.unpack(self.take(header.size))
        if found != magic:
            raise BadMagicError(f"bad magic {found!r}")
        if found_version != version:
            raise VersionMismatchError(f"version {found_version}, expected {version}")
        return fields

    def _advance(self, count: int) -> None:
        if self.off + count > self.size:
            raise TruncatedPayloadError(
                f"needed {count} bytes at offset {self.off}, file has {self.size}")
        self.off += count

    def take(self, count: int) -> bytearray:
        self._advance(count)
        return self._read_into(bytearray(count))

    def _read_into(self, buf):
        # A file that shrinks while it is read ends early here.
        if self.fh.readinto(buf) != memoryview(buf).nbytes:
            raise TruncatedPayloadError(f"file ended before offset {self.off}")
        return buf

    def skip(self, count: int) -> None:
        self._advance(count)
        self.fh.seek(self.off)

    def raw(self, count: int, dtype: str) -> np.ndarray:
        """``count`` values of ``dtype``, in an array of the file's own type."""
        self._advance(count * np.dtype(dtype).itemsize)  # before np.empty trusts count
        return self._read_into(np.empty(count, dtype))

    def promoted(self, count: int) -> np.ndarray:
        """``count`` binary32 values, cast to float64 a bounded chunk at a time."""
        self._advance(4 * count)
        out = np.empty(count, np.float64)
        # A signaling-NaN pattern warns on the cast; FrozenSnapshot names the field.
        with np.errstate(invalid="ignore"):
            for start in range(0, count, READ_CHUNK):
                chunk = self._read_into(self.buf[:count - start])
                out[start:start + chunk.size] = chunk
        return out

    def text(self, count: int) -> str:
        start = self.off
        try:
            return self.take(count).decode("utf-8")
        except UnicodeDecodeError as exc:
            raise FormatError(f"invalid UTF-8 at offset {start + exc.start}") from exc

    def finish(self) -> None:
        if self.off != self.size:
            raise FormatError(f"{self.size - self.off} trailing bytes")
        # Closed before the loader builds and checks its object: glibc's heap
        # layout, and so the peak RSS of a load, follows that order.
        self.fh.close()


def load_snapshot(path: str | Path) -> FrozenSnapshot:
    """Read and validate a POVS file."""
    path = Path(path)
    with _Reader(path) as rd:
        flags, v, d, n, h, w, hf, wf, logit_scale = rd.header(_HEADER, MAGIC, VERSION)
        has_f = bool(flags & _FLAG_FEATURES)
        if not has_f and (hf or wf):
            raise FormatError("feature dims set but feature flag clear")

        t_open = rd.promoted(v * d).reshape(v, d)
        z_open = rd.promoted(n * d).reshape(n, d)
        m_open = rd.raw(h * w * n, "<f4").reshape(h, w, n)
        features = rd.raw(hf * wf * d, "<f4").reshape(hf, wf, d) if has_f else None

        names = _read_vocab(rd, v)
        return FrozenSnapshot(t_open=t_open, z_open=z_open, m_open=m_open,
                              vocab_names=names, logit_scale=logit_scale, features=features)


def _read_vocab(rd: _Reader, v: int) -> list[str]:
    """The vocabulary block that closes a POVS file: its count ``v``, each name, then no byte."""
    (count,) = struct.unpack("<I", rd.take(4))
    if count != v:
        raise FormatError(f"vocab count {count} != V {v}")
    names = [rd.text(struct.unpack("<H", rd.take(2))[0]) for _ in range(count)]
    rd.finish()
    return names


def _load_vocab_names(path: Path) -> list[str]:
    """The vocabulary names of a POVS file, read without its arrays.

    The arrays are skipped one by one, in the order ``load_snapshot`` reads
    them, so a truncated file is refused with ``load_snapshot``'s message.
    """
    with _Reader(path) as rd:
        _, v, d, n, h, w, hf, wf, _ = rd.header(_HEADER, MAGIC, VERSION)
        # t_open, z_open, m_open and features; hf = wf = 0 when the file has no feature map
        for count in (v * d, n * d, h * w * n, hf * wf * d):
            rd.skip(4 * count)
        return _read_vocab(rd, v)


def _load_z_open(path: Path) -> np.ndarray:
    """The float64 ``z_open`` of a POVS file, read without the payloads around it."""
    with _Reader(path) as rd:
        _, v, d, n, *_ = rd.header(_HEADER, MAGIC, VERSION)
        rd.skip(4 * v * d)
        z_open = rd.promoted(n * d).reshape(n, d)
        if not np.isfinite(z_open).all():
            raise InvariantError("non-finite value in z_open")
    z_open.setflags(write=False)
    return z_open


def save_mask(mask: np.ndarray, path: str | Path) -> None:
    """Write a binary mask as raw H*W bytes of 0/1."""
    arr = np.asarray(mask)
    if arr.ndim != 2:
        raise InvariantError("mask must be 2-D")
    if not np.isin(arr, (0, 1)).all():
        raise InvariantError("mask values must be 0 or 1")
    Path(path).write_bytes(arr.astype(np.uint8).tobytes())


def load_mask(path: str | Path, h: int, w: int) -> np.ndarray:
    """Read a raw binary mask and check it against the expected grid."""
    path = Path(path)
    with _Reader(path) as rd:  # the size first: a huge file is refused unread
        if rd.size != h * w:
            raise FormatError(f"{rd.size} bytes, expected {h * w} for {h}x{w}")
        arr = rd.raw(h * w, "u1").reshape(h, w)
        bad = (arr > 1)
        if bad.any():
            raise FormatError(f"mask byte {int(arr[bad][0])} at flat index "
                              f"{int(np.flatnonzero(bad)[0])} is not 0/1")
    return arr


def downsample_mask(mask: np.ndarray, hf: int, wf: int) -> np.ndarray:
    """Area-average a binary mask onto an (hf, wf) grid, threshold at 0.5.

    Exact fractional-overlap pooling, so non-divisible resolutions are fine;
    pooled values of exactly 0.5 round to foreground.
    """
    h, w = mask.shape
    if hf <= 0 or wf <= 0:
        raise InvariantError(f"target resolution {hf}x{wf} must be positive")
    if hf > h or wf > w:
        raise InvariantError(f"target {hf}x{wf} exceeds source {h}x{w}")
    pooled = _overlap(hf, h) @ mask.astype(np.float64) @ _overlap(wf, w).T
    return (pooled >= 0.5).astype(np.uint8)


def _overlap(n_out: int, n_in: int) -> np.ndarray:
    """(n_out, n_in) matrix of source-cell coverage fractions per target cell."""
    scale = n_in / n_out
    weights = np.zeros((n_out, n_in))
    for i in range(n_out):
        lo, hi = i * scale, (i + 1) * scale
        for j in range(int(np.floor(lo)), min(int(np.ceil(hi)), n_in)):
            weights[i, j] = min(hi, j + 1) - max(lo, j)
    return weights / scale


@dataclass
class ManifestEntry:
    snapshot: Path
    mask: Path | None
    split: str        # "train" | "test"
    polarity: str     # "positive" | "negative"
    class_name: str


@dataclass
class Manifest:
    entries: list[ManifestEntry] = field(default_factory=list)

    @property
    def personal_class_name(self) -> str:
        return self.entries[0].class_name

    def split(self, name: str) -> list[ManifestEntry]:
        entries = [e for e in self.entries if e.split == name]
        if not entries:
            raise InvariantError(f"manifest has no '{name}' entries")
        return entries


def load_manifest(path: str | Path) -> Manifest:
    """Parse a tab-separated manifest; paths resolve against its directory."""
    path = Path(path)
    base = path.parent
    try:
        text = path.read_bytes().decode("utf-8")
    except UnicodeDecodeError as exc:
        raise FormatError(f"{path}: invalid UTF-8 at offset {exc.start}") from exc
    entries = []
    for lineno, line in enumerate(text.splitlines(), start=1):
        if not line.strip():
            continue
        fields = line.split("\t")
        if len(fields) != 5:
            raise FormatError(f"{path}:{lineno}: expected 5 tab-separated fields")
        snap_rel, mask_rel, split, polarity, class_name = fields
        if split not in ("train", "test"):
            raise FormatError(f"{path}:{lineno}: unknown split {split!r}")
        if polarity not in ("positive", "negative"):
            raise FormatError(f"{path}:{lineno}: unknown polarity {polarity!r}")
        snap_path = base / snap_rel
        mask_path = None if mask_rel == "-" else base / mask_rel
        if mask_path is None and (split, polarity) != ("test", "negative"):
            raise FormatError(f"{path}:{lineno}: {split} {polarity} entry without a mask")
        if (split, polarity) == ("train", "negative"):
            raise FormatError(f"{path}:{lineno}: train entries must be positive")
        if not snap_path.is_file():
            raise FormatError(f"{path}:{lineno}: missing snapshot {snap_path}")
        if mask_path is not None and not mask_path.is_file():
            raise FormatError(f"{path}:{lineno}: missing mask {mask_path}")
        entries.append(ManifestEntry(snap_path, mask_path, split, polarity, class_name))
    if not entries:
        raise FormatError(f"{path}: empty manifest")
    names = {e.class_name for e in entries}
    if len(names) != 1:
        raise FormatError(f"{path}: multiple personal class names {sorted(names)}")
    return Manifest(entries)


@dataclass(frozen=True)
class Sample:
    """One labelled image: a snapshot, its personal mask and its polarity."""
    snapshot: FrozenSnapshot
    personal_mask: np.ndarray | None   # required on positive samples
    polarity: str                      # "positive" | "negative"
    partner_z: np.ndarray | None = None  # z_open of the image scored beside this one
    mask_path: Path | None = None        # the file personal_mask was read from
    snapshot_path: Path | None = None    # the file snapshot was read from

    def __post_init__(self) -> None:
        if self.polarity not in ("positive", "negative"):
            raise InvariantError(f"unknown polarity {self.polarity!r}")
        mask = self.personal_mask
        if self.polarity == "positive" and mask is None:
            raise InvariantError("positive sample lacks a personal mask")
        if mask is not None and mask.shape != self.snapshot.grid_shape:
            raise InvariantError(
                f"mask shape {mask.shape} != grid {self.snapshot.grid_shape}")


def load_sample(entry: ManifestEntry) -> Sample:
    """Read one manifest entry's snapshot and, when it names one, its mask."""
    snap = load_snapshot(entry.snapshot)
    mask = None if entry.mask is None else load_mask(entry.mask, *snap.grid_shape)
    return Sample(snapshot=snap, personal_mask=mask, polarity=entry.polarity,
                  mask_path=entry.mask, snapshot_path=entry.snapshot)


def load_samples(manifest: Manifest, split: str) -> list[Sample]:
    """Every entry of ``split``, read in manifest order."""
    return [load_sample(entry) for entry in manifest.split(split)]
