"""Few-shot personalization: init, visual embedding, descent loop, state I/O.

Training is plain fixed-step gradient descent at batch size 1, cycling
through the K training samples in manifest order. There is no shuffling and
no adaptive optimizer, so a run is a pure function of its inputs and every
rerun reproduces the same trajectory bit for bit.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from .errors import FormatError, InvariantError, NonFiniteError
from .grad import TRAINED, backward
from .head import PersonalState, check_finite
from .losses import LossWeights
from .snapshot import FrozenSnapshot, Sample, _Reader, _write, downsample_mask

STATE_MAGIC = b"POVP"
STATE_VERSION = 1
_SFLAG_VISUAL = 0x01
_SFLAG_NEGATIVE = 0x02
_STATE_HEADER = struct.Struct("<4sBB2IdI")


@dataclass(frozen=True)
class TrainConfig:
    learning_rate: float = 5e-4
    iterations: int = 200
    alpha: float = 0.1
    negative_enabled: bool = True

    def __post_init__(self) -> None:
        if self.iterations < 1:
            raise InvariantError(f"iterations must be >= 1, got {self.iterations}")
        if not (np.isfinite(self.learning_rate) and self.learning_rate > 0):
            raise InvariantError(
                f"learning rate must be finite and positive, got {self.learning_rate}")
        if not 0.0 <= self.alpha <= 1.0:
            raise InvariantError(f"alpha {self.alpha} outside [0, 1]")


def init_state(snapshot: FrozenSnapshot, personal_class_name: str,
               config: TrainConfig) -> PersonalState:
    """Fresh state: personal embedding from the class's text row, zeros elsewhere."""
    if personal_class_name not in snapshot.vocab_names:
        raise InvariantError(
            f"personal class {personal_class_name!r} not in the snapshot vocabulary; "
            "cannot initialize the personal embedding")
    n = snapshot.num_proposals
    row = snapshot.t_open[snapshot.vocab_names.index(personal_class_name)]
    return PersonalState(t_per=row.astype(np.float64),
                         w_z=np.zeros(n), w_m=np.zeros(n), b_m=0.0,
                         k=snapshot.vocab_size, alpha=0.0, f_per=None,
                         negative_enabled=config.negative_enabled)


def compute_visual_embedding(samples: list[Sample]) -> np.ndarray:
    """Masked average of each feature map, averaged over samples.

    The mean vector is L2-normalized and rescaled to the mean text-row norm
    so the interpolation mixes commensurate magnitudes.
    """
    if not samples:
        raise InvariantError("no samples for the visual embedding")
    per_sample = []
    for idx, sample in enumerate(samples):
        features = sample.snapshot.features
        if features is None:
            where = sample.snapshot_path or f"sample {idx}"
            raise InvariantError(f"{where} has no feature map")
        hf, wf, _ = features.shape
        small = downsample_mask(sample.personal_mask, hf, wf).astype(bool)
        if not small.any():
            where = sample.mask_path or f"sample {idx}"
            raise InvariantError(
                f"{where}: mask has no foreground at feature resolution {hf}x{wf}")
        # A loaded map stays binary32: promote only the rows the mean reads.
        per_sample.append(features[small].astype(np.float64).mean(axis=0))
    pooled = np.mean(per_sample, axis=0)
    norm = float(np.linalg.norm(pooled))
    if norm == 0.0:
        raise InvariantError("masked visual embedding is the zero vector")
    target = float(np.linalg.norm(samples[0].snapshot.t_open, axis=1).mean())
    return pooled / norm * target


def run_personalization(samples: list[Sample], config: TrainConfig,
                        personal_class_name: str) -> tuple[PersonalState, list[float]]:
    """Gradient-descend the personal parameters over K positive training samples.

    The personal embedding starts from the text row of ``personal_class_name``
    in the first sample's vocabulary. ``f_per`` is computed, and injected, only
    when ``config.alpha > 0``. Every step weighs the loss terms by the
    default ``LossWeights``. Returns the final state and the per-step
    total-loss trace.
    """
    if not samples:
        raise InvariantError("empty training sample set")
    first = samples[0].snapshot
    state = init_state(first, personal_class_name, config)
    for idx, sample in enumerate(samples):
        snap = sample.snapshot
        if sample.polarity != "positive":
            raise InvariantError(f"sample {idx} is not a positive with a mask")
        if (snap.vocab_size, snap.embed_dim, snap.num_proposals, snap.vocab_names) != (
                first.vocab_size, first.embed_dim, first.num_proposals, first.vocab_names):
            where = sample.snapshot_path or f"sample {idx}"
            raise InvariantError(f"{where} disagrees on (V, D, N) or vocabulary names")

    if config.alpha > 0:
        state = replace(state, f_per=compute_visual_embedding(samples), alpha=config.alpha)

    trace: list[float] = []
    lr = config.learning_rate
    weights = LossWeights()
    # check_finite sees every array a step makes; numpy's warnings would repeat it.
    with np.errstate(over="ignore", invalid="ignore"):
        for step in range(config.iterations):
            sample = samples[step % len(samples)]
            try:
                breakdown, grads = backward(sample.snapshot, state, sample.personal_mask,
                                            weights)
                trace.append(breakdown.total)
                state = replace(state, **{name: getattr(state, name) - lr * getattr(grads, name)
                                          for name in TRAINED})
                # The next step's forward would catch an overflow, but not the last one.
                check_finite("update", *(getattr(state, name) for name in TRAINED))
            except NonFiniteError as exc:
                raise NonFiniteError(exc.stage, f"step {step}: {exc}") from exc
    return state, trace


def save_state(state: PersonalState, path: str | Path) -> None:
    """Write a POVP state file (binary64 payload, little endian)."""
    flags = 0
    if state.f_per is not None:
        flags |= _SFLAG_VISUAL
    if state.negative_enabled:
        flags |= _SFLAG_NEGATIVE
    d, n = state.t_per.shape[0], state.w_z.shape[0]
    _write(path, _STATE_HEADER.pack(STATE_MAGIC, STATE_VERSION, flags, d, n,
                                    float(state.alpha), state.k),
           (state.t_per, state.w_z, state.w_m, np.array([state.b_m]), state.f_per), "<f8")


def load_state(path: str | Path) -> PersonalState:
    """Read a POVP file; non-finite values are rejected as a format error."""
    path = Path(path)
    with _Reader(path) as rd:
        flags, d, n, alpha, k = rd.header(_STATE_HEADER, STATE_MAGIC, STATE_VERSION)
        t_per = rd.raw(d, "<f8")
        w_z = rd.raw(n, "<f8")
        w_m = rd.raw(n, "<f8")
        b_m = float(rd.raw(1, "<f8")[0])
        f_per = rd.raw(d, "<f8") if flags & _SFLAG_VISUAL else None
        rd.finish()
        for name, value in (("alpha", alpha), ("t_per", t_per), ("w_z", w_z),
                            ("w_m", w_m), ("b_m", b_m), ("f_per", f_per)):
            if value is not None and not np.isfinite(value).all():
                raise FormatError(f"non-finite value in {name}")
        return PersonalState(t_per=t_per, w_z=w_z, w_m=w_m, b_m=b_m, k=k, alpha=alpha,
                             f_per=f_per, negative_enabled=bool(flags & _SFLAG_NEGATIVE))
