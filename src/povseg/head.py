"""Forward pipeline: personal text row, negative mask branch, composition.

The frozen model composes mask proposals with per-proposal class
probabilities: ``S = tau * T Z^T``, column softmax ``C``, then
``P(p, v) = sum_n M(p, n) C[v, n]``. Personalization appends one learnable
text row (index ``k = V``) and, when the negative branch is enabled, one
derived mask embedding ``z_neg = w_z Z_open`` (column ``j = N``) and one
derived mask channel ``m_neg = sigmoid(M_open w_m + b_m)``.

Decoding composes P one TILE x TILE block of pixels at a time (``predict``).
Mask proposals are localized, so most of ``M_open`` is exactly 0. Each block
is multiplied only by the proposals that are nonzero somewhere in it, plus
``m_neg``. With one BLAS thread that gives the same bits as the full
product: OpenBLAS computes each element of a gemm as one FMA chain over the
channels, in channel order, and an exact-zero term leaves that chain
unchanged. This was verified on OpenBLAS only. It is also why no block is
one pixel: numpy sends a one-row product to gemv, which sums in another order.

A loaded mask bank is binary32 (see ``snapshot``), and every product with it
is computed in float64 without a float64 copy of the whole bank. ``predict``
promotes each tile's slice. ``negative_mask`` and ``q_per`` multiply
BANK_ROWS pixel rows at a time through ``_bank_product``, which numpy
computes one pixel row per gemv either way, so the bits equal those of the
whole bank's product and do not depend on the bank's type.

All functions are pure; ``build_forward`` is the one personalized pass, for
training and decoding alike, and a ForwardCache belongs to a single evaluation.
Both forward passes refuse a non-finite ``S``, ``C`` or ``m_neg`` with
``NonFiniteError`` at stage ``"forward"``, so no decode and no training step
reads one.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import InvariantError, NonFiniteError
from .snapshot import FrozenSnapshot

# Per-pixel mass below this uses the uniform-class fallback.
COVERAGE_EPS = 1e-12
# Pixel rows per promoted block of the bank. Eight rows of a backbone bank
# (128 pixels x 100 channels in float64, 0.8 MB) stay in a core's L2 cache:
# on a Xeon with 2 MiB of L2 per core, blocks of 16 rows made backbone
# training about 3% slower end to end.
BANK_ROWS = 8


@dataclass(frozen=True)
class PersonalState:
    """Trainable personalization parameters plus frozen injection vector."""

    t_per: np.ndarray                 # (D,)
    w_z: np.ndarray                   # (N,)
    w_m: np.ndarray                   # (N,)
    b_m: float
    k: int                            # personal vocabulary index (= V)
    alpha: float = 0.0                # visual interpolation weight
    f_per: np.ndarray | None = None   # (D,) frozen masked visual embedding
    negative_enabled: bool = True

    def __post_init__(self) -> None:
        if self.t_per.ndim != 1 or self.w_z.ndim != 1 or self.w_m.ndim != 1:
            raise InvariantError("state vectors must be 1-D")
        if self.w_z.shape != self.w_m.shape:
            raise InvariantError("w_z and w_m must have equal length")
        if not 0.0 <= self.alpha <= 1.0:
            raise InvariantError(f"alpha {self.alpha} outside [0, 1]")
        if self.f_per is None and self.alpha != 0.0:
            raise InvariantError("alpha must be 0 without a visual embedding")
        if self.f_per is not None and self.f_per.shape != self.t_per.shape:
            raise InvariantError("f_per dimension differs from t_per")


@dataclass(frozen=True)
class ForwardCache:
    """Intermediates of one forward pass; the frozen pass fills the first five."""

    snapshot: FrozenSnapshot         # frozen inputs: m_open and its coverage
    t_full: np.ndarray               # (V+1, D) or (V, D) frozen
    z_full: np.ndarray               # (N+1, D) or (N, D)
    s: np.ndarray                    # similarity logits
    c: np.ndarray                    # column-stochastic class probabilities
    m_neg: np.ndarray | None = None  # (H, W) negative mask, None if disabled
    k: int | None = None             # personal class index, None for frozen
    j: int | None = None             # negative column/channel index

    # Computed on first read, so decoding, which reads neither, never builds them.
    @cached_property
    def coverage(self) -> np.ndarray:  # (H, W) sum_n M(p, n) = sum_v P(p, v)
        if self.m_neg is None:
            return self.snapshot.coverage
        return self.snapshot.coverage + self.m_neg

    @cached_property
    def q_per(self) -> np.ndarray:  # (H, W) personal channel Q[..., k]
        row = self.c[self.k]
        mass = _bank_product(self.snapshot.m_open, row[:self.snapshot.num_proposals])
        if self.m_neg is not None:
            mass += self.m_neg * row[self.j]
        covered = self.coverage > COVERAGE_EPS
        return np.where(covered, mass / np.where(covered, self.coverage, 1.0),
                        1.0 / self.c.shape[0])


def check_finite(stage: str, *arrays) -> None:
    """Raise ``NonFiniteError(stage)`` if an array or scalar, not None, holds NaN or inf."""
    for arr in arrays:
        if arr is not None and not np.isfinite(arr).all():
            raise NonFiniteError(stage)


# The stage functions below trust their shapes: build_forward checks the state
# against the snapshot once, for both training and decoding.

def _bank_product(m_open: np.ndarray, vec: np.ndarray) -> np.ndarray:
    """``m_open @ vec`` in float64, promoting BANK_ROWS pixel rows of the bank at a time."""
    out = np.empty(m_open.shape[:2])
    for start in range(0, m_open.shape[0], BANK_ROWS):
        rows = slice(start, start + BANK_ROWS)
        np.matmul(m_open[rows].astype(np.float64, copy=False), vec, out=out[rows])
    return out


def negative_mask(m_open: np.ndarray, w_m: np.ndarray, b_m: float) -> np.ndarray:
    """Sigmoid of a 1x1 combination over proposal channels."""
    return sigmoid(_bank_product(m_open, w_m) + b_m)


def sigmoid(x: np.ndarray) -> np.ndarray:
    """Overflow-free logistic: ``exp`` only ever sees ``-|x|``."""
    e = np.exp(-np.abs(x))
    return np.where(x >= 0, 1.0 / (1.0 + e), e / (1.0 + e))


def similarity(t_full: np.ndarray, z_full: np.ndarray, logit_scale: float) -> np.ndarray:
    return logit_scale * (t_full @ z_full.T)


def class_probs(s: np.ndarray) -> np.ndarray:
    """Per-column softmax with max subtraction."""
    shifted = s - s.max(axis=0, keepdims=True)
    e = np.exp(shifted)
    return e / e.sum(axis=0, keepdims=True)


def predict(snapshot: FrozenSnapshot, c: np.ndarray,
            m_neg: np.ndarray | None = None) -> np.ndarray:
    """Label map of the snapshot's masks, then ``m_neg`` if given, composed with C.

    Each pixel takes the argmax of ``P = M C^T``; ties break to the smallest
    class index. C is column-stochastic, so ``M.sum(axis=2)`` is the pixel's
    total mass, and dividing P by that positive number would not change the
    argmax. Pixels whose mass is at most COVERAGE_EPS fall back to a uniform
    distribution, whose argmax is class 0.

    P is composed one tile of ``snapshot.tiles`` at a time, against the
    tile's active proposals and the ``m_neg`` channel (see the module
    docstring), so no H x W x channels array is built.
    """
    n = snapshot.num_proposals
    coverage = snapshot.coverage if m_neg is None else snapshot.coverage + m_neg
    labels = np.zeros(snapshot.grid_shape, dtype=np.intp)
    for rows, cols, active in snapshot.tiles:
        bank = snapshot.m_open[rows, cols][:, :, active]
        if m_neg is not None:
            bank = np.concatenate([bank, m_neg[rows, cols, None]], axis=2)
            active = np.append(active, n)
        if active.size:
            h, w, k = bank.shape
            p = bank.reshape(h * w, k) @ c[:, active].T
            labels[rows, cols] = p.argmax(axis=1).reshape(h, w)
    return np.where(coverage > COVERAGE_EPS, labels, 0)


def decode(cache: ForwardCache) -> np.ndarray:
    """Label map of a forward pass, composing every class."""
    return predict(cache.snapshot, cache.c, cache.m_neg)


def build_forward(snapshot: FrozenSnapshot, state: PersonalState,
                  partner_z: np.ndarray | None = None) -> ForwardCache:
    """Run the personalized pipeline for training and decoding: C, M and m_neg.

    The only check of a state against a snapshot, each of which checked
    itself when it was built: the state must match the embedding dimension,
    put its personal row at ``k = V`` and carry exactly the snapshot's
    proposal count, ``len(state.w_z)``.

    ``partner_z`` is the ``z_open`` of an image scored side by side with this
    one. The pair shares one negative column, the mean of ``w_z Z`` over both
    banks; every other column, and ``m_neg``, depends on this image alone.
    """
    if state.t_per.shape[0] != snapshot.embed_dim:
        raise InvariantError(
            f"state dim {state.t_per.shape[0]} != snapshot dim {snapshot.embed_dim}")
    if state.k != snapshot.vocab_size:
        raise InvariantError(
            f"personal index {state.k} != vocabulary size {snapshot.vocab_size}")
    n = snapshot.num_proposals
    if n != state.w_z.shape[0]:
        raise InvariantError(
            f"snapshot has {n} proposals, state expects {state.w_z.shape[0]}")
    if partner_z is not None and partner_z.shape != snapshot.z_open.shape:
        raise InvariantError(
            f"partner embeddings {partner_z.shape} differ from {snapshot.z_open.shape}")
    # The personal row: t_per, with f_per interpolated in when training set alpha > 0.
    t_eff = state.t_per if state.f_per is None else (
        state.alpha * state.f_per + (1.0 - state.alpha) * state.t_per)
    t_full = np.vstack([snapshot.t_open, t_eff[None, :]])

    if state.negative_enabled:
        z_neg = state.w_z @ snapshot.z_open
        if partner_z is not None:
            z_neg = (z_neg + state.w_z @ partner_z) / 2
        z_full = np.vstack([snapshot.z_open, z_neg[None, :]])
        m_neg = negative_mask(snapshot.m_open, state.w_m, state.b_m)
        j = n
    else:
        z_full = snapshot.z_open
        m_neg = None
        j = None

    s = similarity(t_full, z_full, snapshot.logit_scale)
    c = class_probs(s)
    check_finite("forward", s, c, m_neg)
    return ForwardCache(snapshot=snapshot, t_full=t_full, z_full=z_full, s=s,
                        c=c, m_neg=m_neg, k=state.k, j=j)


def build_frozen_forward(snapshot: FrozenSnapshot) -> ForwardCache:
    """Run the unmodified pipeline (no personal row, no negative branch)."""
    s = similarity(snapshot.t_open, snapshot.z_open, snapshot.logit_scale)
    c = class_probs(s)
    check_finite("forward", s, c)
    return ForwardCache(snapshot=snapshot, t_full=snapshot.t_open,
                        z_full=snapshot.z_open, s=s, c=c)
