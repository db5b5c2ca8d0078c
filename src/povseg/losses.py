"""Training objectives: segmentation triple plus the two negative-branch terms.

The personal channel ``q_per = Q[..., k]`` carries the soft dice and binary
cross-entropy terms against the ground-truth mask, the recognition
cross-entropy supervises foreground pixels only, the negative embedding is
pushed toward a uniform distribution over non-personal vocabulary entries,
and the negative mask is trained on the complement of the ground truth.

Each term returns its value and ``weight`` times its derivative with respect
to its input; a clamped entry passes no gradient.
"""

from __future__ import annotations

from dataclasses import dataclass, fields

import numpy as np

from .errors import InvariantError
from .head import ForwardCache

DICE_EPS = 1e-6
PROB_CLAMP = 1e-7


@dataclass
class LossWeights:
    dice: float = 1.0
    bce: float = 1.0
    cls: float = 1.0
    neg_z: float = 0.1
    neg_m: float = 500.0

    def validate(self) -> None:
        for name in TERMS:
            value = getattr(self, name)
            if not (np.isfinite(value) and value >= 0):
                raise InvariantError(f"loss weight {name} must be finite and nonnegative, "
                                     f"got {value}")


# The weighted loss terms, in the order total_loss adds them.
TERMS = tuple(f.name for f in fields(LossWeights))


@dataclass
class LossBreakdown:
    dice: float
    bce: float
    cls: float
    neg_z: float
    neg_m: float
    total: float


def _check_shapes(prob: np.ndarray, gt: np.ndarray) -> None:
    if prob.shape != gt.shape:
        raise InvariantError(f"shape mismatch {prob.shape} vs {gt.shape}")


def dice_loss(prob: np.ndarray, gt: np.ndarray,
              weight: float = 1.0) -> tuple[float, np.ndarray]:
    _check_shapes(prob, gt)
    g = gt.astype(np.float64)
    num = 2.0 * float((prob * g).sum()) + DICE_EPS
    denom = float(prob.sum()) + float(g.sum()) + DICE_EPS
    return 1.0 - num / denom, weight * (num / denom ** 2 - 2.0 * g / denom)


def bce_loss(prob: np.ndarray, gt: np.ndarray,
             weight: float = 1.0) -> tuple[float, np.ndarray]:
    _check_shapes(prob, gt)
    g = gt.astype(np.float64)
    p = np.clip(prob, PROB_CLAMP, 1.0 - PROB_CLAMP)
    value = float(np.mean(-g * np.log(p) - (1.0 - g) * np.log(1.0 - p)))
    return value, weight * (p == prob) * (-g / p + (1.0 - g) / (1.0 - p)) / g.size


def cls_loss(prob: np.ndarray, gt: np.ndarray,
             weight: float = 1.0) -> tuple[float, np.ndarray]:
    """Mean over foreground pixels of -log prob; 0 on empty foreground."""
    _check_shapes(prob, gt)
    g = gt.astype(np.float64)
    n_fg = float(g.sum())
    if n_fg == 0:
        return 0.0, np.zeros_like(prob)
    p = np.maximum(prob, PROB_CLAMP)
    value = float(np.mean(-np.log(p[gt.astype(bool)])))
    return value, weight * (p == prob) * (-g / p) / n_fg


def neg_z_loss(c: np.ndarray, j: int, k: int,
               weight: float = 1.0) -> tuple[float, np.ndarray]:
    """Uniformity loss over non-personal rows of the negative column.

    Minimum is ln(V_np) with V_np non-personal entries, attained when the
    column spreads all mass equally over rows other than ``k``. The
    derivative is with respect to column ``j`` and is 0 at row ``k``.
    """
    p = np.maximum(c[:, j], PROB_CLAMP)
    rest = np.delete(p, k)
    grad = np.where(p == c[:, j], -1.0 / (rest.size * p), 0.0)
    grad[k] = 0.0
    return float(np.mean(-np.log(rest))), weight * grad


def neg_m_loss(m_neg: np.ndarray, gt: np.ndarray,
               weight: float = 1.0) -> tuple[float, np.ndarray]:
    """BCE of the negative mask against the complement of the ground truth."""
    return bce_loss(m_neg, 1 - gt.astype(np.int64), weight)


def total_loss(cache: ForwardCache, gt: np.ndarray, weights: LossWeights
               ) -> tuple[LossBreakdown, np.ndarray, np.ndarray | None, np.ndarray | None]:
    """Weighted loss of a personalized pass and its derivatives.

    Returns the breakdown and the derivatives of its total with respect to
    ``q_per``, column ``j`` of ``C`` and ``m_neg`` (the last two are None
    without the negative branch). ``weights`` are taken as valid;
    ``TrainConfig.validate`` checks them once per run.
    """
    if cache.k is None:
        raise InvariantError("total_loss needs a personalized forward pass")
    dice, g_q_per = dice_loss(cache.q_per, gt, weights.dice)
    bce, g_term = bce_loss(cache.q_per, gt, weights.bce)
    g_q_per += g_term
    cls, g_term = cls_loss(cache.q_per, gt, weights.cls)
    g_q_per += g_term
    del g_term  # one H x W array fewer alive while the negative terms run
    if cache.j is not None:
        neg_z, g_c_j = neg_z_loss(cache.c, cache.j, cache.k, weights.neg_z)
        neg_m, g_m_neg = neg_m_loss(cache.m_neg, gt, weights.neg_m)
    else:
        neg_z = neg_m = 0.0
        g_c_j = g_m_neg = None
    terms = dict(dice=dice, bce=bce, cls=cls, neg_z=neg_z, neg_m=neg_m)
    total = 0.0
    for name in TERMS:  # plain left-to-right adds; sum() compensates from Python 3.12
        total += getattr(weights, name) * terms[name]
    return LossBreakdown(**terms, total=total), g_q_per, g_c_j, g_m_neg
