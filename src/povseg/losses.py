"""Training objectives: segmentation triple plus the two negative-branch terms.

The personal channel ``q_per = Q[..., k]`` carries the soft dice and binary
cross-entropy terms against the ground-truth mask, the recognition
cross-entropy supervises foreground pixels only, the negative embedding is
pushed toward a uniform distribution over non-personal vocabulary entries,
and the negative mask is trained on the complement of the ground truth.
"""

from __future__ import annotations

from dataclasses import dataclass

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
        for name in ("dice", "bce", "cls", "neg_z", "neg_m"):
            value = getattr(self, name)
            if not (np.isfinite(value) and value >= 0):
                raise InvariantError(f"loss weight {name} must be finite and nonnegative, "
                                     f"got {value}")


@dataclass
class LossBreakdown:
    dice: float
    bce: float
    cls: float
    neg_z: float
    neg_m: float
    total: float


def dice_loss(prob: np.ndarray, gt: np.ndarray) -> float:
    if prob.shape != gt.shape:
        raise InvariantError(f"shape mismatch {prob.shape} vs {gt.shape}")
    g = gt.astype(np.float64)
    inter = float((prob * g).sum())
    return 1.0 - (2.0 * inter + DICE_EPS) / (float(prob.sum()) + float(g.sum()) + DICE_EPS)


def bce_loss(prob: np.ndarray, gt: np.ndarray) -> float:
    if prob.shape != gt.shape:
        raise InvariantError(f"shape mismatch {prob.shape} vs {gt.shape}")
    g = gt.astype(np.float64)
    p = np.clip(prob, PROB_CLAMP, 1.0 - PROB_CLAMP)
    return float(np.mean(-g * np.log(p) - (1.0 - g) * np.log(1.0 - p)))


def cls_loss(prob: np.ndarray, gt: np.ndarray) -> float:
    """Mean over foreground pixels of -log prob; 0 on empty foreground."""
    if prob.shape != gt.shape:
        raise InvariantError(f"shape mismatch {prob.shape} vs {gt.shape}")
    fg = gt.astype(bool)
    if not fg.any():
        return 0.0
    return float(np.mean(-np.log(np.clip(prob[fg], PROB_CLAMP, 1.0))))


def neg_z_loss(c: np.ndarray, j: int, k: int) -> float:
    """Uniformity loss over non-personal rows of the negative column.

    Minimum is ln(V_np) with V_np non-personal entries, attained when the
    column spreads all mass equally over rows other than ``k``.
    """
    col = np.clip(np.delete(c[:, j], k), PROB_CLAMP, 1.0)
    return float(np.mean(-np.log(col)))


def neg_m_loss(m_neg: np.ndarray, gt: np.ndarray) -> float:
    """BCE of the negative mask against the complement of the ground truth."""
    return bce_loss(m_neg, 1 - gt.astype(np.int64))


def total_loss(cache: ForwardCache, gt: np.ndarray,
               weights: LossWeights) -> LossBreakdown:
    weights.validate()
    if cache.k is None:
        raise InvariantError("total_loss needs a personalized forward pass")
    dice = dice_loss(cache.q_per, gt)
    bce = bce_loss(cache.q_per, gt)
    cls = cls_loss(cache.q_per, gt)
    if cache.j is not None:
        neg_z = neg_z_loss(cache.c, cache.j, cache.k)
        neg_m = neg_m_loss(cache.m_neg, gt)
    else:
        neg_z = neg_m = 0.0
    total = (weights.dice * dice + weights.bce * bce + weights.cls * cls
             + weights.neg_z * neg_z + weights.neg_m * neg_m)
    return LossBreakdown(dice=dice, bce=bce, cls=cls, neg_z=neg_z,
                         neg_m=neg_m, total=total)
