import math
import re
from dataclasses import replace

import numpy as np
import pytest

from povseg.errors import InvariantError
from povseg.grad import random_instance
from povseg.head import build_forward
from povseg.losses import (
    PROB_CLAMP,
    LossWeights,
    bce_loss,
    cls_loss,
    dice_loss,
    neg_m_loss,
    neg_z_loss,
    total_loss,
)

rng = np.random.default_rng(5)

# Central-difference step, and probes that sit on both sides of both clamp
# edges, at 0 and 1, and inside; each lies at least 50 steps from an edge.
FD_EPS = 1e-9
PROBES = np.array([0.0, 0.5 * PROB_CLAMP, 4 * PROB_CLAMP, 0.3, 0.7,
                   1.0 - 4 * PROB_CLAMP, 1.0 - 0.5 * PROB_CLAMP, 1.0])
PROB = np.stack([PROBES, PROBES])  # every probe under both labels
GT = np.stack([np.zeros(8, np.uint8), np.ones(8, np.uint8)])
TERMS = {
    "dice": (lambda x, w: dice_loss(x, GT, w), PROB),
    "bce": (lambda x, w: bce_loss(x, GT, w), PROB),
    "cls": (lambda x, w: cls_loss(x, GT, w), PROB),
    "cls_empty_foreground": (lambda x, w: cls_loss(x, np.zeros_like(GT), w), PROB),
    # column j=0 of C; row k=3 is excluded from the loss
    "neg_z": (lambda x, w: neg_z_loss(x[:, None], 0, 3, w), PROBES),
    "neg_m": (lambda x, w: neg_m_loss(x, GT, w), PROB),
}


def test_dice_perfect_overlap():
    gt = (rng.uniform(size=(6, 6)) < 0.5).astype(np.uint8)
    assert dice_loss(gt.astype(float), gt)[0] <= 1e-6


def test_dice_disjoint():
    gt = np.zeros((4, 4), dtype=np.uint8)
    gt[:2] = 1
    pred = 1.0 - gt
    assert dice_loss(pred, gt)[0] == pytest.approx(1.0, abs=1e-6)


def test_dice_half_overlap_closed_form():
    # gt covers 8 pixels; prediction covers 8 pixels, 4 of them inside gt:
    # 1 - (2*4)/(8+8) = 0.5
    gt = np.zeros((4, 4), dtype=np.uint8)
    gt[0] = 1
    gt[1] = 1
    pred = np.zeros((4, 4))
    pred[1] = 1.0
    pred[2] = 1.0
    assert dice_loss(pred, gt)[0] == pytest.approx(0.5, abs=1e-6)


def test_bce_uniform_half():
    gt = (rng.uniform(size=(5, 5)) < 0.5).astype(np.uint8)
    assert bce_loss(np.full((5, 5), 0.5), gt)[0] == pytest.approx(math.log(2.0), rel=1e-12)


def test_bce_perfect_after_clamp():
    gt = (rng.uniform(size=(5, 5)) < 0.5).astype(np.uint8)
    assert bce_loss(gt.astype(float), gt)[0] <= 1e-6


def test_bce_single_pixel():
    gt = np.array([[1]], dtype=np.uint8)
    assert bce_loss(np.array([[0.25]]), gt)[0] == pytest.approx(math.log(4.0), rel=1e-12)


def test_shape_transpose_symmetry():
    gt = (rng.uniform(size=(3, 5)) < 0.5).astype(np.uint8)
    pred = rng.uniform(size=(3, 5))
    assert dice_loss(pred, gt)[0] == pytest.approx(dice_loss(pred.T, gt.T)[0], rel=1e-14)
    assert bce_loss(pred, gt)[0] == pytest.approx(bce_loss(pred.T, gt.T)[0], rel=1e-14)


def test_cls_cases():
    # all foreground mass on the personal class
    q = np.zeros((2, 2, 4))
    q[..., 3] = 1.0
    gt = np.ones((2, 2), dtype=np.uint8)
    assert cls_loss(q[..., 3], gt)[0] == pytest.approx(0.0, abs=1e-12)

    q = np.full((2, 2, 4), 0.25)
    assert cls_loss(q[..., 3], gt)[0] == pytest.approx(math.log(4.0), rel=1e-12)

    # two foreground pixels with probabilities 0.5 and 0.25
    q = np.full((1, 2, 4), 0.25)
    q[0, 0, 3] = 0.5
    assert cls_loss(q[..., 3], np.ones((1, 2), dtype=np.uint8))[0] == pytest.approx(
        (math.log(2.0) + math.log(4.0)) / 2.0, rel=1e-12)

    # degenerate: empty foreground
    assert cls_loss(q[..., 3], np.zeros((1, 2), dtype=np.uint8))[0] == 0.0


def test_neg_z_uniform_minimum():
    # V_np = 2 non-personal rows with all mass spread equally
    c = np.array([[0.5], [0.5], [0.0]])
    assert neg_z_loss(c, 0, 2)[0] == pytest.approx(math.log(2.0), rel=1e-9)


def test_neg_z_jensen_strictness():
    k = 3
    for _ in range(25):
        logits = rng.normal(size=4) * 2
        col = np.exp(logits)
        col /= col.sum()
        value = neg_z_loss(col[:, None], 0, k)[0]
        if col[k] > 1e-6:
            assert value > math.log(3.0)
        # global bound for every valid column
        assert value >= math.log(3.0) - 1e-9


def test_neg_m_cases():
    gt = (rng.uniform(size=(4, 4)) < 0.5).astype(np.uint8)
    assert neg_m_loss((1.0 - gt).astype(float), gt)[0] <= 1e-6
    assert neg_m_loss(np.full((4, 4), 0.5), gt)[0] == pytest.approx(math.log(2.0), rel=1e-12)
    # predicting the mask itself is maximally wrong: saturates the clamp
    assert neg_m_loss(gt.astype(float), gt)[0] >= math.log(1.0 / 1e-7) - 1e-6


@pytest.mark.parametrize("term, value", [
    ("dice", -1.0), ("bce", -1.0), ("neg_m", float("nan")), ("dice", float("inf"))])
def test_weights_validation(term, value):
    message = f"loss weight {term} must be finite and nonnegative, got {value}"
    with pytest.raises(InvariantError, match=re.escape(message)):
        LossWeights(**{term: value})


def test_total_loss_projections():
    snapshot, state, gt, _ = random_instance(0)
    cache = build_forward(snapshot, state)

    zero = total_loss(cache, gt, LossWeights(0, 0, 0, 0, 0))[0]
    assert zero.total == 0.0

    only_dice = total_loss(cache, gt, LossWeights(1, 0, 0, 0, 0))[0]
    assert only_dice.total == pytest.approx(only_dice.dice, abs=1e-15)


def test_total_loss_equals_weighted_sum_of_parts():
    snapshot, state, gt, _ = random_instance(1)
    cache = build_forward(snapshot, state)
    weights = LossWeights(0.7, 1.3, 2.0, 0.4, 3.0)
    breakdown = total_loss(cache, gt, weights)[0]

    q_per = cache.q_per
    parts = (weights.dice * dice_loss(q_per, gt)[0]
             + weights.bce * bce_loss(q_per, gt)[0]
             + weights.cls * cls_loss(q_per, gt)[0]
             + weights.neg_z * neg_z_loss(cache.c, cache.j, cache.k)[0]
             + weights.neg_m * neg_m_loss(cache.m_neg, gt)[0])
    assert breakdown.total == pytest.approx(parts, abs=1e-12)


def test_total_loss_continuous_in_parameters():
    snapshot, state, gt, weights = random_instance(2)
    base = total_loss(build_forward(snapshot, state), gt, weights)[0].total
    direction = rng.normal(size=state.t_per.shape)
    direction /= np.linalg.norm(direction)
    slopes = []
    for delta in (1e-3, 1e-4, 1e-5):
        moved_state = replace(state, t_per=state.t_per + delta * direction)
        moved = total_loss(build_forward(snapshot, moved_state), gt, weights)[0].total
        slopes.append(abs(moved - base) / delta)
    # secant slopes stay bounded as the step shrinks (local Lipschitz)
    assert max(slopes) < 1e3
    assert slopes[2] < 10 * slopes[0] + 1.0


@pytest.mark.parametrize("term", list(TERMS))
def test_derivative_matches_central_differences(term):
    loss, x = TERMS[term]
    weight = 3.0
    _, grad = loss(x, weight)
    numeric = np.zeros_like(x)
    for i in np.ndindex(x.shape):
        hi, lo = x.copy(), x.copy()
        hi[i] += FD_EPS
        lo[i] -= FD_EPS
        numeric[i] = weight * (loss(hi, 1.0)[0] - loss(lo, 1.0)[0]) / (2 * FD_EPS)
    np.testing.assert_allclose(grad, numeric, rtol=1e-5, atol=1e-6)
