import json
import subprocess
import sys
from dataclasses import fields, replace

import numpy as np
import pytest
from dense_bank import full_bank
from output_tree import child_env

import povseg.grad as grad_mod
from povseg.errors import InvariantError, NonFiniteError
from povseg.grad import (
    GRADCHECK_TOL,
    TRAINED,
    backward,
    finite_diff,
    gradcheck,
    random_instance,
    relative_errors,
)
from povseg.head import (
    COVERAGE_EPS,
    PersonalState,
    build_forward,
    build_frozen_forward,
    decode,
)
from povseg.losses import TERMS, LossBreakdown, LossWeights, total_loss
from povseg.metrics import evaluate_samples
from povseg.personalize import TrainConfig, run_personalization
from povseg.snapshot import FrozenSnapshot, Sample


def test_trained_and_term_lists_are_dataclass_fields():
    """A step moves exactly TRAINED; LossWeights weighs, and LossBreakdown reports, TERMS."""
    assert set(TRAINED) <= {f.name for f in fields(PersonalState)}
    snapshot, _, gt, _ = random_instance(0)
    features = np.random.default_rng(0).normal(size=(4, 4, snapshot.embed_dim))
    samples = [Sample(replace(snapshot, features=features), gt, "positive")]
    config = TrainConfig(iterations=1)
    name = snapshot.vocab_names[1]
    one, _ = run_personalization(samples, config, name)
    two, _ = run_personalization(samples, replace(config, iterations=2), name)
    assert one.f_per is not None and one.alpha == config.alpha  # set at init
    changed = {f.name for f in fields(PersonalState)
               if not np.array_equal(getattr(one, f.name), getattr(two, f.name))}
    assert changed == set(TRAINED)

    assert TERMS == tuple(f.name for f in fields(LossWeights))
    assert tuple(f.name for f in fields(LossBreakdown)) == TERMS + ("total",)


def test_zero_weights_zero_gradients():
    snapshot, state, gt, _ = random_instance(0)
    _, grads = backward(snapshot, state, gt, LossWeights(0, 0, 0, 0, 0))
    assert not grads.t_per.any()
    assert not grads.w_z.any()
    assert not grads.w_m.any()
    assert grads.b_m == 0.0


def test_mask_of_another_shape_refused():
    snapshot, state, gt, weights = random_instance(0, h=16, w=12)
    with pytest.raises(InvariantError,
                       match=r"^mask shape \(12, 16\) != personal channel shape \(16, 12\)$"):
        backward(snapshot, state, gt.T, weights)


def test_alpha_one_kills_text_gradient():
    snapshot, state, gt, weights = random_instance(0)
    state = replace(state, alpha=1.0)
    _, grads = backward(snapshot, state, gt, weights)
    np.testing.assert_array_equal(grads.t_per, np.zeros_like(state.t_per))


def test_text_gradient_scales_with_one_minus_alpha():
    # forcing f_per = t_per keeps the forward pass identical across alphas,
    # isolating the chain-rule factor (1 - alpha) on the text gradient
    snapshot, state, gt, weights = random_instance(3)
    state = replace(state, f_per=state.t_per.copy(), alpha=0.0)
    _, g0 = backward(snapshot, state, gt, weights)
    _, g4 = backward(snapshot, replace(state, alpha=0.4), gt, weights)
    np.testing.assert_allclose(g4.t_per, 0.6 * g0.t_per, rtol=1e-12)


def test_backward_matches_finite_differences():
    snapshot, state, gt, weights = random_instance(0)
    _, analytic = backward(snapshot, state, gt, weights)
    numeric = finite_diff(snapshot, state, gt, weights, eps=1e-4)
    errors = relative_errors(analytic, numeric)
    assert max(errors.values()) <= 1e-5


def test_backward_matches_fd_without_negative_branch():
    snapshot, state, gt, weights = random_instance(4)
    state = replace(state, negative_enabled=False)
    _, analytic = backward(snapshot, state, gt, weights)
    numeric = finite_diff(snapshot, state, gt, weights, eps=1e-4)
    assert max(relative_errors(analytic, numeric).values()) <= 1e-5
    assert not analytic.w_z.any() and not analytic.w_m.any()


_GRADIENT_BYTES = """
import numpy as np
from povseg.grad import backward, random_instance
snapshot, state, gt, weights = random_instance(0, n=33, h=128, w=128)
_, g = backward(snapshot, state, gt, weights)
print(b"".join(np.asarray(x).tobytes() for x in vars(g).values()).hex())
"""


def test_backward_bytes_independent_of_blas_threads():
    """One and two OpenBLAS threads give the same gradient bytes.

    The sums over pixels reach a size (128x128 grid, N = 33) at which OpenBLAS
    splits a gemv across threads and so changes its summation order.
    """
    hexes = {subprocess.run([sys.executable, "-c", _GRADIENT_BYTES], env=child_env(threads),
                            capture_output=True, text=True, check=True).stdout
             for threads in (1, 2)}
    assert len(hexes) == 1


# Each bank shape is (N, grid side): N = 257 passes numpy's pairwise-sum block
# of 128 in the coverage sum, and W * N of the larger grids passes the size at
# which OpenBLAS splits a gemv across two threads.
_DTYPE_BYTES = """
import json
from dataclasses import replace
import numpy as np
from povseg.grad import backward, random_instance
from povseg.head import build_forward, build_frozen_forward, decode

def outputs(snapshot, state, gt, weights, partner_z):
    cache = build_forward(snapshot, state)
    paired = build_forward(snapshot, state, partner_z)
    frozen = build_frozen_forward(snapshot)
    _, g = backward(snapshot, state, gt, weights)
    return {"coverage": snapshot.coverage, "S": cache.s, "C": cache.c,
            "m_neg": cache.m_neg, "q_per": cache.q_per, "labels": decode(cache),
            "paired_S": paired.s, "paired_C": paired.c, "paired_labels": decode(paired),
            "frozen_S": frozen.s, "frozen_C": frozen.c, "frozen_labels": decode(frozen),
            **{"grad_" + name: value for name, value in vars(g).items()}}

differing = {}
# (47, 343, 43): a shape where numpy casting a binary32 operand inside @ gives other bits
for v, d, n, side in ((5, 8, 6, 16), (5, 8, 100, 128), (5, 8, 257, 40), (47, 343, 43, 24)):
    snapshot, state, gt, weights = random_instance(0, v=v, d=d, n=n, h=side, w=side)
    binary32 = {name: getattr(snapshot, name).astype(np.float32)
                for name in ("t_open", "z_open", "m_open")}
    promoted = {name: arr.astype(np.float64) for name, arr in binary32.items()}
    partner = np.random.default_rng(1).normal(size=snapshot.z_open.shape).astype(np.float32)
    for negative in (True, False):
        case = replace(state, negative_enabled=negative)
        f4 = outputs(replace(snapshot, **binary32), case, gt, weights, partner)
        f8 = outputs(replace(snapshot, **promoted), case, gt, weights,
                     partner.astype(np.float64))
        differing[f"{v},{d},{n},{negative}"] = [
            name for name in f4
            if np.asarray(f4[name]).tobytes() != np.asarray(f8[name]).tobytes()]
print(json.dumps(differing))
"""


@pytest.mark.parametrize("threads", [1, 2])
def test_binary32_bank_gives_the_bytes_of_its_promotion(threads):
    """A loaded binary32 snapshot and its float64 promotion decode and train alike.

    The binary32 side holds ``t_open``, ``z_open``, the mask bank and the
    partner's ``z_open`` in binary32. Coverage, S, C, m_neg, q_per, every
    label map and every gradient must have equal bytes, with the negative
    branch on and off, beside a partner and on the frozen pass, at one and
    at two OpenBLAS threads.
    """
    done = subprocess.run([sys.executable, "-c", _DTYPE_BYTES], env=child_env(threads),
                          capture_output=True, text=True, check=True)
    assert json.loads(done.stdout) == {f"{shape},{negative}": []
                                       for shape in ("5,8,6", "5,8,100", "5,8,257", "47,343,43")
                                       for negative in ("True", "False")}


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_backward_matches_finite_differences_on_a_binary32_bank(seed):
    snapshot, state, gt, weights = random_instance(seed)
    snapshot = replace(snapshot, m_open=snapshot.m_open.astype(np.float32))
    _, analytic = backward(snapshot, state, gt, weights)
    numeric = finite_diff(snapshot, state, gt, weights)
    assert max(relative_errors(analytic, numeric).values()) <= GRADCHECK_TOL


def _full_bank_step(cache, gt, weights):
    """q_per and row k of dL/dC from the concatenated (H, W, N+1) bank."""
    m = full_bank(cache)
    coverage = m.sum(axis=2)
    covered = coverage > COVERAGE_EPS
    q_per = np.where(covered, (m @ cache.c[cache.k]) / np.where(covered, coverage, 1.0),
                     1.0 / cache.c.shape[0])
    gq_per = total_loss(cache, gt, weights)[1]
    scale = np.where(covered, gq_per / np.where(covered, coverage, 1.0), 0.0)
    return q_per, scale, np.einsum("ij,ijn->n", scale, m)


@pytest.mark.parametrize("negative", [True, False])
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_training_step_matches_full_bank_oracle(seed, negative):
    snapshot, state, gt, weights = random_instance(seed)
    # a zeroed block puts pixels on m_neg alone, or on the uniform fallback
    m_open = snapshot.m_open.copy()
    m_open[:4, :4, :] = 0.0
    cache = build_forward(replace(snapshot, m_open=m_open),
                          replace(state, negative_enabled=negative))
    q_per, scale, row = _full_bank_step(cache, gt, weights)
    np.testing.assert_allclose(cache.q_per, q_per, rtol=1e-12, atol=0)
    np.testing.assert_allclose(grad_mod._composition_row(cache, scale), row,
                               rtol=1e-12, atol=0)
    on_fallback = (cache.q_per[:4, :4] == 1.0 / cache.c.shape[0]).all()
    assert on_fallback == (not negative)  # m_neg covers the block when it is on


def test_training_never_builds_the_full_bank(monkeypatch):
    caches = []

    def spy(*args, **kwargs):
        caches.append(build_forward(*args, **kwargs))
        return caches[-1]

    monkeypatch.setattr(grad_mod, "build_forward", spy)
    snapshot, state, gt, weights = random_instance(0)
    backward(snapshot, state, gt, weights)
    finite_diff(snapshot, replace(state, negative_enabled=False), gt, weights)
    assert len(caches) == 1 + 2 * (8 + 6 + 6 + 1)
    assert all("q_per" in vars(cache) for cache in caches)


def test_frozen_tensors_untouched():
    snapshot, state, gt, weights = random_instance(1)
    before = (snapshot.t_open.copy(), snapshot.z_open.copy(), snapshot.m_open.copy(),
              state.f_per.copy())
    for _ in range(3):
        backward(snapshot, state, gt, weights)
    np.testing.assert_array_equal(snapshot.t_open, before[0])
    np.testing.assert_array_equal(snapshot.z_open, before[1])
    np.testing.assert_array_equal(snapshot.m_open, before[2])
    np.testing.assert_array_equal(state.f_per, before[3])


def test_finite_diff_quadratic_stub(monkeypatch):
    """With the loss stubbed to ||theta||^2 the FD machinery returns 2*theta."""

    def quadratic(snapshot, state, gt, weights):
        return (float(state.t_per @ state.t_per) + float(state.w_z @ state.w_z)
                + float(state.w_m @ state.w_m) + state.b_m ** 2)

    monkeypatch.setattr(grad_mod, "_loss_at", quadratic)
    snapshot, state, gt, weights = random_instance(2)
    grads = finite_diff(snapshot, state, gt, weights, eps=1e-4)
    np.testing.assert_allclose(grads.t_per, 2 * state.t_per, atol=1e-8)
    np.testing.assert_allclose(grads.w_z, 2 * state.w_z, atol=1e-8)
    np.testing.assert_allclose(grads.w_m, 2 * state.w_m, atol=1e-8)
    assert grads.b_m == pytest.approx(2 * state.b_m, abs=1e-8)


def test_finite_diff_richardson_consistency():
    snapshot, state, gt, weights = random_instance(5)
    coarse = finite_diff(snapshot, state, gt, weights, eps=1e-4)
    fine = finite_diff(snapshot, state, gt, weights, eps=1e-5)
    assert max(relative_errors(coarse, fine).values()) <= 1e-4


def test_finite_diff_constant_loss_is_zero():
    snapshot, state, gt, _ = random_instance(6)
    grads = finite_diff(snapshot, state, gt, LossWeights(0, 0, 0, 0, 0))
    assert not grads.t_per.any() and grads.b_m == 0.0


def test_gradcheck_passes_and_reports():
    report = gradcheck(seed=0)
    assert report.passed
    assert tuple(report.errors) == TRAINED == ("t_per", "w_z", "w_m", "b_m")
    assert "PASS" in report.summary()


# random_instance(seed) for seeds 0-9: the total loss, then the L2 norm of the
# analytic gradient of each TRAINED field, in TRAINED order. Under OpenBLAS's
# Prescott kernels or numpy's dispatch held to baseline, these moved by at most
# 4.4e-16 relative; swapping any one of random_instance's seven scale factors
# from * to / moved some value of every seed by at least 5.5e-2.
_INSTANCE_PINS = [
    (353.55731994203273, 1.0438758399508141,
     0.7455061800514666, 25.987989091001747, 20.64595489501028),
    (348.5720172323079, 0.7217410318250247,
     0.7337841846370247, 66.36989390425121, 51.081391016721604),
    (400.1607068928838, 1.2338334558985322,
     1.0214216065279331, 142.3153984458656, 115.09291893115231),
    (365.9388530096128, 0.8737190948252377,
     2.0562077091808773, 65.79054529273114, 52.54567633718713),
    (351.60572426647843, 1.032226356619404,
     0.5207711831743999, 64.34245709393099, 51.049175576584034),
    (368.11311163668665, 1.188400186818789,
     0.6513023933353023, 56.24874073141766, 38.31766988252676),
    (373.2617212259296, 0.8418134810888313,
     0.34620741434284014, 85.98957235412107, 68.2795132061449),
    (354.91118970590264, 0.7782934725821286,
     0.6196536260286701, 56.50335415254167, 40.56312596782017),
    (332.92842347273023, 1.1519965418104454,
     0.7475773676264977, 74.26307600049752, 59.86128939817988),
    (365.87262598316096, 0.9716559132641872,
     0.3335725522052228, 111.12101826000243, 89.23933591245586),
]
_INSTANCE_RTOL = 1e-10


def test_random_instance_loss_and_gradients_are_pinned():
    """A change to the instance, the loss or its gradient fails here.

    gradcheck passes any change that moves a loss and its derivative together.
    """
    for seed, pinned in enumerate(_INSTANCE_PINS):
        snapshot, state, gt, weights = random_instance(seed)
        breakdown, grads = backward(snapshot, state, gt, weights)
        found = [breakdown.total, *(np.linalg.norm(getattr(grads, name)) for name in TRAINED)]
        np.testing.assert_allclose(found, pinned, rtol=_INSTANCE_RTOL, atol=0,
                                   err_msg=f"seed {seed}")


def test_corrupted_gradient_fails_check():
    snapshot, state, gt, weights = random_instance(0)
    _, analytic = backward(snapshot, state, gt, weights)
    numeric = finite_diff(snapshot, state, gt, weights)
    corrupted = replace(analytic, t_per=analytic.t_per + 0.1)
    assert max(relative_errors(corrupted, numeric).values()) > 1e-5


def test_non_finite_input_names_stage():
    snapshot, state, gt, weights = random_instance(0)
    state.t_per[0] = np.nan
    with pytest.raises(NonFiniteError) as excinfo:
        backward(snapshot, state, gt, weights)
    assert excinfo.value.stage == "forward"


def test_backward_rejects_bank_tiled_snapshots():
    snapshot, state, gt, weights = random_instance(0)
    from povseg.snapshot import FrozenSnapshot
    doubled = FrozenSnapshot(
        t_open=snapshot.t_open,
        z_open=np.vstack([snapshot.z_open, snapshot.z_open]),
        m_open=np.concatenate([snapshot.m_open, snapshot.m_open], axis=2),
        vocab_names=snapshot.vocab_names,
        logit_scale=snapshot.logit_scale,
    )
    from povseg.errors import InvariantError
    with pytest.raises(InvariantError):
        backward(doubled, state, gt, weights)


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_empty_proposal_changes_nothing(seed):
    """A proposal with no mass and zero w_z/w_m leaves labels, loss and gradients."""
    snapshot, state, gt, weights = random_instance(seed)
    n = snapshot.num_proposals
    z_extra = np.random.default_rng(seed + 100).normal(size=(1, snapshot.embed_dim))
    padded = FrozenSnapshot(
        t_open=snapshot.t_open,
        z_open=np.vstack([snapshot.z_open, z_extra]),
        m_open=np.concatenate([snapshot.m_open, np.zeros(snapshot.grid_shape + (1,))],
                              axis=2),
        vocab_names=snapshot.vocab_names,
        logit_scale=snapshot.logit_scale,
    )
    padded_state = replace(state, w_z=np.append(state.w_z, 0.0),
                           w_m=np.append(state.w_m, 0.0))
    np.testing.assert_array_equal(decode(build_frozen_forward(padded)),
                                  decode(build_frozen_forward(snapshot)))
    for negative in (True, False):
        np.testing.assert_array_equal(
            decode(build_forward(padded, replace(padded_state, negative_enabled=negative))),
            decode(build_forward(snapshot, replace(state, negative_enabled=negative))))
    loss, grads = backward(snapshot, state, gt, weights)
    padded_loss, padded_grads = backward(padded, padded_state, gt, weights)
    assert padded_loss.total == pytest.approx(loss.total, rel=1e-12, abs=0)
    for field, rows in (("t_per", slice(None)), ("w_z", slice(n)),
                        ("w_m", slice(n)), ("b_m", slice(None))):
        np.testing.assert_allclose(np.atleast_1d(getattr(padded_grads, field))[rows],
                                   np.atleast_1d(getattr(grads, field)), rtol=1e-12)


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_proposal_permutation_permutes_gradients(seed):
    """Reordering the proposals, with w_z/w_m alike, reorders only their gradients."""
    snapshot, state, gt, weights = random_instance(seed)
    perm = np.random.default_rng(seed + 200).permutation(snapshot.num_proposals)
    permuted = replace(snapshot, z_open=snapshot.z_open[perm],
                       m_open=snapshot.m_open[:, :, perm])
    loss, grads = backward(snapshot, state, gt, weights)
    p_loss, p_grads = backward(permuted, replace(state, w_z=state.w_z[perm],
                                                 w_m=state.w_m[perm]), gt, weights)
    assert p_loss.total == pytest.approx(loss.total, rel=1e-12, abs=0)
    for field, order in (("t_per", slice(None)), ("w_z", perm),
                         ("w_m", perm), ("b_m", slice(None))):
        np.testing.assert_allclose(np.atleast_1d(getattr(p_grads, field)),
                                   np.atleast_1d(getattr(grads, field))[order], rtol=1e-12)


def _decided(cache, margin=1e-9):
    """Pixels whose top two composed class scores differ by more than ``margin``."""
    top = np.sort(full_bank(cache) @ cache.c.T, axis=2)
    return top[..., -1] - top[..., -2] > margin


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_vocabulary_permutation_permutes_labels(seed):
    """Reordering the non-personal vocabulary relabels the maps and keeps iou_per.

    Float sums are reordered too, so labels are compared only on pixels whose
    top-two margin exceeds 1e-9; the number of pixels that drops is reported.
    """
    snapshot, state, gt, _ = random_instance(seed)
    v = snapshot.vocab_size
    perm = np.random.default_rng(seed + 300).permutation(v)
    permuted = replace(snapshot, t_open=snapshot.t_open[perm],
                       vocab_names=[snapshot.vocab_names[i] for i in perm])
    relabel = np.empty(v + 1, dtype=np.int64)
    relabel[perm] = np.arange(v)
    relabel[v] = v  # the personal row stays last
    dropped = 0
    for forward in (build_frozen_forward, lambda snap: build_forward(snap, state)):
        cache, p_cache = forward(snapshot), forward(permuted)
        keep = _decided(cache) & _decided(p_cache)
        dropped += int((~keep).sum())
        np.testing.assert_array_equal(decode(p_cache)[keep], relabel[decode(cache)][keep])
    print(f"seed {seed}: margin filter dropped {dropped} of {2 * gt.size} pixels")
    iou = [evaluate_samples([Sample(snap, gt, "positive")], "none", [state])[0].iou_per
           for snap in (snapshot, permuted)]
    assert iou[1] == iou[0]


def _no_negative_branch(snapshot, state, gt):
    return snapshot, replace(state, negative_enabled=False), gt


def _no_visual_embedding(snapshot, state, gt):
    return snapshot, replace(state, f_per=None, alpha=0.0), gt


def _visual_only(snapshot, state, gt):
    return snapshot, replace(state, alpha=1.0), gt


def _empty_foreground(snapshot, state, gt):
    # no foreground pixel, so the recognition (cls) term is zero
    return snapshot, state, np.zeros_like(gt)


def _uncovered_pixels(snapshot, state, gt):
    # with the negative branch off, a zeroed proposal block puts its pixels
    # on the uniform coverage fallback
    m_open = snapshot.m_open.copy()
    m_open[:4, :4, :] = 0.0
    return (replace(snapshot, m_open=m_open), replace(state, negative_enabled=False),
            gt)


def _saturated_negative_mask_high(snapshot, state, gt):
    # every m_neg rounds to 1, beyond the BCE clamp at 1 - PROB_CLAMP
    return snapshot, replace(state, b_m=40.0), gt


def _saturated_negative_mask_low(snapshot, state, gt):
    # every m_neg lies below the BCE clamp at PROB_CLAMP
    return snapshot, replace(state, b_m=-40.0), gt


@pytest.mark.parametrize("seed", [0, 1, 2])
@pytest.mark.parametrize("variant", [_no_negative_branch, _no_visual_embedding,
                                     _visual_only, _empty_foreground,
                                     _uncovered_pixels, _saturated_negative_mask_high,
                                     _saturated_negative_mask_low])
def test_gradcheck_unreached_branches(variant, seed):
    snapshot, state, gt, weights = random_instance(seed)
    snapshot, state, gt = variant(snapshot, state, gt)
    _, analytic = backward(snapshot, state, gt, weights)
    numeric = finite_diff(snapshot, state, gt, weights)
    assert max(relative_errors(analytic, numeric).values()) <= 1e-5
