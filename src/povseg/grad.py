"""Analytic reverse-mode gradients of the total loss, and their verifier.

The computation graph is small and fixed, so the chain rule is written out
by hand: interpolation -> text augmentation -> similarity -> column softmax
-> personal-channel composition -> per-pixel normalization, plus the sigmoid
branch of the negative mask. Each loss term returns its own derivative
(``losses.total_loss``), so this module holds no clamp. ``finite_diff``
re-evaluates the loss with central differences and is the contract
``backward`` is checked against.

Only the state's ``TRAINED`` fields receive gradients; every frozen tensor is
left untouched.
"""

from __future__ import annotations

from dataclasses import dataclass, fields, replace

import numpy as np

from .errors import InvariantError
from .head import COVERAGE_EPS, ForwardCache, PersonalState, build_forward, check_finite
from .losses import LossBreakdown, LossWeights, total_loss
from .snapshot import FrozenSnapshot

# The contract: backward within GRADCHECK_TOL relative error of finite_diff
# at step GRADCHECK_EPS.
GRADCHECK_EPS = 1e-4
GRADCHECK_TOL = 1e-5


@dataclass
class Gradients:
    """dL/d of each trained ``PersonalState`` field; init sets every other one."""
    t_per: np.ndarray
    w_z: np.ndarray
    w_m: np.ndarray
    b_m: float


TRAINED = tuple(f.name for f in fields(Gradients))


def _composition_row(cache: ForwardCache, scale: np.ndarray) -> np.ndarray:
    """Row k of dL/dC given ``scale`` = dL/d(M C[k]): ``sum_p scale(p) M(p, :)``.

    Columns n < N sum over the snapshot's m_open and column j over m_neg, so
    the (N+1)-channel bank M is never built. The sums over pixels use einsum,
    not tensordot: OpenBLAS splits a long tensordot sum across threads, so its
    bits would depend on the thread count, and einsum does not call BLAS. It
    casts a binary32 bank through its buffer, in the same pixel order, so the
    bank is never promoted whole.
    """
    row = np.einsum("ij,ijn->n", scale, cache.snapshot.m_open)
    if cache.j is None:
        return row
    return np.append(row, np.einsum("ij,ij->", scale, cache.m_neg))


def backward(snapshot: FrozenSnapshot, state: PersonalState, gt: np.ndarray,
             weights: LossWeights) -> tuple[LossBreakdown, Gradients]:
    """Forward pass plus exact gradients of the weighted total loss."""
    cache = build_forward(snapshot, state)  # checks S, C and m_neg
    check_finite("forward", cache.q_per)
    breakdown, gq_per, gc_j, gm_loss = total_loss(cache, gt, weights)
    check_finite("loss", breakdown.total)
    check_finite("loss-to-q", gq_per)
    k, j = cache.k, cache.j

    # Per-pixel normalization q_per = M C[k] / coverage (uniform fallback has no grad).
    covered = cache.coverage > COVERAGE_EPS
    scale = np.where(covered, gq_per / np.where(covered, cache.coverage, 1.0), 0.0)
    check_finite("normalize", scale)

    # Composition reads only row k of C; the uniformity loss reads column j.
    gc = np.zeros_like(cache.c)
    gc[k] = _composition_row(cache, scale)
    if j is not None:
        gc[:, j] += gc_j
    check_finite("composition", gc)

    # Column softmax.
    colsum = (gc * cache.c).sum(axis=0, keepdims=True)
    gs = cache.c * (gc - colsum)

    # Similarity S = tau T Z^T: only row k of T and row j of Z are trained.
    tau = snapshot.logit_scale
    g_t_eff = tau * (gs[k] @ cache.z_full)
    g_z_neg = None if j is None else tau * (gs[:, j] @ cache.t_full)
    check_finite("similarity", g_t_eff, g_z_neg)

    grads = Gradients(t_per=(1.0 - state.alpha) * g_t_eff, w_z=np.zeros_like(state.w_z),
                      w_m=np.zeros_like(state.w_m), b_m=0.0)
    if j is not None:
        gm_neg = scale * (cache.c[k, j] - cache.q_per)
        gm_neg += gm_loss
        ga = gm_neg * cache.m_neg * (1.0 - cache.m_neg)
        g_m = np.einsum("ij,ijn->n", ga, snapshot.m_open)  # einsum: see _composition_row
        grads = replace(grads, w_z=snapshot.z_open @ g_z_neg, w_m=g_m, b_m=float(ga.sum()))
    check_finite("negative-branch", *(getattr(grads, name) for name in TRAINED))
    return breakdown, grads


def _loss_at(snapshot: FrozenSnapshot, state: PersonalState, gt: np.ndarray,
             weights: LossWeights) -> float:
    return total_loss(build_forward(snapshot, state), gt, weights)[0].total


def finite_diff(snapshot: FrozenSnapshot, state: PersonalState, gt: np.ndarray,
                weights: LossWeights, eps: float = GRADCHECK_EPS) -> Gradients:
    """Central-difference gradients, one coordinate at a time."""

    def central(name: str) -> np.ndarray | float:
        base = np.asarray(getattr(state, name), dtype=np.float64)

        def probe(i: tuple, step: float) -> float:
            shifted = base.copy()
            shifted[i] += step
            # shifted[()] is the array itself, or a 0-d one's scalar.
            return _loss_at(snapshot, replace(state, **{name: shifted[()]}), gt, weights)

        out = np.zeros_like(base)
        for i in np.ndindex(base.shape):  # a 0-d b_m yields the one index ()
            out[i] = (probe(i, eps) - probe(i, -eps)) / (2.0 * eps)
        return out[()]

    return Gradients(**{name: central(name) for name in TRAINED})


def relative_errors(analytic: Gradients, numeric: Gradients) -> dict[str, float]:
    """Per-parameter max of |a - f| / max(|a|, |f|, 1e-8)."""

    def err(name: str) -> float:
        a = np.asarray(getattr(analytic, name), dtype=np.float64)
        f = np.asarray(getattr(numeric, name), dtype=np.float64)
        denom = np.maximum(np.maximum(np.abs(a), np.abs(f)), 1e-8)
        return float((np.abs(a - f) / denom).max())

    return {name: err(name) for name in TRAINED}


def random_instance(seed: int, v: int = 5, d: int = 8, n: int = 6,
                    h: int = 16, w: int = 16):
    """Seeded generic problem instance for gradient verification."""
    rng = np.random.default_rng(seed)
    snapshot = FrozenSnapshot(
        t_open=rng.normal(size=(v, d)) * 0.6,
        z_open=rng.normal(size=(n, d)) * 0.6,
        m_open=rng.uniform(0.02, 0.98, size=(h, w, n)),
        vocab_names=[f"class_{i:02d}" for i in range(v)],
        logit_scale=1.5,
    )
    gt = (rng.uniform(size=(h, w)) < 0.4).astype(np.uint8)
    gt[0, 0] = 1
    gt[-1, -1] = 0
    state = PersonalState(
        t_per=rng.normal(size=d) * 0.5,
        w_z=rng.normal(size=n) * 0.4,
        w_m=rng.normal(size=n) * 0.4,
        b_m=float(rng.normal()) * 0.3,
        k=v,
        alpha=0.25,
        f_per=rng.normal(size=d) * 0.5,
        negative_enabled=True,
    )
    return snapshot, state, gt, LossWeights()


@dataclass
class GradcheckReport:
    seed: int
    errors: dict[str, float]

    @property
    def max_error(self) -> float:
        return max(self.errors.values())

    @property
    def passed(self) -> bool:
        return self.max_error <= GRADCHECK_TOL

    def summary(self) -> str:
        detail = "  ".join(f"{k}={v:.3e}" for k, v in self.errors.items())
        status = "PASS" if self.passed else "FAIL"
        return (f"gradcheck seed={self.seed} {status} "
                f"max_rel_err={self.max_error:.3e} tol={GRADCHECK_TOL:.1e}  [{detail}]")


def gradcheck(seed: int) -> GradcheckReport:
    """Analytic vs central-difference gradients on a seeded ``random_instance``."""
    if seed < 0:
        raise InvariantError(f"gradcheck seed must be >= 0, got {seed}")
    snapshot, state, gt, weights = random_instance(seed)
    _, analytic = backward(snapshot, state, gt, weights)
    numeric = finite_diff(snapshot, state, gt, weights)
    return GradcheckReport(seed=seed, errors=relative_errors(analytic, numeric))
