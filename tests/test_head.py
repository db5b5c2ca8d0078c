import math
import re
import subprocess
import sys
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

from povseg.errors import InvariantError, NonFiniteError
from povseg.grad import random_instance
from povseg.head import (
    COVERAGE_EPS,
    PersonalState,
    build_forward,
    build_frozen_forward,
    class_probs,
    decode,
    negative_mask,
    predict,
    sigmoid,
    similarity,
)
from povseg.snapshot import TILE, FrozenSnapshot

from dense_bank import bank_snapshot, dense_labels, full_bank, tile_state
from output_tree import child_env

rng = np.random.default_rng(11)


def make_state(snapshot, **kw):
    d, n = snapshot.embed_dim, snapshot.num_proposals
    defaults = dict(t_per=rng.normal(size=d), w_z=rng.normal(size=n) * 0.3,
                    w_m=rng.normal(size=n) * 0.3, b_m=0.1,
                    k=snapshot.vocab_size, alpha=0.0, f_per=None,
                    negative_enabled=True)
    defaults.update(kw)
    return PersonalState(**defaults)


def personal_row(snapshot, **kw):
    """Row k of ``t_full``: the personal embedding ``build_forward`` uses."""
    state = make_state(snapshot, **kw)
    return build_forward(snapshot, state).t_full[state.k]


def negative_row(z, w_z):
    """Column j of ``z_full``: the negative embedding ``build_forward`` derives from z."""
    snapshot = FrozenSnapshot(t_open=np.ones((1, z.shape[1])), z_open=z,
                              m_open=np.full((2, 2, z.shape[0]), 0.5), vocab_names=["a"])
    cache = build_forward(snapshot, make_state(snapshot, w_z=w_z))
    return cache.z_full[cache.j]


def test_effective_embedding_endpoints(tiny_snapshot):
    t = rng.normal(size=4)
    f = rng.normal(size=4)
    np.testing.assert_array_equal(
        personal_row(tiny_snapshot, t_per=t, f_per=f, alpha=0.0), t)
    np.testing.assert_array_equal(
        personal_row(tiny_snapshot, t_per=t, f_per=f, alpha=1.0), f)
    np.testing.assert_allclose(personal_row(tiny_snapshot, t_per=t, f_per=f, alpha=0.1),
                               0.1 * f + 0.9 * t, rtol=0, atol=0)


def test_effective_embedding_validation(tiny_snapshot):
    # A PersonalState checks these rules when it is built, so build_forward never sees one.
    d = tiny_snapshot.embed_dim
    with pytest.raises(InvariantError, match="alpha must be 0 without a visual embedding"):
        make_state(tiny_snapshot, alpha=0.5)
    with pytest.raises(InvariantError, match=re.escape("alpha 1.5 outside [0, 1]")):
        make_state(tiny_snapshot, alpha=1.5, f_per=rng.normal(size=d))
    with pytest.raises(InvariantError, match="f_per dimension differs from t_per"):
        make_state(tiny_snapshot, alpha=0.5, f_per=rng.normal(size=d - 1))


def test_augment_text(tiny_snapshot):
    t_eff = rng.normal(size=4)
    out = build_forward(tiny_snapshot, make_state(tiny_snapshot, t_per=t_eff)).t_full
    assert out.shape == (4, 4)
    np.testing.assert_array_equal(out[:3], tiny_snapshot.t_open)
    np.testing.assert_array_equal(out[3], t_eff)


def test_augment_twice_refused(tiny_snapshot):
    state = make_state(tiny_snapshot)
    once = replace(tiny_snapshot, t_open=build_forward(tiny_snapshot, state).t_full,
                   vocab_names=tiny_snapshot.vocab_names + ["<personal>"])
    with pytest.raises(InvariantError):
        build_forward(once, state)


def test_negative_embedding_selection_and_mean():
    z = rng.normal(size=(4, 3))
    one_hot = np.zeros(4)
    one_hot[2] = 1.0
    np.testing.assert_array_equal(negative_row(z, one_hot), z[2])
    np.testing.assert_allclose(negative_row(z, np.full(4, 0.25)), z.mean(axis=0))


def test_negative_embedding_matches_dot_oracle(tiny_snapshot):
    z = rng.normal(size=(3, 2))
    w = rng.normal(size=3)
    expected = np.array([sum(w[n] * z[n, d] for n in range(3)) for d in range(2)])
    np.testing.assert_allclose(negative_row(z, w), expected, rtol=1e-15)
    n = tiny_snapshot.num_proposals
    with pytest.raises(InvariantError):
        build_forward(tiny_snapshot, make_state(tiny_snapshot, w_z=rng.normal(size=n + 1),
                                                w_m=rng.normal(size=n + 1)))


def test_negative_mask_zero_weights():
    m = rng.uniform(size=(3, 3, 2))
    mask = negative_mask(m, np.zeros(2), 0.0)
    np.testing.assert_array_equal(mask, np.full((3, 3), 0.5))


def test_negative_mask_monotone_in_bias():
    m = rng.uniform(size=(4, 4, 3))
    w = rng.normal(size=3)
    prev = negative_mask(m, w, -30.0)
    for b in (-5.0, 0.0, 5.0, 30.0):
        cur = negative_mask(m, w, b)
        assert (cur >= prev).all()
        prev = cur
    assert negative_mask(m, w, 60.0).min() > 1.0 - 1e-9


def test_negative_mask_matches_scalar_oracle():
    m = rng.uniform(size=(2, 2, 2))
    w = rng.normal(size=2)
    b = 0.3
    mask = negative_mask(m, w, b)
    for y in range(2):
        for x in range(2):
            z = w[0] * m[y, x, 0] + w[1] * m[y, x, 1] + b
            assert mask[y, x] == pytest.approx(1.0 / (1.0 + math.exp(-z)), rel=1e-14)


def test_sigmoid_matches_two_branch_form():
    """Bit for bit, the form that exponentiates each sign's entries separately."""
    x = np.concatenate([[-np.inf, -800.0, -40.0, -1e-300, -0.0, 0.0, 1e-300, 40.0,
                         800.0, np.inf, np.nan],
                        np.random.default_rng(5).normal(scale=20.0, size=4099)])
    expected = np.empty_like(x)
    pos = x >= 0
    expected[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    ex = np.exp(x[~pos])
    expected[~pos] = ex / (1.0 + ex)
    np.testing.assert_array_equal(sigmoid(x), expected)
    np.testing.assert_array_equal(sigmoid(x.reshape(-1, 10)), expected.reshape(-1, 10))


def test_similarity_identity_and_scaling():
    z = rng.normal(size=(3, 3))
    np.testing.assert_allclose(similarity(np.eye(3), z, 1.0), z.T)
    t = rng.normal(size=(2, 3))
    np.testing.assert_allclose(similarity(t, z, 2.0), 2.0 * similarity(t, z, 1.0))


def test_similarity_matches_triple_loop():
    t = rng.normal(size=(3, 2))
    z = rng.normal(size=(2, 2))
    s = similarity(t, z, 1.7)
    for i in range(3):
        for j in range(2):
            expected = 1.7 * sum(t[i, d] * z[j, d] for d in range(2))
            assert s[i, j] == pytest.approx(expected, rel=1e-14)


def test_class_probs_cases():
    c = class_probs(np.array([[3.0], [3.0]]))
    np.testing.assert_allclose(c, [[0.5], [0.5]])

    c = class_probs(np.array([[1000.0], [0.0]]))
    assert np.isfinite(c).all()
    assert c[0, 0] == pytest.approx(1.0)

    c = class_probs(np.array([[0.0], [math.log(2.0)]]))
    np.testing.assert_allclose(c[:, 0], [1.0 / 3.0, 2.0 / 3.0], rtol=1e-14)


def test_class_probs_columns_stochastic():
    s = rng.normal(size=(5, 7)) * 10
    c = class_probs(s)
    np.testing.assert_allclose(c.sum(axis=0), np.ones(7), atol=1e-9)
    assert (c > 0).all()


def oracle_q(m, c):
    """P / coverage from explicit sums, uniform where coverage <= COVERAGE_EPS."""
    p = np.einsum("hwn,vn->hwv", m, c)
    coverage = p.sum(axis=2, keepdims=True)
    covered = coverage > COVERAGE_EPS
    return np.where(covered, p / np.where(covered, coverage, 1.0), 1.0 / p.shape[2])


def test_predict_single_full_mask():
    c = class_probs(rng.normal(size=(3, 1)))
    m = np.ones((2, 2, 1))
    np.testing.assert_array_equal(predict(bank_snapshot(m), c),
                                  np.full((2, 2), c[:, 0].argmax()))


def test_predict_uniform_fallback():
    c = class_probs(np.array([[0.0], [0.0], [5.0]]))
    # class 2 wins P on every pixel, but mass at or below COVERAGE_EPS is uncovered
    m = np.array([[[COVERAGE_EPS]], [[0.0]], [[2 * COVERAGE_EPS]]])
    np.testing.assert_array_equal(predict(bank_snapshot(m), c), [[0], [0], [2]])


def test_predict_matches_sum_oracle():
    for seed in (0, 1, 2):
        snapshot, state = random_instance(seed)[:2]
        m_open = snapshot.m_open.copy()
        m_open[:4, :4, :] = 0.0
        snapshot = replace(snapshot, m_open=m_open)
        caches = [build_frozen_forward(snapshot), build_forward(snapshot, state),
                  build_forward(snapshot, replace(state, negative_enabled=False))]
        for cache in caches:
            labels = decode(cache)
            np.testing.assert_array_equal(labels,
                                          oracle_q(full_bank(cache), cache.c).argmax(axis=2))
            if cache.m_neg is None:
                np.testing.assert_array_equal(labels[:4, :4], 0)


def test_label_map_rules():
    m = np.ones((1, 1, 1))
    assert predict(bank_snapshot(m), np.array([[0.2], [0.8]]))[0, 0] == 1
    assert predict(bank_snapshot(m), np.array([[0.5], [0.5]]))[0, 0] == 0


def test_label_map_matches_scan_oracle():
    m = rng.uniform(size=(4, 4, 3))
    c = class_probs(rng.normal(size=(5, 3)))
    labels = predict(bank_snapshot(m), c)
    for y in range(4):
        for x in range(4):
            best, arg = -1.0, 0
            for v in range(5):
                p = sum(m[y, x, n] * c[v, n] for n in range(3))
                if p > best:
                    best, arg = p, v
            assert labels[y, x] == arg


def test_label_map_scale_invariant():
    m = rng.uniform(size=(3, 3, 4)) * 0.1  # so that m * 7.3 is a valid bank too
    c = class_probs(rng.normal(size=(5, 4)))
    np.testing.assert_array_equal(predict(bank_snapshot(m), c),
                                  predict(bank_snapshot(m * 7.3), c))


def localized_instance(seed, h, w):
    """random_instance whose proposals are boxes, with the first tile left empty."""
    snapshot, state = random_instance(seed, h=h, w=w)[:2]
    box_rng = np.random.default_rng(seed + 500)
    keep = np.zeros(snapshot.m_open.shape, dtype=bool)
    for n in range(snapshot.num_proposals):
        y, x = box_rng.integers(0, h), box_rng.integers(0, w)
        keep[y:y + box_rng.integers(2, 14), x:x + box_rng.integers(2, 14), n] = True
    m_open = np.where(keep, snapshot.m_open, 0.0)
    rows, cols, _ = snapshot.tiles[0]
    m_open[rows, cols] = 0.0
    return replace(snapshot, m_open=m_open), state


@pytest.mark.parametrize("h, w", [(5, 5), (17, 17), (30, 33), (33, 30)])
@pytest.mark.parametrize("seed", [0, 1])
def test_tiled_labels_match_dense_oracle(seed, h, w):
    snapshot, state = localized_instance(seed, h, w)
    assert snapshot.tiles[0][2].size == 0
    partner_z = rng.normal(size=snapshot.z_open.shape)
    caches = [build_frozen_forward(snapshot), build_forward(snapshot, state),
              build_forward(snapshot, replace(state, negative_enabled=False)),
              build_forward(snapshot, state, partner_z)]
    for cache in caches:
        labels = decode(cache)
        np.testing.assert_array_equal(labels, dense_labels(full_bank(cache), cache.c))
        if cache.m_neg is None:
            rows, cols, _ = snapshot.tiles[0]
            np.testing.assert_array_equal(labels[rows, cols], 0)


_TILE_BITS = """
from dataclasses import replace
import numpy as np
from povseg.grad import random_instance
from povseg.head import build_forward, build_frozen_forward
snapshot, state = random_instance(0, v=150, n=100, h=128, w=128)[:2]
box_rng = np.random.default_rng(3)
keep = np.zeros(snapshot.m_open.shape, dtype=bool)
for n in range(snapshot.num_proposals):
    y, x = box_rng.integers(0, 128, size=2)
    keep[y:y + box_rng.integers(4, 48), x:x + box_rng.integers(4, 48), n] = True
snapshot = replace(snapshot, m_open=np.where(keep, snapshot.m_open, 0.0))
differing = []
for cache in (build_frozen_forward(snapshot), build_forward(snapshot, state)):
    m, c, n = snapshot.m_open, cache.c, snapshot.num_proposals
    if cache.m_neg is not None:
        m = np.concatenate([m, cache.m_neg[:, :, None]], axis=2)
    dense = (m.reshape(-1, m.shape[2]) @ c.T).reshape(*m.shape[:2], -1)
    count = 0
    for rows, cols, active in snapshot.tiles:  # as head.predict composes a tile
        bank = snapshot.m_open[rows, cols][:, :, active]
        if cache.m_neg is not None:
            bank = np.concatenate([bank, cache.m_neg[rows, cols, None]], axis=2)
            active = np.append(active, n)
        if active.size:
            h, w, k = bank.shape
            tile = bank.reshape(h * w, k) @ c[:, active].T
            count += not np.array_equal(tile, dense[rows, cols].reshape(h * w, -1))
    differing.append(count)
print(len(snapshot.tiles), *differing)
"""


def test_tiled_product_is_dense_product_bit_for_bit():
    """At one OpenBLAS thread each tile's P has the bits of the dense M C^T.

    The proposals are boxes on a 128 x 128 grid with 100 channels, so most
    tiles drop most channels; the frozen C and a personalized C with m_neg
    are both checked.
    """
    done = subprocess.run([sys.executable, "-c", _TILE_BITS], env=child_env(1),
                          capture_output=True, text=True, check=True)
    tiles, *differing = map(int, done.stdout.split())
    assert tiles == 64 and differing == [0, 0], done.stdout


@pytest.mark.parametrize("h, w", [(1, 1), (1, 2), (2, 5), (5, 16), (16, 17), (17, 17),
                                  (18, 33), (32, 40), (33, 33)])
def test_tiles_partition_the_grid(h, w):
    m_open = rng.uniform(size=(h, w, 6)) * (rng.uniform(size=(1, 1, 6)) < 0.5)
    m_open[m_open < 0.7] = 0.0
    snapshot = bank_snapshot(m_open)
    hits = np.zeros(snapshot.grid_shape, dtype=int)
    for rows, cols, active in snapshot.tiles:
        hits[rows, cols] += 1
        block = m_open[rows, cols]
        assert block.shape[0] * block.shape[1] > 1 or m_open.shape[:2] == (1, 1)
        assert max(block.shape[:2]) <= TILE + 1
        np.testing.assert_array_equal(active, np.flatnonzero(block.any(axis=(0, 1))))
    np.testing.assert_array_equal(hits, 1)


def test_personal_decode_never_builds_the_full_bank():
    snapshot, state = random_instance(0, v=150, n=100, h=128, w=128)[:2]
    bank_bytes = 128 * 128 * 101 * np.dtype(np.float64).itemsize
    tracemalloc.start()
    try:
        decode(build_forward(snapshot, state))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < bank_bytes, f"decode peaked at {peak} bytes"


def test_forward_frozen_subblock_preserved(tiny_snapshot):
    state = make_state(tiny_snapshot)
    cache = build_forward(tiny_snapshot, state)
    v, n = tiny_snapshot.vocab_size, tiny_snapshot.num_proposals
    np.testing.assert_array_equal(cache.t_full[:v], tiny_snapshot.t_open)
    np.testing.assert_array_equal(cache.z_full[:n], tiny_snapshot.z_open)
    np.testing.assert_array_equal(full_bank(cache)[:, :, :n], tiny_snapshot.m_open)
    # recomposing from the retained inputs reproduces the frozen pipeline
    frozen = build_frozen_forward(tiny_snapshot)
    np.testing.assert_array_equal(
        predict(cache.snapshot, class_probs(cache.s[:v, :n])), decode(frozen))


def test_forward_personal_channel_matches_full_composition():
    cases = [random_instance(seed)[:2] for seed in (0, 1, 2)]
    # n=4 keeps the class count (V+1 = 6) apart from the proposal count
    snapshot, state = random_instance(0, n=4)[:2]
    m_open = snapshot.m_open.copy()
    m_open[:4, :4, :] = 0.0
    cases.append((replace(snapshot, m_open=m_open),
                  replace(state, negative_enabled=False)))
    for snapshot, state in cases:
        cache = build_forward(snapshot, state)
        q = oracle_q(full_bank(cache), cache.c)
        np.testing.assert_allclose(cache.q_per, q[..., state.k], rtol=0, atol=1e-12)
    # the last case puts a block on the uniform fallback
    np.testing.assert_array_equal(cache.q_per[:4, :4], 1.0 / (state.k + 1))


def test_forward_zero_wz_gives_zero_negative_embedding(tiny_snapshot):
    state = make_state(tiny_snapshot, w_z=np.zeros(tiny_snapshot.num_proposals))
    cache = build_forward(tiny_snapshot, state)
    np.testing.assert_array_equal(cache.z_full[-1], np.zeros(tiny_snapshot.embed_dim))


def test_forward_alpha_zero_ignores_visual(tiny_snapshot):
    base = make_state(tiny_snapshot)
    with_f = make_state(tiny_snapshot, t_per=base.t_per, w_z=base.w_z,
                        w_m=base.w_m, b_m=base.b_m, alpha=0.0,
                        f_per=rng.normal(size=tiny_snapshot.embed_dim))
    plain = build_forward(tiny_snapshot, base)
    injected = build_forward(tiny_snapshot, with_f)
    np.testing.assert_array_equal(plain.c, injected.c)
    np.testing.assert_array_equal(plain.q_per, injected.q_per)


def test_forward_negative_disabled_shapes(tiny_snapshot):
    state = make_state(tiny_snapshot, negative_enabled=False)
    cache = build_forward(tiny_snapshot, state)
    v, n = tiny_snapshot.vocab_size, tiny_snapshot.num_proposals
    assert cache.s.shape == (v + 1, n)
    assert cache.m_neg is None and cache.j is None


def test_forward_bank_tiling(tiny_snapshot):
    state = make_state(tiny_snapshot)
    doubled = FrozenSnapshot(
        t_open=tiny_snapshot.t_open,
        z_open=np.vstack([tiny_snapshot.z_open, tiny_snapshot.z_open]),
        m_open=np.concatenate([tiny_snapshot.m_open, tiny_snapshot.m_open], axis=2),
        vocab_names=tiny_snapshot.vocab_names,
        logit_scale=tiny_snapshot.logit_scale,
    )
    cache = build_forward(doubled, tile_state(state, 2))
    assert cache.z_full.shape[0] == 2 * tiny_snapshot.num_proposals + 1
    # averaged bank combination reproduces the native negative embedding,
    # and so does the shared column of an image scored beside itself
    native = build_forward(tiny_snapshot, state)
    np.testing.assert_allclose(cache.z_full[-1], native.z_full[-1], rtol=1e-12)
    paired = build_forward(tiny_snapshot, state, tiny_snapshot.z_open)
    np.testing.assert_allclose(paired.z_full[-1], native.z_full[-1], rtol=1e-12)


def test_forward_bank_mismatch_rejected(tiny_snapshot):
    state = make_state(tiny_snapshot)
    bad = FrozenSnapshot(
        t_open=tiny_snapshot.t_open,
        z_open=np.vstack([tiny_snapshot.z_open, tiny_snapshot.z_open[:1]]),
        m_open=np.concatenate([tiny_snapshot.m_open, tiny_snapshot.m_open[:, :, :1]], axis=2),
        vocab_names=tiny_snapshot.vocab_names,
    )
    with pytest.raises(InvariantError):
        build_forward(bad, state)
    with pytest.raises(InvariantError, match="partner embeddings"):
        build_forward(tiny_snapshot, state, tiny_snapshot.z_open[:-1])


@pytest.mark.filterwarnings("ignore:invalid value", "ignore:overflow")
def test_forward_passes_refuse_non_finite_values(tiny_snapshot):
    # The largest finite scale: S = tau T Z^T overflows wherever |T Z^T| > 1.
    unbounded = replace(tiny_snapshot, logit_scale=np.finfo(np.float64).max)
    nan_mask = make_state(tiny_snapshot, w_m=np.full(tiny_snapshot.num_proposals, np.nan))
    for run in (lambda: build_frozen_forward(unbounded),
                lambda: build_forward(unbounded, make_state(unbounded)),
                lambda: build_forward(tiny_snapshot, nan_mask)):  # only m_neg is NaN
        with pytest.raises(NonFiniteError) as excinfo:
            run()
        assert excinfo.value.stage == "forward"
