"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
summary lines.
"""

import time
from dataclasses import astuple, replace

import numpy as np
import pytest
from dense_bank import full_bank

from povseg.cli import main as cli_main
from povseg.grad import GRADCHECK_EPS, GRADCHECK_TOL, backward, gradcheck
from povseg.head import (
    COVERAGE_EPS,
    PersonalState,
    build_forward,
    build_frozen_forward,
    class_probs,
    decode,
)
from povseg.losses import LossWeights, total_loss
from povseg.metrics import (
    accumulate,
    iou_per,
    miou,
    precision_recall,
)
from povseg.personalize import TrainConfig, compute_visual_embedding, run_personalization
from povseg.snapshot import (
    FrozenSnapshot,
    load_manifest,
    load_samples,
    load_snapshot,
    save_snapshot,
)
from povseg.synthbench import (
    run_ablation,
    run_kshot,
    train_on_manifest,
)


def report(line: str) -> None:
    print(f"\n[PASS] {line}")


def bits(*values) -> list[bytes]:
    """The binary64 bytes of each value, so that -0.0 and 0.0 differ."""
    return [np.asarray(v, dtype=np.float64).tobytes() for v in values]


def oracle_labels(m, c):
    """Argmax of P / coverage, with the uniform distribution on uncovered pixels."""
    p = m @ c.T
    coverage = p.sum(axis=2, keepdims=True)
    covered = coverage > COVERAGE_EPS
    q = np.where(covered, p / np.where(covered, coverage, 1.0), 1.0 / p.shape[2])
    return q.argmax(axis=2)


def test_criterion_1_gradient_correctness():
    """Analytic gradients match central differences on 10 seeded instances."""
    # The contract's numbers: a looser tolerance or a coarser step fails here.
    assert (GRADCHECK_EPS, GRADCHECK_TOL) == (1e-4, 1e-5)
    start = time.perf_counter()
    worst = 0.0
    for seed in range(10):
        result = gradcheck(seed=seed)
        assert result.passed, result.summary()
        worst = max(worst, result.max_error)
    elapsed = time.perf_counter() - start
    assert elapsed < 10.0
    report(f"criterion 1: gradcheck, 10 seeds, max rel err {worst:.2e} "
           f"<= 1e-5 in {elapsed:.2f}s")


def _uniformity_toy():
    rng = np.random.default_rng(0)
    d, v, n, h, w = 8, 4, 8, 4, 4
    basis, _ = np.linalg.qr(rng.normal(size=(d, d)))
    snapshot = FrozenSnapshot(
        t_open=basis[:, :v].T.copy(),
        z_open=np.eye(n, d),
        m_open=np.full((h, w, n), 0.5),
        vocab_names=[f"c{i}" for i in range(v)],
        logit_scale=1.0,
    )
    gt = np.zeros((h, w), dtype=np.uint8)
    gt[1:3, 1:3] = 1
    state = PersonalState(t_per=basis[:, v].copy(), w_z=np.zeros(n),
                          w_m=np.zeros(n), b_m=0.0, k=v, alpha=0.0,
                          f_per=None, negative_enabled=True)
    return snapshot, state, gt


def test_criterion_2_loss_minimizer_properties():
    """Each negative loss, optimized alone, reaches its analytic target."""
    # negative-embedding uniformity loss
    snapshot, state, gt = _uniformity_toy()
    weights = LossWeights(0, 0, 0, 1.0, 0)
    lr = 5.0
    for _ in range(500):
        _, grads = backward(snapshot, state, gt, weights)
        state = replace(state, w_z=state.w_z - lr * grads.w_z,
                        t_per=state.t_per - lr * grads.t_per)
    cache = build_forward(snapshot, state)
    breakdown = total_loss(cache, gt, weights)[0]
    v_np = snapshot.vocab_size
    gap = breakdown.neg_z - np.log(v_np)
    personal_mass = cache.c[cache.k, cache.j]
    assert gap <= 1e-3
    assert personal_mass < 1e-3

    # negative-mask complement loss on a toy mask
    rng = np.random.default_rng(1)
    gt2 = np.zeros((4, 4), dtype=np.uint8)
    gt2[1:3, 1:3] = 1
    m_open = np.stack([gt2.astype(float), 1.0 - gt2], axis=2)
    snapshot2 = FrozenSnapshot(t_open=rng.normal(size=(4, 8)),
                               z_open=np.eye(2, 8),
                               m_open=m_open,
                               vocab_names=[f"c{i}" for i in range(4)],
                               logit_scale=1.0)
    state2 = PersonalState(t_per=rng.normal(size=8), w_z=np.zeros(2),
                           w_m=np.zeros(2), b_m=0.0, k=4, alpha=0.0,
                           f_per=None, negative_enabled=True)
    weights2 = LossWeights(0, 0, 0, 0, 1.0)
    for _ in range(500):
        _, grads = backward(snapshot2, state2, gt2, weights2)
        state2 = replace(state2, w_m=state2.w_m - lr * grads.w_m,
                         b_m=state2.b_m - lr * grads.b_m)
    final = total_loss(build_forward(snapshot2, state2), gt2, weights2)[0]
    assert final.neg_m < 0.05
    report(f"criterion 2: neg_z gap {gap:.2e} <= 1e-3, personal column mass "
           f"{personal_mass:.2e} < 1e-3, neg_m {final.neg_m:.4f} < 0.05")


def test_criterion_3_metric_oracle_equivalence():
    """Confusion counts and derived ratios match a brute-force oracle."""
    rng = np.random.default_rng(7)
    num_classes = 4
    k = 3
    for trial in range(100):
        pred = rng.integers(0, num_classes, size=(8, 8))
        gt = rng.integers(0, num_classes, size=(8, 8))
        counts = accumulate(pred, gt, np.zeros((num_classes, num_classes), np.int64))

        tp = np.zeros(num_classes, dtype=np.int64)
        fp = np.zeros(num_classes, dtype=np.int64)
        fn = np.zeros(num_classes, dtype=np.int64)
        for y in range(8):
            for x in range(8):
                p, g = int(pred[y, x]), int(gt[y, x])
                if p == g:
                    tp[p] += 1
                else:
                    fp[p] += 1
                    fn[g] += 1
        np.testing.assert_array_equal(np.diag(counts), tp)
        np.testing.assert_array_equal(counts.sum(axis=0) - np.diag(counts), fp)
        np.testing.assert_array_equal(counts.sum(axis=1) - np.diag(counts), fn)

        denom = tp[k] + fp[k] + fn[k]
        oracle_iou = tp[k] / denom if denom else 0.0
        assert abs(iou_per(counts, k) - oracle_iou) <= 1e-12
        p_den, r_den = tp[k] + fp[k], tp[k] + fn[k]
        oracle_p = tp[k] / p_den if p_den else 0.0
        oracle_r = tp[k] / r_den if r_den else 0.0
        p, r = precision_recall(counts, k)
        assert abs(p - oracle_p) <= 1e-12 and abs(r - oracle_r) <= 1e-12

        per_class = [tp[c] / (tp[c] + fp[c] + fn[c])
                     for c in range(num_classes) if tp[c] + fp[c] + fn[c] > 0]
        oracle_miou = sum(per_class) / len(per_class)
        assert abs(miou(counts) - oracle_miou) <= 1e-12
    report("criterion 3: confusion/IoU/precision/recall match the brute-force "
           "oracle on 100 random 8x8 pairs (exact counts, ratios to 1e-12)")


def test_criterion_4_ablation_trends(bench_dir):
    """Table-3 directionality on the bundled benchmark, fixed seed."""
    start = time.perf_counter()
    manifest = load_manifest(bench_dir / "manifest.tsv")
    rows = {r.label: r.report for r in run_ablation(manifest, TrainConfig())}
    elapsed = time.perf_counter() - start
    frozen, prompt = rows["frozen"], rows["prompt"]
    with_neg, full = rows["prompt+neg"], rows["full"]

    assert prompt.recall_per > frozen.recall_per, "(a) recall must rise"
    assert prompt.precision_per < frozen.precision_per, "(a) precision must fall"
    assert with_neg.precision_per > prompt.precision_per, "(b) negative mask recovers precision"
    assert full.iou_per == max(r.iou_per for r in rows.values()), "(c) full row attains max iou_per"
    assert abs(full.miou - frozen.miou) <= 0.02, "(d) miou within 2 points"
    assert elapsed < 120.0
    report("criterion 4: ablation trends in "
           f"{elapsed:.1f}s  "
           f"precision {frozen.precision_per:.4f} -> {prompt.precision_per:.4f} "
           f"-> {with_neg.precision_per:.4f}; recall {frozen.recall_per:.4f} -> "
           f"{prompt.recall_per:.4f}; iou_per frozen {frozen.iou_per:.4f} vs full "
           f"{full.iou_per:.4f}; miou delta {full.miou - frozen.miou:+.4f}")


def test_criterion_5_kshot_trend(bench_dir):
    manifest = load_manifest(bench_dir / "manifest.tsv")
    rows = {r.label: r for r in run_kshot(manifest, [1, 3, 5], TrainConfig())}
    assert rows["5"].iou_per >= rows["1"].iou_per
    mean_iou = (rows["1"].iou_per + rows["3"].iou_per + rows["5"].iou_per) / 3
    mean_miou = (rows["1"].miou + rows["3"].miou + rows["5"].miou) / 3
    assert abs(rows["Avg."].iou_per - mean_iou) <= 1e-12
    assert abs(rows["Avg."].miou - mean_miou) <= 1e-12
    report(f"criterion 5: K-shot iou_per {rows['1'].iou_per:.4f} (K=1) -> "
           f"{rows['3'].iou_per:.4f} (K=3) -> {rows['5'].iou_per:.4f} (K=5), "
           "Avg. is the exact arithmetic mean")


def test_criterion_6_frozen_model_preservation(bench_dir):
    """Removing the personal row and negative branch reproduces the frozen labels."""
    manifest = load_manifest(bench_dir / "manifest.tsv")
    state, = train_on_manifest(manifest, [(TrainConfig(), len(manifest.split("train")))])
    checked = 0
    for entry in manifest.split("test"):
        snapshot = load_snapshot(entry.snapshot)
        v, n = snapshot.vocab_size, snapshot.num_proposals
        cache = build_forward(snapshot, state)
        # the retained composition inputs are bit-identical to the frozen ones
        np.testing.assert_array_equal(cache.t_full[:v], snapshot.t_open)
        np.testing.assert_array_equal(cache.z_full[:n], snapshot.z_open)
        np.testing.assert_array_equal(full_bank(cache)[:, :, :n], snapshot.m_open)
        # recomputing the pipeline from them reproduces the frozen labels exactly
        reduced_c = class_probs(cache.s[:v, :n])
        frozen = build_frozen_forward(snapshot)
        np.testing.assert_array_equal(oracle_labels(full_bank(cache)[:, :, :n], reduced_c),
                                      decode(frozen))
        checked += 1
    report(f"criterion 6: frozen labels reproduced exactly on all {checked} test images")


def test_criterion_7_determinism_and_formats(tmp_path, tiny_snapshot):
    # snapshot round trip is bit-exact
    p1, p2 = tmp_path / "a.povs", tmp_path / "b.povs"
    save_snapshot(tiny_snapshot, p1)
    save_snapshot(load_snapshot(p1), p2)
    assert p1.read_bytes() == p2.read_bytes()

    # state round trip is bit-exact
    from povseg.personalize import load_state, save_state
    from povseg.grad import random_instance
    _, state, _, _ = random_instance(0)
    s1, s2 = tmp_path / "a.povp", tmp_path / "b.povp"
    save_state(state, s1)
    save_state(load_state(s1), s2)
    assert s1.read_bytes() == s2.read_bytes()

    # identical argv on identical inputs -> byte-identical outputs
    fast = ["--k-train", "2", "--test-pos", "2", "--test-neg", "2"]
    d1, d2 = tmp_path / "d1", tmp_path / "d2"
    assert cli_main(["synth", "--out", str(d1), *fast]) == 0
    assert cli_main(["synth", "--out", str(d2), *fast]) == 0
    files1 = {q.relative_to(d1): q.read_bytes() for q in sorted(d1.rglob("*")) if q.is_file()}
    files2 = {q.relative_to(d2): q.read_bytes() for q in sorted(d2.rglob("*")) if q.is_file()}
    assert files1 == files2

    out1, out2 = tmp_path / "s1.povp", tmp_path / "s2.povp"
    args = ["personalize", "--data", str(d1), "--iters", "25"]
    assert cli_main([*args, "--out", str(out1)]) == 0
    assert cli_main([*args, "--out", str(out2)]) == 0
    assert out1.read_bytes() == out2.read_bytes()
    assert out1.with_suffix(".povp.trace").read_bytes() == \
        out2.with_suffix(".povp.trace").read_bytes()
    report("criterion 7: snapshot/state round trips bit-exact; synth and "
           "personalize outputs byte-identical across reruns")


def test_criterion_8_injection_neutrality(bench_dir):
    """alpha = 0 trains without f_per, and f_per at weight 0 changes no bit."""
    manifest = load_manifest(bench_dir / "manifest.tsv")
    samples = load_samples(manifest, "train")
    state, _ = run_personalization(samples, TrainConfig(alpha=0.0),
                                   manifest.personal_class_name)
    assert state.f_per is None, "alpha = 0 must train without a visual embedding"
    with_f = replace(state, f_per=compute_visual_embedding(samples))
    weights = LossWeights()
    for sample in samples:
        snap, gt = sample.snapshot, sample.personal_mask
        loss_off, grads_off = backward(snap, state, gt, weights)
        loss_f, grads_f = backward(snap, with_f, gt, weights)
        assert bits(*astuple(loss_off)) == bits(*astuple(loss_f))
        assert bits(*astuple(grads_off)) == bits(*astuple(grads_f))
        np.testing.assert_array_equal(decode(build_forward(snap, state)),
                                      decode(build_forward(snap, with_f)))
    report(f"criterion 8: on {len(samples)} training samples, the alpha = 0 state "
           "and the same state with f_per give bit-identical losses, gradients "
           "and labels")
