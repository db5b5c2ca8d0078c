import shutil
import weakref
from dataclasses import replace
from functools import cached_property

import numpy as np
import pytest

from povseg import metrics
from povseg.errors import InvariantError, TruncatedPayloadError
from povseg.head import PersonalState, build_forward, build_frozen_forward, decode
from povseg.metrics import (
    accumulate,
    class_iou,
    concat_evaluate,
    evaluate,
    evaluate_samples,
    format_image_rows,
    format_report,
    iou_per,
    miou,
    precision_recall,
    pseudo_label,
)
from povseg.snapshot import FrozenSnapshot, Sample, load_manifest, load_sample
from povseg.personalize import TrainConfig
from povseg.synthbench import SynthConfig, run_ablation, run_kshot

rng = np.random.default_rng(23)


def zeros(num_classes):
    return np.zeros((num_classes, num_classes), np.int64)


def tp_fp_fn(counts):
    """TP, FP and FN per class of a [gt, pred] confusion matrix."""
    tp = np.diag(counts)
    return tp, counts.sum(axis=0) - tp, counts.sum(axis=1) - tp


def oracle_counts(pred, gt, num_classes):
    """Brute-force per-pixel TP/FP/FN counting."""
    tp = np.zeros(num_classes, dtype=np.int64)
    fp = np.zeros(num_classes, dtype=np.int64)
    fn = np.zeros(num_classes, dtype=np.int64)
    for y in range(pred.shape[0]):
        for x in range(pred.shape[1]):
            p, g = int(pred[y, x]), int(gt[y, x])
            if p == g:
                tp[p] += 1
            else:
                fp[p] += 1
                fn[g] += 1
    return tp, fp, fn


def test_accumulate_perfect_and_complementary():
    labels = rng.integers(0, 3, size=(5, 5))
    tp, fp, fn = tp_fp_fn(accumulate(labels, labels, zeros(3)))
    assert not fp.any() and not fn.any()
    assert tp.sum() == 25

    a = np.zeros((4, 4), dtype=np.int64)
    b = np.ones((4, 4), dtype=np.int64)
    tp, _, _ = tp_fp_fn(accumulate(a, b, zeros(2)))
    assert not tp.any()


def test_accumulate_matches_oracle():
    for _ in range(20):
        pred = rng.integers(0, 4, size=(8, 8))
        gt = rng.integers(0, 4, size=(8, 8))
        counts = accumulate(pred, gt, zeros(4))
        for got, want in zip(tp_fp_fn(counts), oracle_counts(pred, gt, 4)):
            np.testing.assert_array_equal(got, want)


def test_accumulate_is_additive():
    total = zeros(3)
    a_pred, a_gt = rng.integers(0, 3, size=(2, 4, 4))
    b_pred, b_gt = rng.integers(0, 3, size=(2, 4, 4))
    accumulate(a_pred, a_gt, total)
    accumulate(b_pred, b_gt, total)
    separate = zeros(3)
    accumulate(a_pred, a_gt, separate)
    again = zeros(3)
    accumulate(b_pred, b_gt, again)
    separate += again
    np.testing.assert_array_equal(total, separate)


def test_accumulate_shape_and_range_checks():
    with pytest.raises(InvariantError):
        accumulate(np.zeros((2, 2), int), np.zeros((3, 2), int), zeros(2))
    with pytest.raises(InvariantError):
        accumulate(np.full((2, 2), 5), np.zeros((2, 2), int), zeros(2))


def test_iou_arithmetic():
    counts = zeros(2)
    counts[1, 1] = 50   # TP at class 1
    counts[0, 1] = 25   # FP at class 1
    counts[1, 0] = 25   # FN at class 1
    assert iou_per(counts, 1) == pytest.approx(0.5)
    p, r = precision_recall(counts, 1)
    assert p == pytest.approx(2.0 / 3.0)
    assert r == pytest.approx(2.0 / 3.0)


def test_perfect_prediction_metrics():
    labels = rng.integers(0, 3, size=(6, 6))
    counts = accumulate(labels, labels, zeros(3))
    k = 1
    assert iou_per(counts, k) == 1.0
    assert precision_recall(counts, k) == (1.0, 1.0)
    assert miou(counts) == 1.0


def test_zero_denominator_conventions():
    counts = zeros(3)
    assert iou_per(counts, 2) == 0.0
    assert precision_recall(counts, 2) == (0.0, 0.0)
    ious = class_iou(counts)
    assert np.isnan(ious).all()


def test_iou_bounded_by_precision_and_recall():
    for _ in range(50):
        m = rng.integers(0, 30, size=(3, 3))
        counts = m.astype(np.int64)
        for k in range(3):
            i = iou_per(counts, k)
            p, r = precision_recall(counts, k)
            assert i <= p + 1e-12 and i <= r + 1e-12


def test_miou_invariant_under_consistent_relabeling():
    pred = rng.integers(0, 4, size=(8, 8))
    gt = rng.integers(0, 4, size=(8, 8))
    counts = accumulate(pred, gt, zeros(5))
    # swap non-personal labels 0 and 2 in both maps (personal k = 4)
    perm = np.array([2, 1, 0, 3, 4])
    counts2 = accumulate(perm[pred], perm[gt], zeros(5))
    assert miou(counts) == pytest.approx(miou(counts2), abs=1e-12)


def crafted_snapshot():
    """2 classes, 2 proposals, 2x2 grid, hand-decodable."""
    t_open = np.array([[1.0, 0.0], [0.0, 1.0]])
    z_open = np.array([[4.0, 0.0], [0.0, 4.0]])
    m_open = np.zeros((2, 2, 2))
    m_open[:, :, 0] = [[1.0, 1.0], [0.0, 0.0]]   # top row: class 0 proposal
    m_open[:, :, 1] = [[0.0, 0.0], [1.0, 1.0]]   # bottom row: class 1 proposal
    return FrozenSnapshot(t_open=t_open, z_open=z_open, m_open=m_open,
                          vocab_names=["zero", "one"], logit_scale=1.0)


def test_pseudo_label_hand_decoded():
    snap = crafted_snapshot()
    # column 0 favors class 0, column 1 favors class 1; top row uses
    # proposal 0, bottom row proposal 1
    np.testing.assert_array_equal(decode(build_frozen_forward(snap)), [[0, 0], [1, 1]])


def test_pseudo_label_override():
    snap = crafted_snapshot()
    mask = np.array([[1, 0], [0, 0]], dtype=np.uint8)
    labels = pseudo_label(decode(build_frozen_forward(snap)), mask, k=2)
    np.testing.assert_array_equal(labels, [[2, 0], [1, 1]])
    # all-zero mask leaves the frozen prediction untouched
    labels = pseudo_label(decode(build_frozen_forward(snap)),
                          np.zeros((2, 2), dtype=np.uint8), k=2)
    np.testing.assert_array_equal(labels, [[0, 0], [1, 1]])


def test_frozen_eval_with_empty_masks():
    snap = crafted_snapshot()
    empty = np.zeros((2, 2), dtype=np.uint8)
    samples = [Sample(snap, empty, "positive")]
    report, = evaluate_samples(samples, "my_thing", [None])
    assert report.iou_per == 0.0
    assert report.miou > 0.0


def test_frozen_proxy_via_class_name():
    snap = crafted_snapshot()
    mask = np.array([[1, 1], [0, 0]], dtype=np.uint8)  # covers the class-0 band
    samples = [Sample(snap, mask, "positive")]
    # class name present in the vocabulary: its predictions stand in for k
    with_proxy, = evaluate_samples(samples, "zero", [None])
    assert with_proxy.iou_per == 1.0
    # unknown class name: the baseline never predicts the personal class
    without, = evaluate_samples(samples, "my_thing", [None])
    assert without.iou_per == 0.0


def test_frozen_never_fp_on_negatives():
    snap = crafted_snapshot()
    samples = [Sample(snap, None, "negative")]
    report, = evaluate_samples(samples, "my_thing", [None])
    assert report.precision_per == 0.0 and report.recall_per == 0.0


def test_two_sample_hand_trace():
    """A state that fires on both halves: the negative sample caps precision."""
    snap_pos = crafted_snapshot()
    snap_neg = crafted_snapshot()
    mask = np.array([[1, 1], [0, 0]], dtype=np.uint8)
    # personal embedding beats both text rows on proposal 0's column
    state = PersonalState(t_per=np.array([3.0, 0.0]), w_z=np.zeros(2),
                          w_m=np.zeros(2), b_m=-50.0, k=2, alpha=0.0,
                          f_per=None, negative_enabled=True)
    report, = evaluate_samples(
        [Sample(snap_pos, mask, "positive"), Sample(snap_neg, None, "negative")],
        "my_thing", [state])
    # the personal class claims the top band in both images: 2 TP (positive),
    # 2 FP (negative), no FN
    assert report.recall_per == 1.0
    assert report.precision_per == pytest.approx(0.5)
    assert report.iou_per == pytest.approx(0.5)
    assert [polarity for _, polarity, *_ in report.images] == ["positive", "negative"]


# ``per_image`` picks the text ``eval`` writes: the summary or, with ``--per-image``, the rows.
@pytest.mark.parametrize("per_image", [False, True])
def test_states_scored_together_match_each_alone(per_image):
    mask = np.array([[1, 1], [0, 0]], dtype=np.uint8)
    samples = [Sample(crafted_snapshot(), mask, "positive"),
               Sample(crafted_snapshot(), None, "negative")]
    fires = PersonalState(t_per=np.array([3.0, 0.0]), w_z=np.zeros(2),
                          w_m=np.zeros(2), b_m=-50.0, k=2)
    silent = replace(fires, t_per=np.array([-3.0, 0.0]))
    states = [fires, None, silent, fires]
    together = evaluate_samples(samples, "zero", states)
    alone = [evaluate_samples(samples, "zero", [state])[0] for state in states]
    assert together == alone
    written = format_image_rows if per_image else format_report
    assert [written(report) for report in together] == [written(report) for report in alone]
    assert written(together[0]) != written(together[2])  # the states are not mixed up


def test_mixed_vocabularies_refused():
    # same vocabulary size, two names swapped: the class table would be mislabelled
    swapped = replace(crafted_snapshot(), vocab_names=["one", "zero"])
    samples = [Sample(crafted_snapshot(), None, "negative"),
               Sample(swapped, None, "negative")]
    with pytest.raises(InvariantError, match="sample 1 vocabulary differs"):
        evaluate_samples(samples, "my_thing", [None])


def run_study(manifest, command):
    """Train and score ``ablate``'s or ``kshot``'s runs, one iteration each."""
    config = TrainConfig(iterations=1)
    if command == "ablate":
        return run_ablation(manifest, config)
    return run_kshot(manifest, [1, 3, 5], config)


# ``False`` and ``True`` score crafted samples without and with a state.
@pytest.mark.parametrize("scored", [pytest.param("frozen", id="False"),
                                    pytest.param("state", id="True"), "ablate", "kshot"])
def test_one_frozen_decode_per_sample(bench_dir, monkeypatch, usable_cpus, scored):
    usable_cpus(1)
    calls = []
    personal = []

    def counting(snapshot):
        calls.append(snapshot)
        return build_frozen_forward(snapshot)

    def recording(snapshot, state, partner_z=None):
        personal.append((snapshot, state, build_forward(snapshot, state, partner_z)))
        return personal[-1][2]

    monkeypatch.setattr("povseg.metrics.build_frozen_forward", counting)
    monkeypatch.setattr("povseg.metrics.build_forward", recording)
    if scored in ("ablate", "kshot"):
        manifest = load_manifest(bench_dir / "manifest.tsv")
        run_study(manifest, scored)
        assert len(calls) == len(manifest.split("test"))
        # the trained states, each decoding every image once, in state order
        trained = [state for _, state, _ in personal[:4 if scored == "ablate" else 3]]
        assert len({id(state) for state in trained}) == len(trained)
        assert [id(state) for _, state, _ in personal] == [id(s) for s in trained] * len(calls)
        assert [id(snap) for snap, _, _ in personal] == [
            id(snap) for snap in calls for _ in trained]
    else:
        mask = np.array([[1, 1], [0, 0]], dtype=np.uint8)
        samples = [Sample(crafted_snapshot(), mask, "positive"),
                   Sample(crafted_snapshot(), None, "negative"),
                   Sample(crafted_snapshot(), mask, "positive")]
        state = PersonalState(t_per=np.array([3.0, 0.0]), w_z=np.zeros(2),
                              w_m=np.zeros(2), b_m=-50.0, k=2) if scored == "state" else None
        evaluate_samples(samples, "zero", [state])
        assert [id(c) for c in calls] == [id(s.snapshot) for s in samples]
        # one personalized forward per image
        expected = [id(s.snapshot) for s in samples] if state is not None else []
        assert [id(snap) for snap, _, _ in personal] == expected
    # decoding never computes the personal channel that only the training losses read
    for _, _, cache in personal:
        assert "coverage" not in vars(cache) and "q_per" not in vars(cache)


def test_tiles_computed_once_per_snapshot(monkeypatch, usable_cpus):
    usable_cpus(1)
    counted = []
    plain = FrozenSnapshot.tiles.func

    def counting(snapshot):
        counted.append(snapshot)
        return plain(snapshot)

    prop = cached_property(counting)
    prop.__set_name__(FrozenSnapshot, "tiles")
    monkeypatch.setattr(FrozenSnapshot, "tiles", prop)
    mask = np.array([[1, 1], [0, 0]], dtype=np.uint8)
    samples = [Sample(crafted_snapshot(), mask, "positive"),
               Sample(crafted_snapshot(), None, "negative")]
    state = PersonalState(t_per=np.array([3.0, 0.0]), w_z=np.zeros(2),
                          w_m=np.zeros(2), b_m=-50.0, k=2)
    # each image is decoded twice, frozen and personalized
    evaluate_samples(samples, "zero", [state])
    assert [id(s) for s in counted] == [id(sample.snapshot) for sample in samples]


# ``False`` scores the test split with ``evaluate``, ``True`` with ``concat_evaluate``.
@pytest.mark.parametrize("scored", [pytest.param("eval", id="False"),
                                    pytest.param("concat-eval", id="True"), "ablate", "kshot"])
def test_evaluation_holds_one_sample_at_a_time(bench_dir, monkeypatch, usable_cpus, scored):
    usable_cpus(1)  # each worker runs this loop over its own samples
    refs = []
    most = 0

    def tracking(entry):
        nonlocal most
        sample = load_sample(entry)
        refs.append(weakref.ref(sample))
        most = max(most, sum(r() is not None for r in refs))
        return sample

    monkeypatch.setattr("povseg.metrics.load_sample", tracking)
    manifest = load_manifest(bench_dir / "manifest.tsv")
    if scored == "concat-eval":
        cfg = SynthConfig()
        concat_evaluate(manifest, PersonalState(t_per=np.zeros(cfg.d), w_z=np.zeros(cfg.n),
                                                w_m=np.zeros(cfg.n), b_m=0.0, k=cfg.v))
    elif scored == "eval":
        evaluate(manifest, [None])
    else:  # the train split is read through snapshot, the test split through metrics
        run_study(manifest, scored)
    assert len(refs) == len(manifest.split("test"))
    assert most == 1


@pytest.mark.usefixtures("worker_guard")
@pytest.mark.parametrize("cpus", [1, 2])
def test_worker_stops_scoring_after_its_first_failure(bench_dir, tmp_path, monkeypatch,
                                                      usable_cpus, cpus):
    usable_cpus(cpus)
    data = shutil.copytree(bench_dir, tmp_path / "data")
    manifest = load_manifest(data / "manifest.tsv")
    first = manifest.split("test")[0]
    first.snapshot.write_bytes(first.snapshot.read_bytes()[:-1])
    with pytest.raises(TruncatedPayloadError) as alone:
        load_sample(first)
    scored = []
    real = metrics._confusions

    def counting(sample, where, *args):
        scored.append(where)
        return real(sample, where, *args)

    monkeypatch.setattr(metrics, "_confusions", counting)
    with pytest.raises(TruncatedPayloadError) as caught:
        evaluate(manifest, [None])
    assert str(caught.value) == str(alone.value)
    # this process's share begins with the unreadable sample, so it scores none
    assert scored == []


def test_report_format():
    snap = crafted_snapshot()
    mask = np.array([[1, 1], [0, 0]], dtype=np.uint8)
    report, = evaluate_samples([Sample(snap, mask, "positive")], "zero", [None])
    text = format_report(report)
    lines = text.splitlines()
    assert lines[0] == "metric\tvalue"
    assert lines[1].startswith("iou_per\t") and lines[2].startswith("miou\t")
    assert lines[3].startswith("precision_per\t")
    assert lines[4].startswith("recall_per\t")
    for line in lines[1:]:
        name, value = line.split("\t")
        assert len(value.split(".")[1]) == 4


def test_per_image_rows():
    snap = crafted_snapshot()
    full_band = np.array([[1, 1], [0, 0]], dtype=np.uint8)    # proxy hits exactly
    wider = np.array([[1, 1], [1, 0]], dtype=np.uint8)        # one pixel missed
    samples = [Sample(snap, full_band, "positive"),
               Sample(snap, wider, "positive")]
    report, = evaluate_samples(samples, "zero", [None])
    assert report.images == [("sample 0", "positive", 2, 0, 0),
                             ("sample 1", "positive", 2, 0, 1)]
    assert format_image_rows(report) == ("file\tpolarity\ttp\tfp\tfn\tiou_per\n"
                                         "sample 0\tpositive\t2\t0\t0\t1.0000\n"
                                         "sample 1\tpositive\t2\t0\t1\t0.6667\n")
    # the rows sum to the aggregate counts: TP=4, FN=1 -> 4/5
    assert report.iou_per == pytest.approx(4.0 / 5.0)
    assert report.recall_per == pytest.approx(4.0 / 5.0)


def test_a_negative_row_counts_its_false_positives():
    # 4x4: proposal 0 (class "zero", the proxy) covers the top half
    snap = crafted_snapshot()
    snap = replace(snap, m_open=snap.m_open.repeat(2, axis=0).repeat(2, axis=1))
    report, = evaluate_samples([Sample(snap, None, "negative")], "zero", [None])
    assert report.images == [("sample 0", "negative", 0, 8, 0)]
    assert format_image_rows(report).splitlines()[1] == "sample 0\tnegative\t0\t8\t0\t-"
    assert report.precision_per == 0.0 and report.iou_per == 0.0
