import math
import re
from dataclasses import replace
from functools import partial

import numpy as np
import pytest

from povseg.errors import InvariantError, NonFiniteError
from povseg.head import build_forward, build_frozen_forward, decode
from povseg.metrics import (
    accumulate,
    concat_evaluate,
    concat_pairs,
    evaluate,
    evaluate_samples,
)
from povseg.personalize import TrainConfig, run_personalization
from povseg.snapshot import Sample, load_manifest, load_mask, load_samples, load_snapshot
from povseg.synthbench import (
    BANK_REACH,
    INSTANCES_PER_CLASS,
    SynthConfig,
    _blob,
    _paint,
    format_ablation_table,
    format_kshot_table,
    generate,
    run_ablation,
    run_kshot,
    train_on_manifest,
)

from dense_bank import concat, tile_state

SMALL = dict(k_train=2, n_test_pos=2, n_test_neg=2)


def read_meta(data_dir):
    lines = (data_dir / "meta.tsv").read_text().splitlines()
    header = lines[0].split("\t")
    return [dict(zip(header, line.split("\t"))) for line in lines[1:]]


def dir_bytes(root):
    return {p.relative_to(root): p.read_bytes()
            for p in sorted(root.rglob("*")) if p.is_file()}


def full_blob(h, w, cy, cx, ry, rx):
    """exp(q) over the whole plane: the values the box rule must reproduce."""
    ys = (np.arange(h)[:, None] - cy) / ry
    xs = (np.arange(w)[None, :] - cx) / rx
    return np.exp(-(ys ** 2 + xs ** 2))


def test_blob_is_plain_exp_bit_for_bit():
    # On its box a blob is exp(q) bit for bit, subnormal values included: at
    # r = 0.052 the diagonal neighbour of an on-grid centre has q ~ -739.6.
    # Outside the box the blob is +0.0, and the full-plane value is below e^-104.
    seen = {"subnormal": False, "cut": False}
    for side in (4, 32, 128):
        grid = np.arange(side)
        for r in (0.052, 0.5, 1.5, 3.5, 20.0):
            reach = BANK_REACH * r + 1
            for cy, cx in ((side / 2, side / 2), (side / 2, side / 3), (1.25, side - 0.5),
                           (-3.0 * side, 0.5), (side + 60.0, -40.0)):
                blob = _blob(side, side, cy, cx, r, r)
                full = full_blob(side, side, cy, cx, r, r)
                box = (np.abs(grid - cy) <= reach)[:, None] & (np.abs(grid - cx) <= reach)[None, :]
                assert blob[box].tobytes() == full[box].tobytes()
                assert not blob[~box].view(np.uint64).any()
                assert (full[~box] < math.exp(-104.0)).all()
                inside = full[box]
                seen["subnormal"] |= bool(((inside > 0) & (inside < np.finfo(float).tiny)).any())
                seen["cut"] |= bool(full[~box].any())
    assert all(seen.values()), seen


def test_paint_matches_full_binary32_plane_bit_for_bit():
    # The plane sits between two others of a sentinel-filled bank, so any
    # write outside its own box, or outside the plane, shows.
    left_outside = False
    for side in (7, 32, 128):
        for ry, rx in ((0.3, 0.3), (1.5, 3.5), (3.5, 1.5), (12.0, 0.7), (40.0, 40.0)):
            for cy, cx in ((side / 2, side / 3), (1.25, side - 0.5), (-6.0, side + 2.5),
                           (-3.0 * side, 0.5), (side + 60.0, -40.0)):
                for amp in (1.0, 0.25, 0.7 - 1e-12):
                    bank = np.full((side, side, 3), -1.0, dtype=np.float32)
                    _paint(bank[:, :, 1], cy, cx, ry, rx, amp)
                    assert (bank[:, :, [0, 2]] == -1.0).all()
                    plane = bank[:, :, 1]
                    skipped = plane == -1.0
                    full = amp * full_blob(side, side, cy, cx, ry, rx)
                    expected = np.float32(full)
                    assert not expected[skipped].any()
                    painted = np.where(skipped, np.float32(0.0), plane)
                    assert painted.tobytes() == expected.tobytes(), (side, ry, rx, cy, cx, amp)
                    left_outside |= bool(full[skipped].any())
    assert left_outside


def full_plane_paint(plane, cy, cx, ry, rx, amp=1.0):
    plane[...] = amp * full_blob(*plane.shape, cy, cx, ry, rx)


@pytest.mark.parametrize("scale, instances", [
    ({}, INSTANCES_PER_CLASS),
    (dict(h=7, hf=7), INSTANCES_PER_CLASS),
    (dict(v=150, d=512, n=100, h=128, hf=32), INSTANCES_PER_CLASS),
    (dict(v=9, n=5, h=37, hf=11), 3),
], ids=["desk", "grid7", "backbone", "odd"])
def test_generate_matches_full_plane_painter(tmp_path, monkeypatch, scale, instances):
    monkeypatch.setattr("povseg.synthbench.INSTANCES_PER_CLASS", instances)
    for seed in range(3):
        config = SynthConfig(seed=seed, k_train=2, n_test_pos=1, n_test_neg=1, **scale)
        generate(config, tmp_path / f"box{seed}")
        with monkeypatch.context() as patch:
            patch.setattr("povseg.synthbench._paint", full_plane_paint)
            patch.setattr("povseg.synthbench._blob", full_blob)
            generate(config, tmp_path / f"full{seed}")
        assert dir_bytes(tmp_path / f"box{seed}") == dir_bytes(tmp_path / f"full{seed}")


def test_generation_deterministic(tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    generate(SynthConfig(seed=5, **SMALL), a)
    generate(SynthConfig(seed=5, **SMALL), b)
    assert dir_bytes(a) == dir_bytes(b)
    generate(SynthConfig(seed=6, **SMALL), tmp_path / "c")
    assert dir_bytes(a) != dir_bytes(tmp_path / "c")


def test_reused_out_dir_holds_only_the_new_manifest_files(tmp_path):
    reused, fresh = tmp_path / "reused", tmp_path / "fresh"
    generate(SynthConfig(k_train=2, n_test_pos=3, n_test_neg=3), reused)
    own = reused / "snapshots" / "mine.povs"  # not a name generate writes
    own.write_bytes(b"")
    for out in (reused, fresh):
        generate(SynthConfig(k_train=2, n_test_pos=1, n_test_neg=1), out)
    entries = load_manifest(reused / "manifest.tsv").entries
    named = {e.snapshot for e in entries} | {e.mask for e in entries if e.mask}
    assert {*(reused / "snapshots").iterdir(), *(reused / "masks").iterdir()} == named | {own}
    assert dir_bytes(reused) == {**dir_bytes(fresh), own.relative_to(reused): b""}


def test_generated_dataset_wellformed(tmp_path):
    generate(SynthConfig(**SMALL), tmp_path)
    manifest = load_manifest(tmp_path / "manifest.tsv")
    test = manifest.split("test")
    assert len([e for e in test if e.polarity == "positive"]) == 2
    assert len([e for e in test if e.polarity == "negative"]) == 2
    assert len(manifest.split("train")) == 2
    for entry in manifest.entries:
        snap = load_snapshot(entry.snapshot)
        assert snap.m_open.min() >= 0.0 and snap.m_open.max() <= 1.0
        assert snap.features is not None
    assert manifest.personal_class_name in snap.vocab_names


def test_personal_direction_placement(tmp_path):
    """Positives carry the personal direction in exactly one proposal."""
    generate(SynthConfig(**SMALL), tmp_path)
    meta = read_meta(tmp_path)
    cfg = SynthConfig(**SMALL)
    for row in meta:
        snap = load_snapshot(tmp_path / row["file"])
        slot = int(row["personal_slot"])
        if row["polarity"] == "positive":
            assert slot >= 0 and int(row["group_dir"]) == 0
        else:
            assert slot == -1 and int(row["group_dir"]) > 0
    # embedding-level check through the text bank: the personal text's
    # nearest group embedding is the marked slot on positives, and the
    # group object never matches instance direction 0 on negatives.
    sample = [r for r in read_meta(tmp_path) if r["polarity"] == "positive"][0]
    snap = load_snapshot(tmp_path / sample["file"])
    slot = int(sample["personal_slot"])
    assert 0 < slot < cfg.n


def test_degenerate_config_has_no_instance_information(tmp_path, monkeypatch):
    monkeypatch.setattr("povseg.synthbench.DELTA", 0.0)
    monkeypatch.setattr("povseg.synthbench.SIGMA", 0.0)
    generate(SynthConfig(**SMALL), tmp_path)
    meta = read_meta(tmp_path)
    # reconstruct the fine directions via the defender texts: with delta = 0
    # all group texts collapse onto the coarse direction, and object
    # embeddings carry no instance component at all
    snaps = [load_snapshot(tmp_path / row["file"]) for row in meta]
    texts = snaps[0].t_open
    group_rows = texts[1:INSTANCES_PER_CLASS + 1]
    assert np.allclose(group_rows, group_rows[0], atol=1e-12)


def test_infeasible_configs_rejected():
    with pytest.raises(InvariantError):
        SynthConfig(n=3)
    with pytest.raises(InvariantError):
        SynthConfig(v=4)
    with pytest.raises(InvariantError):
        SynthConfig(d=8)
    with pytest.raises(InvariantError):
        SynthConfig(k_train=0)
    with pytest.raises(InvariantError):
        SynthConfig(hf=64)


@pytest.mark.parametrize("h, hf, message", [
    (6, 6, "grid side 6 must be at least 7"),
    (1, 1, "grid side 1 must be at least 7"),
    (32, 0, "feature grid side 0 must lie in [1, grid side 32]"),
    (32, -2, "feature grid side -2 must lie in [1, grid side 32]"),
])
def test_grid_sides_rejected_before_writing(tmp_path, h, hf, message):
    with pytest.raises(InvariantError) as excinfo:
        generate(SynthConfig(h=h, hf=hf, **SMALL), tmp_path / "out")
    assert str(excinfo.value) == message
    assert not (tmp_path / "out").exists()
    generate(SynthConfig(h=7, hf=1, **SMALL), tmp_path / "smallest")


def test_positive_masks_non_empty_at_smallest_grid(tmp_path):
    """At the lowest grid side every positive mask keeps a foreground pixel."""
    for seed in range(6):
        manifest = load_manifest(generate(
            SynthConfig(h=7, hf=7, n_test_neg=1, seed=seed), tmp_path / str(seed)))
        masks = [e.mask for e in manifest.entries if e.polarity == "positive"]
        assert len(masks) == 29
        assert all(np.fromfile(mask, dtype=np.uint8).any() for mask in masks), seed


def make_pair(data_dir):
    manifest = load_manifest(data_dir / "manifest.tsv")
    samples = load_samples(manifest, "test")
    pos = [s for s in samples if s.polarity == "positive"][0]
    neg = [s for s in samples if s.polarity == "negative"][0]
    return pos, neg


def test_concat_structure(tmp_path):
    generate(SynthConfig(**SMALL), tmp_path)
    pos, neg = make_pair(tmp_path)
    joined = concat(pos, neg)
    h, w = pos.snapshot.grid_shape
    n = pos.snapshot.num_proposals
    assert joined.snapshot.grid_shape == (h, 2 * w)
    assert joined.snapshot.num_proposals == 2 * n
    # each bank is zero outside its own half
    assert not joined.snapshot.m_open[:, w:, :n].any()
    assert not joined.snapshot.m_open[:, :w, n:].any()
    np.testing.assert_array_equal(joined.snapshot.m_open[:, :w, :n], pos.snapshot.m_open)
    np.testing.assert_array_equal(joined.snapshot.m_open[:, w:, n:], neg.snapshot.m_open)
    # ground truth occupies only the positive half and keeps its area
    assert joined.personal_mask[:, w:].sum() == 0
    assert joined.personal_mask.sum() == pos.personal_mask.sum()
    # total foreground mass of both halves is preserved
    assert joined.snapshot.m_open.sum() == pytest.approx(
        pos.snapshot.m_open.sum() + neg.snapshot.m_open.sum())


def test_concat_with_itself_decodes_side_by_side(bench_dir):
    manifest = load_manifest(bench_dir / "manifest.tsv")
    n_train = len(manifest.split("train"))
    state, = train_on_manifest(manifest, [(TrainConfig(iterations=20), n_train)])
    tiled = tile_state(state, 2)
    positives = [s for s in load_samples(manifest, "test") if s.polarity == "positive"]
    for sample in positives:
        joined = concat(sample, sample).snapshot
        personal = decode(build_forward(sample.snapshot, state))
        np.testing.assert_array_equal(decode(build_forward(joined, tiled)),
                                      np.hstack([personal, personal]))
        np.testing.assert_array_equal(
            decode(build_forward(sample.snapshot, state, sample.snapshot.z_open)), personal)
        frozen = decode(build_frozen_forward(sample.snapshot))
        np.testing.assert_array_equal(decode(build_frozen_forward(joined)),
                                      np.hstack([frozen, frozen]))


def test_concat_eval_runs_with_trained_state(bench_dir):
    manifest = load_manifest(bench_dir / "manifest.tsv")
    n_train = len(manifest.split("train"))
    state, = train_on_manifest(manifest, [(TrainConfig(iterations=20), n_train)])
    report = concat_evaluate(manifest, state)
    assert "positive" in [polarity for _, polarity, *_ in report.images]
    assert 0.0 <= report.iou_per <= 1.0


def test_concat_partner_z_is_the_partners_loaded_z_open(bench_dir):
    manifest = load_manifest(bench_dir / "manifest.tsv")
    pairs = concat_pairs(manifest)
    seen = [(s.polarity, s.snapshot.z_open.tobytes(), s.partner_z.tobytes())
            for s in pairs]
    assert len(seen) == len(manifest.split("test"))
    for (pos, pos_z, pos_partner), (neg, neg_z, neg_partner) in zip(seen[::2], seen[1::2]):
        assert (pos, neg) == ("positive", "negative")
        assert (pos_partner, neg_partner) == (neg_z, pos_z)


@pytest.fixture(scope="module")
def bench_state(bench_dir):
    manifest = load_manifest(bench_dir / "manifest.tsv")
    n_train = len(manifest.split("train"))
    return train_on_manifest(manifest, [(TrainConfig(iterations=20), n_train)])[0]


def scored(monkeypatch, run):
    """Run an evaluation; return its report and the sum of its confusion matrices."""
    matrices = []

    def spy(pred, gt, counts):
        matrices.append(accumulate(pred, gt, counts).copy())
        return counts

    with monkeypatch.context() as patch:
        patch.setattr("povseg.metrics.accumulate", spy)
        report = run()
    return report, sum(matrices)


@pytest.mark.parametrize("variant", ["negative", "no-negative", "frozen"])
def test_concat_eval_matches_joined_bank(bench_dir, bench_state, monkeypatch, usable_cpus,
                                        variant):
    """Scoring a pair as its two images equals scoring the joined image."""
    usable_cpus(1)  # the accumulate spy sees only this process's calls
    manifest = load_manifest(bench_dir / "manifest.tsv")
    state = {"negative": bench_state, "frozen": None,
             "no-negative": replace(bench_state, negative_enabled=False)}[variant]
    tiled = None if state is None else tile_state(state, 2)
    samples = load_samples(manifest, "test")
    positives = [s for s in samples if s.polarity == "positive"]
    negatives = [s for s in samples if s.polarity == "negative"]
    joined = [concat(p, n) for p, n in zip(positives, negatives)]
    for pos, neg, pair in zip(positives, negatives, joined):
        np.testing.assert_array_equal(
            np.hstack([decode(build_frozen_forward(pos.snapshot)),
                       decode(build_frozen_forward(neg.snapshot))]),
            decode(build_frozen_forward(pair.snapshot)))
        if state is not None:
            np.testing.assert_array_equal(
                np.hstack([decode(build_forward(pos.snapshot, state, neg.snapshot.z_open)),
                           decode(build_forward(neg.snapshot, state, pos.snapshot.z_open))]),
                decode(build_forward(pair.snapshot, tiled)))

    # concat_evaluate requires a state; the frozen variant scores the pairs directly
    run = (partial(concat_evaluate, manifest, state) if state is not None else
           lambda: evaluate_samples(concat_pairs(manifest), manifest.personal_class_name,
                                    [None])[0])
    report, counts = scored(monkeypatch, run)
    expected, expected_counts = scored(monkeypatch, lambda: evaluate_samples(
        joined, manifest.personal_class_name, [tiled])[0])
    np.testing.assert_array_equal(counts, expected_counts)
    assert (report.iou_per, report.miou, report.precision_per, report.recall_per,
            report.class_table) == (expected.iou_per, expected.miou,
                                    expected.precision_per, expected.recall_per,
                                    expected.class_table)


def test_ablation_table_shape(bench_dir):
    rows = run_ablation(load_manifest(bench_dir / "manifest.tsv"), TrainConfig(iterations=10))
    assert [r.label for r in rows] == ["frozen", "prompt", "prompt+neg",
                                       "prompt+inject", "full"]
    assert (rows[0].text_prompt, rows[0].neg_mask, rows[0].visual_inject) == \
        (False, False, False)
    assert (rows[4].text_prompt, rows[4].neg_mask, rows[4].visual_inject) == \
        (True, True, True)
    table = format_ablation_table(rows)
    lines = table.splitlines()
    assert lines[0] == "text_prompt\tneg_mask\tvisual_inject\tmiou\tiou_per" \
                       "\tprecision_per\trecall_per"
    assert len(lines) == 6
    assert lines[1].startswith("-\t-\t-\t")
    assert lines[5].startswith("x\tx\tx\t")


def test_frozen_row_without_vocab_entry_scores_zero(tmp_path):
    generate(SynthConfig(**SMALL), tmp_path)
    manifest_path = tmp_path / "manifest.tsv"
    rewritten = manifest_path.read_text().replace("class_01", "my_unnameable_thing")
    manifest_path.write_text(rewritten)
    manifest = load_manifest(manifest_path)
    samples = load_samples(manifest, "test")
    report, = evaluate_samples(samples, manifest.personal_class_name, [None])
    assert report.iou_per == 0.0
    assert report.precision_per == 0.0 and report.recall_per == 0.0


def test_kshot_rows_and_average(bench_dir):
    rows = run_kshot(load_manifest(bench_dir / "manifest.tsv"), [1, 2],
                     TrainConfig(iterations=10))
    assert [r.label for r in rows] == ["1", "2", "Avg."]
    assert rows[2].iou_per == (rows[0].iou_per + rows[1].iou_per) / 2
    assert rows[2].miou == (rows[0].miou + rows[1].miou) / 2
    table = format_kshot_table(rows)
    assert table.splitlines()[0] == "k\tiou_per\tmiou"


@pytest.mark.usefixtures("worker_guard")
def test_ablation_and_kshot_rows_do_not_depend_on_the_worker_count(bench_dir, usable_cpus):
    manifest = load_manifest(bench_dir / "manifest.tsv")
    config = TrainConfig(iterations=10)
    runs = []
    for cpus in (1, 2, 3):
        usable_cpus(cpus)
        runs.append((run_ablation(manifest, config), run_kshot(manifest, [1, 3, 2], config)))
    assert runs[0] == runs[1] == runs[2]
    assert [row.label for row in runs[0][1]] == ["1", "3", "2", "Avg."]


@pytest.mark.usefixtures("worker_guard")
def test_training_error_in_a_worker_row_is_raised(bench_dir, usable_cpus):
    usable_cpus(2)  # this process trains rows 0 and 2; a forked worker trains rows 1 and 3
    manifest = load_manifest(bench_dir / "manifest.tsv")
    # an update of 1e307 overflows at the first step of the rows with the
    # negative branch, 1 and 3, and of no other
    with pytest.raises(NonFiniteError, match="^step 0: ") as caught:
        run_ablation(manifest, TrainConfig(iterations=1, learning_rate=1e307, alpha=0.0))
    assert caught.value.stage == "update"


def test_kshot_k_exceeding_train_set(bench_dir):
    with pytest.raises(InvariantError):
        run_kshot(load_manifest(bench_dir / "manifest.tsv"), [99],
                  TrainConfig(iterations=5))


@pytest.mark.parametrize("k_list", [[], [0], [2, -1]])
def test_kshot_k_below_one_refused(bench_dir, k_list):
    with pytest.raises(InvariantError, match=r"K values must be >= 1"):
        run_kshot(load_manifest(bench_dir / "manifest.tsv"), k_list,
                  TrainConfig(iterations=5))


def test_bundled_benchmark_pinned_values(bench_dir):
    """Regression anchor: headline numbers of the bundled seeded run."""
    manifest = load_manifest(bench_dir / "manifest.tsv")
    rows = {r.label: r.report for r in run_ablation(manifest, TrainConfig())}
    assert rows["frozen"].iou_per == pytest.approx(0.8262, abs=2e-3)
    assert rows["frozen"].precision_per == pytest.approx(0.9859, abs=2e-3)
    assert rows["prompt"].precision_per == pytest.approx(0.8696, abs=2e-3)
    assert rows["full"].iou_per == pytest.approx(0.8731, abs=2e-3)
    # the full configuration strictly dominates prompt-only personalization
    assert rows["full"].iou_per > rows["prompt"].iou_per


def test_kshot_first_entry_used_for_k1(bench_dir):
    """K=1 trains on exactly the first manifest train entry."""
    manifest = load_manifest(bench_dir / "manifest.tsv")
    config = TrainConfig(iterations=8)
    rows = run_kshot(manifest, [1, 2], config)
    # a state trained directly on the first entry scores the K=1 row bit for bit
    entry = manifest.split("train")[0]
    snap = load_snapshot(entry.snapshot)
    mask = load_mask(entry.mask, *snap.grid_shape)
    direct, _ = run_personalization([Sample(snap, mask, "positive")], config,
                                    manifest.personal_class_name)
    report, = evaluate(manifest, [direct])
    assert (rows[0].iou_per, rows[0].miou) == (report.iou_per, report.miou)
    assert (rows[1].iou_per, rows[1].miou) != (report.iou_per, report.miou)


def test_train_on_manifest_refuses_k_beyond_the_split_before_reading(bench_dir, monkeypatch):
    read = []
    monkeypatch.setattr("povseg.snapshot.load_snapshot", read.append)
    manifest = load_manifest(bench_dir / "manifest.tsv")
    n_train = len(manifest.split("train"))
    with pytest.raises(InvariantError,
                       match=f"^K=99 exceeds the {n_train} available training samples$"):
        train_on_manifest(manifest, [(TrainConfig(iterations=1), 99)])
    # a negative k would otherwise slice train[:-1] and train on all but the last
    with pytest.raises(InvariantError, match=re.escape("K values must be >= 1, got [-1]")):
        train_on_manifest(manifest, [(TrainConfig(iterations=3), -1)])
    assert read == []


def test_train_on_empty_sample_set_refused(bench_dir, monkeypatch):
    read = []
    monkeypatch.setattr("povseg.snapshot.load_snapshot", read.append)
    manifest = load_manifest(bench_dir / "manifest.tsv")
    with pytest.raises(InvariantError, match=re.escape("K values must be >= 1, got [0]")):
        train_on_manifest(manifest, [(TrainConfig(iterations=1), 0)])
    with pytest.raises(InvariantError, match=re.escape("K values must be >= 1, got []")):
        train_on_manifest(manifest, [])
    assert read == []
