import os
import re
import struct
import subprocess
import sys
import warnings
from dataclasses import replace

import numpy as np
import pytest
from output_tree import DESK_SUMS, SRC, pinned
from output_tree import build as build_output_tree

from povseg import metrics
from povseg.cli import _config, build_parser, main
from povseg.errors import TruncatedPayloadError
from povseg.personalize import _STATE_HEADER, TrainConfig, load_state, save_state
from povseg.snapshot import _HEADER as _SNAPSHOT_HEADER
from povseg.snapshot import FrozenSnapshot, load_manifest, load_snapshot, save_mask, save_snapshot
from povseg.synthbench import SynthConfig

FAST_SYNTH = ["--k-train", "2", "--test-pos", "2", "--test-neg", "2"]
FAST_TRAIN = ["--iters", "10"]


def dir_bytes(root):
    return {p.relative_to(root): p.read_bytes()
            for p in sorted(root.rglob("*")) if p.is_file()}


def test_gradcheck_default_passes(capsys):
    assert main(["gradcheck"]) == 0
    out = capsys.readouterr().out
    assert "PASS" in out and "max_rel_err" in out


def test_gradcheck_prints_resolved_config(capsys):
    main(["gradcheck", "--seed", "3"])
    out = capsys.readouterr().out
    assert "[gradcheck]" in out and "seed=3" in out


def test_personalize_rejects_zero_iters(tmp_path, capsys):
    data = tmp_path / "data"
    assert main(["synth", "--out", str(data), *FAST_SYNTH]) == 0
    code = main(["personalize", "--data", str(data),
                 "--out", str(tmp_path / "s.povp"), "--iters", "0"])
    assert code == 1
    assert "iterations must be >= 1" in capsys.readouterr().err


@pytest.mark.parametrize("flag, value, message", [
    ("--lr", "nan", "learning rate must be finite and positive, got nan"),
    ("--alpha", "2", "alpha 2.0 outside [0, 1]"),
    # The loss weights are losses.LossWeights' defaults, not flags; their
    # checks are test_losses.py::test_weights_validation.
    ("--lambda-bce", "-1", "unrecognized arguments: --lambda-bce -1"),
    ("--lambda-negm", "nan", "unrecognized arguments: --lambda-negm nan"),
    ("--lambda-dice", "inf", "unrecognized arguments: --lambda-dice inf"),
    ("--iters", "0", "iterations must be >= 1, got 0"),
], ids=["lr", "alpha", "lambda_bce", "lambda_negm", "lambda_dice", "iters"])
def test_personalize_checks_its_config_before_reading_data(
        tmp_path, capsys, monkeypatch, flag, value, message):
    def refuse(args):
        raise AssertionError("the dataset was read before the config was checked")

    monkeypatch.setattr("povseg.cli._manifest", refuse)
    code = main(["personalize", "--data", str(tmp_path / "missing"),
                 "--out", str(tmp_path / "s.povp"), flag, value])
    assert code == 1
    assert message in capsys.readouterr().err


def test_unknown_flag_exits_one(capsys):
    assert main(["gradcheck", "--bogus"]) == 1


def test_unknown_subcommand_exits_one():
    assert main(["transmogrify"]) == 1


def test_full_workflow(tmp_path):
    data = tmp_path / "data"
    state = tmp_path / "state.povp"
    assert main(["synth", "--out", str(data), *FAST_SYNTH]) == 0
    assert (data / "manifest.tsv").exists()
    assert (data / "meta.tsv").exists()

    assert main(["personalize", "--data", str(data), "--out", str(state),
                 *FAST_TRAIN]) == 0
    assert state.exists()
    trace = state.with_suffix(".povp.trace")
    assert trace.exists() and len(trace.read_text().splitlines()) == 10

    report = tmp_path / "report.tsv"
    assert main(["eval", "--data", str(data), "--state", str(state),
                 "--report", str(report)]) == 0
    assert report.read_text().startswith("metric\tvalue\n")

    frozen = tmp_path / "frozen.tsv"
    assert main(["eval", "--data", str(data), "--frozen-only",
                 "--report", str(frozen)]) == 0
    assert frozen.exists()

    concat_report = tmp_path / "concat.tsv"
    assert main(["concat-eval", "--data", str(data), "--state", str(state),
                 "--report", str(concat_report)]) == 0
    assert concat_report.exists()

    table = tmp_path / "ablation.tsv"
    assert main(["ablate", "--data", str(data), "--out", str(table)]) == 0
    assert len(table.read_text().splitlines()) == 6

    kshot = tmp_path / "kshot.tsv"
    assert main(["kshot", "--data", str(data), "--k", "1,2",
                 "--out", str(kshot)]) == 0
    assert len(kshot.read_text().splitlines()) == 4


@pytest.mark.usefixtures("worker_guard")
@pytest.mark.parametrize("cpus", [1, 2])
def test_per_image_rows_sum_to_the_report(bench_dir, tmp_path, capsys, usable_cpus, cpus):
    state = tmp_path / "state.povp"
    assert main(["personalize", "--data", str(bench_dir), "--out", str(state)]) == 0
    usable_cpus(cpus)
    outputs = []
    for flags in ([], ["--per-image"]):
        report = tmp_path / f"report{len(flags)}.tsv"
        assert main(["eval", "--data", str(bench_dir), "--state", str(state), *flags,
                     "--report", str(report)]) == 0
        outputs.append((report.read_text(), capsys.readouterr().out.splitlines()[-1]))
    (report, printed), (table, printed_with_rows) = outputs
    assert printed_with_rows == printed  # the same four aggregate scalars
    header, *rows = [line.split("\t") for line in table.splitlines()]
    assert header == ["file", "polarity", "tp", "fp", "fn", "iou_per"]
    entries = load_manifest(bench_dir / "manifest.tsv").split("test")
    assert [(file, polarity) for file, polarity, *_ in rows] == \
        [(str(e.snapshot), e.polarity) for e in entries]
    tp, fp, fn = (sum(int(row[col]) for row in rows) for col in (2, 3, 4))
    assert fp > 0  # the trained state's false positives are in the rows
    scalars = dict(line.split("\t") for line in report.splitlines()[1:5])
    assert (scalars["iou_per"], scalars["precision_per"], scalars["recall_per"]) == (
        f"{tp / (tp + fp + fn):.4f}", f"{tp / (tp + fp):.4f}", f"{tp / (tp + fn):.4f}")
    for _, polarity, row_tp, row_fp, row_fn, iou in rows:
        denom = int(row_tp) + int(row_fp) + int(row_fn)
        assert iou == ("-" if polarity == "negative"
                       else f"{int(row_tp) / denom if denom else 0.0:.4f}")


@pytest.mark.parametrize("flag, value, named", [
    ("--grid", "3", "grid side 3"), ("--grid", "6", "grid side 6 must be at least 7"),
    ("--feature-grid", "0", "feature grid side 0"),
    ("--seed", "-5", "seed must be >= 0")])
def test_bad_synth_flag_exits_one(tmp_path, capsys, flag, value, named):
    out = tmp_path / "data"
    assert main(["synth", "--out", str(out), flag, value]) == 1
    assert named in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("command, flag, value", [
    ("synth", "--instances", "3"), ("synth", "--delta", "1"), ("synth", "--sigma", "0")])
def test_generator_and_contract_constants_are_not_flags(tmp_path, capsys, command, flag,
                                                          value):
    out = tmp_path / "data"
    assert main([command, "--out", str(out), flag, value]) == 1
    assert f"unrecognized arguments: {flag} {value}" in capsys.readouterr().err
    assert not out.exists()


def test_eval_requires_state_or_frozen(tmp_path, capsys):
    data = tmp_path / "data"
    main(["synth", "--out", str(data), *FAST_SYNTH])
    code = main(["eval", "--data", str(data), "--report", str(tmp_path / "r.tsv")])
    assert code == 1
    assert "--state" in capsys.readouterr().err
    # both at once: the state would never be read
    code = main(["eval", "--data", str(data), "--frozen-only", "--state",
                 str(tmp_path / "does-not-exist.povp"), "--report", str(tmp_path / "r.tsv")])
    assert code == 1
    assert "--state" in capsys.readouterr().err
    assert not (tmp_path / "r.tsv").exists()


def test_cli_outputs_byte_identical(tmp_path):
    d1, d2 = tmp_path / "d1", tmp_path / "d2"
    main(["synth", "--out", str(d1), *FAST_SYNTH])
    main(["synth", "--out", str(d2), *FAST_SYNTH])
    assert dir_bytes(d1) == dir_bytes(d2)

    s1, s2 = tmp_path / "s1.povp", tmp_path / "s2.povp"
    main(["personalize", "--data", str(d1), "--out", str(s1), *FAST_TRAIN])
    main(["personalize", "--data", str(d1), "--out", str(s2), *FAST_TRAIN])
    assert s1.read_bytes() == s2.read_bytes()
    assert s1.with_suffix(".povp.trace").read_bytes() == \
        s2.with_suffix(".povp.trace").read_bytes()

    r1, r2 = tmp_path / "r1.tsv", tmp_path / "r2.tsv"
    main(["eval", "--data", str(d1), "--state", str(s1), "--report", str(r1)])
    main(["eval", "--data", str(d1), "--state", str(s1), "--report", str(r2)])
    assert r1.read_bytes() == r2.read_bytes()


def test_output_tree_same_at_one_and_two_blas_threads(tmp_path):
    one = build_output_tree(tmp_path / "one", threads=1)
    two = build_output_tree(tmp_path / "two", threads=2)
    assert one == two
    # every subcommand wrote its files and its stdout
    for name in ("state.povp", "no_inject.povp.trace", "eval.tsv", "eval_frozen.tsv",
                 "eval_per_image.tsv", "concat_eval.tsv", "ablate.tsv", "kshot.tsv",
                 "stdout/gradcheck_3.txt", "data/manifest.tsv"):
        assert f"  {name}\n" in one
    # the reports, the data and the stdout that do not depend on the CPU hold their pinned bytes
    assert pinned(one) == DESK_SUMS.read_text()


def test_failed_gradcheck_exits_two(capsys, monkeypatch):
    # an unreachable tolerance turns the pass report into a numeric failure
    monkeypatch.setattr("povseg.grad.GRADCHECK_TOL", 1e-12)
    assert main(["gradcheck"]) == 2
    assert "FAIL" in capsys.readouterr().out


def test_corrupt_state_file_exits_one(tmp_path, capsys):
    data = tmp_path / "data"
    main(["synth", "--out", str(data), *FAST_SYNTH])
    bad = tmp_path / "bad.povp"
    bad.write_bytes(b"JUNKJUNKJUNK")
    code = main(["eval", "--data", str(data), "--state", str(bad),
                 "--report", str(tmp_path / "r.tsv")])
    assert code == 1


def test_non_finite_state_file_exits_one(tmp_path, capsys):
    data = tmp_path / "data"
    state_path = tmp_path / "s.povp"
    main(["synth", "--out", str(data), *FAST_SYNTH])
    main(["personalize", "--data", str(data), "--out", str(state_path), "--iters", "1"])
    state = load_state(state_path)
    state.t_per[3] = np.nan
    save_state(state, state_path)
    code = main(["eval", "--data", str(data), "--state", str(state_path),
                 "--report", str(tmp_path / "r.tsv")])
    assert code == 1
    err = capsys.readouterr().err
    assert "povseg: validation error" in err
    assert str(state_path) in err and "t_per" in err


def main_without_warnings(argv):
    """``main(argv)``, failing if it raised any warning: povseg's message stands alone."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code = main(argv)
    assert [str(w.message) for w in caught] == []
    return code


@pytest.mark.parametrize("command", ["eval", "concat-eval"])
def test_overflowing_forward_exits_two_without_a_report(tmp_path, capsys, command):
    data = tmp_path / "data"
    state_path = tmp_path / "s.povp"
    main(["synth", "--out", str(data), *FAST_SYNTH])
    main(["personalize", "--data", str(data), "--out", str(state_path), "--iters", "1"])
    state = load_state(state_path)
    # finite, so it loads, but S = tau T Z^T overflows
    save_state(replace(state, t_per=state.t_per * 1e308), state_path)
    report = tmp_path / "r.tsv"
    code = main_without_warnings([command, "--data", str(data), "--state", str(state_path),
                                  "--report", str(report)])
    assert code == 2
    first = load_manifest(data / "manifest.tsv").split("test")[0].snapshot
    err = capsys.readouterr().err
    assert f"povseg: numeric error: {first}: non-finite value at stage 'forward'" in err
    assert not report.exists()


def test_overflowing_last_update_exits_two_without_a_state(tmp_path, capsys):
    data = tmp_path / "data"
    out = tmp_path / "s.povp"
    main(["synth", "--out", str(data), *FAST_SYNTH])
    code = main_without_warnings(["personalize", "--data", str(data), "--out", str(out),
                                  "--alpha", "0", "--iters", "1", "--lr", "1e308"])
    assert code == 2
    err = capsys.readouterr().err
    assert "povseg: numeric error: step 0: non-finite value at stage 'update'" in err
    assert not out.exists() and not out.with_suffix(".povp.trace").exists()


def test_invalid_state_header_names_file(tmp_path, capsys):
    data = tmp_path / "data"
    state_path = tmp_path / "s.povp"
    main(["synth", "--out", str(data), *FAST_SYNTH])
    main(["personalize", "--data", str(data), "--out", str(state_path), "--iters", "1"])
    blob = bytearray(state_path.read_bytes())
    fields = list(_STATE_HEADER.unpack_from(blob))
    fields[5] = 1.5  # alpha
    _STATE_HEADER.pack_into(blob, 0, *fields)
    state_path.write_bytes(bytes(blob))
    code = main(["eval", "--data", str(data), "--state", str(state_path),
                 "--report", str(tmp_path / "r.tsv")])
    assert code == 1
    err = capsys.readouterr().err
    assert f"{state_path}: alpha 1.5 outside [0, 1]" in err


PAYLOADS = ["t_open", "z_open", "m_open", "features"]  # in file order


@pytest.mark.parametrize("field", PAYLOADS)
def test_signaling_nan_payload_exits_one_without_warning(tmp_path, field):
    data = tmp_path / "data"
    main(["synth", "--out", str(data), *FAST_SYNTH])
    path = load_manifest(data / "manifest.tsv").split("test")[0].snapshot
    snap = load_snapshot(path)
    offset = _SNAPSHOT_HEADER.size + 4 * sum(
        getattr(snap, name).size for name in PAYLOADS[:PAYLOADS.index(field)])
    blob = bytearray(path.read_bytes())
    blob[offset:offset + 4] = struct.pack("<I", 0x7F800001)  # binary32 signaling NaN
    path.write_bytes(bytes(blob))
    # a child process, so that a numpy warning reaches stderr uncaptured
    done = subprocess.run(
        [sys.executable, "-W", "default", "-m", "povseg.cli", "eval", "--data", str(data),
         "--frozen-only", "--report", str(tmp_path / "r.tsv")],
        env={**os.environ, "PYTHONPATH": str(SRC)}, capture_output=True, text=True)
    assert done.returncode == 1
    assert done.stderr == f"povseg: validation error: {path}: non-finite value in {field}\n"


def test_bad_utf8_vocab_name_exits_one(tmp_path, capsys):
    data = tmp_path / "data"
    main(["synth", "--out", str(data), *FAST_SYNTH])
    snapshot = load_manifest(data / "manifest.tsv").split("test")[0].snapshot
    blob = bytearray(snapshot.read_bytes())
    blob[-1] = 0xFF  # last byte of the last vocabulary name
    snapshot.write_bytes(bytes(blob))
    code = main(["eval", "--data", str(data), "--frozen-only",
                 "--report", str(tmp_path / "r.tsv")])
    assert code == 1
    err = capsys.readouterr().err
    assert "povseg: validation error" in err and str(snapshot) in err


def test_tab_in_vocab_name_exits_one(tmp_path, capsys):
    # the same name in every snapshot, so that the vocabularies still agree
    data = tmp_path / "data"
    main(["synth", "--out", str(data), *FAST_SYNTH])
    manifest = load_manifest(data / "manifest.tsv")
    for entry in manifest.entries:
        blob = entry.snapshot.read_bytes()
        at = blob.rindex(b"class_03")  # vocabulary entry 3, in the trailing name block
        entry.snapshot.write_bytes(blob[:at] + b"class\t03" + blob[at + 8:])
    snapshot = manifest.split("test")[0].snapshot
    report = tmp_path / "r.tsv"
    code = main(["eval", "--data", str(data), "--frozen-only", "--report", str(report)])
    assert code == 1
    err = capsys.readouterr().err
    assert f"{snapshot}: vocab name 3 'class\\t03' contains a tab or line break" in err
    assert not report.exists()


@pytest.mark.parametrize("hf, wf", [(0, 5), (64, 64)])
def test_feature_map_outside_grid_exits_one(tmp_path, capsys, monkeypatch, hf, wf):
    data = tmp_path / "data"
    main(["synth", "--out", str(data), *FAST_SYNTH])
    path = load_manifest(data / "manifest.tsv").split("train")[0].snapshot
    snap = load_snapshot(path)
    # FrozenSnapshot refuses the map, so build and write it with its checks bypassed
    monkeypatch.setattr(FrozenSnapshot, "__post_init__", lambda self: None)
    save_snapshot(replace(snap, features=np.zeros((hf, wf, snap.embed_dim))), path)
    monkeypatch.undo()
    out = tmp_path / "s.povp"
    code = main(["personalize", "--data", str(data), "--out", str(out), *FAST_TRAIN])
    assert code == 1
    assert (f"{path}: feature map {hf}x{wf} must lie within [1, 32] x [1, 32]"
            in capsys.readouterr().err)
    assert not out.exists()


def test_empty_training_mask_named_on_exit(tmp_path, capsys):
    data = tmp_path / "data"
    main(["synth", "--out", str(data), *FAST_SYNTH])
    mask = load_manifest(data / "manifest.tsv").split("train")[0].mask
    mask.write_bytes(bytes(32 * 32))
    out = tmp_path / "s.povp"
    code = main(["personalize", "--data", str(data), "--out", str(out), *FAST_TRAIN])
    assert code == 1
    assert (f"{mask}: mask has no foreground at feature resolution 16x16"
            in capsys.readouterr().err)
    assert not out.exists()


def test_personalize_without_train_entries_exits_one(tmp_path, capsys):
    data = tmp_path / "data"
    main(["synth", "--out", str(data), *FAST_SYNTH])
    manifest = data / "manifest.tsv"
    lines = manifest.read_text().splitlines(keepends=True)
    # the same refusal for evaluation on a manifest without test entries
    for split, argv, out in (
            ("train", ["personalize", "--out", str(tmp_path / "s.povp"), *FAST_TRAIN],
             tmp_path / "s.povp"),
            ("test", ["eval", "--frozen-only", "--report", str(tmp_path / "r.tsv")],
             tmp_path / "r.tsv")):
        manifest.write_text("".join(line for line in lines if f"\t{split}\t" not in line))
        code = main([*argv, "--data", str(data)])
        assert code == 1
        assert f"manifest has no '{split}' entries" in capsys.readouterr().err
        assert not out.exists()


def test_kshot_k_beyond_train_split_exits_one(bench_dir, tmp_path, capsys):
    out = tmp_path / "kshot.tsv"
    code = main(["kshot", "--data", str(bench_dir), "--k", "9", "--out", str(out)])
    assert code == 1
    assert "K=9 exceeds the 5 available training samples" in capsys.readouterr().err
    assert not out.exists()


def test_kshot_k_below_one_exits_one(bench_dir, tmp_path, capsys):
    out = tmp_path / "kshot.tsv"
    code = main(["kshot", "--data", str(bench_dir), "--k", "1,0", "--out", str(out)])
    assert code == 1
    assert "K values must be >= 1, got [1, 0]" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("k", ["1,,3", "1,3,", ""])
def test_kshot_k_with_empty_item_exits_one(bench_dir, tmp_path, capsys, k):
    out = tmp_path / "kshot.tsv"
    code = main(["kshot", "--data", str(bench_dir), "--k", k, "--out", str(out)])
    assert code == 1
    assert f"--k must be a comma-separated integer list, got {k!r}" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("sub", ["", "sub"])
def test_synth_out_through_a_file_exits_one(tmp_path, capsys, sub):
    blocker = tmp_path / "taken"
    blocker.write_text("kept\n")
    out = blocker / sub if sub else blocker
    assert main(["synth", "--out", str(out), *FAST_SYNTH]) == 1
    assert (f"cannot write into {out}: {blocker} is not a directory"
            in capsys.readouterr().err)
    assert [p.name for p in tmp_path.iterdir()] == ["taken"]
    assert blocker.read_text() == "kept\n"


@pytest.mark.parametrize("name", ["manifest.tsv", "meta.tsv"])
def test_synth_listing_that_is_a_directory_exits_one_before_work(tmp_path, capsys, name):
    (tmp_path / name).mkdir()
    assert main(["synth", "--out", str(tmp_path), *FAST_SYNTH]) == 1
    assert (f"cannot write {tmp_path / name}: it is a directory"
            in capsys.readouterr().err)
    assert [p.name for p in tmp_path.iterdir()] == [name]


@pytest.mark.parametrize("argv", [
    ["personalize", *FAST_TRAIN],
    ["ablate"],
    ["kshot", "--k", "1,3"],
    ["eval", "--frozen-only", "--report"],
    ["concat-eval", "--state", "missing.povp", "--report"],
], ids=lambda argv: argv[0])
def test_output_in_missing_directory_exits_one_before_reading(
        bench_dir, tmp_path, capsys, monkeypatch, argv):
    def refuse(args):
        raise AssertionError("the dataset was read before the output path was checked")

    monkeypatch.setattr("povseg.cli._manifest", refuse)
    out = tmp_path / "missing" / "result"
    flag = [] if argv[-1] == "--report" else ["--out"]
    code = main([*argv, *flag, str(out), "--data", str(bench_dir)])
    assert code == 1
    assert (f"cannot write {out}: {out.parent} is not a directory"
            in capsys.readouterr().err)
    assert not out.parent.exists()


def test_output_naming_a_directory_exits_one(bench_dir, tmp_path, capsys):
    code = main(["ablate", "--data", str(bench_dir), "--out", str(tmp_path)])
    assert code == 1
    assert f"cannot write {tmp_path}: it is a directory" in capsys.readouterr().err


@pytest.mark.parametrize("out", [".", "/"])
def test_personalize_out_naming_cwd_or_root_exits_one(tmp_path, capsys, monkeypatch, out):
    monkeypatch.chdir(tmp_path)
    code = main(["personalize", "--data", "missing", "--out", out, *FAST_TRAIN])
    assert code == 1
    assert f"cannot write {out}: it is a directory" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("argv, error", [
    (["eval", "--state", "{dir}", "--report", "r.tsv"], "Is a directory"),
    (["eval", "--data", "{file}", "--frozen-only", "--report", "r.tsv"], "Not a directory"),
    (["personalize", "--data", "{file}", "--out", "s.povp", *FAST_TRAIN], "Not a directory"),
], ids=["eval_state_dir", "eval_data_file", "personalize_data_file"])
def test_input_path_of_the_wrong_kind_exits_one(bench_dir, tmp_path, capsys, monkeypatch,
                                                argv, error):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "taken").write_text("kept\n")
    (tmp_path / "folder").mkdir()
    argv = [a.format(dir="folder", file="taken") for a in argv]
    if "--data" not in argv:
        argv += ["--data", str(bench_dir)]
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert "povseg: validation error" in err and error in err
    assert sorted(p.name for p in tmp_path.iterdir()) == ["folder", "taken"]


@pytest.mark.parametrize("kind", ["file", "missing"])
@pytest.mark.parametrize("argv", [
    ["personalize", "--out", "s.povp", *FAST_TRAIN],
    ["eval", "--frozen-only", "--report", "r.tsv"],
    ["ablate", "--out", "t.tsv"],
    ["kshot", "--out", "t.tsv"],
    ["concat-eval", "--state", "s.povp", "--report", "r.tsv"],
], ids=lambda argv: argv[0])
def test_data_that_is_no_directory_exits_one_naming_it(bench_dir, tmp_path, capsys,
                                                       monkeypatch, argv, kind):
    monkeypatch.chdir(tmp_path)
    if argv[0] == "concat-eval":  # the state is read first, so it must be valid
        assert main(["personalize", "--data", str(bench_dir), "--out", "s.povp",
                     "--iters", "1"]) == 0
    typed = str(bench_dir / "manifest.tsv") if kind == "file" else "missing"
    capsys.readouterr()
    assert main([*argv, "--data", typed]) == 1
    err = capsys.readouterr().err
    reason = "Not a directory" if kind == "file" else "No such file or directory"
    assert "povseg: validation error: " in err and f"{reason}: '{typed}'" in err


def renamed_vocabulary(snap):
    return dict(vocab_names=[*snap.vocab_names[:-1], "renamed"])


@pytest.mark.parametrize("split, change, argv, message", [
    ("train", lambda snap: dict(features=None), ["personalize", "--out", "s.povp", *FAST_TRAIN],
     "has no feature map"),
    ("train", renamed_vocabulary, ["personalize", "--out", "s.povp", *FAST_TRAIN],
     "disagrees on (V, D, N) or vocabulary names"),
    ("test", renamed_vocabulary, ["eval", "--frozen-only", "--report", "r.tsv"],
     "vocabulary differs from sample 0"),
    ("test", renamed_vocabulary, ["ablate", "--out", "t.tsv"],
     "vocabulary differs from sample 0"),
    ("test", renamed_vocabulary, ["kshot", "--k", "1,2", "--out", "t.tsv"],
     "vocabulary differs from sample 0"),
], ids=["no_feature_map", "train_vocabulary", "test_vocabulary", "ablate_test_vocabulary",
        "kshot_test_vocabulary"])
def test_per_sample_errors_name_the_snapshot_file(tmp_path, capsys, monkeypatch, split,
                                                  change, argv, message):
    monkeypatch.chdir(tmp_path)
    data = tmp_path / "data"
    main(["synth", "--out", str(data), *FAST_SYNTH])
    path = load_manifest(data / "manifest.tsv").split(split)[1].snapshot  # sample 1
    snap = load_snapshot(path)
    save_snapshot(replace(snap, **change(snap)), path)
    capsys.readouterr()
    assert main([*argv, "--data", str(data)]) == 1
    assert f"povseg: validation error: {path} {message}" in capsys.readouterr().err
    assert sorted(p.name for p in tmp_path.iterdir()) == ["data"]


def truncate(path):
    """Cut the last byte off ``path``; return the error its loader then raises."""
    path.write_bytes(path.read_bytes()[:-1])
    with pytest.raises(TruncatedPayloadError) as caught:
        load_snapshot(path)
    return caught.value


@pytest.mark.usefixtures("worker_guard")
@pytest.mark.parametrize("cpus", [1, 2])
@pytest.mark.parametrize("argv", [["eval", "--frozen-only", "--report", "r.tsv"],
                                  ["ablate", "--out", "t.tsv"],
                                  ["kshot", "--k", "1,2", "--out", "t.tsv"]],
                         ids=lambda argv: argv[0])
def test_truncated_test_snapshot_exits_one_naming_it(tmp_path, capsys, monkeypatch,
                                                    usable_cpus, argv, cpus):
    monkeypatch.chdir(tmp_path)
    data = tmp_path / "data"
    assert main(["synth", "--out", str(data), *FAST_SYNTH]) == 0
    error = truncate(load_manifest(data / "manifest.tsv").split("test")[1].snapshot)
    usable_cpus(cpus)
    capsys.readouterr()
    assert main([*argv, "--data", str(data)]) == 1
    assert capsys.readouterr().err == f"povseg: validation error: {error}\n"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["data"]


def test_training_error_comes_before_a_scoring_error(tmp_path, capsys, usable_cpus):
    data = tmp_path / "data"
    assert main(["synth", "--out", str(data), *FAST_SYNTH]) == 0
    manifest = load_manifest(data / "manifest.tsv")
    truncate(manifest.split("test")[0].snapshot)
    error = truncate(manifest.split("train")[1].snapshot)
    usable_cpus(1)
    capsys.readouterr()
    assert main(["ablate", "--data", str(data), "--out", str(tmp_path / "t.tsv")]) == 1
    assert capsys.readouterr().err == f"povseg: validation error: {error}\n"


@pytest.mark.parametrize("command", ["eval", "concat-eval"])
def test_state_from_another_vocabulary_names_the_snapshot(tmp_path, capsys, command):
    data, other, state_path = tmp_path / "data", tmp_path / "v17", tmp_path / "s.povp"
    assert main(["synth", "--out", str(data), *FAST_SYNTH]) == 0
    assert main(["synth", "--out", str(other), "--vocab", "17", *FAST_SYNTH]) == 0
    assert main(["personalize", "--data", str(other), "--out", str(state_path),
                 "--iters", "1"]) == 0
    capsys.readouterr()
    code = main([command, "--data", str(data), "--state", str(state_path),
                 "--report", str(tmp_path / "r.tsv")])
    assert code == 1
    snapshot = data / "snapshots" / "test_positive_000.povs"
    assert (f"povseg: validation error: {snapshot}: personal index 17 != vocabulary size 16"
            in capsys.readouterr().err)
    assert not (tmp_path / "r.tsv").exists()


def test_trace_naming_a_directory_exits_one_before_training(bench_dir, tmp_path, capsys,
                                                            monkeypatch):
    def refuse(args):
        raise AssertionError("the dataset was read before the trace path was checked")

    monkeypatch.setattr("povseg.cli._manifest", refuse)
    out = tmp_path / "s.povp"
    trace = tmp_path / "s.povp.trace"
    trace.mkdir()
    code = main(["personalize", "--data", str(bench_dir), "--out", str(out), *FAST_TRAIN])
    assert code == 1
    assert f"cannot write {trace}: it is a directory" in capsys.readouterr().err
    assert not out.exists() and not any(trace.iterdir())


@pytest.mark.parametrize("kind", ["povs", "povp"])
def test_header_size_beyond_the_file_exits_one_without_a_traceback(tmp_path, kind):
    data = tmp_path / "data"
    state_path = tmp_path / "s.povp"
    main(["synth", "--out", str(data), *FAST_SYNTH])
    main(["personalize", "--data", str(data), "--out", str(state_path), "--iters", "1"])
    if kind == "povs":  # a 2^32-1 x 2^32-1 feature grid: no machine can allocate it
        path = load_manifest(data / "manifest.tsv").split("test")[0].snapshot
        header, sizes = _SNAPSHOT_HEADER, {8: 2**32 - 1, 9: 2**32 - 1}  # hf, wf
    else:  # d = 2^31: 16 GiB for t_per alone
        path, header, sizes = state_path, _STATE_HEADER, {3: 2**31}  # d
    blob = bytearray(path.read_bytes())
    fields = list(header.unpack_from(blob))
    for index, size in sizes.items():
        fields[index] = size
    header.pack_into(blob, 0, *fields)
    path.write_bytes(bytes(blob))
    done = subprocess.run(
        [sys.executable, "-m", "povseg.cli", "eval", "--data", str(data),
         "--state", str(state_path), "--report", str(tmp_path / "r.tsv")],
        env={**os.environ, "PYTHONPATH": str(SRC)}, capture_output=True, text=True)
    assert done.returncode == 1
    assert done.stderr.startswith(f"povseg: validation error: {path}: needed ")
    assert "Traceback" not in done.stderr


@pytest.mark.parametrize("dim", ["V", "H", "W"])
def test_empty_snapshot_exits_one(tmp_path, capsys, monkeypatch, dim):
    data = tmp_path / "data"
    state = tmp_path / "s.povp"
    main(["synth", "--out", str(data), *FAST_SYNTH])
    main(["personalize", "--data", str(data), "--out", str(state), "--iters", "1"])
    entry = load_manifest(data / "manifest.tsv").split("test")[0]
    snap = load_snapshot(entry.snapshot)
    # FrozenSnapshot refuses an empty one, so build and write it with its checks bypassed
    monkeypatch.setattr(FrozenSnapshot, "__post_init__", lambda self: None)
    if dim == "V":
        snap = replace(snap, t_open=snap.t_open[:0], vocab_names=[])
    else:
        m_open = snap.m_open[:0] if dim == "H" else snap.m_open[:, :0]
        snap = replace(snap, m_open=m_open)
        save_mask(np.zeros(m_open.shape[:2], dtype=np.uint8), entry.mask)
    save_snapshot(snap, entry.snapshot)
    monkeypatch.undo()
    for argv in (["eval", "--state", str(state)], ["eval", "--frozen-only"],
                 ["concat-eval", "--state", str(state)]):
        code = main([*argv, "--data", str(data), "--report", str(tmp_path / "r.tsv")])
        assert code == 1
        err = capsys.readouterr().err
        assert "povseg: validation error" in err and str(entry.snapshot) in err
        assert "Traceback" not in err


def test_malformed_last_test_snapshot_exits_one(tmp_path, capsys):
    # three negatives and two positives: the last negative has no concat partner
    data = tmp_path / "data"
    state = tmp_path / "s.povp"
    main(["synth", "--out", str(data), "--k-train", "2", "--test-pos", "2",
          "--test-neg", "3"])
    main(["personalize", "--data", str(data), "--out", str(state), "--iters", "1"])
    last = load_manifest(data / "manifest.tsv").split("test")[-1].snapshot
    last.write_bytes(last.read_bytes()[:-1])
    for argv in (["eval", "--state", str(state)], ["eval", "--frozen-only"],
                 ["concat-eval", "--state", str(state)]):
        code = main([*argv, "--data", str(data), "--report", str(tmp_path / "r.tsv")])
        assert code == 1
        err = capsys.readouterr().err
        assert "povseg: validation error" in err and str(last) in err


@pytest.mark.parametrize("fault", ["z_open_cut", "last_byte_cut", "z_open_nan"])
def test_malformed_concat_negative_exits_one_before_the_report(tmp_path, capsys, fault):
    data = tmp_path / "data"
    state = tmp_path / "s.povp"
    main(["synth", "--out", str(data), *FAST_SYNTH])
    main(["personalize", "--data", str(data), "--out", str(state), "--iters", "1"])
    negative = [e for e in load_manifest(data / "manifest.tsv").split("test")
                if e.polarity == "negative"][0].snapshot
    snap = load_snapshot(negative)
    z_at = _SNAPSHOT_HEADER.size + 4 * snap.t_open.size
    blob = negative.read_bytes()
    negative.write_bytes({
        "z_open_cut": blob[:z_at + 8],
        "last_byte_cut": blob[:-1],
        "z_open_nan": blob[:z_at] + struct.pack("<f", np.nan) + blob[z_at + 4:],
    }[fault])
    report = tmp_path / "r.tsv"
    code = main(["concat-eval", "--data", str(data), "--state", str(state),
                 "--report", str(report)])
    assert code == 1
    err = capsys.readouterr().err
    assert f"{negative}: " in err
    if fault == "z_open_nan":
        assert f"{negative}: non-finite value in z_open" in err
    assert not report.exists()


def truncated(path):
    path.write_bytes(path.read_bytes()[:-1])


def overflowing(path):
    # finite, so the file loads, but the frozen S = tau T Z^T overflows
    snap = load_snapshot(path)
    save_snapshot(replace(snap, z_open=snap.z_open * 1e3,
                          logit_scale=np.finfo(np.float64).max), path)


@pytest.mark.usefixtures("worker_guard")
@pytest.mark.parametrize("cpus", [1, 2, 3])
@pytest.mark.parametrize("bad", [(1, 2), (0, 3), (2, 3)])
@pytest.mark.parametrize("fault, code, message", [
    (truncated, 1, "povseg: validation error: {}"),
    (overflowing, 2, "povseg: numeric error: {}: non-finite value at stage 'forward'"),
], ids=["malformed", "non_finite"])
def test_first_of_two_bad_test_images_is_reported(tmp_path, capsys, usable_cpus, cpus, bad,
                                                  fault, code, message):
    """Whichever worker scores them, the first bad image in manifest order is named."""
    usable_cpus(cpus)
    data = tmp_path / "data"
    main(["synth", "--out", str(data), *FAST_SYNTH])
    paths = [e.snapshot for e in load_manifest(data / "manifest.tsv").split("test")]
    for i in bad:
        fault(paths[i])
    capsys.readouterr()
    report = tmp_path / "r.tsv"
    assert main_without_warnings(["eval", "--frozen-only", "--data", str(data),
                                  "--report", str(report)]) == code
    err = capsys.readouterr().err
    assert message.format(paths[bad[0]]) in err and str(paths[bad[1]]) not in err
    assert "Traceback" not in err and not report.exists()


@pytest.mark.usefixtures("worker_guard")
@pytest.mark.parametrize("command", ["eval", "concat-eval"])
def test_worker_that_dies_exits_two(tmp_path, capsys, monkeypatch, usable_cpus, command):
    usable_cpus(2)
    data, state = tmp_path / "data", tmp_path / "s.povp"
    main(["synth", "--out", str(data), *FAST_SYNTH])
    main(["personalize", "--data", str(data), "--out", str(state), "--iters", "1"])
    parent = os.getpid()
    real = metrics.load_sample

    def dying(entry):
        if os.getpid() != parent:  # loaded in the forked worker
            os._exit(3)
        return real(entry)

    monkeypatch.setattr(metrics, "load_sample", dying)
    capsys.readouterr()
    report = tmp_path / "r.tsv"
    assert main([command, "--data", str(data), "--state", str(state),
                 "--report", str(report)]) == 2
    err = capsys.readouterr().err
    assert re.fullmatch(r"povseg: runtime error: worker process \d+ exited with status 3 "
                        r"before sending its results\n", err)
    assert not report.exists()


def test_non_finite_feature_exits_one_naming_the_file(tmp_path, capsys):
    data = tmp_path / "data"
    main(["synth", "--out", str(data), *FAST_SYNTH])
    path = load_manifest(data / "manifest.tsv").split("train")[0].snapshot
    snap = load_snapshot(path)
    at = _SNAPSHOT_HEADER.size + 4 * (snap.t_open.size + snap.z_open.size + snap.m_open.size)
    blob = path.read_bytes()
    path.write_bytes(blob[:at] + struct.pack("<f", np.inf) + blob[at + 4:])
    out = tmp_path / "s.povp"
    code = main(["personalize", "--data", str(data), "--out", str(out), *FAST_TRAIN])
    assert code == 1
    assert f"{path}: non-finite value in features" in capsys.readouterr().err
    assert not out.exists()


def test_bad_utf8_manifest_exits_one(tmp_path, capsys):
    data = tmp_path / "data"
    main(["synth", "--out", str(data), *FAST_SYNTH])
    manifest = data / "manifest.tsv"
    manifest.write_bytes(manifest.read_bytes().replace(b"\t", b"\t\xff", 1))
    code = main(["eval", "--data", str(data), "--frozen-only",
                 "--report", str(tmp_path / "r.tsv")])
    assert code == 1
    err = capsys.readouterr().err
    assert "povseg: validation error" in err and str(manifest) in err


@pytest.mark.parametrize("command", ["personalize", "ablate"])
def test_personal_class_missing_from_vocabulary_exits_one(tmp_path, capsys, command):
    data = tmp_path / "data"
    assert main(["synth", "--out", str(data), *FAST_SYNTH]) == 0
    manifest = data / "manifest.tsv"
    manifest.write_text("".join(line.rsplit("\t", 1)[0] + "\tmissing\n"
                                for line in manifest.read_text().splitlines()))
    out = tmp_path / "out"
    code = main([command, "--data", str(data), "--out", str(out), *(
        FAST_TRAIN if command == "personalize" else [])])
    assert code == 1
    first = data / "snapshots" / "train_000.povs"
    assert capsys.readouterr().err == (
        f"povseg: validation error: {first}: personal class 'missing' not in the snapshot "
        "vocabulary; cannot initialize the personal embedding\n")
    assert sorted(p.name for p in tmp_path.iterdir()) == ["data"]


@pytest.mark.parametrize("flag,value", [("--lr", "nan"), ("--lr", "inf")])
def test_non_finite_training_flag_exits_one(tmp_path, capsys, flag, value):
    data = tmp_path / "data"
    main(["synth", "--out", str(data), *FAST_SYNTH])
    code = main(["personalize", "--data", str(data), "--out", str(tmp_path / "s.povp"),
                 *FAST_TRAIN, flag, value])
    assert code == 1
    assert "povseg: validation error" in capsys.readouterr().err
    assert not (tmp_path / "s.povp").exists()


@pytest.mark.parametrize("flag,value", [
    ("--eps", "0"), ("--eps", "inf"), ("--eps", "nan"), ("--seed", "-1"),
    ("--tol", "0"), ("--tol", "nan")])
def test_bad_gradcheck_flag_exits_one(capsys, flag, value):
    # The contract's step and tolerance are grad.GRADCHECK_EPS and GRADCHECK_TOL, not
    # flags, so any --eps or --tol is rejected as an unknown argument.
    assert main(["gradcheck", flag, value]) == 1
    named = (f"gradcheck {flag[2:]} must be" if flag == "--seed"
             else f"unrecognized arguments: {flag} {value}")
    assert named in capsys.readouterr().err


REQUIRED = {"synth": ["--out", "d"], "personalize": ["--data", "d", "--out", "s.povp"]}


def test_personalize_defaults_are_train_config():
    parser = build_parser()
    assert _config(SynthConfig, parser.parse_args(["synth", *REQUIRED["synth"]])) \
        == SynthConfig()
    args = parser.parse_args(["personalize", *REQUIRED["personalize"]])
    assert _config(TrainConfig, args) == TrainConfig()


CONFIG_FLAGS = [
    ("synth", "--seed", "7", "seed"), ("synth", "--vocab", "20", "v"),
    ("synth", "--dim", "40", "d"), ("synth", "--proposals", "9", "n"),
    ("synth", "--grid", "20", "h"), ("synth", "--feature-grid", "8", "hf"),
    ("synth", "--k-train", "2", "k_train"), ("synth", "--test-pos", "3", "n_test_pos"),
    ("synth", "--test-neg", "4", "n_test_neg"),
    ("personalize", "--lr", "0.25", "learning_rate"),
    ("personalize", "--iters", "7", "iterations"), ("personalize", "--alpha", "0.5", "alpha"),
]


@pytest.mark.parametrize("command, flag, value, field", CONFIG_FLAGS,
                         ids=[flag for _, flag, _, _ in CONFIG_FLAGS])
def test_each_config_flag_sets_its_own_field(command, flag, value, field):
    cls = SynthConfig if command == "synth" else TrainConfig
    args = build_parser().parse_args([command, *REQUIRED[command], flag, value])
    expected = replace(cls(), **{field: type(getattr(cls(), field))(value)})
    assert _config(cls, args) == expected


# Runs one command in a fresh interpreter and prints the povseg modules it loaded.
IMPORT_PROBE = """
import sys
from povseg.cli import main
code = main(sys.argv[1:])
print(" ".join(sorted(name for name in sys.modules if name.startswith("povseg"))))
sys.exit(code)
"""


@pytest.fixture(scope="module")
def trained(tmp_path_factory):
    """A small dataset and a state trained on it, for commands that only read."""
    root = tmp_path_factory.mktemp("trained")
    assert main(["synth", "--out", str(root / "data"), *FAST_SYNTH]) == 0
    assert main(["personalize", "--data", str(root / "data"),
                 "--out", str(root / "s.povp"), *FAST_TRAIN]) == 0
    return root


def loaded_modules(cwd, code, *argv):
    env = dict(os.environ, PYTHONPATH=str(SRC))
    run = subprocess.run([sys.executable, "-c", code, *argv], cwd=cwd, env=env,
                         capture_output=True, text=True, timeout=120)
    assert run.returncode == 0, run.stderr
    return {name.removeprefix("povseg.")
            for name in run.stdout.splitlines()[-1].split()}


@pytest.mark.parametrize("argv, unloaded", [
    (["eval", "--data", "data", "--state", "s.povp", "--report", "r.tsv"], {"synthbench"}),
    (["eval", "--data", "data", "--frozen-only", "--report", "r.tsv"], {"synthbench"}),
    (["concat-eval", "--data", "data", "--state", "s.povp", "--report", "r.tsv"],
     {"synthbench"}),
    (["gradcheck"], {"metrics", "workers", "personalize", "synthbench"}),
    (["personalize", "--data", "data", "--out", "p.povp", *FAST_TRAIN],
     {"synthbench", "metrics", "workers"}),
    (["synth", "--out", "synth-data", *FAST_SYNTH],
     {"head", "metrics", "workers", "personalize", "grad", "losses"}),
], ids=["eval_state", "eval_frozen", "concat_eval", "gradcheck", "personalize", "synth"])
def test_each_command_imports_only_what_it_runs(trained, argv, unloaded):
    loaded = loaded_modules(trained, IMPORT_PROBE, *argv)
    assert "cli" in loaded and not loaded & unloaded, sorted(loaded)


def test_bare_package_import_loads_no_submodule(tmp_path):
    code = "import sys, povseg; print(' '.join(m for m in sys.modules if m.startswith('povseg')))"
    assert loaded_modules(tmp_path, code) == {"povseg"}
