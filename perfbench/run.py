"""povseg benchmark: CLI wall times per workload, and a traced per-layer run.

Run from the repository root::

    python3 perfbench/run.py --workload desk --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload backbone-eval --seed 1 --seconds 30 --trace 1
    python3 perfbench/run.py --workload all --seed 20 --seconds 10 --trace 0
    python3 perfbench/run.py --workload desk --seed 20 --seconds 1 --trace 0 --smoke

Every command runs as a user runs it, ``python -m povseg.cli ...`` with
``PYTHONPATH=src``, in a child process of this one, one after another. The
seed goes to ``povseg synth --seed``; the program sees only the generated
files. Each workload is set up (``synth``, plus training the evaluated state
on ``backbone-eval``) several times, then its command list is run in cycles
for about ``--seconds`` seconds. Times are subprocess wall times, each taken
as the fastest repetition in the run; ``cycle_s`` sums them over the command
list. The peak RSS of each child comes from ``os.wait4``.

``--trace 0`` reports the end-to-end metrics, ``--trace 1`` the per-layer
metrics: each command is then also run under ``perfbench/tracer.py``, which
records a span around every public povseg function, and the difference to
the untraced run of the same command is the tracing overhead.

Outputs are checked: every command must exit 0, write well-formed files, and
write byte-identical files on every repetition of one seed (traced runs
included); on ``desk`` the ablation table of the default seed must match the
pinned table within 2e-3. A failed check counts as a failed operation.

Human-readable lines come first; the last line of standard output is one
JSON object with ``correct``, ``attempted``, ``failed`` and ``metrics``. The
full record (environment, every sample, every layer) is written to
``perfbench/results/<workload>-seed<seed>-trace<trace>.json``, and a traced
run's spans, grouped by command, to ``...-trace1.spans.json`` beside it.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import threading
import time
from collections import defaultdict
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SPEC_PATH = ROOT / "BENCHMARK.json"

# One BLAS thread per child (the machine this was tuned on has nproc = 2):
# the children run one at a time, and one thread keeps timings steady on a
# shared machine.
BLAS_THREADS = 1
COMMAND_TIMEOUT_S = 150
RUN_BUDGET_S = 170         # a run must end within 180 s; commands past this are killed
DEFAULT_SEED = 20          # SynthConfig.seed; the pinned table is for this seed
IMPORT_PROBES = 5
SETUP_REPEATS = 5

# The README's module-ablation table on the bundled benchmark at the default
# seed: flags, then miou, iou_per, precision_per, recall_per.
PINNED_ABLATION = [
    ("-", "-", "-", 0.9263, 0.8262, 0.9859, 0.8361),
    ("x", "-", "-", 0.9030, 0.8498, 0.8696, 0.9739),
    ("x", "x", "-", 0.9028, 0.8546, 0.8758, 0.9724),
    ("x", "-", "x", 0.9113, 0.8622, 0.8862, 0.9694),
    ("x", "x", "x", 0.9117, 0.8731, 0.8984, 0.9687),
]
PINNED_TOLERANCE = 2e-3

BACKBONE_SYNTH = ["--vocab", "150", "--dim", "512", "--proposals", "100",
                  "--grid", "128", "--feature-grid", "32", "--k-train", "5"]
BACKBONE_TRAIN_ITERS = 20
BACKBONE_EVAL_STATE_ITERS = 10


# --------------------------------------------------------------------------
# Output checks: each returns an error message, or None when the output is fine.

def _floats_in_unit_range(values: list[str], what: str) -> str | None:
    for text in values:
        value = float(text)
        if not 0.0 <= value <= 1.0:
            return f"{what}: value {text} outside [0, 1]"
    return None


def check_report(outputs: list[Path], stdout: str) -> str | None:
    lines = outputs[0].read_text().splitlines()
    keys = [line.split("\t")[0] for line in lines[:5]]
    if keys != ["metric", "iou_per", "miou", "precision_per", "recall_per"]:
        return f"{outputs[0].name}: unexpected rows {keys}"
    return _floats_in_unit_range([line.split("\t")[1] for line in lines[1:]],
                                 outputs[0].name)


def check_table(outputs: list[Path], stdout: str) -> str | None:
    lines = outputs[0].read_text().splitlines()
    if len(lines) < 2:
        return f"{outputs[0].name}: no rows"
    values = [cell for line in lines[1:] for cell in line.split("\t")
              if cell not in ("x", "-") and not cell.isdigit() and cell != "Avg."]
    return _floats_in_unit_range(values, outputs[0].name)


def check_state(outputs: list[Path], stdout: str) -> str | None:
    state, trace = outputs
    if state.read_bytes()[:4] != b"POVP":
        return f"{state.name}: not a POVP file"
    losses = [float(line.split("\t")[1]) for line in trace.read_text().splitlines()]
    if not losses or not all(math.isfinite(v) for v in losses):
        return f"{trace.name}: empty or non-finite loss trace"
    return None


def check_gradcheck(outputs: list[Path], stdout: str) -> str | None:
    return None if " PASS " in stdout else "gradcheck did not report PASS"


def check_synth(outputs: list[Path], stdout: str) -> str | None:
    manifest = outputs[0] / "manifest.tsv"
    for line in manifest.read_text().splitlines():
        snapshot = line.split("\t")[0]
        if not (outputs[0] / snapshot).is_file():
            return f"manifest names missing {snapshot}"
    return None


def check_pinned_ablation(table: str) -> str | None:
    rows = [line.split("\t") for line in table.splitlines()[1:]]
    if len(rows) != len(PINNED_ABLATION):
        return f"ablation table has {len(rows)} rows, expected {len(PINNED_ABLATION)}"
    for got, want in zip(rows, PINNED_ABLATION):
        if tuple(got[:3]) != want[:3]:
            return f"ablation flags {got[:3]} != {list(want[:3])}"
        for value, pinned in zip(got[3:], want[3:]):
            if abs(float(value) - pinned) > PINNED_TOLERANCE:
                return (f"ablation row {'/'.join(want[:3])}: {value} differs from "
                        f"pinned {pinned} by more than {PINNED_TOLERANCE}")
    return None


# --------------------------------------------------------------------------
# Workloads

@dataclass
class Command:
    label: str
    args: list[str]
    outputs: list[Path]        # files (or directories) that must repeat bytewise
    check: object              # (outputs, stdout) -> error message or None


@dataclass
class Paths:
    data: Path
    out: Path
    setup_state: Path


@dataclass
class Workload:
    name: str
    synth_args: list[str]
    setup_state_iters: int | None          # train the evaluated state in set-up
    commands: object                       # Paths -> list[Command]
    expect: dict[str, str] = field(default_factory=dict)

    def setup(self, paths: Paths, seed: int) -> list[Command]:
        steps = [Command("synth", ["synth", "--out", str(paths.data), "--seed", str(seed),
                                   *self.synth_args], [paths.data], check_synth)]
        if self.setup_state_iters is not None:
            state = paths.setup_state
            steps.append(Command(
                "setup-personalize",
                ["personalize", "--data", str(paths.data), "--out", str(state),
                 "--iters", str(self.setup_state_iters)],
                [state, Path(f"{state}.trace")], check_state))
        return steps


def _personalize(paths: Paths, extra: list[str]) -> Command:
    state = paths.out / "personalize.povp"
    return Command("personalize", ["personalize", "--data", str(paths.data),
                                   "--out", str(state), *extra],
                   [state, Path(f"{state}.trace")], check_state)


def _eval_commands(paths: Paths, state: Path) -> list[Command]:
    data, out = str(paths.data), paths.out
    return [
        Command("eval", ["eval", "--data", data, "--state", str(state),
                         "--report", str(out / "eval.tsv")],
                [out / "eval.tsv"], check_report),
        Command("eval_frozen", ["eval", "--data", data, "--frozen-only",
                                "--report", str(out / "eval_frozen.tsv")],
                [out / "eval_frozen.tsv"], check_report),
        Command("concat_eval", ["concat-eval", "--data", data, "--state", str(state),
                                "--report", str(out / "concat_eval.tsv")],
                [out / "concat_eval.tsv"], check_report),
    ]


def _desk_commands(paths: Paths) -> list[Command]:
    personalize = _personalize(paths, [])
    data, out = str(paths.data), paths.out
    return [
        personalize,
        *_eval_commands(paths, personalize.outputs[0]),
        Command("ablate", ["ablate", "--data", data, "--out", str(out / "ablate.tsv")],
                [out / "ablate.tsv"], check_table),
        Command("kshot", ["kshot", "--data", data, "--k", "1,3,5",
                          "--out", str(out / "kshot.tsv")],
                [out / "kshot.tsv"], check_table),
        Command("gradcheck", ["gradcheck"], [], check_gradcheck),
    ]


# Why each workload exists is recorded in BENCHMARK.json; ``expect`` records
# which layer metrics should move which end-to-end metric on it.
WORKLOADS = {
    "desk": Workload(
        name="desk",
        synth_args=[],
        setup_state_iters=None,
        commands=_desk_commands,
        expect={
            "cli.import_s": "cycle_s (every command)",
            "snapshot.load_snapshot.ms": "cycle_s (ablate reloads the train split)",
            "synthbench.loads_per_unique_snapshot": "cycle_s (ablate, kshot)",
            "synthbench.train_on_manifest.ms": "cycle_s (ablate, kshot)",
            "metrics.evaluate_samples.ms": "cycle_s (ablate, kshot)",
            "grad.finite_diff.ms": "cycle_s (gradcheck)",
            "synthbench.generate.ms": "setup_s",
        },
    ),
    "backbone-train": Workload(
        name="backbone-train",
        synth_args=[*BACKBONE_SYNTH, "--test-pos", "1", "--test-neg", "1"],
        setup_state_iters=None,
        commands=lambda paths: [_personalize(
            paths, ["--iters", str(BACKBONE_TRAIN_ITERS)])],
        expect={
            "grad.backward.self_ms": "cycle_s (personalize)",
            "head.predict.self_ms": "cycle_s (personalize)",
            "losses.total_loss.ms": "cycle_s (personalize)",
            "personalize.step_ms": "cycle_s (personalize)",
            "snapshot.save_snapshot.ms": "setup_s",
            "synthbench.generate.ms": "setup_s",
        },
    ),
    "backbone-eval": Workload(
        name="backbone-eval",
        synth_args=[*BACKBONE_SYNTH, "--test-pos", "8", "--test-neg", "8"],
        setup_state_iters=BACKBONE_EVAL_STATE_ITERS,
        commands=lambda paths: _eval_commands(paths, paths.setup_state),
        expect={
            "snapshot.load_snapshot.ms": "cycle_s (eval, eval_frozen, concat_eval)",
            "snapshot.bytes_read": "cycle_s (eval, eval_frozen, concat_eval)",
            "metrics.forwards_per_image": "cycle_s (eval, eval_frozen)",
            "head.build_frozen_forward.ms": "cycle_s (eval, eval_frozen)",
            "synthbench.concat_pairs.ms": "cycle_s (concat_eval)",
            "snapshot.save_snapshot.ms": "setup_s",
            "snapshot.bytes_written": "setup_s",
        },
    ),
}


# --------------------------------------------------------------------------
# Running commands

def child_env() -> dict[str, str]:
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    env["OPENBLAS_NUM_THREADS"] = str(BLAS_THREADS)
    return env


@dataclass
class Result:
    wall_s: float
    rss_mb: float
    ok: bool


class Runner:
    """Runs commands one at a time; keeps failures, output digests and traced spans."""

    def __init__(self, work: Path):
        self.work = work
        self.env = child_env()
        self.attempted = 0
        self.failures: list[str] = []
        self.digests: dict[str, str] = {}
        self.deadline = time.perf_counter() + RUN_BUDGET_S
        self.traced: list[tuple[str, str, list]] = []   # (phase, label, spans)
        self._count = 0

    def spawn(self, argv: list[str]) -> tuple[float, float, int, str, str]:
        """Run argv to completion; returns wall s, peak RSS MiB, exit code, stdout, stderr."""
        self._count += 1
        log = self.work / "logs" / f"{self._count:05d}"
        log.parent.mkdir(parents=True, exist_ok=True)
        with open(f"{log}.out", "wb") as out, open(f"{log}.err", "wb") as err:
            start = time.perf_counter()
            proc = subprocess.Popen(argv, cwd=ROOT, env=self.env, stdout=out, stderr=err)
            timeout = min(COMMAND_TIMEOUT_S, max(1.0, self.deadline - start))
            timer = threading.Timer(timeout, proc.kill)
            timer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            finally:
                timer.cancel()
            wall = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        stdout = Path(f"{log}.out").read_text(errors="replace")
        stderr = Path(f"{log}.err").read_text(errors="replace")
        return wall, usage.ru_maxrss / 1024.0, proc.returncode, stdout, stderr

    def run(self, command: Command, phase: str, traced: bool = False) -> Result:
        """One operation: run, check, compare its outputs with earlier repetitions."""
        self.attempted += 1
        if traced:
            spans_path = self.work / "spans.json"
            argv = [sys.executable, str(BENCH_DIR / "tracer.py"), str(spans_path),
                    f"{phase}:{command.label}:{self._count + 1}", "--", *command.args]
        else:
            argv = [sys.executable, "-m", "povseg.cli", *command.args]
        wall, rss, code, stdout, stderr = self.spawn(argv)
        if code != 0:
            tail = stderr.strip().splitlines()[-1:] or [""]
            error = f"exit code {code}: {tail[0]}"
        else:
            error = command.check(command.outputs, stdout)
        if error is None:
            digest = _digest(command.outputs, stdout)
            first = self.digests.setdefault(command.label, digest)
            if digest != first:
                error = "output bytes differ from the first repetition of this seed"
        if traced and spans_path.is_file():
            self.traced.append((phase, command.label, json.loads(spans_path.read_text())))
            spans_path.unlink()
        if error is not None:
            self.failures.append(f"{phase} {command.label}{' (traced)' if traced else ''}: {error}")
        return Result(wall, rss, error is None)

    def probe(self, code: str) -> float:
        """Wall time of a bare ``python -c code`` child; a failure counts."""
        self.attempted += 1
        wall, _, status, _, _ = self.spawn([sys.executable, "-c", code])
        if status != 0:
            self.failures.append(f"python -c {code!r}: exit code {status}")
        return wall


def _digest(outputs: list[Path], stdout: str) -> str:
    h = hashlib.sha256()
    if not outputs:
        h.update(stdout.encode())
    for path in outputs:
        files = sorted(p for p in path.rglob("*") if p.is_file()) if path.is_dir() else [path]
        for item in files:
            h.update(str(item.relative_to(path) if path.is_dir() else item.name).encode())
            with open(item, "rb") as fh:
                for block in iter(lambda: fh.read(1 << 20), b""):
                    h.update(block)
    return h.hexdigest()


# --------------------------------------------------------------------------
# Trace analysis

def layer_metrics(traced: list[tuple[str, str, list]], cycles: int) -> dict[str, tuple[float, str]]:
    """Per-function and derived per-layer metrics from the recorded spans.

    Counts and bytes are per pass: one set-up plus one cycle of the
    workload's commands. Times are per call, averaged over every traced call.
    """
    # Per-pass sums are exact fractions, so a count reads as a whole number.
    per_pass: dict[str, Fraction] = defaultdict(Fraction)
    raw: dict[str, int] = defaultdict(int)
    total: dict[str, float] = defaultdict(float)
    self_time: dict[str, float] = defaultdict(float)
    bytes_moved: dict[str, Fraction] = defaultdict(Fraction)
    forwards = images = Fraction(0)
    loads: dict[str, Fraction] = defaultdict(Fraction)
    unique: dict[str, Fraction] = defaultdict(Fraction)
    backward_steps = 0
    for phase, label, spans in traced:
        weight = Fraction(1, 1 if phase == "setup" else cycles)
        children: dict[int, float] = defaultdict(float)
        for name, start, end, parent, _, _ in spans:
            if parent >= 0:
                children[parent] += end - start
        loaded = []
        for index, (name, start, end, parent, _, extra) in enumerate(spans):
            if name == "import":
                continue
            per_pass[name] += weight
            raw[name] += 1
            total[name] += end - start
            self_time[name] += end - start - children[index]
            if extra and "bytes" in extra:
                bytes_moved[name] += weight * extra["bytes"]
            if name == "snapshot.load_snapshot" and extra:
                loaded.append(extra["path"])
            elif name == "metrics.evaluate_samples":
                images += weight * extra["samples"]
            elif name in ("head.build_forward", "head.build_frozen_forward"):
                if "metrics.evaluate_samples" in _ancestors(spans, parent):
                    forwards += weight
            elif name == "grad.backward":
                if "personalize.run_personalization" in _ancestors(spans, parent):
                    backward_steps += 1
        loads[label] += weight * len(loaded)
        unique[label] += weight * len(set(loaded))

    table: dict[str, tuple[float, str]] = {}
    for name in sorted(raw):
        table[f"{name}.calls"] = (float(per_pass[name]), "count")
        table[f"{name}.ms"] = (1e3 * total[name] / raw[name], "ms")
        table[f"{name}.self_ms"] = (1e3 * self_time[name] / raw[name], "ms")
    # Bytes are computed from the sizes of the files the calls named.
    for layer in ("snapshot", "personalize"):
        table[f"{layer}.bytes_read"] = (float(sum(
            v for k, v in bytes_moved.items() if k.startswith(f"{layer}.load_"))), "bytes")
        table[f"{layer}.bytes_written"] = (float(sum(
            v for k, v in bytes_moved.items() if k.startswith(f"{layer}.save_"))), "bytes")
    run = "personalize.run_personalization"
    if backward_steps:
        table["personalize.step_ms"] = (1e3 * total[run] / backward_steps, "ms")
        table["grad.backward.share_of_run"] = (total["grad.backward"] / total[run], "ratio")
    if images:
        table["metrics.forwards_per_image"] = (float(forwards / images), "ratio")
    name = "synthbench.loads_per_unique_snapshot"
    if sum(unique.values()):
        table[name] = (float(sum(loads.values()) / sum(unique.values())), "ratio")
    for label in sorted(unique):
        if unique[label]:
            table[f"{name}.{label}"] = (float(loads[label] / unique[label]), "ratio")
    return table


def _ancestors(spans: list, parent: int) -> set[str]:
    names = set()
    while parent >= 0:
        names.add(spans[parent][0])
        parent = spans[parent][3]
    return names


# --------------------------------------------------------------------------
# One workload run

def environment(runner: Runner) -> dict:
    probe = ("import json, sys, numpy as np; "
             "b = np.show_config(mode='dicts')['Build Dependencies']['blas']; "
             "print(json.dumps({'python': sys.version.split()[0], 'numpy': np.__version__, "
             "'blas': b.get('name'), 'blas_version': b.get('version')}))")
    _, _, code, stdout, _ = runner.spawn([sys.executable, "-c", probe])
    info = json.loads(stdout) if code == 0 else {}
    info.update(nproc=os.cpu_count(), blas_threads=BLAS_THREADS,
                file_reads="page-cache warm: the file cache is not dropped, so "
                           "snapshot reads are page-cache reads")
    return info


def _config_lines(runner: Runner) -> list[str]:
    """The first '[command] key=value ...' line each CLI command printed."""
    seen = {}
    for log in sorted((runner.work / "logs").glob("*.out")):
        for line in log.read_text(errors="replace").splitlines():
            if line.startswith("[") and "]" in line:
                seen.setdefault(line.split("]")[0], line.replace(f"{runner.work}/", ""))
    return list(seen.values())


def run_workload(workload: Workload, seed: int, seconds: float, trace: bool,
                 smoke: bool) -> dict:
    work = BENCH_DIR / "work" / f"{workload.name}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    paths = Paths(data=work / "data", out=work / "out", setup_state=work / "setup.povp")
    paths.out.mkdir(parents=True)
    runner = Runner(work)
    try:
        return _measure(workload, runner, paths, seed, seconds, trace, smoke)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            work.parent.rmdir()
        except OSError:
            pass


def _measure(workload: Workload, runner: Runner, paths: Paths, seed: int,
             seconds: float, trace: bool, smoke: bool) -> dict:
    env = environment(runner)
    commands = workload.commands(paths)
    # Repeated set-ups write a second copy; the commands read the first one.
    rep = Paths(data=runner.work / "rep" / "data", out=paths.out,
                setup_state=runner.work / "rep" / paths.setup_state.name)
    setup_times: list[float] = []

    def set_up(target: Paths) -> None:
        setup_times.append(sum(runner.run(step, "setup").wall_s
                               for step in workload.setup(target, seed)))

    set_up(paths)
    if trace:
        for step in workload.setup(paths, seed):
            runner.run(step, "setup", traced=True)

    # Cycles over the command list: untraced, or untraced then traced per
    # command. The first untraced cycles each start by repeating the set-up,
    # so that set-up samples do not all fall into one slow spell of a shared
    # machine; set-ups do not count against --seconds. Stop when the next cycle would take the
    # commands' time past --seconds, after at least two untraced cycles (one
    # when tracing: the traced cycle repeats it).
    walls: dict[str, list[float]] = defaultdict(list)
    rss: dict[str, list[float]] = defaultdict(list)
    traced_walls: dict[str, list[float]] = defaultdict(list)
    cycles = 0
    while True:
        if not (smoke or trace) and len(setup_times) < SETUP_REPEATS:
            set_up(rep)
        for command in commands:
            result = runner.run(command, "cycle")
            walls[command.label].append(result.wall_s)
            rss[command.label].append(result.rss_mb)
            if trace:
                traced_walls[command.label].append(
                    runner.run(command, "cycle", traced=True).wall_s)
        cycles += 1
        measured = sum(map(sum, walls.values())) + sum(map(sum, traced_walls.values()))
        if smoke or time.perf_counter() > runner.deadline or (
                cycles >= (1 if trace else 2) and measured + measured / cycles > seconds):
            break
    shutil.rmtree(runner.work / "rep", ignore_errors=True)

    if workload.name == "desk":
        _check_pinned(runner, paths, seed)

    # A slow spell only adds time, so each timing is the fastest repetition;
    # the report shows the median and the count next to it.
    per_command = {label: {"min_s": min(v), "median_s": statistics.median(v), "n": len(v),
                           "max_s": max(v), "samples_s": v, "peak_rss_mb": max(rss[label])}
                   for label, v in walls.items()}
    end_to_end = {
        "setup_s": (min(setup_times), "s"),
        "cycle_s": (sum(c["min_s"] for c in per_command.values()), "s"),
        "peak_rss_mb": (max(c["peak_rss_mb"] for c in per_command.values()), "MiB"),
    }
    record = {
        "workload": workload.name, "expect": workload.expect,
        "seed": seed, "seconds": seconds, "trace": int(trace), "smoke": smoke,
        "environment": env, "scale": _config_lines(runner), "cycles": cycles,
        "setup_samples_s": setup_times, "commands": per_command,
        "end_to_end": {k: {"value": v, "unit": u} for k, (v, u) in end_to_end.items()},
    }
    if trace:
        imports, bare = [], []
        for _ in range(IMPORT_PROBES):
            imports.append(runner.probe("import povseg"))
            bare.append(runner.probe("pass"))
        layers = layer_metrics(runner.traced, cycles)
        layers["cli.import_s"] = (min(imports), "s")
        layers["cli.python_start_s"] = (min(bare), "s")
        untraced = sum(min(v) for v in walls.values())
        traced = sum(min(v) for v in traced_walls.values())
        layers["trace.overhead_pct"] = (100.0 * (traced - untraced) / untraced, "%")
        record["layers"] = {k: {"value": v, "unit": u} for k, (v, u) in layers.items()}
        record["traced_commands_s"] = {k: min(v) for k, v in traced_walls.items()}
        record["spans"] = runner.traced
    record.update(attempted=runner.attempted, failed=len(runner.failures),
                  failures=runner.failures)
    return record


def _check_pinned(runner: Runner, paths: Paths, seed: int) -> None:
    """Run ablate on the default-seed desk data and compare with the pinned table."""
    table = paths.out / "ablate.tsv"
    if seed != DEFAULT_SEED:
        data = runner.work / "pinned"
        table = runner.work / "pinned-ablate.tsv"
        steps = [Command("pinned-synth", ["synth", "--out", str(data),
                                          "--seed", str(DEFAULT_SEED)], [data], check_synth),
                 Command("pinned-ablate", ["ablate", "--data", str(data), "--out", str(table)],
                         [table], check_table)]
        if not all(runner.run(step, "check").ok for step in steps):
            return
    runner.attempted += 1
    error = check_pinned_ablation(table.read_text()) if table.is_file() else "no ablation table"
    if error is not None:
        runner.failures.append(f"check pinned ablation: {error}")


# --------------------------------------------------------------------------
# Reporting

def select(values: dict[str, dict], names: list[dict]) -> dict[str, dict]:
    """The metrics BENCHMARK.json lists, in its order; a missing one reads 0."""
    out = {}
    for entry in names:
        got = values.get(entry["name"])
        if got is None:
            print(f"# warning: metric {entry['name']} was not measured on this workload",
                  file=sys.stderr)
            got = {"value": 0.0, "unit": entry["unit"]}
        out[entry["name"]] = {"value": got["value"], "unit": entry["unit"]}
    return out


def print_report(record: dict) -> None:
    env = record["environment"]
    print(f"# workload={record['workload']} seed={record['seed']} "
          f"seconds={record['seconds']} trace={record['trace']} cycles={record['cycles']}")
    print(f"# env: nproc={env.get('nproc')} python={env.get('python')} "
          f"numpy={env.get('numpy')} blas={env.get('blas')} {env.get('blas_version')} "
          f"blas_threads={env['blas_threads']} reads={env['file_reads']}")
    for line in record["scale"]:
        print(f"# scale: {line}")
    for layer, e2e in record["expect"].items():
        print(f"# expect: {layer} -> {e2e}")
    setups = record["setup_samples_s"]
    print(f"# {'wall time (s)':<16} {'fastest':>8} {'median':>8} {'slowest':>8} {'n':>3} "
          f"{'peak_rss_mb (MiB)':>18}")
    print(f"# {'setup_s':<16} {min(setups):>8.4f} {statistics.median(setups):>8.4f} "
          f"{max(setups):>8.4f} {len(setups):>3}")
    for label, c in record["commands"].items():
        print(f"# {label + '_s':<16} {c['min_s']:>8.4f} {c['median_s']:>8.4f} "
              f"{c['max_s']:>8.4f} {c['n']:>3} {c['peak_rss_mb']:>18.1f}")
    for name, m in record["end_to_end"].items():
        print(f"# end_to_end {name} = {m['value']:.6g} {m['unit']}")
    if "layers" in record:
        for name, m in record["layers"].items():
            note = " (computed from file sizes)" if m["unit"] == "bytes" else ""
            print(f"# layer {name} = {m['value']:.6g} {m['unit']}{note}")
    print(f"# operations attempted={record['attempted']} failed={record['failed']}")
    for failure in record["failures"]:
        print(f"# FAILED {failure}")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--smoke", action="store_true",
                        help="one set-up and one cycle: checks that the benchmark runs")
    parser.add_argument("--results-dir", type=Path, default=BENCH_DIR / "results",
                        help="directory for the full records (default perfbench/results)")
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "povseg" / "cli.py").is_file() or not SPEC_PATH.is_file():
        print(f"perfbench: no povseg sources under {ROOT / 'src'}; run from a "
              "povseg checkout", file=sys.stderr)
        return 2
    spec = json.loads(SPEC_PATH.read_text())
    metric_list = spec["per_layer"] if args.trace else spec["end_to_end"]
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]

    summary = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in names:
        record = run_workload(WORKLOADS[name], args.seed, args.seconds,
                              bool(args.trace), args.smoke)
        values = record["layers"] if args.trace else record["end_to_end"]
        chosen = select(values, metric_list)
        spans = record.pop("spans", None)
        stem = args.results_dir / f"{name}-seed{args.seed}-trace{args.trace}"
        args.results_dir.mkdir(parents=True, exist_ok=True)
        Path(f"{stem}.json").write_text(json.dumps(record, indent=1) + "\n")
        if spans is not None:
            Path(f"{stem}.spans.json").write_text(json.dumps(spans))
        print_report(record)
        summary["correct"] &= record["failed"] == 0
        summary["attempted"] += record["attempted"]
        summary["failed"] += record["failed"]
        prefix = f"{name}." if len(names) > 1 else ""
        summary["metrics"].update({prefix + k: v for k, v in chosen.items()})
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
