"""Run every povseg subcommand into one directory and checksum what it wrote.

    python tests/output_tree.py OUT [--scale desk|backbone] [--threads N]

Each command runs as ``python -m povseg.cli`` with ``OUT`` as its working
directory, on the ``src/`` tree beside this script, so the paths it prints
are the same wherever ``OUT`` lies. Each command's stdout is kept under
``OUT/stdout/`` without its ``[cmd] ...`` config line. ``OUT/SHA256SUMS``
then lists every file in ``OUT`` in ``sha256sum`` format. Two trees whose
``SHA256SUMS`` are equal hold the same bytes: compare one made before a
change with one made after it, or runs at two ``--threads`` values, which
set ``OPENBLAS_NUM_THREADS`` for every command.

``DESK_SUMS`` holds the lines of a desk tree's ``SHA256SUMS`` that
``pinned`` keeps, and tier-1 checks them. A change that moves one of those
files on purpose writes that file anew from ``pinned`` of its desk tree.
"""

from __future__ import annotations

import argparse
import hashlib
import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"
DESK_SUMS = Path(__file__).resolve().with_name("desk_tree.sha256")

# Backbone shapes: V=150, D=512, N=100, a 128x128 proposal grid, 32x32 features.
SCALES = {
    "desk": [],
    "backbone": ["--vocab", "150", "--dim", "512", "--proposals", "100",
                 "--grid", "128", "--feature-grid", "32", "--k-train", "5",
                 "--test-pos", "4", "--test-neg", "4"],
}


def commands(scale: str) -> list[tuple[str, list[str]]]:
    """(name, argv) for every subcommand, in the order they must run."""
    data = ["--data", "data"]
    return [
        ("synth", ["synth", "--out", "data", *SCALES[scale]]),
        ("personalize", ["personalize", *data, "--out", "state.povp"]),
        ("personalize_no_inject", ["personalize", *data, "--alpha", "0",
                                   "--out", "no_inject.povp"]),
        ("eval", ["eval", *data, "--state", "state.povp", "--report", "eval.tsv"]),
        ("eval_frozen", ["eval", *data, "--frozen-only", "--report", "eval_frozen.tsv"]),
        ("eval_per_image", ["eval", *data, "--state", "state.povp", "--per-image",
                            "--report", "eval_per_image.tsv"]),
        ("concat_eval", ["concat-eval", *data, "--state", "state.povp",
                         "--report", "concat_eval.tsv"]),
        ("ablate", ["ablate", *data, "--out", "ablate.tsv"]),
        ("kshot", ["kshot", *data, "--k", "1,3,5", "--out", "kshot.tsv"]),
        *((f"gradcheck_{seed}", ["gradcheck", "--seed", str(seed)]) for seed in range(4)),
    ]


def child_env(threads: int | None) -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + env["PYTHONPATH"]
                                    if env.get("PYTHONPATH") else "")
    if threads is not None:
        env["OPENBLAS_NUM_THREADS"] = str(threads)
    return env


def sha256sums(root: Path) -> str:
    files = sorted(p for p in root.rglob("*") if p.is_file() and p.name != "SHA256SUMS")
    return "".join(f"{hashlib.sha256(p.read_bytes()).hexdigest()}  "
                   f"{p.relative_to(root).as_posix()}\n" for p in files)


def pinned(sums: str) -> str:
    """The lines of ``sums`` for every ``.tsv``, ``data/`` and ``stdout/`` file but gradcheck's.

    Their bytes stayed the same under OpenBLAS's Prescott kernels and under
    numpy's dispatch held to baseline. The states, their traces and
    gradcheck's printed errors did not.
    """
    def kept(name: str) -> bool:
        return ((name.endswith(".tsv") or name.startswith(("data/", "stdout/")))
                and not name.startswith("stdout/gradcheck_"))

    return "".join(line for line in sums.splitlines(keepends=True)
                   if kept(line.rstrip("\n").split("  ", 1)[1]))


def build(out: Path, scale: str = "desk", threads: int | None = None) -> str:
    """Run every command into ``out``; write and return its SHA256SUMS text."""
    out.mkdir(parents=True, exist_ok=False)
    (out / "stdout").mkdir()
    env = child_env(threads)
    for name, argv in commands(scale):
        run = subprocess.run([sys.executable, "-m", "povseg.cli", *argv], cwd=out,
                             env=env, capture_output=True, text=True)
        if run.returncode != 0:
            raise SystemExit(f"{name} exited {run.returncode}:\n{run.stderr}")
        lines = run.stdout.splitlines(keepends=True)
        (out / "stdout" / f"{name}.txt").write_text(
            "".join(line for line in lines if not line.startswith(f"[{argv[0]}] ")))
    sums = sha256sums(out)
    (out / "SHA256SUMS").write_text(sums)
    return sums


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("out", type=Path, help="directory to create; must not exist")
    parser.add_argument("--scale", choices=sorted(SCALES), default="desk")
    parser.add_argument("--threads", type=int,
                        help="OPENBLAS_NUM_THREADS for every command (default: inherited)")
    args = parser.parse_args(argv)
    build(args.out, args.scale, args.threads)
    print(args.out / "SHA256SUMS")
    return 0


if __name__ == "__main__":
    sys.exit(main())
