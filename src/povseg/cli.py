"""Command-line entry point: one subcommand per workflow.

Exit codes: 0 success, 1 validation error (bad flags or invalid inputs),
2 runtime/numeric failure. Identical argv over identical inputs writes
byte-identical output files.

Each ``_cmd_*`` function imports the modules its subcommand runs, so a
process loads only those: only ``synth``, ``ablate`` and ``kshot`` load the
benchmark harness ``synthbench``, ``synth`` loads only its generator (no
training or evaluation code), ``personalize`` loads no evaluation code, and
``gradcheck`` loads no evaluation or training code. ``eval``, ``ablate`` and
``kshot`` score a test split the same way, through ``metrics.evaluate``:
``ablate`` and ``kshot`` train every run first, then score all their states
in one pass.
Only ``errors`` and ``snapshot``, which ``main`` and ``--data`` need, are
imported here. A config is built from the flags the user gave alone, so each
default is written once, in its dataclass.
"""

from __future__ import annotations

import argparse
import errno
import os
import sys
from dataclasses import asdict, fields
from pathlib import Path

import numpy as np

from .errors import FormatError, InvariantError, NonFiniteError
from .snapshot import Manifest, load_manifest, load_samples


class _Parser(argparse.ArgumentParser):
    """argparse defaults to exit code 2 on bad usage; we reserve 2 for runtime."""

    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(1)


def _print_config(name: str, cfg: dict) -> None:
    items = " ".join(f"{k}={v}" for k, v in cfg.items())
    print(f"[{name}] {items}")


def _manifest(args) -> Manifest:
    data = Path(args.data)
    if not data.is_dir():  # name the path as typed, not <data>/manifest.tsv
        code = errno.ENOTDIR if data.exists() else errno.ENOENT
        raise OSError(code, os.strerror(code), args.data)
    return load_manifest(data / "manifest.tsv")


def _check_out_file(path: str | Path) -> None:
    """Refuse, before any work, an output file that cannot be created."""
    out = Path(path)
    if not out.parent.is_dir():
        raise InvariantError(f"cannot write {path}: {out.parent} is not a directory")
    if out.is_dir():
        raise InvariantError(f"cannot write {path}: it is a directory")


def _check_out_dir(path: str) -> None:
    """Refuse, before any work, an output directory that cannot be created."""
    out = Path(path)
    # synth makes the directory and its missing parents; the nearest one
    # that exists must be a directory.
    nearest = next(p for p in (out, *out.parents) if p.exists())
    if not nearest.is_dir():
        raise InvariantError(f"cannot write into {path}: {nearest} is not a directory")


def _config(cls, args):
    """``cls`` built from the flags that were given; each flag's dest is its field."""
    return cls(**{f.name: getattr(args, f.name) for f in fields(cls)
                  if getattr(args, f.name, None) is not None})


def _cmd_synth(args) -> int:
    from .synthbench import SynthConfig, generate

    _check_out_dir(args.out)
    if Path(args.out).is_dir():  # generate writes these two last, after every snapshot
        for name in ("manifest.tsv", "meta.tsv"):
            _check_out_file(Path(args.out) / name)
    config = _config(SynthConfig, args)
    _print_config("synth", asdict(config))
    manifest = generate(config, args.out)
    print(f"wrote {manifest}")
    return 0


def _cmd_personalize(args) -> int:
    from .personalize import TrainConfig, run_personalization, save_state

    config = _config(TrainConfig, args)
    _check_out_file(args.out)  # before with_suffix, which refuses "." and "/"
    trace_path = Path(args.out).with_suffix(Path(args.out).suffix + ".trace")
    _check_out_file(trace_path)
    _print_config("personalize", {"data": args.data, "out": args.out, **asdict(config)})
    manifest = _manifest(args)
    state, trace = run_personalization(load_samples(manifest, "train"), config,
                                       manifest.personal_class_name)
    save_state(state, args.out)
    trace_path.write_text("".join(f"{i}\t{v:.17g}\n" for i, v in enumerate(trace)))
    print(f"wrote {args.out} and {trace_path} (final loss {trace[-1]:.6f})")
    return 0


def _write_report(report, path: str, per_image: bool = False) -> None:
    """Write the report, or its per-image rows, and print its four scalars."""
    from .metrics import format_image_rows, format_report

    Path(path).write_text((format_image_rows if per_image else format_report)(report))
    print(f"iou_per={report.iou_per:.4f} miou={report.miou:.4f} "
          f"precision_per={report.precision_per:.4f} recall_per={report.recall_per:.4f}")


def _write_table(table: str, path: str) -> None:
    Path(path).write_text(table)
    print(table, end="")


def _cmd_eval(args) -> int:
    from .metrics import evaluate

    _check_out_file(args.report)
    _print_config("eval", {"data": args.data, "state": args.state,
                           "report": args.report, "frozen_only": args.frozen_only,
                           "per_image": args.per_image})
    manifest = _manifest(args)
    state = None
    if not args.frozen_only:
        from .personalize import load_state

        state = load_state(args.state)
    _write_report(evaluate(manifest, [state])[0], args.report, args.per_image)
    return 0


def _cmd_gradcheck(args) -> int:
    from .grad import gradcheck

    _print_config("gradcheck", {"seed": args.seed})
    report = gradcheck(seed=args.seed)
    print(report.summary())
    return 0 if report.passed else 2


def _cmd_ablate(args) -> int:
    from .synthbench import format_ablation_table, run_ablation
    from .personalize import TrainConfig

    _check_out_file(args.out)
    config = TrainConfig()
    _print_config("ablate", {"data": args.data, "out": args.out, **asdict(config)})
    _write_table(format_ablation_table(run_ablation(_manifest(args), config)), args.out)
    return 0


def _cmd_kshot(args) -> int:
    from .synthbench import format_kshot_table, run_kshot
    from .personalize import TrainConfig

    try:
        k_list = [int(tok) for tok in args.k.split(",")]
    except ValueError:
        raise InvariantError(f"--k must be a comma-separated integer list, got {args.k!r}")
    _check_out_file(args.out)
    config = TrainConfig()
    _print_config("kshot", {"data": args.data, "k": k_list, "out": args.out,
                            **asdict(config)})
    _write_table(format_kshot_table(run_kshot(_manifest(args), k_list, config)), args.out)
    return 0


def _cmd_concat_eval(args) -> int:
    from .metrics import concat_evaluate
    from .personalize import load_state

    _check_out_file(args.report)
    _print_config("concat-eval", {"data": args.data, "state": args.state,
                                  "report": args.report})
    state = load_state(args.state)
    _write_report(concat_evaluate(_manifest(args), state), args.report)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="povseg",
                     description="Personalized open-vocabulary segmentation head "
                                 "over frozen backbone snapshots.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("synth", help="Generate the synthetic benchmark")
    p.add_argument("--out", required=True)
    # Each config flag defaults to None and its dest is its SynthConfig or
    # TrainConfig field, which _config reads.
    p.add_argument("--seed", type=int)
    p.add_argument("--vocab", dest="v", type=int)
    p.add_argument("--dim", dest="d", type=int)
    p.add_argument("--proposals", dest="n", type=int)
    p.add_argument("--grid", dest="h", type=int)
    p.add_argument("--feature-grid", dest="hf", type=int)
    p.add_argument("--k-train", type=int)
    p.add_argument("--test-pos", dest="n_test_pos", type=int)
    p.add_argument("--test-neg", dest="n_test_neg", type=int)
    p.set_defaults(func=_cmd_synth)

    p = sub.add_parser("personalize", help="Train a personal state on a dataset")
    p.add_argument("--data", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--lr", dest="learning_rate", type=float)
    p.add_argument("--iters", dest="iterations", type=int)
    p.add_argument("--alpha", type=float)
    p.set_defaults(func=_cmd_personalize)

    p = sub.add_parser("eval", help="Evaluate a state (or the frozen baseline)")
    p.add_argument("--data", required=True)
    p.add_argument("--report", required=True)
    source = p.add_mutually_exclusive_group(required=True)
    source.add_argument("--state")
    source.add_argument("--frozen-only", action="store_true")
    p.add_argument("--per-image", action="store_true",
                   help="write one row per test image to --report: its snapshot "
                        "file, polarity, personal tp/fp/fn pixel counts and, for a "
                        "positive, its own iou_per")
    p.set_defaults(func=_cmd_eval)

    p = sub.add_parser("gradcheck", help="Analytic vs finite-difference gradients")
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=_cmd_gradcheck)

    p = sub.add_parser("ablate", help="Five-row module ablation table")
    p.add_argument("--data", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_ablate)

    p = sub.add_parser("kshot", help="K-shot trend table")
    p.add_argument("--data", required=True)
    p.add_argument("--k", default="1,3,5")
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_kshot)

    p = sub.add_parser("concat-eval", help="Evaluate on horizontally joined pairs")
    p.add_argument("--data", required=True)
    p.add_argument("--state", required=True)
    p.add_argument("--report", required=True)
    p.set_defaults(func=_cmd_concat_eval)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.func(args)
    except (InvariantError, FormatError, FileNotFoundError, IsADirectoryError,
            NotADirectoryError) as exc:  # mostly inputs: commands check outputs first
        print(f"povseg: validation error: {exc}", file=sys.stderr)
        return 1
    except NonFiniteError as exc:
        print(f"povseg: numeric error: {exc}", file=sys.stderr)
        return 2
    except (ArithmeticError, OSError, np.linalg.LinAlgError) as exc:
        print(f"povseg: runtime error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
