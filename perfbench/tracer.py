"""Run one povseg CLI command with a span around every public povseg function.

Usage (from the repository root, with ``PYTHONPATH=src``)::

    python perfbench/tracer.py SPANS.json COMMAND_ID -- <povseg arguments>

Every public function defined in a povseg layer module is replaced by a
recording wrapper in *every* povseg module namespace that holds it, so a call
is recorded whichever module looks it up: ``metrics`` calls the
``build_frozen_forward`` it imported from ``head``, and that name is wrapped
in ``metrics`` as well as in ``head``. Nested calls get their caller's span as
parent, which gives self times without any timing code inside ``src/``.

Spans stay in memory and are written once, when the command has returned, as
a JSON list of ``[name, start, end, parent, command_id, extra]``; ``parent``
is an index into the list (-1 for none). ``extra`` holds the size in bytes of
the file named by a ``path`` argument (computed from the file size after the
call) and the length of a ``samples`` argument.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import os
import sys
import time

LAYERS = ("cli", "snapshot", "head", "losses", "grad", "personalize",
          "metrics", "synthbench")


def _wrap(name, fn, spans, stack, command_id):
    params = list(inspect.signature(fn).parameters)
    path_at = params.index("path") if "path" in params else None
    samples_at = params.index("samples") if "samples" in params else None

    def argument(index, key, args, kwargs):
        if key in kwargs:
            return kwargs[key]
        return args[index] if index < len(args) else None

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        record = [name, 0.0, 0.0, stack[-1] if stack else -1, command_id, None]
        stack.append(len(spans))
        spans.append(record)
        record[1] = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            record[2] = time.perf_counter()
            stack.pop()
            extra = {}
            if path_at is not None:
                path = argument(path_at, "path", args, kwargs)
                if path is not None and os.path.isfile(path):
                    extra["path"] = os.fspath(path)
                    extra["bytes"] = os.path.getsize(path)
            if samples_at is not None:
                samples = argument(samples_at, "samples", args, kwargs)
                if samples is not None:
                    extra["samples"] = len(samples)
            record[5] = extra or None

    return wrapper


def install(spans: list, command_id: str) -> None:
    """Replace each public layer function by its recording wrapper everywhere."""
    stack: list[int] = []
    modules = [importlib.import_module(f"povseg.{layer}") for layer in LAYERS]
    wrappers = {}
    for layer, module in zip(LAYERS, modules):
        for attr, obj in vars(module).items():
            if (inspect.isfunction(obj) and not attr.startswith("_")
                    and obj.__module__ == module.__name__):
                wrappers[obj] = _wrap(f"{layer}.{attr}", obj, spans, stack, command_id)
    for module in modules + [importlib.import_module("povseg")]:
        for attr, obj in list(vars(module).items()):
            if inspect.isfunction(obj) and obj in wrappers:
                setattr(module, attr, wrappers[obj])


def main() -> int:
    if len(sys.argv) < 4 or sys.argv[3] != "--":
        print("usage: tracer.py SPANS.json COMMAND_ID -- <povseg arguments>",
              file=sys.stderr)
        return 1
    out_path, command_id, argv = sys.argv[1], sys.argv[2], sys.argv[4:]
    spans: list = []
    start = time.perf_counter()
    import povseg.cli
    spans.append(["import", start, time.perf_counter(), -1, command_id, None])
    install(spans, command_id)
    try:
        return povseg.cli.main(argv)
    finally:
        with open(out_path, "w") as fh:
            json.dump(spans, fh)


if __name__ == "__main__":
    sys.exit(main())
