"""Independent tasks computed in forked worker processes, one per usable CPU.

``map_in_workers(fn, n)`` returns ``[fn(0), ..., fn(n - 1)]``. With
``W = min(n, usable CPUs)`` workers, worker ``w`` computes the indices
``w, w + W, ...``: worker 0 is the calling process, the others are children
made with ``os.fork``. Each child sends its results, or its first
``(index, exception)``, back pickled over a pipe and ends with ``os._exit``,
so it never unwinds into its caller's stack nor flushes stdio buffers it
inherited. The results come back in index order, and the failure with the
lowest index is raised, the one a serial loop would have met first.

Everything runs in the calling process, in index order, when one worker
would do, and where the platform cannot say which CPUs are usable.
``taskset`` restricts the CPUs, and with them the workers.

Forking is safe here because a povseg process runs no threads of its own.
OpenBLAS's thread pool is stopped by OpenBLAS's ``pthread_atfork`` handler
before each fork and restarted by its next call, in parent and child alike.
"""

from __future__ import annotations

import os
import pickle
from collections.abc import Callable
from typing import TypeVar

T = TypeVar("T")


def usable_cpus() -> int:
    """CPUs this process may run on; 1 where the platform cannot say."""
    if not hasattr(os, "sched_getaffinity"):  # not Linux
        return 1
    return len(os.sched_getaffinity(0))


def _share(fn: Callable[[int], T], indices: range, catch: type[BaseException]
           ) -> tuple[list[T], tuple[int, BaseException] | None]:
    """The results of ``indices`` in order, up to the first failure, and that failure."""
    results = []
    for i in indices:
        try:
            results.append(fn(i))
        except catch as exc:
            return results, (i, exc)
    return results, None


def _fork(fn: Callable[[int], T], indices: range) -> tuple[int, int]:
    """Start a child computing ``indices``; returns its pid and the pipe it writes to."""
    read_end, write_end = os.pipe()
    try:
        pid = os.fork()
    except OSError:
        os.close(read_end)
        os.close(write_end)
        raise
    if pid:
        os.close(write_end)
        return pid, read_end
    code = 1
    try:
        os.close(read_end)
        # Anything raised here, an interrupt included, goes to the parent,
        # which raises it again.
        payload = pickle.dumps(_share(fn, indices, BaseException))
        with open(write_end, "wb") as out:
            out.write(payload)
        code = 0
    finally:
        os._exit(code)


def map_in_workers(fn: Callable[[int], T], n: int) -> list[T]:
    """``[fn(0), ..., fn(n - 1)]``, computed by one process per usable CPU.

    ``fn`` and what it reads are the forked copies of this process's memory,
    so it needs no pickling; its results and errors are pickled. A child that
    ends without sending its results (killed, or ``os._exit`` in ``fn``)
    raises ``ChildProcessError``, ahead of any error ``fn`` raised. Every
    child is reaped before this returns or raises.
    """
    workers = min(n, usable_cpus())
    if workers <= 1:
        return [fn(i) for i in range(n)]
    children: list[tuple[int, int]] = []
    received = []
    try:
        for w in range(1, workers):
            children.append(_fork(fn, range(w, n, workers)))
        shares = [_share(fn, range(0, n, workers), Exception)]
        for _, read_end in children:
            with open(read_end, "rb", closefd=False) as pipe:
                received.append(pipe.read())
    except BaseException:  # interrupted: the children's results are not wanted
        for pid, _ in children:
            os.kill(pid, 9)  # SIGKILL; importing signal would cost every command 0.4 ms
        raise
    finally:
        statuses = []
        for pid, read_end in children:
            os.close(read_end)
            statuses.append(os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1]))
    for (pid, _), status, data in zip(children, statuses, received):
        if status != 0 or not data:
            how = (f"was killed by signal {-status}" if status < 0
                   else f"exited with status {status}")
            raise ChildProcessError(f"worker process {pid} {how} "
                                    "before sending its results")
        shares.append(pickle.loads(data))

    results: list = [None] * n
    failures = []
    for w, (done, failure) in enumerate(shares):
        for i, result in zip(range(w, n, workers), done):
            results[i] = result
        if failure is not None:
            failures.append(failure)
    if failures:
        raise min(failures, key=lambda failure: failure[0])[1]
    return results
