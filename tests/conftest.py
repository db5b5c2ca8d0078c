import os
import signal

import numpy as np
import pytest

from povseg.snapshot import FrozenSnapshot


@pytest.fixture
def tiny_snapshot():
    """Small handcrafted snapshot with float32-exact payloads."""
    rng = np.random.default_rng(42)
    t_open = rng.normal(size=(3, 4)).astype(np.float32).astype(np.float64)
    z_open = rng.normal(size=(5, 4)).astype(np.float32).astype(np.float64)
    m_open = rng.uniform(0.0, 1.0, size=(6, 7, 5)).astype(np.float32).astype(np.float64)
    f = rng.normal(size=(3, 3, 4)).astype(np.float32).astype(np.float64)
    return FrozenSnapshot(t_open=t_open, z_open=z_open, m_open=m_open,
                          vocab_names=["ant", "bee", "cat"], logit_scale=2.0,
                          features=f)


@pytest.fixture(scope="session")
def bench_dir(tmp_path_factory):
    """The bundled synthetic benchmark, generated once per session."""
    from povseg.synthbench import SynthConfig, generate

    out = tmp_path_factory.mktemp("bench")
    generate(SynthConfig(), out)
    return out


@pytest.fixture
def usable_cpus(monkeypatch):
    """``usable_cpus(n)`` makes povseg see n usable CPUs, and so fork n - 1 workers.

    ``usable_cpus(1)`` keeps every task in the test's own process, where the
    test's spies see each call.
    """
    def set_count(n: int) -> None:
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(n)),
                            raising=False)
    return set_count


@pytest.fixture
def worker_guard():
    """Fail a test that waits on a worker process for over a minute, or that
    leaves a forked process unreaped."""
    def expire(signum, frame):
        raise TimeoutError("the test took over 60 s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.alarm(60)
    yield
    signal.alarm(0)
    signal.signal(signal.SIGALRM, previous)
    with pytest.raises(ChildProcessError):  # no child process is left to reap
        os.waitpid(-1, os.WNOHANG)
