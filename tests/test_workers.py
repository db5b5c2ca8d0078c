import os
import signal
import sys
from dataclasses import astuple, replace

import numpy as np
import pytest

from povseg.errors import InvariantError, NonFiniteError
from povseg.metrics import concat_pairs, evaluate_samples, format_image_rows, format_report
from povseg.personalize import TrainConfig, run_personalization
from povseg.snapshot import Sample, load_manifest, load_samples
from povseg.synthbench import train_on_manifest
from povseg.workers import map_in_workers, usable_cpus

from test_metrics import crafted_snapshot

pytestmark = pytest.mark.usefixtures("worker_guard")


@pytest.mark.parametrize("cpus, n", [(2, 5), (3, 7), (3, 2), (2, 1)])
def test_results_come_back_in_order_from_one_process_per_cpu(usable_cpus, cpus, n):
    usable_cpus(cpus)
    got = map_in_workers(lambda i: (i * i, os.getpid()), n)
    assert [square for square, _ in got] == [i * i for i in range(n)]
    pids = [pid for _, pid in got]
    workers = min(n, cpus)
    # worker w computes indices w, w + W, ...; worker 0 is this process
    assert pids[0] == os.getpid() and len(set(pids)) == workers
    assert all(pids[i] == pids[i % workers] for i in range(n))


def test_worker_count_never_exceeds_the_usable_cpus():
    pids = set(map_in_workers(lambda i: os.getpid(), 16))
    assert len(pids) == min(16, usable_cpus())


def test_one_usable_cpu_keeps_every_task_here(usable_cpus):
    usable_cpus(1)
    assert map_in_workers(lambda i: os.getpid(), 4) == [os.getpid()] * 4
    assert map_in_workers(lambda i: os.getpid(), 0) == []


def test_without_sched_getaffinity_every_task_runs_here(monkeypatch):
    monkeypatch.delattr(os, "sched_getaffinity", raising=False)
    assert usable_cpus() == 1
    assert map_in_workers(lambda i: os.getpid(), 4) == [os.getpid()] * 4


@pytest.mark.parametrize("bad", [{3, 5}, {1, 4}, {2, 3}, {0, 1}])
def test_lowest_index_failure_is_raised(usable_cpus, bad):
    usable_cpus(2)

    def fn(i):
        if i in bad:
            raise InvariantError(f"task {i} failed")
        return i

    with pytest.raises(InvariantError, match=f"^task {min(bad)} failed$"):
        map_in_workers(fn, 6)


def test_errors_keep_their_type_and_fields_across_the_pipe(usable_cpus):
    usable_cpus(2)

    def fn(i):
        if i == 1:  # a child's index
            raise NonFiniteError("forward", "/x.povs: non-finite value at stage 'forward'")
        return i

    with pytest.raises(NonFiniteError) as caught:
        map_in_workers(fn, 2)
    assert caught.value.stage == "forward"
    assert str(caught.value) == "/x.povs: non-finite value at stage 'forward'"


@pytest.mark.parametrize("end, message", [
    (lambda: os._exit(3), "exited with status 3"),
    (lambda: os._exit(0), "exited with status 0"),
    (lambda: os.kill(os.getpid(), signal.SIGKILL), "was killed by signal 9"),
])
def test_a_worker_that_dies_without_results_raises(usable_cpus, end, message):
    usable_cpus(3)

    def fn(i):
        if i == 4:  # worker 1's second index: it dies after computing index 1
            end()
        return i

    with pytest.raises(ChildProcessError, match=f"worker process \\d+ {message} before "
                                                "sending its results"):
        map_in_workers(fn, 6)


def test_interrupt_in_this_process_kills_and_reaps_the_workers(usable_cpus):
    usable_cpus(2)

    def fn(i):
        if i == 0:
            raise KeyboardInterrupt
        signal.pause()  # the child waits until it is killed

    with pytest.raises(KeyboardInterrupt):
        map_in_workers(fn, 2)


def test_worker_exits_without_flushing_inherited_stdout(usable_cpus, capfd):
    usable_cpus(2)
    sys.stdout.write("written once")
    map_in_workers(lambda i: i, 2)
    sys.stdout.flush()
    assert capfd.readouterr().out == "written once"


def overflowing(snap):
    # finite, so the snapshot is valid, but S = tau T Z^T overflows
    return replace(snap, logit_scale=np.finfo(np.float64).max)


@pytest.mark.parametrize("cpus", [1, 2, 3])
def test_evaluation_raises_the_first_failing_sample(usable_cpus, cpus):
    usable_cpus(cpus)
    renamed = replace(crafted_snapshot(), vocab_names=["zero", "uno"])
    samples = [Sample(crafted_snapshot(), None, "negative"),
               Sample(crafted_snapshot(), None, "negative"),
               Sample(overflowing(crafted_snapshot()), None, "negative"),
               Sample(overflowing(renamed), None, "negative")]
    with pytest.raises(NonFiniteError, match="^sample 2: non-finite") as caught:
        evaluate_samples(samples, "zero", [None])
    assert caught.value.stage == "forward"
    # the vocabulary is checked before the sample's own error
    with pytest.raises(InvariantError, match="^sample 2 vocabulary differs from sample 0$"):
        evaluate_samples([samples[0], samples[1], samples[3], samples[2]], "zero", [None])


# ``per_image`` picks the text ``eval`` writes: the summary or, with ``--per-image``, the rows.
@pytest.mark.parametrize("per_image", [False, True])
def test_evaluation_does_not_depend_on_the_worker_count(usable_cpus, bench_dir, per_image):
    mask = np.array([[1, 1], [0, 0]], dtype=np.uint8)
    wider = np.array([[1, 1], [1, 0]], dtype=np.uint8)
    samples = [Sample(crafted_snapshot(), mask, "positive"),
               Sample(crafted_snapshot(), None, "negative"),
               Sample(crafted_snapshot(), wider, "positive"),
               Sample(crafted_snapshot(), mask, "positive"),
               Sample(crafted_snapshot(), None, "negative")]
    manifest = load_manifest(bench_dir / "manifest.tsv")
    n_train = len(manifest.split("train"))
    state, = train_on_manifest(manifest, [(TrainConfig(iterations=5), n_train)])
    n_pairs = len(manifest.split("test")) // 2
    for run, polarities in (
            (lambda: evaluate_samples(samples, "zero", [None]),
             [s.polarity for s in samples]),
            # concat_evaluate's pairs, each a positive and a negative, under two states
            (lambda: evaluate_samples(concat_pairs(manifest), manifest.personal_class_name,
                                      [state, None]), ["positive", "negative"] * n_pairs)):
        reports = []
        for cpus in (1, 2, 3):
            usable_cpus(cpus)
            reports.append(run())
        assert reports[0] == reports[1] == reports[2]
        written = format_image_rows if per_image else format_report
        assert [written(report) for report in reports[0]] == [written(report) for report in reports[2]]
        for report in reports[0]:
            assert [polarity for _, polarity, *_ in report.images] == polarities


def test_training_does_not_depend_on_the_worker_count(usable_cpus, bench_dir):
    manifest = load_manifest(bench_dir / "manifest.tsv")
    config = TrainConfig(iterations=5)
    runs = [(config, 1), (replace(config, negative_enabled=False), 3),
            (replace(config, alpha=0.0), 5), (config, 2)]

    def bits(state):
        return [None if value is None else np.asarray(value).tobytes()
                for value in astuple(state)]

    trained = []
    for cpus in (1, 2, 3):
        usable_cpus(cpus)
        trained.append([bits(state) for state in train_on_manifest(manifest, runs)])
    assert trained[0] == trained[1] == trained[2]
    train = load_samples(manifest, "train")
    assert trained[0] == [
        bits(run_personalization(train[:k], config, manifest.personal_class_name)[0])
        for config, k in runs]
