"""Evaluation: confusion counts, per-class IoU, and the test-set protocol.

Ground truth for a test image is the frozen model's own label map
(pseudo-labels), with pixels of the personal mask overridden to the
personal index on positive samples. Negative samples keep pure
pseudo-labels, so any personal prediction there counts as a false
positive.

The frozen baseline itself can still "predict" the personal concept when
the vocabulary names its class: predictions of that entry are relabeled to
the personal index before scoring. When no vocabulary entry matches, the
baseline simply never predicts the personal class.
"""

from __future__ import annotations

from collections.abc import Callable, Iterable
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import InvariantError, NonFiniteError
from .head import PersonalState, build_forward, build_frozen_forward, decode
from .snapshot import Manifest, Sample, load_sample
from .workers import map_in_workers


def accumulate(pred: np.ndarray, gt: np.ndarray, counts: np.ndarray) -> np.ndarray:
    """Add one image's per-pixel confusion to ``counts`` in place.

    ``counts`` is a (C, C) int64 matrix indexed [gt, pred]; the matrices of
    separate images add up with ``+=``.
    """
    if pred.shape != gt.shape:
        raise InvariantError(f"shape mismatch {pred.shape} vs {gt.shape}")
    n = counts.shape[0]
    if pred.min() < 0 or pred.max() >= n or gt.min() < 0 or gt.max() >= n:
        raise InvariantError("label outside [0, num_classes)")
    flat = gt.astype(np.int64).ravel() * n + pred.astype(np.int64).ravel()
    counts += np.bincount(flat, minlength=n * n).reshape(n, n)
    return counts


def _tp_fp_fn(counts: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    tp = np.diag(counts)
    return tp, counts.sum(axis=0) - tp, counts.sum(axis=1) - tp


def class_iou(counts: np.ndarray) -> np.ndarray:
    """Per-class IoU; NaN marks classes absent from both gt and pred."""
    tp, fp, fn = _tp_fp_fn(counts)
    denom = tp + fp + fn
    with np.errstate(invalid="ignore"):
        return np.where(denom > 0, tp / np.maximum(denom, 1), np.nan)


def iou_per(counts: np.ndarray, k: int) -> float:
    iou = class_iou(counts)[k]
    return 0.0 if np.isnan(iou) else float(iou)


def miou(counts: np.ndarray) -> float:
    ious = class_iou(counts)
    present = ~np.isnan(ious)
    return float(ious[present].mean()) if present.any() else 0.0


def precision_recall(counts: np.ndarray, k: int) -> tuple[float, float]:
    tp, fp, fn = (x[k] for x in _tp_fp_fn(counts))
    precision = float(tp / (tp + fp)) if tp + fp > 0 else 0.0
    recall = float(tp / (tp + fn)) if tp + fn > 0 else 0.0
    return precision, recall


def _scalars(counts: np.ndarray, k: int) -> tuple[float, float, float, float]:
    """(iou_per, miou, precision_per, recall_per) of one confusion matrix."""
    return (iou_per(counts, k), miou(counts), *precision_recall(counts, k))


def pseudo_label(labels: np.ndarray, personal_mask: np.ndarray, k: int) -> np.ndarray:
    """The frozen model's label map, with the personal region overridden to ``k``."""
    if personal_mask.shape != labels.shape:
        raise InvariantError("personal mask shape differs from label grid")
    labels = labels.copy()
    labels[personal_mask.astype(bool)] = k
    return labels


@dataclass
class MetricsReport:
    iou_per: float
    miou: float
    precision_per: float
    recall_per: float
    class_table: list[tuple[str, float]]
    n_positive: int
    n_negative: int


def _confusion(sample: Sample, where: str, personal_class_name: str,
               state: PersonalState | None) -> np.ndarray:
    """One image's confusion matrix. Its frozen label map is decoded once: it
    is the ground truth and, for the frozen baseline, the prediction."""
    snap = sample.snapshot
    k = snap.vocab_size
    try:
        frozen = decode(build_frozen_forward(snap))
        pred = None if state is None else decode(
            build_forward(snap, state, sample.partner_z))
    except NonFiniteError as exc:
        raise NonFiniteError(exc.stage, f"{where}: {exc}") from exc
    except InvariantError as exc:  # e.g. a state trained on another V or D
        raise InvariantError(f"{where}: {exc}") from exc
    gt = (pseudo_label(frozen, sample.personal_mask, k)
          if sample.polarity == "positive" else frozen)
    if pred is None:
        pred = frozen
        if personal_class_name in snap.vocab_names:
            proxy = snap.vocab_names.index(personal_class_name)
            pred = np.where(frozen == proxy, k, frozen)
    return accumulate(pred, gt, np.zeros((k + 1, k + 1), np.int64))


def _score_item(samples: LazySamples, item: int, personal_class_name: str,
                state: PersonalState | None) -> list[tuple]:
    """``(where, vocab_names, positive, counts)`` of each sample of one item.

    ``counts`` holds the nonzero cells of the image's confusion matrix, as
    flat indices and values: an image shows few of the (V+1)^2 label pairs,
    and a worker sends every image's counts back. A failure ends the list,
    as the ``counts`` of the sample it hit, with ``vocab_names`` None when
    that sample could not be read. Nothing is raised, so that the caller
    checks each sample's vocabulary before its error, as a serial loop would.
    """
    scored = []
    index = item * samples.per_item
    # check_finite sees every forward and decode array; numpy's warnings would repeat it.
    with np.errstate(over="ignore", invalid="ignore"):
        try:
            for sample in samples.item(item):
                where = sample.snapshot_path or f"sample {index}"
                names = sample.snapshot.vocab_names
                try:
                    counts = _confusion(sample, where, personal_class_name, state)
                except Exception as exc:  # raised again by the caller, in order
                    scored.append((where, names, None, exc))
                    break
                cells = np.flatnonzero(counts)
                scored.append((where, names, sample.polarity == "positive",
                               (cells, counts.flat[cells])))
                index += 1
                del sample  # let go of this image before the next one is read
        except Exception as exc:  # the next sample could not be read
            scored.append((None, None, None, exc))
    return scored


def evaluate_samples(samples: LazySamples | Iterable[Sample], personal_class_name: str,
                     state: PersonalState | None = None,
                     per_image: bool = False) -> MetricsReport:
    """Score decoded labels against combined pseudo-label ground truth.

    The items of a ``LazySamples`` (a list's samples, one by one) are scored
    by ``map_in_workers``, one forked worker per usable CPU. Each worker
    reads and scores its own items and keeps none, so it holds one image in
    memory at a time. Their confusion counts are integers and are summed in
    sample order, so the report does not depend on the worker count.
    ``state=None`` evaluates the frozen baseline (with the class-name proxy
    when the vocabulary contains ``personal_class_name``). ``per_image``
    averages scalar metrics over images instead of aggregating counts. A
    sample whose forward pass is non-finite, or does not fit the state,
    raises an error that names it, so no metric is reported from it; the
    first failing sample in order is the one reported.
    """
    if not isinstance(samples, LazySamples):
        samples = LazySamples(list(samples), _alone)
    vocab_names = None
    scalars = []
    n_pos = n_neg = 0
    items = map_in_workers(
        lambda item: _score_item(samples, item, personal_class_name, state),
        samples.n_items)
    for scored in items:
        for where, names, positive, counts in scored:
            if names is None:  # the sample could not be read
                raise counts
            if vocab_names is None:
                vocab_names = names
                k = len(names)
                total = np.zeros((k + 1, k + 1), np.int64)
            elif names != vocab_names:
                raise InvariantError(f"{where} vocabulary differs from sample 0")
            if isinstance(counts, Exception):
                raise counts
            cells, values = counts
            if positive:
                n_pos += 1
            else:
                n_neg += 1
            if per_image:
                image_counts = np.zeros_like(total)
                image_counts.flat[cells] = values
                scalars.append(_scalars(image_counts, k))
            total.flat[cells] += values
    if vocab_names is None:
        raise InvariantError("empty evaluation sample set")

    names = list(vocab_names) + [f"<{personal_class_name}>"]
    ious = class_iou(total)
    table = [(names[c], float(ious[c])) for c in range(k + 1)
             if not np.isnan(ious[c])]
    iou, mean_iou, precision, recall = (np.mean(scalars, axis=0) if per_image
                                        else _scalars(total, k))
    return MetricsReport(iou_per=float(iou), miou=float(mean_iou),
                         precision_per=float(precision), recall_per=float(recall),
                         class_table=table, n_positive=n_pos, n_negative=n_neg)


def _alone(sample: Sample) -> tuple[Sample]:
    return (sample,)


class LazySamples:
    """Samples read item by item: ``load(item)`` yields ``per_item`` of them.

    Nothing is kept once a sample has been handed out.
    """

    def __init__(self, items: list, load: Callable[..., Iterable[Sample]],
                 per_item: int = 1):
        self._items = items
        self._load = load
        self.per_item = per_item

    def __len__(self) -> int:
        """Counts without reading. ``perfbench/tracer.py`` takes ``len`` of every
        ``samples`` argument: a generator passed to ``evaluate_samples`` would crash it."""
        return self.per_item * len(self._items)

    @property
    def n_items(self) -> int:
        return len(self._items)

    def item(self, i: int) -> Iterable[Sample]:
        """The samples of item ``i``, read as they are iterated."""
        return self._load(self._items[i])


def evaluate(manifest: Manifest, state: PersonalState | None = None,
             per_image: bool = False) -> MetricsReport:
    """Score the test split, reading one image at a time."""
    samples = LazySamples(manifest.split("test"), lambda entry: (load_sample(entry),))
    return evaluate_samples(samples, manifest.personal_class_name,
                            state=state, per_image=per_image)


def format_report(report: MetricsReport) -> str:
    lines = ["metric\tvalue",
             f"iou_per\t{report.iou_per:.4f}",
             f"miou\t{report.miou:.4f}",
             f"precision_per\t{report.precision_per:.4f}",
             f"recall_per\t{report.recall_per:.4f}"]
    lines += [f"{name}\t{value:.4f}" for name, value in report.class_table]
    return "\n".join(lines) + "\n"


def write_report(report: MetricsReport, path: str | Path) -> None:
    Path(path).write_text(format_report(report))
