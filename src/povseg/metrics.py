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

from collections.abc import Callable, Iterable, Iterator
from dataclasses import dataclass
from itertools import chain
from pathlib import Path

import numpy as np

from .errors import InvariantError, NonFiniteError
from .head import PersonalState, build_forward, build_frozen_forward, decode
from .snapshot import Manifest, Sample, load_sample


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


def evaluate_samples(samples: Iterable[Sample], personal_class_name: str,
                     state: PersonalState | None = None,
                     per_image: bool = False) -> MetricsReport:
    """Score decoded labels against combined pseudo-label ground truth.

    Samples are read once, in order, and none is kept, so a ``LazySamples``
    holds one image in memory at a time. Each sample's frozen label map is
    decoded once: it is the ground truth and, for the frozen baseline, the
    prediction. ``state=None`` evaluates the frozen baseline (with the
    class-name proxy when the vocabulary contains ``personal_class_name``).
    ``per_image`` averages scalar metrics over images instead of aggregating
    counts. A sample whose forward pass is non-finite, or does not fit the
    state, raises an error that names it, so no metric is reported from it.
    """
    vocab_names = None
    scalars = []
    n_pos = n_neg = 0
    # check_finite sees every forward and decode array; numpy's warnings would repeat it.
    # No enumerate: its cached (index, sample) pair would keep the last image
    # alive while the next item is read.
    with np.errstate(over="ignore", invalid="ignore"):
        for sample in samples:
            where = sample.snapshot_path or f"sample {n_pos + n_neg}"
            snap = sample.snapshot
            if vocab_names is None:
                vocab_names = snap.vocab_names
                k = snap.vocab_size
                num_classes = k + 1
                total = np.zeros((num_classes, num_classes), np.int64)
            elif snap.vocab_names != vocab_names:
                raise InvariantError(f"{where} vocabulary differs from sample 0")
            try:
                frozen = decode(build_frozen_forward(snap))
                pred = None if state is None else decode(
                    build_forward(snap, state, sample.partner_z))
            except NonFiniteError as exc:
                raise NonFiniteError(exc.stage, f"{where}: {exc}") from exc
            except InvariantError as exc:  # e.g. a state trained on another V or D
                raise InvariantError(f"{where}: {exc}") from exc
            if sample.polarity == "positive":
                gt = pseudo_label(frozen, sample.personal_mask, k)
                n_pos += 1
            else:
                gt = frozen
                n_neg += 1
            if pred is None:
                pred = frozen
                if personal_class_name in snap.vocab_names:
                    proxy = snap.vocab_names.index(personal_class_name)
                    pred = np.where(frozen == proxy, k, frozen)
            image_counts = accumulate(pred, gt, np.zeros_like(total))
            if per_image:
                scalars.append(_scalars(image_counts, k))
            total += image_counts
            del sample, snap  # let go of this image before the next item is read
    if vocab_names is None:
        raise InvariantError("empty evaluation sample set")

    names = list(vocab_names) + [f"<{personal_class_name}>"]
    ious = class_iou(total)
    table = [(names[c], float(ious[c])) for c in range(num_classes)
             if not np.isnan(ious[c])]
    iou, mean_iou, precision, recall = (np.mean(scalars, axis=0) if per_image
                                        else _scalars(total, k))
    return MetricsReport(iou_per=float(iou), miou=float(mean_iou),
                         precision_per=float(precision), recall_per=float(recall),
                         class_table=table, n_positive=n_pos, n_negative=n_neg)


class LazySamples:
    """Samples read as they are iterated: ``load(item)`` yields ``per_item`` of them.

    Nothing is kept once a sample has been handed out.
    """

    def __init__(self, items: list, load: Callable[..., Iterable[Sample]],
                 per_item: int = 1):
        self._items = items
        self._load = load
        self._per_item = per_item

    def __len__(self) -> int:
        """Counts without reading. ``perfbench/tracer.py`` takes ``len`` of every
        ``samples`` argument: a generator passed to ``evaluate_samples`` would crash it."""
        return self._per_item * len(self._items)

    def __iter__(self) -> Iterator[Sample]:
        return chain.from_iterable(map(self._load, self._items))


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
