"""Evaluation: confusion counts, per-class IoU, and the test-set protocols.

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

from collections.abc import Callable, Sequence
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from .errors import InvariantError, NonFiniteError
from .head import PersonalState, build_forward, build_frozen_forward, decode
from .snapshot import (Manifest, ManifestEntry, Sample, _load_vocab_names, _load_z_open,
                       load_sample)
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


def pseudo_label(labels: np.ndarray, personal_mask: np.ndarray, k: int) -> np.ndarray:
    """The frozen model's label map, with the personal region overridden to ``k``."""
    labels = labels.copy()
    labels[personal_mask.astype(bool)] = k
    return labels


@dataclass
class MetricsReport:
    """Aggregate metrics of a test set, and its images' personal pixel counts.

    ``images`` holds one ``(snapshot file, polarity, tp, fp, fn)`` per image,
    in sample order, counted for the personal class; their sums are the
    personal counts behind ``iou_per``, ``precision_per`` and ``recall_per``.
    """
    iou_per: float
    miou: float
    precision_per: float
    recall_per: float
    class_table: list[tuple[str, float]]
    images: list[tuple[str, str, int, int, int]]


def _confusions(sample: Sample, where: str, personal_class_name: str,
                states: list[PersonalState | None]) -> list[tuple]:
    """One image's confusion counts under each state, in order.

    Each is the nonzero cells of the image's confusion matrix, as flat
    indices and values, and the image's row of ``MetricsReport.images``,
    ``(where, polarity, tp, fp, fn)`` for the personal class: an image shows
    few of the (V+1)^2 label pairs, and a worker sends every image's counts
    back. The frozen label map is decoded once: it is the ground
    truth and, for the frozen baseline (``None``), the prediction. Each
    trained state's labels are decoded once.
    """
    snap = sample.snapshot
    k = snap.vocab_size
    gt = None
    counts = []
    try:
        frozen = decode(build_frozen_forward(snap))
        for state in states:
            if state is not None:
                pred = decode(build_forward(snap, state, sample.partner_z))
            elif personal_class_name in snap.vocab_names:
                proxy = snap.vocab_names.index(personal_class_name)
                pred = np.where(frozen == proxy, k, frozen)
            else:
                pred = frozen
            if gt is None:  # after the first prediction, whose forward arrays are freed by then
                gt = (pseudo_label(frozen, sample.personal_mask, k)
                      if sample.polarity == "positive" else frozen)
            matrix = accumulate(pred, gt, np.zeros((k + 1, k + 1), np.int64))
            cells = np.flatnonzero(matrix)
            tp = int(matrix[k, k])
            counts.append((cells, matrix.flat[cells], (str(where), sample.polarity, tp,
                           int(matrix[:, k].sum()) - tp, int(matrix[k].sum()) - tp)))
    except NonFiniteError as exc:
        raise NonFiniteError(exc.stage, f"{where}: {exc}") from exc
    except InvariantError as exc:  # e.g. a state trained on another V or D
        raise InvariantError(f"{where}: {exc}") from exc
    return counts


def evaluate_samples(samples: Sequence[Sample], personal_class_name: str,
                     states: list[PersonalState | None]) -> list[MetricsReport]:
    """Score decoded labels against combined pseudo-label ground truth.

    Returns one report per entry of ``states``, in order; ``None`` evaluates
    the frozen baseline (with the class-name proxy when the vocabulary
    contains ``personal_class_name``). Sample 0's vocabulary names are read
    first, without its arrays. Then the samples are scored by
    ``map_in_workers``, one forked worker per usable CPU. Each worker reads
    its own samples one at a time and keeps none; it checks each sample's
    vocabulary against sample 0's and computes the image's confusion counts.
    An image's frozen labels are decoded once for all the states, and its
    labels under each trained state once. A sample that cannot be read, has
    another vocabulary, or whose forward pass is non-finite or does not fit
    a state raises an error that names it, and its worker stops there:
    ``map_in_workers`` raises the first failing sample in order, as a serial
    loop would. This process only sums each state's integer counts, in
    sample order, and collects the images' rows, so the reports do not
    depend on the worker count; each report lists every image's own
    personal counts.
    """
    if not samples:
        raise InvariantError("empty evaluation sample set")
    vocab_names = _first_vocab_names(samples)

    def score(i: int) -> tuple:
        sample = samples[i]
        where = sample.snapshot_path or f"sample {i}"
        if sample.snapshot.vocab_names != vocab_names:
            raise InvariantError(f"{where} vocabulary differs from sample 0")
        # check_finite sees every forward and decode array; numpy's warnings would repeat it.
        with np.errstate(over="ignore", invalid="ignore"):
            return _confusions(sample, where, personal_class_name, states)

    scored = map_in_workers(score, len(samples))
    # Made once the workers have ended, so that none carries them in its RSS.
    k = len(vocab_names)
    totals = [np.zeros((k + 1, k + 1), np.int64) for _ in states]
    images = [[] for _ in states]
    for counts in scored:
        for total, rows, (cells, values, row) in zip(totals, images, counts):
            total.flat[cells] += values
            rows.append(row)

    names = list(vocab_names) + [f"<{personal_class_name}>"]
    reports = []
    for total, rows in zip(totals, images):
        ious = class_iou(total)
        table = [(names[c], float(ious[c])) for c in range(k + 1)
                 if not np.isnan(ious[c])]
        precision, recall = precision_recall(total, k)
        reports.append(MetricsReport(
            iou_per=iou_per(total, k), miou=miou(total), precision_per=precision,
            recall_per=recall, class_table=table, images=rows))
    return reports


class LazySamples(Sequence):
    """Samples read when indexed: ``samples[i]`` is ``load(entries[i])``.

    Nothing is kept once a sample has been handed out. ``first_snapshot`` is
    sample 0's snapshot file, whose vocabulary names ``evaluate_samples``
    reads before it forks.
    """

    def __init__(self, entries: list, load: Callable[..., Sample], first_snapshot: Path):
        self._entries = entries
        self._load = load
        self.first_snapshot = first_snapshot

    def __len__(self) -> int:
        return len(self._entries)

    def __getitem__(self, i: int) -> Sample:
        return self._load(self._entries[i])


def _first_vocab_names(samples: Sequence[Sample]) -> list[str]:
    """Sample 0's vocabulary names; a ``LazySamples`` reads them without its arrays.

    When that read fails, sample 0 is read whole, here, so that its own error
    is raised, as a serial loop would raise it: a concat pair reads its
    partner's ``z_open`` first.
    """
    if isinstance(samples, LazySamples):
        try:
            return _load_vocab_names(samples.first_snapshot)
        except Exception:  # raised again, in order, by reading sample 0
            pass
    return samples[0].snapshot.vocab_names


def evaluate(manifest: Manifest, states: list[PersonalState | None]) -> list[MetricsReport]:
    """Score the test split under each state, reading each image once.

    ``eval`` passes its one state, and ``ablate`` and ``kshot`` every state
    they trained, so a test split is scored one way.
    """
    entries = manifest.split("test")
    return evaluate_samples(LazySamples(entries, load_sample, entries[0].snapshot),
                            manifest.personal_class_name, states)


def concat_pairs(manifest: Manifest) -> LazySamples:
    """Pair test positives with test negatives in manifest order.

    A pair is scored as its two images, the positive then the negative, each
    decoded against its own proposals plus the negative column the pair
    shares (``partner_z``); each is read only when it is scored. Entries
    left without a partner are read here once, so that a malformed file
    among them is still refused.
    """
    entries = manifest.split("test")
    positives = [e for e in entries if e.polarity == "positive"]
    negatives = [e for e in entries if e.polarity == "negative"]
    if not positives or not negatives:
        raise InvariantError("concat evaluation needs both polarities in the test split")
    paired = min(len(positives), len(negatives))
    for entry in positives[paired:] + negatives[paired:]:
        load_sample(entry)
    return LazySamples([order for pair in zip(positives, negatives)
                        for order in (pair, pair[::-1])], _load_with_partner,
                       positives[0].snapshot)


def _load_with_partner(pair: tuple[ManifestEntry, ManifestEntry]) -> Sample:
    """The first entry's sample, with the second's ``z_open`` as ``partner_z``.

    The partner's ``z_open`` is read on its own, so one image is held at a time.
    """
    entry, partner = pair
    partner_z = _load_z_open(partner.snapshot)
    return replace(load_sample(entry), partner_z=partner_z)


def concat_evaluate(manifest: Manifest, state: PersonalState) -> MetricsReport:
    return evaluate_samples(concat_pairs(manifest), manifest.personal_class_name,
                            [state])[0]


def format_report(report: MetricsReport) -> str:
    lines = ["metric\tvalue",
             f"iou_per\t{report.iou_per:.4f}",
             f"miou\t{report.miou:.4f}",
             f"precision_per\t{report.precision_per:.4f}",
             f"recall_per\t{report.recall_per:.4f}"]
    lines += [f"{name}\t{value:.4f}" for name, value in report.class_table]
    return "\n".join(lines) + "\n"


def format_image_rows(report: MetricsReport) -> str:
    """``eval --per-image``'s table: one row of personal pixel counts per image.

    ``iou_per`` is a positive's own tp / (tp + fp + fn), 0 when both its
    ground truth and its prediction lack the personal class, as ``iou_per``
    counts it. A negative has no personal ground truth, so its IoU is ``-``
    and its ``fp`` are the false positives it shows.
    """
    lines = ["file\tpolarity\ttp\tfp\tfn\tiou_per"]
    for where, polarity, tp, fp, fn in report.images:
        iou = (f"{tp / (tp + fp + fn) if tp + fp + fn else 0.0:.4f}"
               if polarity == "positive" else "-")
        lines.append(f"{where}\t{polarity}\t{tp}\t{fp}\t{fn}\t{iou}")
    return "\n".join(lines) + "\n"
