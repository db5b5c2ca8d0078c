"""Seeded synthetic benchmark: snapshot generator plus experiment harnesses.

The generator builds a desk-scale stand-in for the personalization
benchmarks. The vocabulary holds a background entry, a group of visually
similar fine classes sharing one coarse direction (the personal concept is
the first of them), and a few unrelated classes. Object embeddings are
``centroid + DELTA * instance_direction + SIGMA * noise``; the text entry
for a fine class carries only part of its instance offset, so the visual
embedding genuinely adds information. Positive images contain the personal
instance, negative images a same-group distractor instance, and every image
adds one unrelated object plus clutter proposals.

The construction aims at the paper's failure mode: tuning only the text
prompt inflates the personal logit against the neighboring fine-class
entries. At the default schedule (lr 5e-4, 200 iterations) that does not
reach the distractors. At seeds 20 and 21, none of the four trained
ablation rows predicts one personal pixel on any of the 24 negatives. The
rows differ in the personal pixels they predict outside the mask on
positives: 196, 185, 167 and 147 at seed 20 (``prompt``, ``prompt+neg``,
``prompt+inject``, ``full``) and 167, 162, 144 and 138 at seed 21, 93% or
more of them within 2 px of the mask. So the ablation's precision gain is
the proposals' wide fringe being trimmed, not false positives on
distractors being suppressed.

Every Gaussian blob, ``amp * exp(q)`` with ``amp <= 1`` and
``q = -((y - cy) / ry)^2 - ((x - cx) / rx)^2``, is computed on the box
``|y - cy| <= sqrt(104) ry + 1``, ``|x - cx| <= sqrt(104) rx + 1`` clipped to
the grid, with the same expressions on the same grid values, and is +0.0
outside it, where ``q < -104`` puts the full-plane value below e^-104 ~
6.82e-46. No consumer can tell that value from +0.0: the binary32 mask bank
rounds it to +0.0 (it is below 2^-150 ~ 7.01e-46, half the least binary32
subnormal), and the float64 object planes are read only through ``>= 0.5``
(the ground-truth mask and the feature map) and through the background
proposal ``1 - max(...)``, exactly 1.0 for any value below 2^-54. So every
byte equals that of a full-plane fill.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass, replace
from pathlib import Path
from typing import TYPE_CHECKING

import numpy as np

from .errors import InvariantError
from .snapshot import (
    FrozenSnapshot,
    Manifest,
    load_samples,
    save_mask,
    save_snapshot,
)

if TYPE_CHECKING:  # annotations only: synth loads only the generator
    from .head import PersonalState
    from .metrics import MetricsReport
    from .personalize import TrainConfig

LOGIT_SCALE = 10.0
# Share of the instance offset carried by a class's text embedding. The
# personal class plays a hard-to-describe category (the benchmarks pick
# classes whose names underdetermine their appearance), so its text barely
# encodes the instance direction; distractor classes are ordinary, with
# texts that match their instances well and defend them at decode time.
PERSONAL_TEXT_OFFSET = 0.1
DISTRACTOR_TEXT_OFFSET = 1.0
# A near-synonym entry sits close to the personal class's text and splits
# the frozen model's confidence on the personal column; the tuned prompt
# must outgrow both.
TWIN_TEXT_OFFSET = 0.7
# The personal instance and its same-group distractors, one direction each.
INSTANCES_PER_CLASS = 4
DELTA = 1.1   # instance offset from the class centroid
SIGMA = 0.04  # per-image embedding noise
FEATURE_NOISE = 0.02
PROPOSAL_JITTER = 1.0
PROPOSAL_SCALE = (1.15, 1.5)
# Appearance (pose) variation lives in its own subspace, orthogonal to all
# class and instance directions: single-shot tuning absorbs one image's
# pose into the prompt, while averaging over K shots cancels it.
POSE_DIMS = 2
POSE_NOISE = 0.7
# Beyond BANK_REACH radii (plus a pixel of rounding slack) from its centre on
# either axis, a blob reads as +0.0 to every consumer: see the docstring.
BANK_REACH = math.sqrt(104.0)
# Stem of every snapshot and mask file ``generate`` writes.
_STEM = re.compile(r"(train|test_positive|test_negative)_\d{3,}")


@dataclass(frozen=True)
class SynthConfig:
    v: int = 16                 # vocabulary size incl. background
    d: int = 32
    n: int = 12                 # proposals per image
    h: int = 32                 # side of the square proposal grid
    hf: int = 16                # side of the square feature grid
    k_train: int = 5
    n_test_pos: int = 24
    n_test_neg: int = 24
    seed: int = 20

    def __post_init__(self) -> None:
        if self.v < INSTANCES_PER_CLASS + 2:
            raise InvariantError(
                f"vocabulary size {self.v} too small: need background, "
                f"{INSTANCES_PER_CLASS} fine-class entries and the near-synonym")
        if self.d < self.v + 2 + POSE_DIMS:
            raise InvariantError(
                f"embedding dim {self.d} < {self.v + 2 + POSE_DIMS} directions")
        if self.n < 4:
            raise InvariantError("need at least 4 proposals (background, 2 objects, clutter)")
        # The personal object's radii are at least 0.125 h and the grid point
        # nearest its centre lies within 0.5 px on each axis, so that point is
        # in its mask (blob >= 0.5) when 2 (0.5 / (0.125 h))^2 <= ln 2: h >= 7.
        if self.h < 7:
            raise InvariantError(f"grid side {self.h} must be at least 7")
        if not 1 <= self.hf <= self.h:
            raise InvariantError(
                f"feature grid side {self.hf} must lie in [1, grid side {self.h}]")
        if min(self.k_train, self.n_test_pos, self.n_test_neg) < 1:
            raise InvariantError("k_train, n_test_pos and n_test_neg must be >= 1")
        if self.seed < 0:
            raise InvariantError(f"seed must be >= 0, got {self.seed}")


def _unit(vec: np.ndarray) -> np.ndarray:
    norm = np.linalg.norm(vec)
    return vec / norm if norm > 0 else vec


def _span(c: float, reach: float, n: int) -> tuple[int, int]:
    return max(0, math.ceil(c - reach)), min(n, math.floor(c + reach) + 1)


def _paint(plane: np.ndarray, cy: float, cx: float, ry: float, rx: float,
           amp: float = 1.0) -> None:
    """Write ``amp * exp(q)`` (``amp <= 1``) into a zeroed ``plane``, on its box only."""
    y0, y1 = _span(cy, BANK_REACH * ry + 1, plane.shape[0])
    x0, x1 = _span(cx, BANK_REACH * rx + 1, plane.shape[1])
    if y0 < y1 and x0 < x1:
        ys = (np.arange(y0, y1)[:, None] - cy) / ry
        xs = (np.arange(x0, x1)[None, :] - cx) / rx
        plane[y0:y1, x0:x1] = amp * np.exp(-(ys ** 2 + xs ** 2))


def _blob(h: int, w: int, cy: float, cx: float, ry: float, rx: float) -> np.ndarray:
    """A float64 ``h`` x ``w`` plane holding one blob over its box."""
    plane = np.zeros((h, w))
    _paint(plane, cy, cx, ry, rx)
    return plane


def _object(rng: np.random.Generator, h: int, x_lo: float, x_hi: float):
    """One object's ellipse ``(cy, cx, ry, rx)`` and its wider, jittered proposal."""
    cy = rng.uniform(h * 0.34, h * 0.66)
    cx = rng.uniform(x_lo, x_hi)
    ry, rx = rng.uniform(h * 0.125, h * 0.19, size=2)
    jy, jx = rng.uniform(-PROPOSAL_JITTER, PROPOSAL_JITTER, size=2)
    # Proposals run systematically wide, like real mask heads: the soft
    # fringe outside the ground truth is what keeps prompt tuning honest.
    sy, sx = rng.uniform(*PROPOSAL_SCALE, size=2)
    return (cy, cx, ry, rx), (cy + jy, cx + jx, ry * sy, rx * sx)


@dataclass
class _Directions:
    background: np.ndarray
    coarse: np.ndarray
    fine: np.ndarray          # (INSTANCES_PER_CLASS, d)
    twin: np.ndarray          # offset of the near-synonym text entry
    unrelated: np.ndarray     # (v - INSTANCES_PER_CLASS - 2, d) vocabulary extras
    stray: np.ndarray         # out-of-vocabulary scene object
    pose: np.ndarray          # (POSE_DIMS, d) appearance subspace


def _draw_directions(config: SynthConfig, rng: np.random.Generator) -> _Directions:
    basis, _ = np.linalg.qr(rng.normal(size=(config.d, config.d)))
    cols = iter(range(config.d))
    background = basis[:, next(cols)]
    coarse = basis[:, next(cols)]
    fine = np.stack([basis[:, next(cols)] for _ in range(INSTANCES_PER_CLASS)])
    twin = basis[:, next(cols)]
    n_extra = config.v - INSTANCES_PER_CLASS - 2
    unrelated = np.stack([basis[:, next(cols)] for _ in range(n_extra)]) \
        if n_extra > 0 else np.zeros((0, config.d))
    stray = basis[:, next(cols)]
    pose = np.stack([basis[:, next(cols)] for _ in range(POSE_DIMS)])
    return _Directions(background, coarse, fine, twin, unrelated, stray, pose)


def _text_bank(config: SynthConfig, dirs: _Directions) -> tuple[np.ndarray, list[str]]:
    rows = [dirs.background]
    names = ["background"]
    personal = dirs.coarse + PERSONAL_TEXT_OFFSET * DELTA * dirs.fine[0]
    rows.append(_unit(personal))
    names.append("class_01")
    for i in range(1, INSTANCES_PER_CLASS):
        rows.append(_unit(dirs.coarse + DISTRACTOR_TEXT_OFFSET * DELTA * dirs.fine[i]))
        names.append(f"class_{i + 1:02d}")
    rows.append(_unit(personal + TWIN_TEXT_OFFSET * dirs.twin))
    names.append(f"class_{INSTANCES_PER_CLASS + 1:02d}")
    for i, centroid in enumerate(dirs.unrelated):
        rows.append(centroid)
        names.append(f"class_{INSTANCES_PER_CLASS + 2 + i:02d}")
    return np.stack(rows), names


def _make_image(config: SynthConfig, dirs: _Directions, text: np.ndarray,
                names: list[str], group_dir_index: int,
                rng: np.random.Generator):
    """One sample: (snapshot, gt mask, group slot, unrelated slot, unrelated class)."""
    h, n = config.h, config.n

    # Group-class object (personal instance on positives, distractor otherwise).
    g_shape, g_prop = _object(rng, h, h * 0.22, h * 0.42)
    g_noise = rng.normal(size=config.d)
    g_pose = rng.normal(size=POSE_DIMS) @ dirs.pose
    g_embed = _unit(dirs.coarse + DELTA * dirs.fine[group_dir_index]
                    + POSE_NOISE * g_pose + SIGMA * g_noise)
    g_true = _blob(h, h, *g_shape)

    # Second object: an unrelated vocabulary class when the vocabulary has
    # one, otherwise an out-of-vocabulary scene object.
    n_extra = len(dirs.unrelated)
    pick = int(rng.integers(0, n_extra + 1))
    if pick < n_extra:
        u_class = INSTANCES_PER_CLASS + 2 + pick
        u_base = text[u_class]
    else:
        u_class = -1
        u_base = dirs.stray
    u_shape, u_prop = _object(rng, h, h * 0.58, h * 0.78)
    u_noise = rng.normal(size=config.d)
    u_embed = _unit(u_base + SIGMA * u_noise)
    u_true = _blob(h, h, *u_shape)

    # Clutter proposals: small weak blobs with junk embeddings. Proposals are
    # kept as (cy, cx, ry, rx[, amp]) and painted once their slots are drawn.
    clutter_props = []
    clutter_embeds = []
    for _ in range(n - 3):
        cy, cx = rng.uniform(2, h - 2), rng.uniform(2, h - 2)
        r = rng.uniform(1.5, 3.5)
        amp = rng.uniform(0.25, 0.7)
        clutter_props.append((cy, cx, r, r, amp))
        clutter_embeds.append(_unit(rng.normal(size=config.d)))

    bg_mask = 1.0 - np.maximum(g_true, u_true)
    bg_embed = _unit(dirs.background + SIGMA * rng.normal(size=config.d))

    # Slot 0 is the stable scene/background query; the rest are shuffled.
    order = rng.permutation(n - 1) + 1
    # The bank is built in the file's binary32; assigning rounds as a save would.
    masks = np.zeros((h, h, n), dtype=np.float32)
    embeds = np.zeros((n, config.d))
    masks[:, :, 0] = bg_mask
    embeds[0] = bg_embed
    role_props = [g_prop, u_prop] + clutter_props
    role_embeds = [g_embed, u_embed] + clutter_embeds
    group_slot = int(order[0])
    unrelated_slot = int(order[1])
    for slot, prop, embed in zip(order, role_props, role_embeds):
        _paint(masks[:, :, slot], *prop)
        embeds[slot] = embed

    # Feature map: paint each object's embedding over its support, the group
    # object last so that it wins where the two overlap.
    features = rng.normal(size=(config.hf, config.hf, config.d))
    features *= FEATURE_NOISE
    features += dirs.background
    s = config.hf / h
    for shape, embed in ((u_shape, u_embed), (g_shape, g_embed)):
        features[_blob(config.hf, config.hf, *(v * s for v in shape)) >= 0.5] = embed

    snapshot = FrozenSnapshot(t_open=text, z_open=embeds, m_open=masks,
                              vocab_names=list(names), logit_scale=LOGIT_SCALE,
                              features=features)
    gt = (g_true >= 0.5).astype(np.uint8)
    return snapshot, gt, group_slot, unrelated_slot, u_class


def generate(config: SynthConfig, out_dir: str | Path) -> Path:
    """Write snapshots, masks, manifest and metadata sidecar; returns manifest path.

    Snapshot and mask files of generate's own naming that the new manifest
    does not list, left by an earlier run into ``out_dir``, are removed.
    """
    out = Path(out_dir)
    (out / "snapshots").mkdir(parents=True, exist_ok=True)
    (out / "masks").mkdir(parents=True, exist_ok=True)

    seq = np.random.SeedSequence(config.seed)
    n_images = config.k_train + config.n_test_pos + config.n_test_neg
    children = seq.spawn(n_images + 1)
    shared_rng = np.random.default_rng(children[0])
    dirs = _draw_directions(config, shared_rng)
    text, names = _text_bank(config, dirs)
    personal_name = names[1]

    # (split, polarity, file stem, group direction) per image; negatives
    # cycle through the distractor instances.
    n_distractors = INSTANCES_PER_CLASS - 1
    plan = ([("train", "positive", f"train_{i:03d}", 0) for i in range(config.k_train)]
            + [("test", "positive", f"test_positive_{i:03d}", 0)
               for i in range(config.n_test_pos)]
            + [("test", "negative", f"test_negative_{i:03d}", 1 + i % n_distractors)
               for i in range(config.n_test_neg)])

    manifest_lines = []
    meta_lines = ["file\tpolarity\tpersonal_slot\tgroup_dir\tgroup_slot"
                  "\tunrelated_class\tunrelated_slot"]
    for img_idx, (split, polarity, stem, group_dir) in enumerate(plan):
        rng = np.random.default_rng(children[img_idx + 1])
        snapshot, gt, group_slot, unrelated_slot, u_class = _make_image(
            config, dirs, text, names, group_dir, rng)
        snap_rel = f"snapshots/{stem}.povs"
        save_snapshot(snapshot, out / snap_rel)
        if polarity == "positive":
            mask_rel = f"masks/{stem}.mask"
            save_mask(gt, out / mask_rel)
        else:
            mask_rel = "-"
        manifest_lines.append(
            f"{snap_rel}\t{mask_rel}\t{split}\t{polarity}\t{personal_name}")
        personal_slot = group_slot if polarity == "positive" else -1
        meta_lines.append(f"{snap_rel}\t{polarity}\t{personal_slot}\t{group_dir}"
                          f"\t{group_slot}\t{u_class}\t{unrelated_slot}")

    manifest_path = out / "manifest.tsv"
    manifest_path.write_text("\n".join(manifest_lines) + "\n")
    (out / "meta.tsv").write_text("\n".join(meta_lines) + "\n")
    # Only names this function writes are removed: a user's own files stay.
    named = {field for line in manifest_lines for field in line.split("\t")[:2]}
    for pattern in ("snapshots/*.povs", "masks/*.mask"):
        for path in out.glob(pattern):
            if _STEM.fullmatch(path.stem) and path.relative_to(out).as_posix() not in named:
                path.unlink()
    return manifest_path


def train_on_manifest(manifest: Manifest, runs: list[tuple[TrainConfig, int]]
                      ) -> list[PersonalState]:
    """The state of each ``(config, k)`` run, trained on the first ``k`` train entries.

    An empty run list, and a ``k`` below 1 or beyond the train split, are
    refused before any file is read. The train split is read once, and
    ``map_in_workers`` trains the runs, one forked worker per usable CPU.
    The states come back in run order, and no training sample stays in
    memory once this returns. ``ablate`` and ``kshot`` train only through
    here, so the benchmark's per-layer name ``synthbench.train_on_manifest.ms``
    times their whole training phase.
    """
    # Imported here, so that synth loads only the generator.
    from .personalize import run_personalization
    from .workers import map_in_workers

    k_list = [k for _, k in runs]
    if not k_list or min(k_list) < 1:
        raise InvariantError(f"K values must be >= 1, got {k_list}")
    n_train = len(manifest.split("train"))
    if max(k_list) > n_train:
        raise InvariantError(f"K={max(k_list)} exceeds the {n_train} available training samples")
    train = load_samples(manifest, "train")

    def fit(i: int) -> PersonalState:
        config, k = runs[i]
        return run_personalization(train[:k], config, manifest.personal_class_name)[0]

    return map_in_workers(fit, len(runs))


@dataclass
class AblationRow:
    label: str
    text_prompt: bool
    neg_mask: bool
    visual_inject: bool
    report: MetricsReport


def run_ablation(manifest: Manifest, config: TrainConfig) -> list[AblationRow]:
    """Train on the whole train split and evaluate the five module combinations."""
    from .metrics import evaluate  # here, so synth loads only the generator

    toggles = [
        ("frozen", False, False, False),
        ("prompt", True, False, False),
        ("prompt+neg", True, True, False),
        ("prompt+inject", True, False, True),
        ("full", True, True, True),
    ]
    n_train = len(manifest.split("train"))
    trained = [(replace(config, negative_enabled=neg, alpha=config.alpha if inject else 0.0),
                n_train) for _, _, neg, inject in toggles[1:]]
    reports = evaluate(manifest, [None, *train_on_manifest(manifest, trained)])
    return [AblationRow(*toggle, report) for toggle, report in zip(toggles, reports)]


def format_ablation_table(rows: list[AblationRow]) -> str:
    lines = ["text_prompt\tneg_mask\tvisual_inject\tmiou\tiou_per"
             "\tprecision_per\trecall_per"]
    for row in rows:
        flags = ["x" if f else "-" for f in
                 (row.text_prompt, row.neg_mask, row.visual_inject)]
        r = row.report
        lines.append("\t".join(flags) + f"\t{r.miou:.4f}\t{r.iou_per:.4f}"
                     f"\t{r.precision_per:.4f}\t{r.recall_per:.4f}")
    return "\n".join(lines) + "\n"


@dataclass
class KShotRow:
    label: str
    iou_per: float
    miou: float


def run_kshot(manifest: Manifest, k_list: list[int], config: TrainConfig
              ) -> list[KShotRow]:
    """Full-method runs at each K, on the first K train entries, plus the mean row."""
    from .metrics import evaluate  # here, so synth loads only the generator

    reports = evaluate(manifest, train_on_manifest(manifest, [(config, k) for k in k_list]))
    rows = [KShotRow(label=str(k), iou_per=r.iou_per, miou=r.miou)
            for k, r in zip(k_list, reports)]
    rows.append(KShotRow(label="Avg.",
                         iou_per=sum(r.iou_per for r in rows) / len(rows),
                         miou=sum(r.miou for r in rows) / len(rows)))
    return rows


def format_kshot_table(rows: list[KShotRow]) -> str:
    lines = ["k\tiou_per\tmiou"]
    lines += [f"{r.label}\t{r.iou_per:.4f}\t{r.miou:.4f}" for r in rows]
    return "\n".join(lines) + "\n"
