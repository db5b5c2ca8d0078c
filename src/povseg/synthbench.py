"""Seeded synthetic benchmark: snapshot generator plus experiment harnesses.

The generator builds a desk-scale stand-in for the personalization
benchmarks. The vocabulary holds a background entry, a group of visually
similar fine classes sharing one coarse direction (the personal concept is
the first of them), and a few unrelated classes. Object embeddings are
``centroid + delta * instance_direction + sigma * noise``; the text entry
for a fine class carries only part of its instance offset, so the visual
embedding genuinely adds information. Positive images contain the personal
instance, negative images a same-group distractor instance, and every image
adds one unrelated object plus clutter proposals.

This construction makes the core failure mode arise by design: tuning only
the text prompt inflates the personal logit until it outgrows the
neighboring fine-class entries, producing false positives on distractors
that the negative mask branch then has to suppress.
"""

from __future__ import annotations

import io
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from .errors import InvariantError
from .head import PersonalState
from .metrics import LazySamples, MetricsReport, evaluate_samples
from .personalize import TrainConfig, run_personalization
from .snapshot import (
    FrozenSnapshot,
    Manifest,
    ManifestEntry,
    Sample,
    load_sample,
    load_samples,
    save_mask,
    save_snapshot,
)

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
FEATURE_NOISE = 0.02
PROPOSAL_JITTER = 1.0
PROPOSAL_SCALE = (1.15, 1.5)
# Appearance (pose) variation lives in its own subspace, orthogonal to all
# class and instance directions: single-shot tuning absorbs one image's
# pose into the prompt, while averaging over K shots cancels it.
POSE_DIMS = 2
POSE_NOISE = 0.7
# Below ln(2**-1075) ~ -745.13 the correctly rounded binary64 exp is +0.0.
EXP_UNDERFLOW = -746.0


@dataclass
class SynthConfig:
    v: int = 16                 # vocabulary size incl. background
    d: int = 32
    n: int = 12                 # proposals per image
    h: int = 32                 # side of the square proposal grid
    hf: int = 16                # side of the square feature grid
    instances_per_class: int = 4
    delta: float = 1.1          # instance offset from the class centroid
    sigma: float = 0.04         # per-image embedding noise
    k_train: int = 5
    n_test_pos: int = 24
    n_test_neg: int = 24
    seed: int = 20

    def validate(self) -> None:
        if self.instances_per_class < 2:
            raise InvariantError("need at least 2 instances per class")
        if self.v < self.instances_per_class + 2:
            raise InvariantError(
                f"vocabulary size {self.v} too small: need background, "
                f"{self.instances_per_class} fine-class entries and the near-synonym")
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
        for name, value in (("delta", self.delta), ("sigma", self.sigma)):
            if not (np.isfinite(value) and value >= 0):
                raise InvariantError(f"{name} must be finite and nonnegative, got {value}")
        if self.seed < 0:
            raise InvariantError(f"seed must be >= 0, got {self.seed}")


def _unit(vec: np.ndarray) -> np.ndarray:
    norm = np.linalg.norm(vec)
    return vec / norm if norm > 0 else vec


def _blob(h: int, w: int, cy: float, cx: float, ry: float, rx: float) -> np.ndarray:
    ys = (np.arange(h)[:, None] - cy) / ry
    xs = (np.arange(w)[None, :] - cx) / rx
    q = -(ys ** 2 + xs ** 2)
    # Far from a small blob's centre numpy's exp takes a slow underflow path,
    # so it runs only where the correctly rounded result is not +0.0.
    return np.exp(q, out=np.zeros_like(q), where=q > EXP_UNDERFLOW)


@dataclass
class _Directions:
    background: np.ndarray
    coarse: np.ndarray
    fine: np.ndarray          # (instances_per_class, d)
    twin: np.ndarray          # offset of the near-synonym text entry
    unrelated: np.ndarray     # (v - instances_per_class - 2, d) vocabulary extras
    stray: np.ndarray         # out-of-vocabulary scene object
    pose: np.ndarray          # (POSE_DIMS, d) appearance subspace


def _draw_directions(config: SynthConfig, rng: np.random.Generator) -> _Directions:
    basis, _ = np.linalg.qr(rng.normal(size=(config.d, config.d)))
    cols = iter(range(config.d))
    background = basis[:, next(cols)]
    coarse = basis[:, next(cols)]
    fine = np.stack([basis[:, next(cols)] for _ in range(config.instances_per_class)])
    twin = basis[:, next(cols)]
    n_extra = config.v - config.instances_per_class - 2
    unrelated = np.stack([basis[:, next(cols)] for _ in range(n_extra)]) \
        if n_extra > 0 else np.zeros((0, config.d))
    stray = basis[:, next(cols)]
    pose = np.stack([basis[:, next(cols)] for _ in range(POSE_DIMS)])
    return _Directions(background, coarse, fine, twin, unrelated, stray, pose)


def _text_bank(config: SynthConfig, dirs: _Directions) -> tuple[np.ndarray, list[str]]:
    rows = [dirs.background]
    names = ["background"]
    personal = dirs.coarse + PERSONAL_TEXT_OFFSET * config.delta * dirs.fine[0]
    rows.append(_unit(personal))
    names.append("class_01")
    for i in range(1, config.instances_per_class):
        rows.append(_unit(dirs.coarse + DISTRACTOR_TEXT_OFFSET * config.delta * dirs.fine[i]))
        names.append(f"class_{i + 1:02d}")
    rows.append(_unit(personal + TWIN_TEXT_OFFSET * dirs.twin))
    names.append(f"class_{config.instances_per_class + 1:02d}")
    for i, centroid in enumerate(dirs.unrelated):
        rows.append(centroid)
        names.append(f"class_{config.instances_per_class + 2 + i:02d}")
    return np.stack(rows), names


def _make_image(config: SynthConfig, dirs: _Directions, text: np.ndarray,
                names: list[str], group_dir_index: int,
                rng: np.random.Generator):
    """One synthetic sample; returns (snapshot, gt_mask, meta_row_fields)."""
    h, w, n = config.h, config.h, config.n

    def geometry(x_lo: float, x_hi: float):
        cy = rng.uniform(h * 0.34, h * 0.66)
        cx = rng.uniform(x_lo, x_hi)
        ry, rx = rng.uniform(h * 0.125, h * 0.19, size=2)
        jitter = rng.uniform(-PROPOSAL_JITTER, PROPOSAL_JITTER, size=2)
        # Proposals run systematically wide, like real mask heads: the soft
        # fringe outside the ground truth is what keeps prompt tuning honest.
        scale = rng.uniform(*PROPOSAL_SCALE, size=2)
        return cy, cx, ry, rx, jitter, scale

    # Group-class object (personal instance on positives, distractor otherwise).
    g_cy, g_cx, g_ry, g_rx, g_jit, g_scale = geometry(w * 0.22, w * 0.42)
    g_noise = rng.normal(size=config.d)
    g_pose = rng.normal(size=POSE_DIMS) @ dirs.pose
    g_embed = _unit(dirs.coarse + config.delta * dirs.fine[group_dir_index]
                    + POSE_NOISE * g_pose + config.sigma * g_noise)
    g_true = _blob(h, w, g_cy, g_cx, g_ry, g_rx)
    g_prop = _blob(h, w, g_cy + g_jit[0], g_cx + g_jit[1],
                   g_ry * g_scale[0], g_rx * g_scale[1])

    # Second object: an unrelated vocabulary class when the vocabulary has
    # one, otherwise an out-of-vocabulary scene object.
    n_extra = config.v - config.instances_per_class - 2
    pick = int(rng.integers(0, n_extra + 1))
    if pick < n_extra:
        u_class = config.instances_per_class + 2 + pick
        u_base = text[u_class]
    else:
        u_class = -1
        u_base = dirs.stray
    u_cy, u_cx, u_ry, u_rx, u_jit, u_scale = geometry(w * 0.58, w * 0.78)
    u_noise = rng.normal(size=config.d)
    u_embed = _unit(u_base + config.sigma * u_noise)
    u_true = _blob(h, w, u_cy, u_cx, u_ry, u_rx)
    u_prop = _blob(h, w, u_cy + u_jit[0], u_cx + u_jit[1],
                   u_ry * u_scale[0], u_rx * u_scale[1])

    # Clutter proposals: small weak blobs with junk embeddings.
    n_clutter = n - 3
    clutter_masks = []
    clutter_embeds = []
    for _ in range(n_clutter):
        cy, cx = rng.uniform(2, h - 2), rng.uniform(2, w - 2)
        r = rng.uniform(1.5, 3.5)
        amp = rng.uniform(0.25, 0.7)
        clutter_masks.append(amp * _blob(h, w, cy, cx, r, r))
        clutter_embeds.append(_unit(rng.normal(size=config.d)))

    bg_mask = 1.0 - np.maximum(g_true, u_true)
    bg_embed = _unit(dirs.background + config.sigma * rng.normal(size=config.d))

    # Slot 0 is the stable scene/background query; the rest are shuffled.
    order = rng.permutation(n - 1) + 1
    # The bank is built in the file's binary32; assigning rounds as a save would.
    masks = np.zeros((h, w, n), dtype=np.float32)
    embeds = np.zeros((n, config.d))
    masks[:, :, 0] = bg_mask
    embeds[0] = bg_embed
    role_masks = [g_prop, u_prop] + clutter_masks
    role_embeds = [g_embed, u_embed] + clutter_embeds
    group_slot = int(order[0])
    unrelated_slot = int(order[1])
    for slot, mask, embed in zip(order, role_masks, role_embeds):
        masks[:, :, slot] = mask
        embeds[slot] = embed

    # Feature map: paint each object's embedding over its support.
    features = rng.normal(size=(config.hf, config.hf, config.d))
    features *= FEATURE_NOISE
    features += dirs.background
    s = config.hf / h
    u_feat = _blob(config.hf, config.hf, u_cy * s, u_cx * s, u_ry * s, u_rx * s)
    features[u_feat >= 0.5] = u_embed
    g_feat = _blob(config.hf, config.hf, g_cy * s, g_cx * s, g_ry * s, g_rx * s)
    features[g_feat >= 0.5] = g_embed

    snapshot = FrozenSnapshot(t_open=text, z_open=embeds, m_open=masks,
                              vocab_names=list(names), logit_scale=LOGIT_SCALE,
                              features=features)
    gt = (g_true >= 0.5).astype(np.uint8)
    return snapshot, gt, group_slot, unrelated_slot, u_class


def generate(config: SynthConfig, out_dir: str | Path) -> Path:
    """Write snapshots, masks, manifest and metadata sidecar; returns manifest path."""
    config.validate()
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

    plan = ([("train", "positive")] * config.k_train
            + [("test", "positive")] * config.n_test_pos
            + [("test", "negative")] * config.n_test_neg)

    manifest_lines = []
    meta_lines = ["file\tpolarity\tpersonal_slot\tgroup_dir\tgroup_slot"
                  "\tunrelated_class\tunrelated_slot"]
    counters = {"train": 0, "test_positive": 0, "test_negative": 0}
    n_distractors = config.instances_per_class - 1
    neg_seen = 0
    for img_idx, (split, polarity) in enumerate(plan):
        rng = np.random.default_rng(children[img_idx + 1])
        if polarity == "positive":
            group_dir = 0
        else:
            group_dir = 1 + neg_seen % n_distractors
            neg_seen += 1
        snapshot, gt, group_slot, unrelated_slot, u_class = _make_image(
            config, dirs, text, names, group_dir, rng)

        key = split if split == "train" else f"test_{polarity}"
        stem = f"{key}_{counters[key]:03d}"
        counters[key] += 1
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
    return manifest_path


def _init_vector(manifest: Manifest, snapshot: FrozenSnapshot) -> np.ndarray:
    name = manifest.personal_class_name
    if name not in snapshot.vocab_names:
        raise InvariantError(
            f"personal class {name!r} not in the snapshot vocabulary; "
            "cannot initialize the personal embedding")
    return snapshot.t_open[snapshot.vocab_names.index(name)].copy()


def train_on_manifest(manifest: Manifest, config: TrainConfig, samples: list[Sample]
                      ) -> tuple[PersonalState, list[float]]:
    """Personalize on ``samples``: the train split, or a prefix of it."""
    if not samples:  # before samples[0] below; run_personalization says the same
        raise InvariantError("empty training sample set")
    init = _init_vector(manifest, samples[0].snapshot)
    return run_personalization(samples, config, init)


def _train_and_score(manifest: Manifest, config: TrainConfig, train: list[Sample],
                     samples: list[Sample]) -> MetricsReport:
    """Personalize on ``train``, then evaluate the state on ``samples``."""
    state, _ = train_on_manifest(manifest, config, train)
    return evaluate_samples(samples, manifest.personal_class_name, state=state)


@dataclass
class AblationRow:
    label: str
    text_prompt: bool
    neg_mask: bool
    visual_inject: bool
    report: MetricsReport


def run_ablation(manifest: Manifest, config: TrainConfig) -> list[AblationRow]:
    """Train and evaluate the five module combinations under one seed."""
    samples = load_samples(manifest, "test")
    train = load_samples(manifest, "train")

    toggles = [
        ("frozen", False, False, False),
        ("prompt", True, False, False),
        ("prompt+neg", True, True, False),
        ("prompt+inject", True, False, True),
        ("full", True, True, True),
    ]
    rows = []
    for label, prompt, neg, inject in toggles:
        if not prompt:
            report = evaluate_samples(samples, manifest.personal_class_name, state=None)
        else:
            run_cfg = replace(config, negative_enabled=neg, injection_enabled=inject)
            report = _train_and_score(manifest, run_cfg, train, samples)
        rows.append(AblationRow(label=label, text_prompt=prompt, neg_mask=neg,
                                visual_inject=inject, report=report))
    return rows


def format_ablation_table(rows: list[AblationRow]) -> str:
    buf = io.StringIO()
    buf.write("text_prompt\tneg_mask\tvisual_inject\tmiou\tiou_per"
              "\tprecision_per\trecall_per\n")
    for row in rows:
        flags = ["x" if f else "-" for f in
                 (row.text_prompt, row.neg_mask, row.visual_inject)]
        r = row.report
        buf.write("\t".join(flags) + f"\t{r.miou:.4f}\t{r.iou_per:.4f}"
                  f"\t{r.precision_per:.4f}\t{r.recall_per:.4f}\n")
    return buf.getvalue()


@dataclass
class KShotRow:
    label: str
    iou_per: float
    miou: float


def run_kshot(manifest: Manifest, k_list: list[int], config: TrainConfig
              ) -> list[KShotRow]:
    """Full-method runs at each K, on the first K train entries, plus the mean row."""
    if not k_list or min(k_list) < 1:
        raise InvariantError(f"K values must be >= 1, got {k_list}")
    n_train = len(manifest.split("train"))
    if max(k_list) > n_train:
        raise InvariantError(
            f"K={max(k_list)} exceeds the {n_train} available training samples")
    samples = load_samples(manifest, "test")
    train = load_samples(manifest, "train")

    rows = []
    for k in k_list:
        report = _train_and_score(manifest, config, train[:k], samples)
        rows.append(KShotRow(label=str(k), iou_per=report.iou_per, miou=report.miou))
    rows.append(KShotRow(label="Avg.",
                         iou_per=sum(r.iou_per for r in rows) / len(rows),
                         miou=sum(r.miou for r in rows) / len(rows)))
    return rows


def format_kshot_table(rows: list[KShotRow]) -> str:
    lines = ["k\tiou_per\tmiou"]
    lines += [f"{r.label}\t{r.iou_per:.4f}\t{r.miou:.4f}" for r in rows]
    return "\n".join(lines) + "\n"


def concat_pairs(manifest: Manifest) -> LazySamples:
    """Pair test positives with test negatives in manifest order.

    A pair is scored as its two images, each decoded against its own
    proposals plus the negative column the pair shares; its two images are
    read only when it is scored. Entries left without a partner are read
    here once, so that a malformed file among them is still refused.
    """
    entries = manifest.split("test")
    positives = [e for e in entries if e.polarity == "positive"]
    negatives = [e for e in entries if e.polarity == "negative"]
    if not positives or not negatives:
        raise InvariantError("concat evaluation needs both polarities in the test split")
    paired = min(len(positives), len(negatives))
    for entry in positives[paired:] + negatives[paired:]:
        load_sample(entry)
    return LazySamples(list(zip(positives, negatives)), _load_pair, per_item=2)


def _load_pair(pair: tuple[ManifestEntry, ManifestEntry]) -> tuple[Sample, Sample]:
    pos, neg = load_sample(pair[0]), load_sample(pair[1])
    pos.partner_z, neg.partner_z = neg.snapshot.z_open, pos.snapshot.z_open
    return pos, neg


def concat_evaluate(manifest: Manifest, state: PersonalState) -> MetricsReport:
    return evaluate_samples(concat_pairs(manifest), manifest.personal_class_name,
                            state=state)
