"""Personalized open-vocabulary segmentation head over frozen snapshots."""

from .errors import (
    BadMagicError,
    FormatError,
    InvariantError,
    NonFiniteError,
    TruncatedPayloadError,
    VersionMismatchError,
)
from .head import ForwardCache, PersonalState, build_forward, build_frozen_forward
from .losses import LossBreakdown, LossWeights, total_loss
from .grad import Gradients, backward, finite_diff, gradcheck
from .metrics import MetricsReport, evaluate, pseudo_label
from .personalize import TrainConfig, load_state, run_personalization, save_state
from .snapshot import (
    FrozenSnapshot,
    Manifest,
    ManifestEntry,
    downsample_mask,
    load_manifest,
    load_mask,
    load_snapshot,
    save_mask,
    save_snapshot,
)
from .synthbench import SynthConfig, generate, run_ablation, run_kshot

__version__ = "0.1.0"
