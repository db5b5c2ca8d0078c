"""Reference for pair scoring: two samples joined into one side-by-side image.

The joined image has a zero-padded H x 2W x 2N proposal bank, so each bank's
masks are zero outside its own half, and the personal mask occupies only the
positive half. A state scores it after ``tile_state(state, 2)``. Tests compare
``concat_evaluate``, which scores a pair as its two images, against this.
"""

from dataclasses import replace

import numpy as np

from povseg.head import PersonalState
from povseg.snapshot import FrozenSnapshot, Sample


def concat(pos: Sample, neg: Sample) -> Sample:
    """Join two samples side by side, doubling the proposal bank."""
    a, b = pos.snapshot, neg.snapshot
    h, w = a.grid_shape
    n = a.num_proposals
    m = np.zeros((h, 2 * w, 2 * n))
    m[:, :w, :n] = a.m_open
    m[:, w:, n:] = b.m_open
    snapshot = FrozenSnapshot(
        t_open=a.t_open.copy(),
        z_open=np.vstack([a.z_open, b.z_open]),
        m_open=m,
        vocab_names=list(a.vocab_names),
        logit_scale=a.logit_scale,
    )
    mask = np.zeros((h, 2 * w), dtype=np.uint8)
    mask[:, :w] = pos.personal_mask
    return Sample(snapshot=snapshot, personal_mask=mask, polarity="positive")


def tile_state(state: PersonalState, banks: int) -> PersonalState:
    """Repeat per-proposal weights across ``banks`` concatenated proposal banks.

    ``w_z`` is divided by the bank count so the negative embedding averages
    the banks' combinations.
    """
    return replace(state, w_z=np.tile(state.w_z, banks) / banks,
                   w_m=np.tile(state.w_m, banks))
