"""Dense references for decoding and for pair scoring.

``head.predict`` composes one tile at a time against the proposals active in
it. Tests compare it against the dense composition of the whole bank, which
``full_bank`` builds: ``m_open``, then ``m_neg`` at channel ``j``.

``concat_evaluate`` scores a pair as its two images. Tests compare it against
the pair joined into one side-by-side image (``concat``), with a zero-padded
H x 2W x 2N proposal bank, so each bank's masks are zero outside its own half
and the personal mask occupies only the positive half. A state scores the
joined image after ``tile_state(state, 2)``.
"""

from dataclasses import replace

import numpy as np

from povseg.head import COVERAGE_EPS, ForwardCache, PersonalState
from povseg.snapshot import FrozenSnapshot, Sample


def full_bank(cache: ForwardCache) -> np.ndarray:
    """(H, W, channels) bank of a forward pass: m_open, then m_neg if enabled."""
    m_open = cache.snapshot.m_open
    if cache.m_neg is None:
        return m_open
    return np.concatenate([m_open, cache.m_neg[:, :, None]], axis=2)


def dense_labels(m: np.ndarray, c: np.ndarray) -> np.ndarray:
    """argmax of the full ``M C^T`` on covered pixels, class 0 elsewhere."""
    return np.where(m.sum(axis=2) > COVERAGE_EPS, (m @ c.T).argmax(axis=2), 0)


def bank_snapshot(m: np.ndarray) -> FrozenSnapshot:
    """A snapshot around a bare mask bank, for decoding it with ``predict``."""
    n = m.shape[2]
    return FrozenSnapshot(t_open=np.zeros((1, 1)), z_open=np.zeros((n, 1)),
                          m_open=m, vocab_names=["bank"])


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
