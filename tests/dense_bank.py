"""Reference for decoding: the full H x W x channels mask bank and its argmax.

``head.predict`` composes one tile at a time against the proposals active in
it. Tests compare it against the dense composition of the whole bank, which
this module builds: ``m_open``, then ``m_neg`` at channel ``j``.
"""

import numpy as np

from povseg.head import COVERAGE_EPS, ForwardCache
from povseg.snapshot import FrozenSnapshot


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
