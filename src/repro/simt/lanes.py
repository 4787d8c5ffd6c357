"""Lane-mask helpers for lock-step wavefront kernels.

Kernels keep per-lane state in NumPy arrays of length ``wavefront_size``
and an *active mask* selecting the lanes participating in the current
(simulated) instruction — exactly how SIMT divergence works in hardware
(§3.3): lanes off the current path idle through it.

The helpers here implement the wavefront-local cooperation patterns the
paper's listings rely on, most importantly the lane aggregation behind the
arbitrary-n property: in Listing 1, every hungry lane executes a local
``atomic_inc(&lQueueSlotsNeeded)`` in lock-step, which hands lane *k* the
count of hungry lanes before it — i.e. an exclusive prefix sum over the
hungry mask — and leaves the total in the local counter for the proxy
thread.  :func:`rank_within` computes both in one shot.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Tuple

import numpy as np


def lane_ids(wavefront_size: int) -> np.ndarray:
    """Lane index vector ``[0, 1, ..., wavefront_size-1]``."""
    return np.arange(wavefront_size, dtype=np.int64)


@lru_cache(maxsize=None)
def word_lanes(word: int, n: int) -> np.ndarray:
    """Read-only index vector of ``n`` lanes that all name word ``word``:
    the index of a per-lane atomic burst on one control word, shared per
    ``(word, n)`` so a burst allocates no index."""
    lanes = np.full(n, word, dtype=np.int64)
    lanes.flags.writeable = False
    return lanes


def rank_within(mask: np.ndarray) -> Tuple[np.ndarray, int]:
    """Exclusive prefix sum over a lane mask, plus the popcount.

    Returns ``(ranks, total)`` where ``ranks[i]`` is the number of set
    lanes strictly before lane ``i`` (meaningful only where ``mask`` is
    set) and ``total`` is the number of set lanes.  This is the data
    result of the lock-step local ``atomic_inc`` in Listing 1 lines 6-9 /
    Listing 3 lines 8-11.
    """
    mask = np.asarray(mask, dtype=bool)
    inclusive = np.cumsum(mask, dtype=np.int64)
    ranks = inclusive - mask.astype(np.int64)
    total = int(inclusive[-1]) if mask.size else 0
    return ranks, total


def segmented_rank(mask: np.ndarray, counts: np.ndarray) -> Tuple[np.ndarray, int]:
    """Prefix sum of per-lane *counts* over set lanes, plus the total.

    The enqueue path (Listing 3) aggregates a per-lane ``nNewlyDiscoveredWork``
    rather than a 0/1 flag: lane *k* receives the sum of counts of set lanes
    before it, so its tokens occupy ``[base + ranks[k], base + ranks[k] +
    counts[k])`` in the queue.
    """
    mask = np.asarray(mask, dtype=bool)
    counts = np.where(mask, np.asarray(counts, dtype=np.int64), 0)
    inclusive = np.cumsum(counts, dtype=np.int64)
    ranks = inclusive - counts
    total = int(inclusive[-1]) if counts.size else 0
    return ranks, total


def first_active(mask: np.ndarray) -> int:
    """Index of the first set lane, or -1 if none.

    The paper "arbitrarily chose the first thread in each wavefront" as the
    proxy (§4.1); some ablations instead use the first *active* lane.
    """
    mask = np.asarray(mask, dtype=bool)
    hits = np.flatnonzero(mask)
    return int(hits[0]) if hits.size else -1


def ballot(mask: np.ndarray) -> int:
    """The mask as an integer bit-set (like OpenCL sub-group ballot)."""
    mask = np.asarray(mask, dtype=bool)
    bits = 0
    for i in np.flatnonzero(mask):
        bits |= 1 << int(i)
    return bits
