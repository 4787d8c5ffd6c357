"""Per-wavefront lane state shared by every queue variant.

Each persistent wavefront owns one :class:`WavefrontQueueState`: the
private registers of its lanes as far as the scheduler is concerned.  The
queue variants mutate it through a uniform contract so the same driver
kernel (e.g. the BFS in :mod:`repro.bfs.persistent`) runs unchanged on
BASE, AN, and RF/AN:

* a lane *wants* work while it holds no token (``~has_token``);
* once a variant hands it a token, :attr:`has_token` is set and
  :attr:`token` holds the task id;
* a lane may instead be parked on a :attr:`slot` — RF/AN's monitored
  dequeue slot (the refactored queue-empty exception of §4.2) or BASE's
  claimed-but-not-yet-valid slot; ``-1`` means not parked.

The integer mirrors :attr:`n_token` / :attr:`n_watching` exist because
persistent kernels evaluate "is anyone busy?" every work cycle; keeping
them as Python ints avoids a NumPy reduction in the simulator's hottest
loop.  All mutations must go through :meth:`grant`, :meth:`complete`,
:meth:`watch` and :meth:`unwatch`, which keep the mirrors (and the
cached watch-set, :attr:`cache`) consistent.
"""

from __future__ import annotations

import numpy as np

from .constants import DNA


class WavefrontQueueState:
    """Lane-private scheduler registers for one wavefront."""

    __slots__ = ("wavefront_size", "needs_work", "has_token", "token",
                 "slot", "n_token", "n_watching", "cache", "idle")

    def __init__(self, wavefront_size: int):
        if wavefront_size <= 0:
            raise ValueError(
                f"wavefront_size must be positive, got {wavefront_size}"
            )
        #: number of lanes (plain int: read every work cycle).
        self.wavefront_size = wavefront_size
        #: lane wants a task assigned (kept in lockstep with ~has_token).
        self.needs_work = np.ones(wavefront_size, dtype=bool)
        #: lane currently holds a task token.
        self.has_token = np.zeros(wavefront_size, dtype=bool)
        #: the held task token (valid where has_token).
        self.token = np.full(wavefront_size, DNA, dtype=np.int64)
        #: parked slot (raw index), -1 when not parked.
        self.slot = np.full(wavefront_size, -1, dtype=np.int64)
        #: number of lanes with has_token set.
        self.n_token = 0
        #: number of lanes parked on a slot.
        self.n_watching = 0
        #: queue-variant scratch (e.g. RF/AN's cached watch arrays);
        #: invalidated on every watch/unwatch.
        self.cache = None
        #: queue -> its idle cycle(s) over ``cache`` (the reads a
        #: parked wavefront repeats); invalidated with it.
        self.idle = None

    def grant(self, lanes: np.ndarray, tokens: np.ndarray) -> None:
        """Hand tokens to lanes (index array + aligned token vector)."""
        self.token[lanes] = tokens
        self.has_token[lanes] = True
        self.needs_work[lanes] = False
        self.n_token += int(np.size(lanes))

    def complete(self, lanes: np.ndarray) -> None:
        """Mark lanes' tasks finished; they become hungry again."""
        self.has_token[lanes] = False
        self.token[lanes] = DNA
        self.needs_work[lanes] = True
        self.n_token -= int(np.size(lanes))

    def watch(self, lanes: np.ndarray, raws: np.ndarray) -> None:
        """Park lanes on queue slots."""
        self.slot[lanes] = raws
        self.n_watching += int(np.size(lanes))
        self.cache = self.idle = None

    def unwatch(self, lanes: np.ndarray) -> None:
        """Release lanes' parked slots."""
        self.slot[lanes] = -1
        self.n_watching -= int(np.size(lanes))
        self.cache = self.idle = None

    def hungry_mask(self) -> np.ndarray:
        """Lanes that want work and are not already parked on a slot."""
        return ~self.has_token & (self.slot < 0)

    @property
    def n_hungry(self) -> int:
        """Lanes wanting work and not parked (O(1))."""
        return self.wavefront_size - self.n_token - self.n_watching

    def check_invariants(self) -> None:
        """Debug aid: mirrors and masks must agree; no contradictions."""
        if np.any(self.has_token & self.needs_work):
            raise AssertionError("lane both holds a token and needs work")
        if np.any(self.has_token & (self.token < 0)):
            raise AssertionError("has_token lane with invalid token")
        if self.n_token != int(self.has_token.sum()):
            raise AssertionError("n_token mirror out of sync")
        if self.n_watching != int((self.slot >= 0).sum()):
            raise AssertionError("n_watching mirror out of sync")
        if np.any(self.has_token & (self.slot >= 0)):
            raise AssertionError("lane holds a token while parked on a slot")
