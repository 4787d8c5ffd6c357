"""Abstract interface shared by the three concurrent-queue variants.

A :class:`DeviceQueue` is a *device-resident* data structure: its state
lives entirely in :class:`~repro.simt.memory.GlobalMemory` buffers
(statically allocated, per the GPU constraint in §3.1 of the paper), and
its operations are generator methods that kernels drive with
``yield from``.  The Python object itself holds only immutable
configuration (capacity, buffer names) — it is the *code* of the queue,
not its data, so one object can serve any number of concurrent simulated
wavefronts.

The contract seen by the persistent-thread scheduler:

``acquire(ctx, st)``
    Try to obtain task tokens for hungry lanes of ``st``.  Variants
    differ in *how* (and in how much contention they cause):

    * BASE — every hungry lane runs its own CAS loop on ``Front``;
      queue-empty is an exception that leaves the lane hungry.
    * AN — the proxy lane claims ``n`` entries with one CAS loop.
    * RF/AN — the proxy lane claims ``n`` *slots* with one non-failing
      fetch-add; lanes then monitor their private slot for data arrival
      (no retries of any kind).

``publish(ctx, st, counts, tokens)``
    Enqueue newly discovered tokens: lane *i* contributes
    ``tokens[i, :counts[i]]``.

Statistics land in ``ctx.stats.custom`` under ``queue.*`` keys so the
harness can compute the paper's retry metrics (Figures 1 and 5).
"""

from __future__ import annotations

import abc
from typing import Generator, Iterable, Optional

import numpy as np

from repro.simt import Abort, GlobalMemory, KernelContext, MemRead, Op
from repro.simt.memory import MemoryFault

from .constants import DNA, FRONT, REAR
from .state import WavefrontQueueState

# custom-counter keys (shared across variants so reports line up)
K_DEQ_REQUESTS = "queue.dequeue_requests"      # lanes that asked for work
K_DEQ_TOKENS = "queue.dequeued_tokens"         # tokens handed out
K_ENQ_TOKENS = "queue.enqueued_tokens"         # tokens stored
K_EMPTY_EXC = "queue.empty_exceptions"         # queue-empty retry events
K_CAS_ROUNDS = "queue.cas_retry_rounds"        # extra CAS loop iterations
K_PROXY_ATOMICS = "queue.proxy_atomics"        # aggregated global atomics
K_ARRIVAL_CHECKS = "queue.arrival_checks"      # RF/AN slot polls


#: control word -> (probe counter name, reservation direction)
_WORD_NAMES = {FRONT: ("front", "acquire"), REAR: ("rear", "publish")}


class QueueFull(Exception):
    """Host-visible queue-full abort (paper footnote 2: not retryable)."""


def queue_full(
    reason: str, queue: str, capacity: int, fill: int,
    shard: Optional[int] = None,
) -> Abort:
    """The kernel-side queue-full abort every queue variant yields.

    ``info`` is what :class:`~repro.simt.errors.QueueFullError`, the
    post-mortem writer and the capacity advisor read: the aborting
    queue's prefix, its capacity, the fill level seen at the failure
    and, for a sharded queue, the shard.
    """
    info = {"queue": queue, "capacity": capacity, "fill": fill}
    if shard is not None:
        info["shard"] = shard
    return Abort(reason, info=info)


class DeviceQueue(abc.ABC):
    """Configuration + kernel-side code of one bounded concurrent queue.

    Parameters
    ----------
    capacity:
        Number of task-token slots.  The paper's BFS sizes the queue for
        the whole problem; undersizing aborts the kernel with queue-full.
    prefix:
        Buffer-name prefix, so several queues can coexist in one memory.
    circular:
        If True, raw indices wrap (``physical = raw % capacity``) and the
        structure is reusable indefinitely provided ``capacity`` exceeds
        the maximum number of in-flight plus monitored entries.  If False
        (the paper's BFS configuration), indices are monotonic and a slot
        index beyond ``capacity`` simply never receives data (Listing 2's
        bound check).
    """

    #: short variant id used in tables ("BASE", "AN", "RF/AN").
    variant: str = "?"
    #: whether the variant has the retry-free property.
    retry_free: bool = False
    #: whether the variant has the arbitrary-n property.
    arbitrary_n: bool = False
    #: the launch (its ``SimStats``) this queue last registered with a
    #: probe in; see :meth:`_probe`.  Starts as a marker no launch is.
    _registered: object = object()

    def __init__(self, capacity: int, prefix: str = "wq", circular: bool = False):
        if capacity <= 0:
            raise ValueError(f"capacity must be positive, got {capacity}")
        self.capacity = int(capacity)
        self.prefix = prefix
        self.circular = bool(circular)
        self.buf_data = f"{prefix}.data"
        self.buf_ctrl = f"{prefix}.ctrl"

    # ------------------------------------------------------------------
    # host side
    # ------------------------------------------------------------------
    def allocate(self, memory: GlobalMemory) -> None:
        """Statically allocate the queue's buffers (before kernel launch).

        The slot array is marked L2-resident: its active window (the
        slots around Front/Rear) is re-read by every hungry thread every
        work cycle, the most heavily re-referenced data in the kernel.
        """
        memory.alloc(self.buf_data, self.capacity, fill=DNA)
        memory.mark_hot(self.buf_data)
        memory.alloc(self.buf_ctrl, 2, fill=0)

    def seed(self, memory: GlobalMemory, tokens: Iterable[int]) -> int:
        """Host-side enqueue of the initial ready tasks.

        Returns the number of tokens seeded.  Mirrors the host writing the
        source vertex before launching the BFS kernel.
        """
        toks = np.asarray(list(tokens), dtype=np.int64)
        if toks.size > self.capacity:
            raise QueueFull(
                f"{toks.size} seed tokens exceed capacity {self.capacity}"
            )
        if np.any(toks < 0):
            raise ValueError("task tokens must be non-negative")
        data = memory[self.buf_data]
        ctrl = memory[self.buf_ctrl]
        rear = int(ctrl[REAR])
        for i, t in enumerate(toks):
            data[self._seed_slot(memory, rear + i)] = t
        ctrl[REAR] = rear + toks.size
        self._host_mark_valid(memory, rear, toks.size)
        return int(toks.size)

    def _seed_slot(self, memory: GlobalMemory, raw: int) -> int:
        """Physical slot the host seeds raw index ``raw`` into (a hook for
        segmented storage, which maps segments as seeding reaches them)."""
        return self._phys(raw)

    def _host_mark_valid(self, memory: GlobalMemory, start: int, n: int) -> None:
        """Hook for variants with per-slot valid flags (BASE/AN)."""

    def drain_host(self, memory: GlobalMemory) -> np.ndarray:
        """Read all stored-but-unconsumed tokens (host-side debugging)."""
        ctrl = memory[self.buf_ctrl]
        data = memory[self.buf_data]
        front, rear = int(ctrl[FRONT]), int(ctrl[REAR])
        out = []
        for raw in range(front, rear):
            v = data[self._phys(raw)]
            if v != DNA:
                out.append(int(v))
        return np.asarray(out, dtype=np.int64)

    # ------------------------------------------------------------------
    # shared helpers
    # ------------------------------------------------------------------
    def _phys(self, raw) -> np.ndarray | int:
        """Map raw (monotonic) indices to physical slots."""
        if self.circular:
            return raw % self.capacity
        return raw

    def _in_bounds(self, raw: np.ndarray) -> np.ndarray:
        """Which raw indices address real storage (Listing 2 line 3)."""
        if self.circular:
            return np.ones(raw.shape, dtype=bool)
        return raw < self.capacity

    # ------------------------------------------------------------------
    # kernel side
    # ------------------------------------------------------------------
    @abc.abstractmethod
    def acquire(
        self, ctx: KernelContext, st: WavefrontQueueState
    ) -> Generator[Op, Op, None]:
        """Obtain tokens for hungry lanes (variant-specific protocol)."""

    @abc.abstractmethod
    def publish(
        self,
        ctx: KernelContext,
        st: WavefrontQueueState,
        counts: np.ndarray,
        tokens: np.ndarray,
    ) -> Generator[Op, Op, None]:
        """Enqueue ``tokens[i, :counts[i]]`` for every lane ``i``."""

    # convenience for subclasses -----------------------------------------
    def _read_ctrl(self) -> MemRead:
        """One coalesced read of (Front, Rear)."""
        return MemRead(self.buf_ctrl, np.array([FRONT, REAR], dtype=np.int64))

    def _full(
        self, detail: str, fill: int, capacity: Optional[int] = None
    ) -> Abort:
        """This queue's queue-full abort: ``queue full: queue '<prefix>'
        <detail>`` (``capacity`` defaults to the slot count)."""
        if capacity is None:
            capacity = self.capacity
        return queue_full(
            f"queue full: queue {self.prefix!r} {detail}",
            self.prefix, capacity, fill,
        )

    def _sampled(self, probe, ctrl: MemRead) -> tuple:
        """Decode a completed :meth:`_read_ctrl` into ``(front, rear)``
        and report both samples to ``probe``."""
        front, rear = int(ctrl.result[0]), int(ctrl.result[1])
        if probe is not None:
            probe.queue_counter(self.prefix, "front", probe.now, front)
            probe.queue_counter(self.prefix, "rear", probe.now, rear)
        return front, rear

    def _announce(self, ctx: KernelContext, word: int, base: int, n: int) -> None:
        """Report a won reservation of ``n`` raw slots from ``base`` on
        control ``word`` (``FRONT``/``REAR``) to the launch's probe: the
        word's new value, the proxy aggregation and the reservation."""
        probe = self._probe(ctx)
        name, direction = _WORD_NAMES[word]
        probe.queue_counter(self.prefix, name, probe.now, base + n)
        probe.queue_proxy(self.prefix, direction, n)
        probe.queue_reserve(self.prefix, direction, base, n)

    def _probe(self, ctx: KernelContext) -> Optional[object]:
        """The launch's observability probe (None almost always).

        Registers this queue once per launch so exporters know its
        capacity/variant.  Probes are passive: nothing on this path may
        touch stats, memory, or op scheduling.
        """
        probe = ctx.probe
        if probe is not None and self._registered is not ctx.stats:
            self._register(ctx)
        return probe

    def _register(self, ctx: KernelContext) -> None:
        """Declare this queue to the launch's probe (``ctx.stats`` is
        per launch, so it marks the launch already registered with)."""
        self._registered = ctx.stats
        ctx.probe.queue_register(self.prefix, self.capacity, self.variant)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"{type(self).__name__}(capacity={self.capacity}, "
            f"prefix={self.prefix!r}, circular={self.circular})"
        )
