"""Discrete-event SIMT execution engine.

The engine runs *kernels* — Python generator functions — across simulated
compute units with the scheduling physics that the paper's argument rests
on:

* **In-order issue, non-hideable occupancy.**  Each yielded op occupies its
  CU's issue pipe; while the pipe is busy no other resident wavefront can
  issue.  Retry-loop instructions therefore cost real throughput even when
  their memory latency is hidden.
* **Zero-cost wavefront switching.**  A wavefront stalled on memory sleeps;
  the CU immediately issues from another ready resident wavefront.  This is
  the mechanism by which AFA latency "can be effectively hidden" (§3.2).
* **Serialized atomics per address.**  See :mod:`repro.simt.atomics`.

A kernel generator receives a :class:`KernelContext` and yields
:class:`~repro.simt.ops.Op` objects.  Results (loaded values, atomic old
values, CAS success masks) are filled into the op before the generator is
resumed, so kernels read like straight-line OpenCL with ``yield`` marking
each wavefront instruction.

Determinism: every scheduled event lives in one heap ordered by
``(time, seq)``, so time ties break by insertion order, and no randomness
exists anywhere in the engine, so every simulation is exactly
reproducible.

Wall-clock fast paths
---------------------
The event loop is the wall-clock bottleneck of the whole reproduction, so
it trades a little obviousness for speed while keeping every simulated
cycle bit-identical (see docs/simulator_model.md, "Performance model vs.
wall-clock performance", and docs/performance.md for the vectorized
execution model):

* ops whose issue-pipe release and wavefront wake-up land on the *same*
  cycle (``Compute``, ``LocalOp``, ``Fence``, buffered ``MemWrite``) push
  one combined event instead of two — the original pair carried
  consecutive sequence numbers at one timestamp, so nothing could ever
  interleave between them;
* a CU that issues while its ready queue is empty does not push a
  ``CU_FREE`` wake-up at all; it *reserves* the event's sequence number
  and the wake-up is pushed lazily only if some wavefront actually
  arrives during the busy window.  The reserved sequence number keeps the
  event exactly where it would have sorted, so tie-breaking is unchanged;
* per-buffer memory latency and the buffer arrays themselves are cached
  per launch (buffers cannot be allocated, freed, or re-marked hot while
  a kernel is in flight), and engine counters accumulate in locals that
  are flushed into :class:`SimStats` when the launch ends;
* memory-op *data movement* is array-wide by default (``EXEC_MODE ==
  "vector"``): gathers, scatters and atomic batches commit with one
  NumPy operation per wavefront instruction, and re-yielded prechecked
  reads of an unchanged buffer are *elided* — the engine tracks a
  per-buffer write epoch and skips re-sampling (setting ``op.fresh``
  to False) when nothing was stored to the buffer since the op's last
  completion.  ``EXEC_MODE == "scalar"`` forces the straight-line
  per-lane reference path instead (loop over lanes for every gather,
  scatter and atomic); it exists so the bit-identity suite can pin the
  vectorized path against an implementation too simple to be wrong;
* a kernel whose idle work cycle is a fixed cycle of re-yielded polls
  yields one :class:`~repro.simt.ops.Park` instead.  While its reads
  complete elided (or fresh but quiet) on an otherwise idle CU, the
  engine runs the kernel's per-read probe hooks and issues the next
  read itself; any other completion (fresh, a busy or shared CU, a
  schedule controller, the park's limit) resumes the generator.
  Issues, completions, sequence numbers and elision decisions are the
  ones the step-by-step loop makes (docs/performance.md, "Parked
  wavefronts");
* a parked wavefront alone on its CU, with no hooks, per-op probe
  callbacks or controller, and every read clean, is *fast-forwarded*:
  its replayed completions stop being heap events and follow in closed
  form from an anchor (:class:`_Chain`).  A store overlapping one of
  its reads whose words pass the read's quiet test only marks that
  read's next completion as a fresh sample.  It materializes, its next
  completion back on the heap under a :class:`_VSeq` that sorts where
  the replay's event would have, at the first point the replay could
  have done anything else: such a store whose words fail the test (or
  on a read without one), a span-log prune past a read's last sample,
  the park's limit, a watchdog poll, ``max_cycles`` or the end of the
  launch.  Cycles, stats, counters and event order are the replay's
  (docs/performance.md, "Fast-forward").
"""

from __future__ import annotations

import heapq
from bisect import bisect_left, bisect_right
from collections import deque
from contextlib import contextmanager
from dataclasses import dataclass, field
from itertools import count
from operator import itemgetter
from time import perf_counter
from typing import Callable, Dict, Generator, List, Optional

import numpy as np

from .atomics import AtomicSystem
from .device import DeviceSpec
from .errors import (
    KernelAbort,
    LaunchConfigError,
    QueueFullError,
    SimulationTimeout,
)
from .memory import GlobalMemory
from .ops import (
    Abort, AtomicRMW, Compute, Fence, LocalOp, MemRead, MemWrite, Op, Park,
)
from .probe import Probe, ProbeFanout, overridden
from .stats import SimStats

#: segment size (in 8-byte words) used by the coalescing model: lanes whose
#: addresses fall in one aligned segment share one memory transaction.
COALESCE_SEGMENT_WORDS = 16

_I64 = np.dtype(np.int64)
_first = itemgetter(0)


def transactions_for(index) -> int:
    """Number of memory transactions a gather/scatter needs after coalescing.

    Approximated as the segment *span* of the accessed addresses, capped
    at one transaction per lane: exact for the two access shapes kernels
    actually produce (contiguous runs coalesce to the span; widely
    scattered lanes pay one transaction each) without an O(n log n)
    distinct-count per memory op.

    Hot-loop callers should precompute this once and pass it to the op's
    ``trans`` argument (the queue layers do); the fast paths below keep
    the remaining calls cheap for plain ints and ready-made int64 arrays
    such as ``ctx.lane``-shaped contiguous gathers.
    """
    if type(index) is int:
        return 1
    if type(index) is np.ndarray and index.dtype == np.int64:
        idx = index
    else:
        idx = np.asarray(index, dtype=np.int64)
    if idx.ndim == 0:
        return 1
    n = idx.size
    if n == 0:
        return 0
    if n == 1:
        return 1
    # the span depends only on the address extremes, so two reductions
    # suffice for every access shape (contiguous runs included).
    lo = int(idx.min()) // COALESCE_SEGMENT_WORDS
    hi = int(idx.max()) // COALESCE_SEGMENT_WORDS
    return min(hi - lo + 1, n)


#: shared, immutable per-wavefront-size lane vectors: a Fiji-scale launch
#: creates one KernelContext per wavefront, and allocating a fresh
#: ``np.arange`` for each (14k allocations) showed up in profiles.
_LANE_CACHE: Dict[int, np.ndarray] = {}


def _lane_vector(wavefront_size: int) -> np.ndarray:
    lane = _LANE_CACHE.get(wavefront_size)
    if lane is None:
        lane = np.arange(wavefront_size, dtype=np.int64)
        lane.setflags(write=False)
        _LANE_CACHE[wavefront_size] = lane
    return lane


@dataclass
class KernelContext:
    """Per-wavefront view handed to a kernel generator.

    Attributes
    ----------
    wf_id:
        Global wavefront (== workgroup, as in the paper's launch geometry)
        index in ``[0, n_wavefronts)``.
    n_wavefronts:
        Total wavefronts launched.
    device:
        The device spec (for wavefront size and cost constants).
    params:
        Launch parameters: buffer names, problem constants, tuning knobs.
    lane:
        ``[0..wavefront_size)`` lane index vector (convenience).  Shared
        between wavefronts and marked read-only; arithmetic on it
        (``ctx.lane + 1``) allocates fresh arrays as before.
    """

    wf_id: int
    n_wavefronts: int
    device: DeviceSpec
    params: Dict[str, object]
    lane: np.ndarray = field(default_factory=lambda: np.empty(0, dtype=np.int64))
    #: the launch's statistics; queue/scheduler layers bump stats.custom.
    stats: Optional[SimStats] = None
    #: the launch's observability probe (None when unprobed); kernel-side
    #: layers read ``probe.now`` for the current simulated cycle.
    probe: Optional[object] = None

    def __post_init__(self) -> None:
        if self.lane.size == 0:
            self.lane = _lane_vector(self.device.wavefront_size)

    @property
    def global_thread_base(self) -> int:
        """Global id of this wavefront's lane 0."""
        return self.wf_id * self.device.wavefront_size


Kernel = Callable[[KernelContext], Generator[Op, Op, None]]


class _Wavefront:
    """Engine-internal record for one resident wavefront."""

    __slots__ = ("wid", "cu", "gen", "pending", "pkind", "park",
                 "last_issue", "last_kind", "ff_skip")

    def __init__(self, wid: int, cu: "_CU", gen: Generator[Op, Op, None]):
        self.wid = wid
        self.cu = cu
        self.gen = gen
        self.pending: Optional[Op] = None
        #: the :class:`Park` whose reads the engine may replay (None: the
        #: kernel is resumed after every op); `pending` is then the
        #: park's read in flight.
        self.park: Optional[Park] = None
        #: dispatch id of `pending`, cached at issue so completion
        #: handlers skip the class lookup.
        self.pkind = 0
        #: cycle and op-kind id of the latest issue (-1: never issued);
        #: only maintained while an :class:`IssueView` is tracked.
        self.last_issue = -1
        self.last_kind = 0
        #: after a failed fast-forward try, the replayed completions to
        #: let pass until the read that was not clean has completed
        #: again (host-side only: no simulated effect).
        self.ff_skip = 0


class _CU:
    """Engine-internal compute unit: an issue pipe plus a ready queue."""

    __slots__ = ("cid", "busy_until", "ready", "wake", "issues", "last_wf",
                 "nlive")

    def __init__(self, cid: int):
        self.cid = cid
        self.busy_until = 0
        self.ready = deque()
        #: reserved-but-unpushed CU_FREE sequence number (-1: none).
        self.wake = -1
        #: ops issued and the wavefront that issued the latest one; only
        #: maintained while an :class:`IssueView` is tracked.
        self.issues = 0
        self.last_wf: Optional[_Wavefront] = None
        #: wavefronts placed on this CU that have not exited.
        self.nlive = 0


class _Chain:
    """One fast-forward of a parked wavefront alone on its CU.

    The *anchor* is the real completion at cycle ``t0`` that replayed
    and issued ``park.reads[k0]``, allocating sequence number ``s1``
    for that read's completion, *virtual completion* 1.  Completion
    ``j`` lands at ``t0 + D(j)``, with ``D`` the sum of the first ``j``
    delays of the park's reads from ``k0`` on; processing it replays
    the read ``(k0 + j - 1) % n`` and issues the next.  ``folded``
    completions are already accounted.  ``marks`` maps a read that a
    quiet store hit to ``[j, words, f]``: its completion ``j`` (0:
    none pending) samples ``words`` afresh, and ``f`` is its latest
    fresh completion already accounted.
    """

    __slots__ = ("wf", "park", "t0", "s1", "k0", "n", "period", "pre",
                 "sig", "ph", "folded", "snap", "keys", "objs", "marks",
                 "prec")

    def time(self, j: int) -> int:
        """Cycle of virtual completion ``j`` (``j >= 0``; 0 is the anchor)."""
        q, r = divmod(j, self.n)
        return self.t0 + q * self.period + self.pre[r]

    def first_at(self, t: int) -> int:
        """The first virtual completion at or after cycle ``t``."""
        x = t - self.t0
        if x <= 0:
            return 1
        n = self.n
        j = x // self.period * n
        pre = self.pre
        while (j // n) * self.period + pre[j % n] < x:
            j += 1
        return j if j > 0 else 1


class _Sample:
    """The words a store left on a virtual read's span, as ``result``:
    what the read's quiet test is run on when the store lands."""

    __slots__ = ("result",)


class _VSeq:
    """The heap sequence number of a materialized virtual completion.

    A replayed completion's event would have been allocated while its
    predecessor was processed, between two real allocations, so no
    integer stands for it.  It sorts against integers and other
    ``_VSeq``s by walking both allocation chains back (``prec``); tuple
    comparison only reaches it at equal cycles.
    """

    __slots__ = ("ch", "j", "t")

    def __init__(self, ch: _Chain, j: int, t: int):
        self.ch = ch
        self.j = j
        self.t = t

    def __lt__(self, other) -> bool:
        return self.ch.prec(self.t, self, self.t, other)

    def __gt__(self, other) -> bool:
        return self.ch.prec(self.t, other, self.t, self)

    def __eq__(self, other) -> bool:
        return self is other

    __hash__ = object.__hash__


class IssueView:
    """Read-only issue state of one running launch.

    An observer with a ``track_issues(view)`` method receives one of
    these per launch and reads it when it needs the numbers (a snapshot,
    a liveness poll), instead of taking an ``on_issue`` call for every
    op.  The engine keeps it current from the first issue on, folding
    the issues of fast-forwarded parked wavefronts in closed form when
    it is read; after the launch it holds the final values.
    """

    __slots__ = ("_cus", "_wfs", "_settle")

    def __init__(self, cus: List[_CU], wfs: List[_Wavefront], settle=None):
        self._cus = cus
        self._wfs = wfs
        #: folds fast-forwarded issues up to the engine's current event
        #: (None once the launch is over).
        self._settle = settle

    def issues(self) -> int:
        """Ops issued so far (``Abort`` excluded)."""
        if self._settle is not None:
            self._settle()
        return sum(cu.issues for cu in self._cus)

    def cu_last_issue(self) -> Dict[int, tuple]:
        """CU id -> ``(cycle, wf, op-kind name)`` of its latest issue."""
        if self._settle is not None:
            self._settle()
        return {
            cu.cid: (
                cu.last_wf.last_issue,
                cu.last_wf.wid,
                OP_KIND_NAMES[cu.last_wf.last_kind],
            )
            for cu in self._cus
            if cu.last_wf is not None
        }

    def wf_last_issue(self) -> Dict[int, int]:
        """Wavefront id -> cycle of its latest issue (issued ones only)."""
        if self._settle is not None:
            self._settle()
        return {wf.wid: wf.last_issue for wf in self._wfs if wf.last_issue >= 0}


# event kinds
_EV_WF_READY = 0
_EV_CU_FREE = 1
_EV_ATOMIC = 2
_EV_APPLY_WRITE = 3
#: combined CU_FREE + WF_READY at one timestamp (see module docstring).
_EV_FREE_READY = 4
#: not an event of the simulated machine: a point at which fast-forwarded
#: wavefronts materialize (payload: one chain, or None for all of them).
#: Alarms carry negative sequence numbers, so they sort before every
#: event of their cycle.
_EV_ALARM = 5

#: real events logged between two prunings of the fast-forward event log.
_LOG_MIN = 4096

#: the op classes in dispatch-id order (ids from 1); an op of any other
#: class (an Op subclass defined outside this package) takes the id of
#: the first of these it is an instance of, resolved once and cached.
_OP_CLASSES = (Compute, LocalOp, MemRead, MemWrite, AtomicRMW, Fence, Abort)
_K_COMPUTE, _K_LOCAL, _K_READ, _K_WRITE, _K_ATOMIC, _K_FENCE, _K_ABORT = range(
    1, len(_OP_CLASSES) + 1
)

#: exact class -> dispatch id for issue_from.
_OP_KIND: Dict[type, int] = {cls: k for k, cls in enumerate(_OP_CLASSES, 1)}

#: op-kind id -> class name, for probes decoding ``Probe.on_issue``.
OP_KIND_NAMES: Dict[int, str] = {
    k: cls.__name__ for k, cls in enumerate(_OP_CLASSES, 1)
}

#: execution-path selector for the *data* side of memory ops.  "vector"
#: (the default) commits gathers/scatters/atomic batches array-wide and
#: elides re-sampling of unchanged buffers; "scalar" forces the per-lane
#: reference path everywhere.  Both modes simulate bit-identically
#: (cycles, stats, probe traffic) — pinned by tests/test_exec_modes.py.
#: Override per engine with ``Engine(..., exec_mode=...)`` or process-wide
#: by assigning this global (or via :func:`exec_mode`).
EXEC_MODE = "vector"

#: cumulative execution-path counters across launches (reset with
#: :func:`reset_exec_counts`): how many memory-op completions took the
#: vectorized path, were elided as unchanged, or fell back to the scalar
#: reference loop.  Deliberately *not* part of SimStats: path choice is a
#: host-side implementation detail and must never leak into simulation
#: results or report bytes.
EXEC_COUNTS: Dict[str, int] = {
    "reads_vector": 0,
    "reads_elided": 0,
    "reads_scalar": 0,
    "writes_vector": 0,
    "writes_scalar": 0,
}

#: wall-clock seconds per op class (plus "issue" for CU wake-ups), only
#: accumulated while :data:`EXEC_TIMING` is on.  The time of each event
#: *and the kernel continuation it resumes* is attributed to the class
#: of the op that completed — an approximation, but one that makes hot-
#: path regressions attributable per op class (``repro.harness profile``).
EXEC_TIMES: Dict[str, float] = {}

#: enables the :data:`EXEC_TIMES` breakdown (two ``perf_counter`` calls
#: per event); off by default so the hot path stays untimed.
EXEC_TIMING = False


def reset_exec_counts() -> None:
    """Zero :data:`EXEC_COUNTS` and :data:`EXEC_TIMES` (profile tooling)."""
    for k in EXEC_COUNTS:
        EXEC_COUNTS[k] = 0
    EXEC_TIMES.clear()


@contextmanager
def exec_mode(mode: str):
    """Temporarily force the process-wide execution mode (tests)."""
    global EXEC_MODE
    if mode not in ("vector", "scalar"):
        raise ValueError(f"exec mode must be 'vector' or 'scalar', got {mode!r}")
    prev = EXEC_MODE
    EXEC_MODE = mode
    try:
        yield
    finally:
        EXEC_MODE = prev


#: globally unique buffer-write stamps for the read-elision fast path.
#: Uniqueness across launches and buffers means a stale stamp cached on
#: a reused op object can never collide with a live epoch.
_next_epoch = count(1).__next__


# ----------------------------------------------------------------------
# the observer attach point
# ----------------------------------------------------------------------
#: sessions currently attached, in attach order (see :class:`Session`).
_ATTACHED: List["Session"] = []


def attached() -> tuple:
    """The sessions attached right now, in attach order."""
    return tuple(_ATTACHED)


class Session:
    """Base class for observer sessions: ``with session:`` attaches it.

    While attached, the session's :meth:`observers` is called once at
    the start of every ``Engine.launch`` in this process and its result
    joins the launch's explicit ``observers``.  Sessions leave by
    identity, so they nest and compose in any order.  A session is not
    re-entrant.
    """

    def observers(self):
        """The observers this session contributes to the next launch."""
        return ()

    def __enter__(self):
        if any(s is self for s in _ATTACHED):
            raise RuntimeError(f"{type(self).__name__} is not re-entrant")
        _ATTACHED.append(self)
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        for i, s in enumerate(_ATTACHED):
            if s is self:
                del _ATTACHED[i]
                return
        raise RuntimeError(
            f"{type(self).__name__} exited without being entered"
        )


class _Watchdogs:
    """Several watchdogs behind the engine's single poll slot."""

    def __init__(self, watchdogs: list):
        self.watchdogs = watchdogs
        self.due: List[int] = []

    def launch_begin(self, device, n_wavefronts: int) -> int:
        self.due = [w.launch_begin(device, n_wavefronts) for w in self.watchdogs]
        return min(self.due)

    def poll(self, now: int, live: int) -> int:
        due = self.due
        for i, w in enumerate(self.watchdogs):
            if now >= due[i]:
                due[i] = w.poll(now, live)
        return min(due)


def _classify(observers) -> tuple:
    """Sort one launch's observers into ``(all, probe, watchdog, controller)``.

    ``all`` is the explicit observers followed by every attached
    session's contribution.  :class:`~repro.simt.probe.Probe` instances
    feed the hot probe — None without any, the probe itself when alone,
    else a :class:`~repro.simt.probe.ProbeFanout`.  Observers with
    ``poll`` are watchdogs; one with ``pick`` is the controller.
    """
    obs = list(observers)
    for session in _ATTACHED:
        obs.extend(session.observers())
    probes = [o for o in obs if isinstance(o, Probe)]
    probe = (
        None if not probes else probes[0] if len(probes) == 1
        else ProbeFanout(probes)
    )
    dogs = [o for o in obs if hasattr(o, "poll")]
    watchdog = (
        None if not dogs else dogs[0] if len(dogs) == 1 else _Watchdogs(dogs)
    )
    controllers = [o for o in obs if hasattr(o, "pick")]
    if len(controllers) > 1:
        raise LaunchConfigError(
            f"a launch takes at most one schedule controller, got "
            f"{len(controllers)}"
        )
    return obs, probe, watchdog, controllers[0] if controllers else None


def _resolve_op_kind(cls: type, op: Op) -> int:
    """Classify an op subclass the slow way and memoize the answer."""
    for kind, base in enumerate(_OP_CLASSES, 1):
        if isinstance(op, base):
            _OP_KIND[cls] = kind
            return kind
    raise TypeError(f"kernel yielded a non-Op: {op!r}")


@dataclass
class LaunchResult:
    """Outcome of one kernel launch."""

    #: simulated cycles from launch to last wavefront exit.
    cycles: int
    #: statistics gathered during the launch.
    stats: SimStats
    #: the device the kernel ran on.
    device: DeviceSpec

    @property
    def seconds(self) -> float:
        return self.device.seconds(self.cycles)


class Engine:
    """Owns a device, its global memory, and the event loop.

    One engine may run several kernel launches back to back against the
    same memory (like a real host command queue); statistics can be read
    per launch or accumulated by the caller.  Atomic-unit occupancy is
    scoped per launch: a fresh :class:`AtomicSystem` is built for each,
    so a second launch never inherits stale per-address timing from the
    first (its clock restarts at zero).
    """

    def __init__(
        self,
        device: DeviceSpec,
        memory: Optional[GlobalMemory] = None,
        exec_mode: Optional[str] = None,
    ):
        self.device = device
        self.memory = memory if memory is not None else GlobalMemory()
        if exec_mode not in (None, "vector", "scalar"):
            raise ValueError(
                f"exec_mode must be 'vector' or 'scalar', got {exec_mode!r}"
            )
        #: per-engine override of :data:`EXEC_MODE` (None: follow global).
        self.exec_mode = exec_mode

    # ------------------------------------------------------------------
    def launch(
        self,
        kernel: Kernel,
        n_wavefronts: int,
        params: Optional[Dict[str, object]] = None,
        max_cycles: int = 20_000_000_000,
        charge_launch_overhead: bool = False,
        observers=(),
    ) -> LaunchResult:
        """Run ``kernel`` on ``n_wavefronts`` wavefronts until all exit.

        Wavefronts are distributed round-robin over CUs, as hardware
        workgroup dispatch does for a uniform kernel.  Raises
        :class:`LaunchConfigError` if the launch exceeds device residency —
        a persistent-thread kernel that oversubscribes residency would
        deadlock on real hardware too.

        ``charge_launch_overhead`` adds ``device.kernel_launch_cycles`` to
        the reported cycle count; per-level drivers (Rodinia-style BFS) set
        it to model their dominant cost.

        ``observers`` are attached to this launch only, after which
        every attached :class:`Session` adds its own (see
        :func:`_classify` for how they are sorted).  Every observer gets
        ``launch_begin(device, n_wavefronts)`` and, if the launch
        finishes, ``launch_end(cycles, stats)`` when it has them.

        * :class:`~repro.simt.probe.Probe` instances receive the
          per-event callbacks and the simulated clock.  Probes are
          passive: a probed launch simulates bit-identically to an
          unprobed one.  ``on_issue``/``on_wake`` are called only when
          some probe overrides them.
        * An observer with ``track_issues`` is handed this launch's
          :class:`IssueView` (issue count, per-CU and per-wavefront
          latest issue) once, before the first issue.
        * A watchdog (an observer with ``poll``) returns the first
          cycle it wants polled from ``launch_begin``; the engine calls
          ``poll(now, live)`` once simulated time reaches it and takes
          the next cycle from the return value.  Polls only read state,
          but a poll that detects a wedge may raise to abort the launch.
        * A schedule controller (an observer with ``pick``; at most one)
          picks, whenever a CU is about to issue, the index of the
          ready wavefront to issue from via ``pick(now, cid, ready)``,
          or returns a negative value to *hold* the CU for one cycle
          (the engine re-polls it at ``now + 1``; ``max_cycles`` bounds
          a controller that holds forever).  Controllers perturb issue
          order only — memory semantics, atomic serialization, and
          cost charging are untouched, so every controlled execution is
          one the simulated hardware could legally produce.
        """
        if n_wavefronts <= 0:
            raise LaunchConfigError(
                f"n_wavefronts must be positive, got {n_wavefronts}"
            )
        if n_wavefronts > self.device.max_resident_wavefronts:
            raise LaunchConfigError(
                f"{n_wavefronts} wavefronts exceed device residency "
                f"({self.device.max_resident_wavefronts}); persistent "
                "kernels must fit or they deadlock"
            )
        params = dict(params or {})
        stats = SimStats()
        device = self.device
        memory = self.memory
        observers, probe, watchdog, controller = _classify(observers)
        probing = probe is not None
        if probing:
            probe.now = 0
        # the two per-op callbacks are bound only when some probe wants
        # them, so a probe that records neither pays no call per op.
        on_issue = overridden(probe, "on_issue")
        on_wake = overridden(probe, "on_wake")
        for o in observers:
            if not hasattr(o, "poll") and hasattr(o, "launch_begin"):
                o.launch_begin(device, n_wavefronts)
        controlled = controller is not None
        watching = watchdog is not None
        # first simulated cycle at which the watchdog wants a poll; the
        # per-event check below is a single comparison when unwatched.
        wd_next = watchdog.launch_begin(device, n_wavefronts) if watching else 0
        scalar_mode = (self.exec_mode or EXEC_MODE) == "scalar"
        # per-launch atomic-unit occupancy: never shared across launches
        # (each launch restarts the simulated clock at zero).
        atomics = AtomicSystem(
            device, memory, stats, probe=probe, force_general=scalar_mode
        )
        atomics.reset_timing()

        cus = [_CU(i) for i in range(device.n_cus)]
        live = 0
        heap: List[tuple] = []
        next_seq = count().__next__
        heappush = heapq.heappush
        heappop = heapq.heappop

        all_wfs = []
        for wid in range(n_wavefronts):
            cu = cus[wid % len(cus)]
            ctx = KernelContext(
                wf_id=wid,
                n_wavefronts=n_wavefronts,
                device=device,
                params=params,
                stats=stats,
                probe=probe,
            )
            gen = kernel(ctx)
            wf = _Wavefront(wid, cu, gen)
            all_wfs.append(wf)
            live += 1
            cu.nlive += 1
            cu.ready.append(wf)
        trackers = [o for o in observers if hasattr(o, "track_issues")]
        tracking = bool(trackers)

        # atomics execute at the L2 (GCN), as do loads/stores of small hot
        # control buffers; bulk data pays full memory latency.
        lat_to = device.l2_latency // 2
        lat_back = device.l2_latency - lat_to
        issue = device.issue_cycles
        l2_latency = device.l2_latency
        mem_latency = device.mem_latency
        pipe = device.mem_pipe_cycles
        is_hot = memory.is_hot
        check_bounds = memory.check_bounds
        bufs = memory.raw_arrays()
        op_kind_get = _OP_KIND.get
        #: per-launch buffer-name -> load/store latency (buffer sets and
        #: hot markings are host-side and cannot change mid-launch).
        lat_cache: Dict[str, int] = {}
        #: per-launch buffer-name -> write epoch, bumped on every store
        #: and atomic batch; powers the read-elision fast path.
        epochs: Dict[str, int] = {}
        epochs_get = epochs.get
        next_epoch = _next_epoch
        #: per-launch buffer-name -> bounded log of recent write/atomic
        #: index spans ``(epoch, min, max)``.  A parked read whose epoch
        #: lags the buffer's can still be elided when every logged bump
        #: since its last sample misses its own span — writes to a shared
        #: buffer then only invalidate the watch sets they actually touch.
        #: Every epoch bump of a *watched* buffer MUST append here or the
        #: coverage proof in the poll path breaks; pruned (or pre-log)
        #: windows conservatively force a re-sample.
        wlog: Dict[str, list] = {}
        wlog_get = wlog.get
        #: buffers with at least one re-yielded prechecked read.  Only
        #: these pay the span-log bookkeeping on writes/atomics; marking
        #: appends a no-span barrier entry so coverage proofs can anchor
        #: at the marking epoch.
        watched: set = set()
        #: per-launch span/transaction cache for *frozen* (non-writeable)
        #: index arrays: kernels that reuse one address vector across many
        #: ops (the soup bench, queue watch sets) pay the two reductions
        #: once.  Keyed by id() with an identity check; safe because a
        #: frozen array cannot change contents while the entry holds a
        #: reference keeping its id alive.
        span_cache: Dict[int, tuple] = {}
        span_cache_get = span_cache.get

        now = 0
        abort_exc: Optional[KernelAbort] = None
        # engine counters, flushed into `stats` in the finally block
        n_issued = n_compute = n_reads = n_writes = 0
        n_trans = n_lds = n_busy = 0
        # execution-path counters, flushed into EXEC_COUNTS
        x_rvec = x_reld = x_rsc = x_wvec = x_wsc = 0

        def span_trans(op, raw) -> int:
            """Transaction count for a mem op, caching the index extremes
            on the op so the bounds check at completion/apply time does
            not rescan the index array."""
            if type(raw) is np.ndarray and raw.ndim == 1 and raw.dtype == _I64:
                n_idx = raw.size
                if n_idx > 1:
                    if not raw.flags.writeable:
                        ent = span_cache_get(id(raw))
                        if ent is not None and ent[0] is raw:
                            op.span = ent[1]
                            return ent[2]
                    mn = int(raw.min())
                    mx = int(raw.max())
                    span = (mn, mx)
                    op.span = span
                    t = (
                        mx // COALESCE_SEGMENT_WORDS
                        - mn // COALESCE_SEGMENT_WORDS
                        + 1
                    )
                    if t >= n_idx:
                        t = n_idx
                    if not raw.flags.writeable:
                        span_cache[id(raw)] = (raw, span, t)
                    return t
                if n_idx == 1:
                    v = int(raw[0])
                    op.span = (v, v)
                    return 1
                return 0
            return transactions_for(raw)

        def checked_index(op) -> np.ndarray:
            """Bounds-validated index, using the span cached at issue."""
            span = op.span
            if span is None:
                return check_bounds(op.buf, op.index)
            mn, mx = span
            if mn < 0 or mx >= bufs[op.buf].size:
                # out of bounds: delegate for the exact first-offender
                # message (this path always raises).
                check_bounds(op.buf, op.index)
            return op.index

        def index_span(op, idx) -> tuple:
            """The ``(min, max)`` span of ``op``'s index ``idx``: the one
            cached on the op, else computed.  When ``idx`` is ``op.index``
            itself and a 1-D int64 vector, its span is left on the op by
            :func:`span_trans` (one pair of reductions per frozen address
            vector, not per use).  A span of any other index, such as
            ``check_bounds``' copy of a scalar, is not cached: it would
            outlive a re-yield that gives the op a new index."""
            sp = op.span
            if sp is None:
                if type(idx) is np.ndarray and idx.ndim:
                    if idx is op.index:
                        span_trans(op, idx)
                        sp = op.span
                    if sp is None:
                        # a copy, not a 1-D int64 vector, or empty
                        # (which overlaps nothing)
                        sp = (
                            (int(idx.min()), int(idx.max()))
                            if idx.size else (0, -1)
                        )
                else:
                    i = int(idx)
                    sp = (i, i)
            return sp

        def apply_write(op: MemWrite) -> None:
            nonlocal x_wvec, x_wsc
            buf = op.buf
            if op.prechecked:
                idx = op.index
            else:
                idx = checked_index(op)
            if scalar_mode:
                x_wsc += 1
                b = bufs[buf]
                if type(idx) is np.ndarray and idx.ndim:
                    il = idx.tolist()
                    va = np.asarray(op.values, dtype=np.int64)
                    if va.ndim == 0:
                        v = int(va)
                        for i in il:
                            b[i] = v
                    else:
                        vl = va.tolist()
                        if len(vl) != len(il):
                            raise ValueError(
                                f"MemWrite({buf!r}): {len(vl)} values for "
                                f"{len(il)} lanes"
                            )
                        for i, v in zip(il, vl):
                            b[i] = v
                else:
                    b[idx] = op.values
            else:
                x_wvec += 1
                # fancy-index assignment broadcasts scalars and vectors
                # alike (and rejects shape mismatches), no explicit
                # broadcast needed.
                bufs[buf][idx] = op.values
            e = epochs[buf] = next_epoch()
            if buf in watched:
                mn, mx = index_span(op, idx)
                log_bump(buf, e, mn, mx)

        def issue_from(cu: _CU, direct=None) -> None:
            """While the CU is free and has ready wavefronts, issue one op.

            ``direct`` (the just-completed wavefront, passed only when the
            CU is free, its ready set empty, and no controller is
            attached) is issued without the deque round trip — the single
            hottest call pattern of a saturated launch.
            """
            nonlocal live, abort_exc
            nonlocal n_issued, n_compute, n_reads, n_writes, n_trans, n_lds, n_busy
            if abort_exc is not None:
                return
            if now < cu.busy_until:
                return
            ready = cu.ready
            while True:
                if direct is not None:
                    wf = direct
                    direct = None
                elif not ready:
                    return
                elif controlled:
                    k = controller.pick(now, cu.cid, ready)
                    if k < 0:
                        # hold: leave the ready set intact and re-poll
                        # this CU one cycle later.  A controller that
                        # holds forever runs into the max_cycles
                        # watchdog instead of hanging the process.
                        heappush(heap, (now + 1, next_seq(), _EV_CU_FREE, cu))
                        return
                    if k:
                        wf = ready[k]
                        del ready[k]
                    else:
                        wf = ready.popleft()
                else:
                    wf = ready.popleft()
                if probing:
                    # expose the simulated clock and resuming wavefront
                    # to kernel-side layers (queues, schedulers, tracers)
                    # for event stamping and attribution.
                    probe.now = now
                    probe.cur_wf = wf.wid
                try:
                    op = wf.gen.send(wf.pending)
                except StopIteration:
                    live -= 1
                    cu.nlive -= 1
                    if probing:
                        probe.on_exit(now, wf.wid)
                    # the exiting instruction still occupied the pipe
                    # briefly; charge nothing extra and keep issuing (a CU
                    # draining many exiting wavefronts must not recurse).
                    continue
                except KernelAbort as exc:
                    abort_exc = exc
                    return
                wf.pending = op
                n_issued += 1
                cls = op.__class__
                kind = op_kind_get(cls)
                if kind is None:
                    if cls is Park:
                        # not an instruction: it issues its start read,
                        # and the replay needs each read's issue-to-
                        # completion delay (as computed for any read)
                        wf.park = op
                        op.done = 0
                        op.cur = i = op.start
                        op.delays = tuple(
                            issue
                            + (l2_latency if is_hot(r.buf) else mem_latency)
                            + max(r.trans - 1, 0) * pipe
                            for r in op.reads
                        )
                        wf.pending = op = op.reads[i]
                        kind = _K_READ
                    else:
                        kind = _resolve_op_kind(cls, op)
                wf.pkind = kind
                if tracking and kind != _K_ABORT:
                    cu.issues += 1
                    cu.last_wf = wf
                    wf.last_issue = now
                    wf.last_kind = kind

                if kind == _K_READ:
                    trans = op.trans
                    if trans is None:
                        trans = span_trans(op, op.index)
                    n_reads += 1
                    n_trans += trans
                    n_busy += issue
                    b = now + issue
                    cu.busy_until = b
                    if on_issue is not None:
                        on_issue(now, cu.cid, wf.wid, _K_READ, b, trans)
                    if ready:
                        heappush(heap, (b, next_seq(), _EV_CU_FREE, cu))
                        cu.wake = -1
                    else:
                        cu.wake = next_seq()
                    buf = op.buf
                    lat = lat_cache.get(buf)
                    if lat is None:
                        lat = l2_latency if is_hot(buf) else mem_latency
                        lat_cache[buf] = lat
                    t = b + lat
                    if trans > 1:
                        t += (trans - 1) * pipe
                    heappush(heap, (t, next_seq(), _EV_WF_READY, wf))
                    return
                if kind == _K_ATOMIC:
                    n_busy += issue
                    b = now + issue
                    cu.busy_until = b
                    if on_issue is not None:
                        on_issue(now, cu.cid, wf.wid, _K_ATOMIC, b, 0)
                    if ready:
                        heappush(heap, (b, next_seq(), _EV_CU_FREE, cu))
                        cu.wake = -1
                    else:
                        cu.wake = next_seq()
                    heappush(heap, (b + lat_to, next_seq(), _EV_ATOMIC, wf))
                    return
                if kind == _K_WRITE:
                    trans = op.trans
                    if trans is None:
                        trans = span_trans(op, op.index)
                    n_writes += 1
                    n_trans += trans
                    n_busy += issue
                    b = now + issue
                    cu.busy_until = b
                    if on_issue is not None:
                        on_issue(now, cu.cid, wf.wid, _K_WRITE, b, trans)
                    buf = op.buf
                    lat = lat_cache.get(buf)
                    if lat is None:
                        lat = l2_latency if is_hot(buf) else mem_latency
                        lat_cache[buf] = lat
                    if trans > 1:
                        lat += (trans - 1) * pipe
                    # stores are write-buffered: the wavefront proceeds
                    # after issue; the effect lands at completion time.
                    if lat > 0:
                        cu.wake = -1
                        heappush(heap, (b, next_seq(), _EV_FREE_READY, wf))
                        heappush(heap, (b + lat, next_seq(), _EV_APPLY_WRITE, op))
                    else:
                        # zero-latency store: preserve the seed's exact
                        # free / apply / ready ordering at one timestamp.
                        heappush(heap, (b, next_seq(), _EV_CU_FREE, cu))
                        cu.wake = -1
                        heappush(heap, (b, next_seq(), _EV_APPLY_WRITE, op))
                        heappush(heap, (b, next_seq(), _EV_WF_READY, wf))
                    return
                if kind == _K_ABORT:
                    # queue layers pass structured context via
                    # Abort.info, surfaced as a typed QueueFullError.
                    if op.info is not None:
                        abort_exc = QueueFullError(op.reason, **op.info)
                    else:
                        abort_exc = KernelAbort(op.reason)
                    return
                # Compute, LocalOp, Fence: the pipe is busy for the op's
                # occupancy and the wavefront wakes as it frees.
                if kind == _K_FENCE:
                    occ = issue
                else:
                    occ = op.cycles
                    if kind == _K_COMPUTE:
                        n_compute += occ
                    else:
                        n_lds += 1
                    if occ <= 0:
                        occ = 1
                n_busy += occ
                b = now + occ
                cu.busy_until = b
                cu.wake = -1
                if on_issue is not None:
                    on_issue(now, cu.cid, wf.wid, kind, b, 0)
                heappush(heap, (b, next_seq(), _EV_FREE_READY, wf))
                return

        # -- fast-forward --------------------------------------------------
        # A parked wavefront alone on its CU, with no per-op observer, no
        # hooks and no controller, replays a strictly periodic issue/
        # completion sequence until something stores to a word it reads.
        # Such a wavefront goes *virtual* (a _Chain): its completions are
        # no longer heap events but follow in closed form from its
        # anchor, and it *materializes* (its next completion goes back on
        # the heap, in the order the replay's event would have sorted)
        # only where the replay could have done something other than
        # replay (docs/performance.md, "Fast-forward").
        fast_forward = on_issue is None and on_wake is None and not controlled
        #: virtual chains, and those whose materialized completion is
        #: still on the heap (both need the event log).
        virt: Dict[_Chain, None] = {}
        chains: Dict[_Chain, None] = {}
        #: buffer -> (min, max) span -> virtual chain -> its reads
        #: there, with their positions.
        vgroups: Dict[str, Dict[tuple, Dict[_Chain, tuple]]] = {}
        #: buffer -> ``(cycle, seq, epoch)`` of its bumps while virtual
        #: chains read it: the epoch a virtual read last sampled.
        hist: Dict[str, list] = {}
        #: while any chain lives, each real event processed: its cycle,
        #: its seq and a marker seq drawn when its processing starts, so
        #: a seq's allocating event is found by bisecting the markers.
        logging = False
        log_t: List[int] = []
        log_s: list = []
        log_m: List[int] = []
        log_cap = _LOG_MIN
        #: reads tuple id -> (reads, its distinct reads with their
        #: positions, (buf, span) -> those reads there)
        park_shape: Dict[int, tuple] = {}
        smp = _Sample()
        next_alarm = count(-1, -1).__next__
        max_alarm = False
        wd_alarm_at = -1
        cseq = -1

        def replay(wf, park, k: int, t: int):
            """Advance the parked ``wf`` by ``k`` replayed completions,
            the last at cycle ``t``: each issues the park's next read.
            Moves ``park.done``/``park.cur``, the issue counters,
            ``cu.busy_until`` and the issue view, and returns the read
            now in flight.  The per-event replay is ``k == 1`` (its
            completion already made the elision decision); a fold adds
            the elided completions and their epochs itself."""
            nonlocal n_issued, n_reads, n_trans, n_busy
            reads = park.reads
            i = park.cur
            park.done += k
            if k == 1:
                i += 1
                if i == len(reads):
                    i = 0
                tr = reads[i].trans
            else:
                n = len(reads)
                full, rem = divmod(k, n)
                tr = full * sum(r.trans for r in reads) if full else 0
                for _ in range(rem):
                    i += 1
                    if i == n:
                        i = 0
                    tr += reads[i].trans
            park.cur = i
            n_issued += k
            n_reads += k
            n_trans += tr
            n_busy += k * issue
            cu = wf.cu
            cu.busy_until = t + issue
            if tracking:
                cu.issues += k
                cu.last_wf = wf
                wf.last_issue = t
                wf.last_kind = _K_READ
            return reads[i]

        def read_span(op) -> tuple:
            """The ``(min, max)`` index span of a read, cached on it."""
            sp = op.span
            if sp is None:
                sp = op.span = index_span(op, op.index)
            return sp

        def log_clean(buf: str, oe: int, sp: tuple) -> bool:
            """True when the bump log of ``buf`` reaches back to epoch
            ``oe`` and every bump since misses span ``sp``."""
            log = wlog_get(buf)
            if log:
                mn, mx = sp
                for we, wmn, wmx in reversed(log):
                    if we <= oe:
                        return True
                    if wmn <= mx and mn <= wmx:
                        return False
            return False

        def log_bump(buf: str, e: int, mn: int, mx: int) -> None:
            """Span-log a bump of a watched buffer, and materialize the
            virtual wavefronts whose replay would see it do anything but
            replay: a read it overlaps samples afresh next time, and
            stays virtual only if its quiet test passes on the words the
            bump left."""
            log = wlog_get(buf)
            if log is None:
                wlog[buf] = log = []
            log.append((e, mn, mx))
            pruned = len(log) > 48
            if pruned:
                del log[:24]
            if virt:
                groups = vgroups.get(buf)
                if groups:
                    hist[buf].append((now, cseq, e))
                    b = bufs[buf]
                    loud: Dict[_Chain, None] = {}
                    for (smn, smx), members in groups.items():
                        if smn <= mx and mn <= smx:
                            # index id -> the words there: one gather
                            # per index the group's tests read
                            seen: dict = {}
                            for ch, rq in members.items():
                                for r, qs in rq:
                                    if not quiet_hit(ch, r, qs, b, seen):
                                        loud[ch] = None
                                        break
                    if pruned:
                        # a read whose last sample is older than what
                        # the prune left samples afresh next time
                        w0 = log[0][0]
                        for members in groups.values():
                            for ch in members:
                                if ch not in loud and outdated(ch, buf, w0):
                                    loud[ch] = None
                    for ch in loud:
                        materialize(ch, now, cseq)

        def quiet_hit(ch: _Chain, r, qs: tuple, b, seen: dict) -> bool:
            """The virtual read ``r`` (at positions ``qs``) samples its
            words in ``b`` afresh at its next completion: True, with
            that completion marked fresh, if its quiet test there
            passes on them (gathered through ``seen``)."""
            quiet = ch.park.quiet
            if quiet is None:
                return False
            n = ch.n
            mk = ch.marks.get(r)
            j = mk[0] if mk is not None else 0
            if not j or ch.time(j) <= now:
                # the first completion from p on that completes r
                p = pending(ch, now, cseq)
                k1 = ch.k0 - 1 + p
                j = min(p + (q - k1) % n for q in qs)
            test = quiet[(ch.k0 + j - 1) % n]
            if test is None:
                return False
            idx = r.index
            words = seen.get(id(idx))
            if words is None:
                words = seen[id(idx)] = b[idx]
            smp.result = words
            if not test(smp):
                return False
            if mk is None:
                ch.marks[r] = [j, words, 0]
            elif mk[0] == j:
                mk[1] = words
            else:
                if mk[0]:
                    # an earlier mark's completion came before this
                    # bump: it sampled those words
                    take(r, mk)
                mk[0] = j
                mk[1] = words
            return True

        def take(r, mk: list) -> None:
            """Account the marked fresh completion of ``r``."""
            nonlocal x_rvec, x_reld
            x_rvec += 1
            x_reld -= 1
            r.result = mk[1].copy()
            mk[2] = mk[0]
            mk[0] = 0

        def prec(ta: int, sa, tb: int, sb) -> bool:
            """Is event ``(ta, sa)`` processed before ``(tb, sb)``?

            Seqs are ints or :class:`_VSeq`.  Equal cycles compare by
            allocation: a virtual completion ``j`` was allocated while
            completion ``j - 1`` was processed, a real event while the
            event the log bisects to was; so both sides walk back to
            their allocating events until the cycles differ or both
            are real (iteratively: chains parked in lockstep walk back
            to their anchors)."""
            if type(sa) is _VSeq:
                ach, aj = sa.ch, sa.j
            else:
                ach = None
            if type(sb) is _VSeq:
                bch, bj = sb.ch, sb.j
            else:
                bch = None
            flip = False
            while True:
                if ta != tb:
                    return (ta < tb) is not flip
                if ach is None:
                    if bch is None:
                        return (sa < sb) is not flip
                    ach, aj, bch, sb = bch, bj, None, sa
                    flip = not flip
                if bch is None:
                    if sb < ach.s1:
                        # allocated before virtual completion 1
                        return flip
                    p = bisect_right(log_m, sb) - 1
                    tb, sb = log_t[p], log_s[p]
                    if type(sb) is _VSeq:
                        bch, bj = sb.ch, sb.j
                    aj -= 1
                else:
                    step = 1
                    if ach.sig == bch.sig and not (
                        (ach.ph + aj - bch.ph - bj) % len(ach.sig)
                    ):
                        # identical delays: equal cycles all the way
                        step = min(aj, bj) - 1
                    aj -= step
                    bj -= step
                    tb = bch.time(bj)
                    if bj == 1:
                        sb, bch = bch.s1, None
                ta = ach.time(aj)
                if aj == 1:
                    sa, ach = ach.s1, None

        def vref(ch: _Chain, j: int, t: int):
            return ch.s1 if j == 1 else _VSeq(ch, j, t)

        def pending(ch: _Chain, t: int, s) -> int:
            """The first completion of ``ch`` not processed before the
            event ``(t, s)``."""
            j = ch.first_at(t)
            if j <= ch.folded:
                j = ch.folded + 1
            tj = ch.time(j)
            if tj == t and prec(tj, vref(ch, j, tj), t, s):
                j += 1
            return j

        def last_of(ch: _Chain, qs: tuple, k: int) -> int:
            """The last completion up to ``k`` of a read at positions
            ``qs`` (0: none)."""
            best = 0
            n = ch.n
            for q in qs:
                j = k - (k - q + ch.k0 - 1) % n
                if j > best:
                    best = j
            return best

        def epoch_at(ch: _Chain, buf: str, j: int) -> int:
            """The epoch of ``buf`` when completion ``j`` was processed."""
            tj = ch.time(j)
            h = hist[buf]
            i = bisect_right(h, tj, key=_first)
            v = vref(ch, j, tj)
            best = ch.snap[buf]
            while i:
                t, s, e = h[i - 1]
                if t < tj or prec(t, s, tj, v):
                    return e if e > best else best
                i -= 1
            return best

        def outdated(ch: _Chain, buf: str, w0: int) -> bool:
            """Has a read of ``ch`` on ``buf`` last sampled before epoch
            ``w0``, the oldest the bump log still holds?"""
            last = pending(ch, now, cseq) - 1
            for r, qs in ch.objs:
                if r.buf == buf and r.epoch < w0:
                    j = last_of(ch, qs, last)
                    if j <= ch.folded or epoch_at(ch, buf, j) < w0:
                        return True
            return False

        def fold(ch: _Chain, k: int) -> None:
            """Account completions up to ``k`` of ``ch`` as replayed."""
            nonlocal x_reld
            a = ch.folded
            m = k - a
            if m <= 0:
                return
            ch.folded = k
            wf = ch.wf
            t = ch.time(k)
            wf.pending = replay(wf, ch.park, m, t)
            # every completion is elided but the marked ones
            x_reld += m
            marks = ch.marks
            for r, mk in marks.items():
                if mk[0] and mk[0] <= k:
                    take(r, mk)
            for r, qs in ch.objs:
                j = last_of(ch, qs, k)
                if j > a:
                    r.epoch = epoch_at(ch, r.buf, j)
                    mk = marks.get(r)
                    r.fresh = mk is not None and mk[2] == j
            if probing and t > probe.now:
                probe.now = t

        def settle() -> None:
            """Fold every virtual chain up to the current event."""
            for ch in virt:
                fold(ch, pending(ch, now, cseq) - 1)

        def end_chain(ch: _Chain) -> None:
            nonlocal logging
            del chains[ch]
            if not chains:
                logging = False
                log_t.clear()
                log_s.clear()
                log_m.clear()

        def materialize(ch: _Chain, t: int, s) -> None:
            """Fold ``ch`` up to the event ``(t, s)`` and put its next
            completion on the heap with the seq the replay's had."""
            j = pending(ch, t, s)
            fold(ch, j - 1)
            del virt[ch]
            for buf, span in ch.keys:
                groups = vgroups[buf]
                members = groups[span]
                del members[ch]
                if not members:
                    del groups[span]
                    if not groups:
                        del vgroups[buf]
                        del hist[buf]
            wf = ch.wf
            tj = ch.time(j)
            if j == 1:
                seq = ch.s1
                end_chain(ch)
            else:
                seq = _VSeq(ch, j, tj)
            wf.cu.wake = -1
            heappush(heap, (tj, seq, _EV_WF_READY, wf))

        def materialize_all(t: int, s) -> None:
            for ch in list(virt):
                materialize(ch, t, s)

        def wd_alarm() -> None:
            """Materialize every virtual chain at the first event at or
            after ``wd_next``, where the watchdog polls."""
            nonlocal wd_alarm_at
            if wd_next <= now:
                materialize_all(now, cseq)
            else:
                heappush(heap, (wd_next, next_alarm(), _EV_ALARM, None))
                wd_alarm_at = wd_next

        def go_virtual(wf, park, s1: int) -> bool:
            """Fast-forward ``wf`` from this replayed completion, whose
            next read's completion holds seq ``s1``, if every read of
            its park would be elided now and no delay is zero."""
            nonlocal logging, max_alarm
            reads = park.reads
            shape = park_shape.get(id(reads))
            if shape is None or shape[0] is not reads:
                pos: Dict[int, list] = {}
                for q, r in enumerate(reads):
                    pos.setdefault(id(r), [r]).append(q)
                objs = tuple((v[0], tuple(v[1:])) for v in pos.values())
                keys: Dict[tuple, tuple] = {}
                for r, qs in objs:
                    key = (r.buf, read_span(r))
                    keys[key] = keys.get(key, ()) + ((r, qs),)
                shape = park_shape[id(reads)] = (reads, objs, keys)
            objs = shape[1]
            n = len(reads)
            k0 = park.cur
            for r, qs in objs:
                buf = r.buf
                oe = r.epoch
                if oe is None or buf not in watched or (
                    oe != epochs[buf] and not log_clean(buf, oe, read_span(r))
                ):
                    # retry once this read has completed again
                    wf.ff_skip = min((q - k0) % n for q in qs)
                    return False
            delays = park.delays
            if min(delays) <= 0:
                return False
            limit = park.limit
            if limit is not None:
                # completion `last` finds the park at its limit and
                # resumes the kernel
                last = limit - park.done + 1
                if last <= 1:
                    return False
            ch = _Chain()
            ch.wf = wf
            ch.park = park
            ch.t0 = now
            ch.s1 = s1
            ch.k0 = k0
            ch.n = n
            pre = [0]
            for q in range(n - 1):
                pre.append(pre[-1] + delays[(k0 + q) % n])
            ch.pre = pre
            ch.period = sum(delays)
            if min(delays) == max(delays):
                ch.sig, ch.ph = delays[:1], 0
            else:
                ch.sig, ch.ph = delays, k0
            ch.folded = 0
            ch.snap = {r.buf: epochs[r.buf] for r, _ in objs}
            ch.keys = shape[2]
            ch.objs = objs
            ch.marks = {}
            ch.prec = prec
            for (buf, span), rq in ch.keys.items():
                vgroups.setdefault(buf, {}).setdefault(span, {})[ch] = rq
                hist.setdefault(buf, [])
            virt[ch] = None
            chains[ch] = None
            logging = True
            if not max_alarm:
                # the first event past max_cycles may be a virtual one
                heappush(heap, (max_cycles + 1, next_alarm(), _EV_ALARM, None))
                max_alarm = True
            if watching and wd_alarm_at != wd_next:
                wd_alarm()
            if limit is not None:
                heappush(heap, (ch.time(last), next_alarm(), _EV_ALARM, ch))
            return True

        def trim() -> None:
            """Bound the event log: drop what no live chain needs, and
            re-anchor the chains that hold its older half (they
            materialize here and go virtual again later), so the next
            trim can drop that too."""
            nonlocal log_cap
            cut = bisect_left(log_m, min(ch.s1 for ch in chains))
            del log_t[:cut]
            del log_s[:cut]
            del log_m[:cut]
            for buf, h in hist.items():
                t0 = min(
                    ch.t0 for members in vgroups[buf].values()
                    for ch in members
                )
                del h[:bisect_left(h, t0, key=_first)]
            if len(log_m) > _LOG_MIN // 2:
                mid = log_m[len(log_m) // 2]
                for ch in list(virt):
                    if ch.s1 < mid:
                        materialize(ch, now, cseq)
            log_cap = len(log_m) + _LOG_MIN

        if tracking:
            view = IssueView(cus, all_wfs, settle)
            for o in trackers:
                o.track_issues(view)

        total = 0
        timing = EXEC_TIMING
        t_prev = perf_counter() if timing else 0.0
        key_prev = "issue"
        try:
            # prime: let every CU start issuing at t=0
            for cu in cus:
                issue_from(cu)

            while live > 0 and abort_exc is None and heap:
                ev = heappop(heap)
                if ev[2] == _EV_ALARM:
                    t, s, _, ch = ev
                    if ch is None:
                        if t == wd_alarm_at:
                            wd_alarm_at = -1
                        materialize_all(t, s)
                    elif ch in virt:
                        # the completion at the park's limit
                        materialize(ch, t, s)
                    continue
                now, cseq, kind, payload = ev
                if logging:
                    log_t.append(now)
                    log_s.append(cseq)
                    log_m.append(next_seq())
                    if type(cseq) is _VSeq:
                        end_chain(cseq.ch)
                    elif len(log_m) > log_cap:
                        trim()
                if timing:
                    t_now = perf_counter()
                    EXEC_TIMES[key_prev] = (
                        EXEC_TIMES.get(key_prev, 0.0) + t_now - t_prev
                    )
                    t_prev = t_now
                    if kind == _EV_CU_FREE:
                        key_prev = "issue"
                    elif kind == _EV_APPLY_WRITE:
                        key_prev = "MemWrite"
                    else:
                        key_prev = OP_KIND_NAMES.get(payload.pkind, "issue")
                if watching and now >= wd_next:
                    # read-only liveness poll at the watchdog's own
                    # cadence; may raise WedgeError on escalation.
                    wd_next = watchdog.poll(now, live)
                    if virt:
                        wd_alarm()
                if now > max_cycles:
                    raise SimulationTimeout(
                        f"simulation exceeded {max_cycles} cycles "
                        f"({live} wavefronts still live)"
                    )
                if kind == _EV_WF_READY:
                    wf = payload
                    if on_wake is not None:
                        on_wake(now, wf.wid)
                    # the op kind was cached on the wavefront at issue
                    if wf.pkind == _K_READ:
                        op = wf.pending
                        buf = op.buf
                        if scalar_mode:
                            # reference path: one lane at a time.
                            x_rsc += 1
                            if op.prechecked:
                                idx = op.index
                            else:
                                idx = checked_index(op)
                            b = bufs[buf]
                            if type(idx) is np.ndarray and idx.ndim:
                                op.result = np.array(
                                    [b[i] for i in idx.tolist()],
                                    dtype=np.int64,
                                )
                            else:
                                op.result = b[idx]
                            op.fresh = True
                        elif op.prechecked:
                            # elision: a prechecked read re-yielded while
                            # its buffer's write epoch is unchanged still
                            # holds the exact values a fresh sample would
                            # produce — skip the gather and tell the
                            # kernel via op.fresh.
                            e = epochs_get(buf)
                            if e is None:
                                epochs[buf] = e = next_epoch()
                            oe = op.epoch
                            if oe is not None and buf not in watched:
                                # first re-yielded poll on this buffer:
                                # start span-logging its writes, with a
                                # no-span barrier so later proofs can
                                # anchor at the current epoch.
                                watched.add(buf)
                                log = wlog_get(buf)
                                if log is None:
                                    wlog[buf] = log = []
                                log.append((e, 0, -1))
                            if oe == e:
                                op.fresh = False
                                x_reld += 1
                            elif oe is not None and log_clean(
                                buf, oe, read_span(op)
                            ):
                                # the buffer changed, but every logged
                                # bump since the op's last sample missed
                                # its slots: the values are unchanged.
                                op.epoch = e
                                op.fresh = False
                                x_reld += 1
                            else:
                                # sample memory at architectural
                                # completion (fancy indexing with an
                                # int64 array always copies).
                                op.result = bufs[buf][op.index]
                                op.epoch = e
                                op.fresh = True
                                x_rvec += 1
                        else:
                            x_rvec += 1
                            idx = checked_index(op)
                            op.result = bufs[buf][idx]
                            op.fresh = True
                    cu = wf.cu
                    park = wf.park
                    if park is not None:
                        if (
                            park.done != park.limit
                            and now >= cu.busy_until
                            and not cu.ready
                            and not controlled
                            and (
                                not op.fresh
                                or park.quiet is not None
                                and park.quiet[park.cur] is not None
                                and park.quiet[park.cur](op)
                            )
                        ):
                            # Replay: the read is elided (or its fresh
                            # values are quiet) and the CU would resume
                            # this wavefront right now.  Run the kernel's
                            # hook for it and issue the park's next read
                            # exactly as issue_from would issue it (the CU
                            # is idle and no other wavefront is ready, so
                            # no CU_FREE wake-up is due).
                            if probing:
                                probe.now = now
                                probe.cur_wf = wf.wid
                            hooks = park.hooks
                            if hooks is not None:
                                hooks[park.cur]()
                            op = wf.pending = replay(wf, park, 1, now)
                            if on_issue is not None:
                                on_issue(now, cu.cid, wf.wid, _K_READ,
                                         cu.busy_until, op.trans)
                            cu.wake = next_seq()
                            s = next_seq()
                            if fast_forward and hooks is None and cu.nlive == 1:
                                if wf.ff_skip:
                                    wf.ff_skip -= 1
                                elif go_virtual(wf, park, s):
                                    continue
                            t = now + park.delays[park.cur]
                            heappush(heap, (t, s, _EV_WF_READY, wf))
                            continue
                        # anything else resumes the kernel after this read
                        wf.park = None
                elif kind == _EV_CU_FREE:
                    cu = payload
                    if cu.ready and now >= cu.busy_until:
                        issue_from(cu)
                    continue
                elif kind == _EV_FREE_READY:
                    wf = payload
                    cu = wf.cu
                    # CU_FREE half: wake a waiting wavefront first, as the
                    # seed's separate (earlier-sequence) event did.
                    if cu.ready and now >= cu.busy_until:
                        issue_from(cu)
                elif kind == _EV_ATOMIC:
                    wf = payload
                    op = wf.pending
                    assert isinstance(op, AtomicRMW)
                    if probing:
                        # the atomic system's probe hooks fire during
                        # service, outside any generator resume — point
                        # cur_wf at the owning wavefront for attribution.
                        probe.cur_wf = wf.wid
                    last_end = atomics.service(op, now)
                    buf = op.buf
                    e = epochs[buf] = next_epoch()
                    if buf in watched:
                        # the span the service bounds-checked
                        mn, mx = op.span
                        log_bump(buf, e, mn, mx)
                    t = last_end + lat_back
                    heappush(heap, (t, next_seq(), _EV_WF_READY, wf))
                    continue
                else:  # _EV_APPLY_WRITE
                    apply_write(payload)
                    continue
                # WF_READY and FREE_READY: resume `wf` on its CU
                if now < cu.busy_until:
                    cu.ready.append(wf)
                    w = cu.wake
                    if w >= 0:
                        heappush(heap, (cu.busy_until, w, _EV_CU_FREE, cu))
                        cu.wake = -1
                elif controlled or cu.ready:
                    cu.ready.append(wf)
                    issue_from(cu)
                else:
                    issue_from(cu, wf)

            if abort_exc is not None:
                raise abort_exc

            total = now
            # drain the write buffer: stores issued by the last wavefronts
            # are architecturally committed at kernel end (a real GPU
            # flushes them before signalling completion).
            while heap:
                t, _, kind, payload = heappop(heap)
                if kind == _EV_APPLY_WRITE:
                    apply_write(payload)
                    total = max(total, t)
        finally:
            # virtual wavefronts replayed up to the event that ended the
            # launch (abort, timeout, wedge)
            settle()
            if tracking:
                view._settle = None
            # close still-suspended kernel generators (abort/timeout paths)
            # so their own ``finally`` blocks flush deferred counters;
            # exhausted generators make this a no-op.
            for wf in all_wfs:
                wf.gen.close()
            stats.issued_ops += n_issued
            stats.compute_cycles += n_compute
            stats.mem_reads += n_reads
            stats.mem_writes += n_writes
            stats.mem_transactions += n_trans
            stats.lds_ops += n_lds
            stats.cu_busy_cycles += n_busy
            EXEC_COUNTS["reads_vector"] += x_rvec
            EXEC_COUNTS["reads_elided"] += x_reld
            EXEC_COUNTS["reads_scalar"] += x_rsc
            EXEC_COUNTS["writes_vector"] += x_wvec
            EXEC_COUNTS["writes_scalar"] += x_wsc

        if charge_launch_overhead:
            total += device.kernel_launch_cycles
        stats.sim_cycles = total
        for o in observers:
            if hasattr(o, "launch_end"):
                o.launch_end(total, stats)
        return LaunchResult(cycles=total, stats=stats, device=device)
