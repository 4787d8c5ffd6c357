"""The opt-in observability hook interface of the simulator.

A :class:`Probe` receives cycle-stamped callbacks from every layer of a
simulated launch:

* the **engine** reports instruction issue (with the cycle the issue pipe
  frees), wavefront wake-ups after memory/atomic stalls, and wavefront
  exits;
* the **atomic system** reports each serviced request batch: target
  buffer, kind, batch size, the serialization window at the address
  unit(s), and how many CAS requests in the batch failed;
* the **queue variants** report control-word samples (Front/Rear), proxy
  aggregation (lanes served per global atomic), slot watch/grant pairs
  (the dna-wait of §4.2), and time-stamped retry/empty exceptions;
* the **persistent scheduler** reports per-wavefront token occupancy
  after every acquire.

Every method is a no-op here, so subclasses override only what they
need.  The rich recording implementation lives in
:mod:`repro.obs.timeline`; the always-on bounded variant (last-K ring
of events, per-queue fill, per-CU state — the source of post-mortem
bundles and the liveness watchdog's progress signature) is
:class:`repro.obs.flight.FlightRecorder`.  This module holds only the
interface so the simulator core never depends on the observability
package.

Zero-cost contract
------------------
Probing is strictly opt-in: a launch has a probe only when a ``Probe``
is among its observers (``Engine.launch(..., observers=...)`` or an
attached :class:`~repro.simt.engine.Session`), and instrumentation
sites are gated on a single ``probe is not None`` test, so a probe-less
launch runs the exact hot paths of an uninstrumented build.  The
per-op callbacks (``on_issue``, ``on_wake``) and the per-acquire
``sched_tokens`` are bound once per launch through :func:`overridden`,
so a probe that leaves them as no-ops is never called for them.  A
single probe is used as is; several share one :class:`ProbeFanout`.  A probe
must be *passive*: it may read, never mutate, simulation state — the
engine guarantees that attaching any conforming probe leaves every
simulated cycle, statistic, and memory word bit-identical (pinned by
``tests/test_simt_determinism.py``).

The :attr:`now` attribute is the probe's simulated clock: the engine
stores the current cycle into it immediately before resuming a kernel
generator, so kernel-side layers (queues, schedulers, tracers) can
time-stamp their own events without threading the clock through every
call.
"""

from __future__ import annotations

from typing import Optional


class Probe:
    """No-op base class for simulation observability hooks."""

    #: simulated cycle at the last generator resume (engine-maintained).
    now: int = 0
    #: wavefront id of the last generator resume (engine-maintained, -1
    #: before the first issue).  Kernel-side layers run *inside* a
    #: wavefront's generator, so hooks they fire (queue events, phase
    #: marks) can attribute themselves to ``cur_wf`` without threading
    #: the id through every call.
    cur_wf: int = -1
    #: whether the probe wants the calls of every idle work cycle of a
    #: parked wavefront (:class:`~repro.simt.ops.Park`).  A probe that
    #: declares False gets one ``wf_phase(wf, "dna_spin", queue)`` mark
    #: per park instead of each replayed cycle's ``wf_phase``,
    #: ``queue_instant`` and ``sched_tokens`` calls; everything else it
    #: receives is unchanged.
    wants_idle_cycles: bool = True

    # ------------------------------------------------------------------
    # engine callbacks
    # ------------------------------------------------------------------
    def launch_begin(self, device, n_wavefronts: int) -> None:
        """A kernel launch is starting on ``device``."""

    def launch_end(self, cycles: int, stats) -> None:
        """The launch finished after ``cycles`` simulated cycles."""

    def on_issue(
        self,
        cycle: int,
        cu: int,
        wf: int,
        kind: int,
        end: int,
        trans: int,
    ) -> None:
        """Wavefront ``wf`` issued an op on CU ``cu`` at ``cycle``.

        ``kind`` is an op-kind id (map it through
        :data:`repro.simt.engine.OP_KIND_NAMES`), ``end`` the cycle the
        CU issue pipe frees, ``trans`` the memory-transaction count of
        the op after coalescing (0 for non-memory ops).
        """

    def on_wake(self, cycle: int, wf: int) -> None:
        """Wavefront ``wf`` finished a memory/atomic stall at ``cycle``."""

    def on_exit(self, cycle: int, wf: int) -> None:
        """Wavefront ``wf`` exited the kernel at ``cycle``."""

    # ------------------------------------------------------------------
    # atomic-system callbacks
    # ------------------------------------------------------------------
    def on_atomic(
        self,
        cycle: int,
        buf: str,
        kind: str,
        n: int,
        end: int,
        failures: int,
        addr: int,
    ) -> None:
        """A batch of ``n`` atomic requests on ``buf`` was serviced.

        The batch arrived at ``cycle`` and its last request completed at
        ``end`` (the serialization window at the address unit).
        ``failures`` counts CAS requests in the batch whose expected
        value was stale; ``addr`` is the target word when the whole
        batch hits one address, else ``-1``.
        """

    def on_atomic_queued(
        self, buf: str, addr: int, arrival: int, start: int
    ) -> None:
        """A request on hot word ``addr`` of ``buf`` queued behind an
        earlier batch: it arrived at ``arrival`` but its address unit
        only freed at ``start`` (cross-batch serialization, the hot-spot
        wait that §3.2 argues cannot be hidden).  Only emitted for hot
        buffers, where cross-batch unit occupancy is tracked at all."""

    # ------------------------------------------------------------------
    # queue-layer callbacks
    # ------------------------------------------------------------------
    def queue_register(self, prefix: str, capacity: int, variant: str) -> None:
        """Declare a queue (idempotent; called before its first event)."""

    def queue_counter(
        self, prefix: str, name: str, cycle: int, value: int
    ) -> None:
        """Sampled control-word value, e.g. ``front`` or ``rear``."""

    def queue_instant(
        self, prefix: str, name: str, cycle: int, count: int
    ) -> None:
        """A time-stamped queue event burst (``empty``, ``cas_retry``)."""

    def queue_proxy(self, prefix: str, direction: str, lanes: int) -> None:
        """One proxy-aggregated global atomic served ``lanes`` lanes
        (``direction`` is ``"acquire"`` or ``"publish"``)."""

    def queue_watch(self, prefix: str, slots, cycle: int) -> None:
        """Lanes parked on raw ``slots`` (array) at ``cycle``."""

    def queue_grant(self, prefix: str, slots, cycle: int) -> None:
        """Raw ``slots`` delivered their tokens at ``cycle`` (closes the
        matching :meth:`queue_watch`; the difference is the dna-wait)."""

    # ------------------------------------------------------------------
    # queue introspection callbacks (verification oracle)
    # ------------------------------------------------------------------
    # These three expose the queue's *logical* operation history — every
    # successful control-word reservation and every token that moves
    # through a slot — so an invariant oracle (repro.verify) can replay
    # the history against a sequential specification.  They fire inside
    # the queues' existing ``if probe is not None`` gates, so unprobed
    # launches pay nothing and probed launches stay bit-identical.

    def queue_reserve(
        self, prefix: str, direction: str, base: int, count: int
    ) -> None:
        """A reservation on a control word succeeded: ``count`` raw slots
        starting at ``base`` were claimed (``direction`` is ``"acquire"``
        for Front / dequeue-side, ``"publish"`` for Rear / enqueue-side).
        Emitted once per *successful* advance for every variant — after
        the AFA for RF/AN, after the winning CAS for AN, and per winning
        CAS burst for BASE/NAIVE."""

    def queue_store(self, prefix: str, slots, values) -> None:
        """Token ``values`` were written into raw ``slots`` (enqueue-side
        data movement; aligned arrays)."""

    def queue_deliver(self, prefix: str, slots, tokens) -> None:
        """Raw ``slots`` handed ``tokens`` to dequeuing lanes (aligned
        arrays; the value-carrying companion of :meth:`queue_grant`)."""

    def queue_segment_link(
        self, prefix: str, logical_seg: int, phys_seg: int, cycle: int
    ) -> None:
        """A GROW queue linked pool segment ``phys_seg`` in as logical
        segment ``logical_seg`` (the winning segment-map CAS; see
        :mod:`repro.core.queue_adaptive`).  Write-once per logical
        segment — losers adopt the winner's mapping and never emit."""

    def queue_segment_release(
        self, prefix: str, logical_seg: int, phys_seg: int
    ) -> None:
        """A GROW queue recycled pool segment ``phys_seg``: every slot of
        logical segment ``logical_seg`` has been delivered and restored,
        so the pool segment returned to the free list."""

    def queue_spill(self, prefix: str, tokens) -> None:
        """A SPILL queue dead-dropped ``tokens`` (array) into its
        overflow ring instead of taking a Rear reservation (ring fill
        above the high-water mark)."""

    def queue_reinject(self, prefix: str, slots, tokens) -> None:
        """A SPILL queue's drain pump re-published spilled ``tokens``
        into fresh Rear reservations at raw ``slots`` (aligned arrays).
        Fired immediately before the matching :meth:`queue_store`, so an
        oracle can tell a re-publication from a first publication."""

    def queue_steal(
        self, src_prefix: str, dst_prefix: str, src_slots, dst_base: int,
        tokens,
    ) -> None:
        """A work-stealing transfer moved ``tokens`` from raw
        ``src_slots`` of the ``src_prefix`` queue into ``len(tokens)``
        slots starting at raw ``dst_base`` of the ``dst_prefix`` queue
        (sharded scheduling, :mod:`repro.core.queue_sharded`).  Emitted
        by the thief after its destination-side reservation and before
        the matching ``queue_deliver`` on the source, so a multi-queue
        oracle can tell a cross-shard transfer from a lane delivery."""

    # ------------------------------------------------------------------
    # scheduler callbacks
    # ------------------------------------------------------------------
    def sched_tokens(
        self, cycle: int, wf: int, n_token: int, wavefront_size: int
    ) -> None:
        """Wavefront ``wf`` holds ``n_token`` task tokens after acquire."""

    def sched_done(self, cycle: int, wf: int) -> None:
        """Wavefront ``wf`` is raising the global done flag at ``cycle``
        (its decrement drove the in-flight counter to zero).  Fired at
        the DONE store's issue, before any other wavefront can observe
        the flag — the anchor of every termination-barrier wait."""

    # ------------------------------------------------------------------
    # stall-attribution callbacks (repro.obs.blame)
    # ------------------------------------------------------------------
    def wf_phase(self, wf: int, phase: str, detail: str = "") -> None:
        """Wavefront ``wf`` entered scheduler/queue ``phase`` at
        :attr:`now`.  Phases name what the ops issued next are *for*
        (``"termination"``, ``"work"``, ``"reserve"``, ``"dna_spin"``,
        ``"full_wait"``, ``"steal"``); ``detail`` optionally carries the
        queue prefix so blame can aggregate per queue/shard.  Purely a
        classification mark: phase marks never affect simulation."""


#: the per-event callbacks: everything but ``launch_begin``/``launch_end``,
#: which the engine calls on each observer directly.
EVENT_CALLBACKS = tuple(
    name for name, attr in vars(Probe).items()
    if callable(attr) and not name.startswith("_")
    and name not in ("launch_begin", "launch_end")
)


def overridden(probe, name: str):
    """``probe.<name>`` when it is more than :class:`Probe`'s no-op, else
    None, so a hot path can skip calls no probe wants.

    Looks at the bound attribute, not the class: a :class:`ProbeFanout`
    binds its children's callbacks per instance.
    """
    if probe is None:
        return None
    fn = getattr(probe, name)
    if getattr(fn, "__func__", None) is getattr(Probe, name):
        return None
    return fn


def _fan(targets: list):
    def call(*args, **kwargs) -> None:
        for target in targets:
            target(*args, **kwargs)
    return call


class ProbeFanout(Probe):
    """One hot probe that forwards to several, built once per launch.

    Each callback is bound to only the children whose class overrides
    it, so a callback no child wants stays the inherited no-op.  The
    engine-maintained :attr:`now` and :attr:`cur_wf` reach every child.
    The fanout opts out of idle-cycle calls only when every child does,
    so blame, timelines and the verify oracle see the same stream
    whatever else is attached.
    """

    def __init__(self, children) -> None:
        self.children = tuple(children)
        # one member that wants the per-cycle calls gets them all
        self.wants_idle_cycles = any(
            c.wants_idle_cycles for c in self.children
        )
        self._now = 0
        self._cur_wf = -1
        for name in EVENT_CALLBACKS:
            base = getattr(Probe, name)
            targets = [
                getattr(c, name) for c in self.children
                if getattr(type(c), name) is not base
            ]
            if len(targets) == 1:
                setattr(self, name, targets[0])
            elif targets:
                setattr(self, name, _fan(targets))

    @property
    def now(self) -> int:
        return self._now

    @now.setter
    def now(self, cycle: int) -> None:
        self._now = cycle
        for c in self.children:
            c.now = cycle

    @property
    def cur_wf(self) -> int:
        return self._cur_wf

    @cur_wf.setter
    def cur_wf(self, wf: int) -> None:
        self._cur_wf = wf
        for c in self.children:
            c.cur_wf = wf
