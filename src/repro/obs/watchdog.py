"""Simulated-cycle liveness watchdog for persistent-kernel launches.

The paper's scheduler is blocking: wavefronts spin on data-not-arrived
slots, full queues, and the termination flag.  A protocol bug (or an
adversarial schedule from :mod:`repro.verify`) can therefore wedge a
launch — every wavefront live, every CU busy spinning, nothing ever
delivered — and the only backstop so far was the engine's
``max_cycles`` timeout, which fires billions of cycles late with no
diagnosis.  Cooperative Kernels (PAPERS.md) makes the general argument:
blocking algorithms on shared GPUs need *runtime* liveness detection.

:class:`LivenessWatchdog` is that detector.  Attached as a launch
observer, the engine polls it at simulated-cycle cadence (see
``Engine.launch``); each poll reads the paired
:class:`~repro.obs.flight.FlightRecorder`'s
:meth:`~repro.obs.flight.FlightRecorder.progress_signature` — a tuple
of counters (deliveries, stores, exits, work-phase entries, done-flag
raises) that advances iff some wavefront made real progress.  A full
``window`` of simulated cycles with no advance is a **trip**, and trips
escalate deterministically:

1. first trip  → **warn** (recorded, reported via ``on_event``);
2. second trip → **snapshot** (the recorder's full state is frozen);
3. third trip  → **abort**: raise
   :class:`~repro.simt.errors.WedgeError` carrying the final snapshot
   and a stall classification.

Classification reuses the PR 7 blame taxonomy
(:data:`repro.obs.blame.STALL_CLASSES` via
:meth:`~repro.obs.flight.FlightRecorder.stall_classes`): the dominant
current stall class among live wavefronts — ``dna_spin`` for a DNA
spin storm, ``full_wait`` for an unpoppable full queue, and
``cu_occupancy`` for wavefronts a starved CU never lets issue.

Polls only *read* recorder state, so a watchdog that never escalates
leaves the launch bit-identical to an unwatched one (pinned in
``tests/test_simt_determinism.py``); false-positive resistance on
slow-but-progressing workloads is pinned in
``tests/test_obs_watchdog.py``.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional

from repro.simt.errors import WedgeError

from .blame import OTHER

#: default no-progress window in simulated cycles.  Generous on
#: purpose: the longest legitimate delivery gaps in the harness
#: workloads (deep nqueens levels, frontier-bound BFS slices) are tens
#: of thousands of cycles, two orders of magnitude below this.
DEFAULT_WINDOW = 2_000_000

#: trips before the watchdog aborts the launch (warn, snapshot, abort).
DEFAULT_ESCALATIONS = 3


class LivenessWatchdog:
    """Detects and escalates no-progress windows in a launch.

    ``recorder`` is the launch's :class:`FlightRecorder` (the watchdog
    never touches engine state directly).  ``on_event`` is an optional
    ``callback(cycle, action, classification)`` fired on every
    escalation step (``action`` is ``"warn"``, ``"snapshot"`` or
    ``"abort"``) — :class:`~repro.obs.flight.FlightSession` uses it to
    publish ``watchdog.warns`` / ``watchdog.trips`` metrics and stream
    runlog warnings.
    """

    def __init__(
        self,
        recorder,
        window: int = DEFAULT_WINDOW,
        escalations: int = DEFAULT_ESCALATIONS,
        on_event: Optional[Callable[[int, str, str], None]] = None,
    ):
        if window <= 0:
            raise ValueError(f"window must be positive, got {window}")
        if escalations < 1:
            raise ValueError(
                f"escalations must be >= 1, got {escalations}"
            )
        self.recorder = recorder
        self.window = int(window)
        self.escalations = int(escalations)
        self.on_event = on_event
        #: cumulative no-progress windows detected (healthy runs: 0).
        self.trips = 0
        self.warns = 0
        #: frozen recorder snapshots from ``snapshot`` escalations.
        self.snapshots: List[Dict] = []
        #: ``(cycle, action, classification)`` escalation log.
        self.events: List[tuple] = []
        self._strikes = 0
        self._last_sig: Optional[tuple] = None

    # ------------------------------------------------------------------
    # engine hooks
    # ------------------------------------------------------------------
    def launch_begin(self, device, n_wavefronts: int) -> int:
        """Reset per-launch strike state; return the first poll cycle."""
        self._strikes = 0
        self._last_sig = self.recorder.progress_signature()
        return self.window

    def poll(self, now: int, live: int) -> int:
        """One liveness check at simulated cycle ``now``.

        Returns the next cycle at which the engine should poll again;
        raises :class:`WedgeError` on the final escalation.
        """
        sig = self.recorder.progress_signature()
        if sig != self._last_sig:
            # progress since the last poll: reset the strike counter.
            self._last_sig = sig
            self._strikes = 0
            return now + self.window
        # a full window elapsed with an unchanged progress signature —
        # every live wavefront spent it stalled.
        self._strikes += 1
        self.trips += 1
        cls = self.classify()
        if self._strikes >= self.escalations:
            snapshot = self.recorder.snapshot()
            self._record(now, "abort", cls)
            raise WedgeError(
                f"launch wedged: no progress for {self._strikes} "
                f"windows of {self.window} simulated cycles "
                f"({live} wavefronts live; dominant stall: {cls})",
                classification=cls,
                snapshot=snapshot,
            )
        if self._strikes == 1:
            self.warns += 1
            self._record(now, "warn", cls)
        else:
            self.snapshots.append(self.recorder.snapshot())
            self._record(now, "snapshot", cls)
        return now + self.window

    # ------------------------------------------------------------------
    def classify(self) -> str:
        """Dominant stall class among live wavefronts (deterministic:
        highest count, lexicographic tie-break)."""
        hist = self.recorder.stall_classes()
        if not hist:
            return OTHER
        return min(hist, key=lambda c: (-hist[c], c))

    def _record(self, cycle: int, action: str, cls: str) -> None:
        self.events.append((cycle, action, cls))
        if self.on_event is not None:
            self.on_event(cycle, action, cls)
