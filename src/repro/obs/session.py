"""Profiling session: a TimelineProbe on every launch.

The harness (and user code) reaches the engine through several layers
— ``run_persistent_bfs``, soup drivers, experiment tables — and most of
those signatures predate observability.  :class:`ProfileSession` is a
:class:`repro.simt.engine.Session`: while it is attached, every
``Engine.launch`` in this process gets a fresh
:class:`~repro.obs.timeline.TimelineProbe`, and the session collects
each finished launch's metrics.

Probes are passive, so everything the wrapped code returns (reports,
stats, tables) is byte-identical to an unprofiled run.

Usage::

    with ProfileSession() as prof:
        run_persistent_bfs(...)
    prof.launches[0]["metrics"]["engine"]["occupancy"]

Sessions attach in *this* interpreter only: a worker process opens its
own (``run_many(..., profiles=...)`` does).
"""

from __future__ import annotations

from typing import Dict, List, Optional

from repro.simt.engine import Session

from .metrics import compute_metrics
from .timeline import TimelineProbe


class ProfileSession(Session):
    """Attach a TimelineProbe to every launch while the session is open.

    Parameters
    ----------
    bins:
        Time-bin count handed to :func:`~repro.obs.metrics.compute_metrics`.
    max_events:
        Per-launch cap forwarded to :class:`TimelineProbe`.
    keep_timelines:
        When true, the raw probe objects are retained in
        ``launches[i]["timeline"]`` (needed for Perfetto export);
        otherwise only the reduced metrics dict is kept.
    """

    def __init__(
        self,
        bins: int = 60,
        max_events: int = 2_000_000,
        keep_timelines: bool = True,
    ):
        self.bins = bins
        self.max_events = max_events
        self.keep_timelines = keep_timelines
        #: one entry per finished launch: {"metrics": ..., "timeline": ...}
        self.launches: List[Dict] = []

    # ------------------------------------------------------------------
    def _collect(self, probe: TimelineProbe) -> None:
        entry: Dict = {"metrics": compute_metrics(probe, bins=self.bins)}
        if self.keep_timelines:
            entry["timeline"] = probe
        self.launches.append(entry)

    def observers(self) -> List[TimelineProbe]:
        return [TimelineProbe(max_events=self.max_events, on_end=self._collect)]

    # ------------------------------------------------------------------
    @property
    def last(self) -> Optional[Dict]:
        """The most recent launch entry, or None."""
        return self.launches[-1] if self.launches else None

    def total_cycles(self) -> int:
        """Sum of simulated cycles across collected launches."""
        return sum(e["metrics"]["cycles"] for e in self.launches)
