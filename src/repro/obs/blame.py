"""Critical-path stall attribution and causal "what-if" projection.

This module answers *why a launch took as long as it did*.  The
existing observability layers record what happened (timelines, counters,
fill histograms); :class:`BlameProbe` additionally records **wait-for
evidence** — which wavefront phase each op served, which store granted
which starved consumer, who raised the done flag — and
:func:`build_graph` compiles it into a per-wavefront **segment graph**:

* every wavefront's lifetime ``[first_issue, exit]`` is tiled by
  non-overlapping segments;
* **rigid** segments are op spans (issue to stall-end) classified by the
  scheduler/queue phase active at issue (``compute``, ``reserve``,
  ``termination``, ...).  Atomic op spans are split so the serialization
  window beyond one request's service time becomes an explicit
  ``atomic_serial`` segment;
* **elastic** segments are waits whose length is *caused elsewhere*: CU
  occupancy gaps (dependent on the op that held the issue pipe) and
  starvation streaks — runs of work cycles with zero tokens, collapsed
  into one segment depending on the producer store that eventually fed
  the wavefront (or on the done-flag raiser for the final barrier).

Because every elastic segment carries its causal anchor, the graph
supports **causal replay** (:func:`replay`): re-walk all segments in
recorded completion order with one class's durations and residuals
scaled by ``k`` and read off the projected end-to-end cycle count —
virtual speedup in the style of causal profiling (Coz).  ``k = 1``
reproduces the recorded run exactly; the replay holds the dependency
*structure* fixed (it does not re-simulate contention), the standard
causal-profiling approximation (see ``docs/blame.md``).

:func:`critical_path` walks the binding chain backward from the last
exit — through a wait's causal anchor whenever it, and not the
wavefront's own previous segment, bound the wait — and aggregates the
chain per class.  :func:`summarize_graph` packages per-class cycle
totals, per-queue detail, the critical path, and what-if projections
into a JSON-able :class:`BlameSummary`; summaries from separate worker
processes merge with :meth:`BlameSummary.merge` so blame works under
``--jobs N``.

Everything here is driven by passive probe hooks behind the usual
``probe is not None`` gate: with blame disabled the simulation is
bit-identical (pinned in ``tests/test_simt_determinism.py``).
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.simt.engine import Session

from .timeline import TimelineProbe

#: segment classes that are productive work rather than stall.
COMPUTE = "compute"
OTHER = "other"

#: the fixed stall taxonomy (order is the reporting order).
STALL_CLASSES = (
    "full_wait",      # queue-full release wait (circular publish)
    "dna_spin",       # data-not-arrived poll on reserved/claimed slots
    "reserve",        # slot reservation: local aggregation, AFA/CAS, copy
    "cu_occupancy",   # ready but the CU issue pipe was busy
    "atomic_serial",  # serialization window at the atomic unit
    "steal",          # cross-shard transfer path
    "termination",    # done-flag polls, in-flight accounting, final barrier
)

ALL_CLASSES = (COMPUTE,) + STALL_CLASSES + (OTHER,)

#: phase mark -> segment class (phases come from Probe.wf_phase).
_PHASE_CLASS = {
    "work": COMPUTE,
    "reserve": "reserve",
    "dna_spin": "dna_spin",
    "full_wait": "full_wait",
    "steal": "steal",
    "termination": "termination",
}


@dataclass
class Segment:
    """One tile of a wavefront's lifetime.

    ``elastic`` segments are waits; when ``dep_cycle >= 0`` the wait's
    causal anchor is cycle ``dep_cycle`` of wavefront ``dep_wf`` and the
    **residual** ``end - dep_cycle`` is the propagation delay that
    replay scales and the critical path charges.  Rigid segments (and
    anchor-less waits) simply have a scalable duration.
    """

    wf: int
    start: float
    end: float
    cls: str
    elastic: bool = False
    dep_wf: int = -1
    dep_cycle: float = -1.0
    detail: str = ""

    @property
    def dur(self) -> float:
        return self.end - self.start

    @property
    def residual(self) -> float:
        if self.elastic and self.dep_cycle >= 0:
            return self.end - self.dep_cycle
        return self.end - self.start


@dataclass
class BlameGraph:
    """Per-wavefront ordered segment lists tiling each lifetime."""

    segments: Dict[int, List[Segment]]
    #: makespan: the last recorded wavefront exit (simulated cycles).
    total: float

    def find(self, wf: int, cycle: float) -> Optional[Segment]:
        """The segment of ``wf`` containing ``cycle`` (None if outside)."""
        segs = self.segments.get(wf)
        if not segs:
            return None
        ends = [s.end for s in segs]
        i = bisect_right(ends, cycle)
        if i == len(segs):
            i -= 1
        seg = segs[i]
        # a cycle exactly on a boundary belongs to the segment it ends.
        if i > 0 and segs[i - 1].end == cycle:
            return segs[i - 1]
        if seg.start <= cycle <= seg.end:
            return seg
        return None


class BlameProbe(TimelineProbe):
    """Timeline recording plus the wait-for evidence blame needs.

    On top of :class:`TimelineProbe`'s streams this records:

    ``phase_log``
        per-wavefront ``(cycle, phase, detail)`` marks from
        :meth:`~repro.simt.probe.Probe.wf_phase`;
    ``stores``
        last producing ``(wf, cycle)`` per raw queue slot;
    ``grant_log``
        per-consumer ``(grant_cycle, producer_wf, store_cycle)`` for
        every delivered slot (producer unknown: ``(-1, -1)``, e.g.
        host-seeded tokens);
    ``streaks``
        closed starvation streaks ``(start, end, dep_wf, dep_cycle,
        by_exit)`` — maximal runs of zero-token acquire samples,
        anchored to the producer store that ended them (or the done
        event when the run ended at kernel exit);
    ``done_event``
        ``(cycle, wf)`` of the first done-flag raise;
    ``atomic_wfs``
        owning wavefront per recorded atomic batch (aligned with the
        inherited ``atomics`` stream).
    """

    def __init__(self, max_events: int = 2_000_000, on_end=None):
        super().__init__(max_events=max_events, on_end=on_end)
        self.phase_log: Dict[int, List[Tuple[int, str, str]]] = {}
        self.stores: Dict[Tuple[str, int], Tuple[int, int]] = {}
        self.grant_log: Dict[int, List[Tuple[int, int, int]]] = {}
        self.streaks: Dict[int, List[Tuple[int, int, int, int, bool]]] = {}
        self.done_event: Optional[Tuple[int, int]] = None
        self.atomic_wfs: List[int] = []
        self._streak_open: Dict[int, int] = {}
        self._grant_lo: Dict[int, int] = {}
        self._exited: Dict[int, bool] = {}

    # -- phase / scheduler evidence ------------------------------------
    def wf_phase(self, wf, phase, detail="") -> None:
        log = self.phase_log.get(wf)
        if log is None:
            log = self.phase_log[wf] = []
        elif log[-1][1] == phase and log[-1][2] == detail:
            return  # consecutive identical marks carry no information
        log.append((self.now, phase, detail))

    def sched_done(self, cycle, wf) -> None:
        if self.done_event is None:
            self.done_event = (cycle, wf)

    def sched_tokens(self, cycle, wf, n_token, wavefront_size) -> None:
        if not self._exited.get(wf):
            if n_token == 0:
                self._streak_open.setdefault(wf, cycle)
            else:
                s = self._streak_open.pop(wf, None)
                if s is not None and cycle > s:
                    self._close_streak(wf, s, cycle, by_exit=False)
        super().sched_tokens(cycle, wf, n_token, wavefront_size)

    def on_exit(self, cycle, wf) -> None:
        s = self._streak_open.pop(wf, None)
        if s is not None and cycle > s:
            self._close_streak(wf, s, cycle, by_exit=True)
        self._exited[wf] = True
        super().on_exit(cycle, wf)

    def _close_streak(self, wf: int, s: int, e: int, by_exit: bool) -> None:
        dep_wf = dep_cycle = -1
        if by_exit:
            if self.done_event is not None:
                dep_cycle, dep_wf = self.done_event
        else:
            log = self.grant_log.get(wf)
            if log:
                lo = self._grant_lo.get(wf, 0)
                i = lo
                n = len(log)
                while i < n and log[i][0] <= e:
                    _, dwf, dcy = log[i]
                    if dcy > dep_cycle:
                        dep_wf, dep_cycle = dwf, dcy
                    i += 1
                self._grant_lo[wf] = i
        self.streaks.setdefault(wf, []).append(
            (s, e, dep_wf, dep_cycle, by_exit)
        )

    # -- queue evidence -------------------------------------------------
    def queue_store(self, prefix, slots, values) -> None:
        wf, now = self.cur_wf, self.now
        stores = self.stores
        for s in slots:
            stores[(prefix, int(s))] = (wf, now)

    def queue_grant(self, prefix, slots, cycle) -> None:
        log = self.grant_log.setdefault(self.cur_wf, [])
        stores = self.stores
        for s in slots:
            rec = stores.get((prefix, int(s)))
            if rec is not None:
                log.append((cycle, rec[0], rec[1]))
            else:
                log.append((cycle, -1, -1))
        super().queue_grant(prefix, slots, cycle)

    # -- atomic evidence ------------------------------------------------
    def on_atomic(self, cycle, buf, kind, n, end, failures, addr) -> None:
        if len(self.atomics) < self.max_events:
            self.atomic_wfs.append(self.cur_wf)
        super().on_atomic(cycle, buf, kind, n, end, failures, addr)


# ----------------------------------------------------------------------
# graph construction
# ----------------------------------------------------------------------
def build_graph(probe: BlameProbe) -> BlameGraph:
    """Compile one launch recording into a :class:`BlameGraph`."""
    from repro.simt.engine import _K_ATOMIC, _K_READ, _K_WRITE

    blocking = (_K_READ, _K_WRITE, _K_ATOMIC)
    svc = int(getattr(probe.device, "atomic_service", 0) or 0)

    wakes_by_wf: Dict[int, List[int]] = {}
    for c, wf in probe.wakes:
        wakes_by_wf.setdefault(wf, []).append(c)
    exit_of = {wf: c for c, wf in probe.exits}

    atomics_by_wf: Dict[int, List[Tuple[int, int]]] = {}
    for i, wf in enumerate(probe.atomic_wfs):
        ev = probe.atomics[i]
        atomics_by_wf.setdefault(wf, []).append((ev[0], ev[4]))

    # one global scan over issues: pair blocking ops with their wake,
    # classify by the owning wavefront's current phase mark, split the
    # atomic serialization window, and remember which op held each CU's
    # issue pipe (the causal anchor of occupancy gaps).
    wake_cur: Dict[int, int] = {}
    phase_cur: Dict[int, int] = {}
    atom_cur: Dict[int, int] = {}
    cu_last: Dict[int, Tuple[int, int]] = {}
    # per wf: (start, end, cls, detail, gap_dep_wf, gap_dep_cycle)
    spans: Dict[int, List[Tuple[int, int, str, str, int, int]]] = {}

    for cycle, cu, wf, kind, end_pipe, trans in probe.issues:
        dep = cu_last.get(cu)
        cu_last[cu] = (wf, end_pipe)
        if kind in blocking:
            wl = wakes_by_wf.get(wf)
            i = wake_cur.get(wf, 0)
            end = end_pipe
            if wl is not None:
                n = len(wl)
                while i < n and wl[i] <= cycle:
                    i += 1
                if i < n:
                    end = wl[i]
                    i += 1
                wake_cur[wf] = i
        else:
            end = end_pipe
        if end <= cycle:
            end = cycle + 1 if end_pipe <= cycle else end_pipe

        log = probe.phase_log.get(wf)
        cls, detail = OTHER, ""
        if log:
            j = phase_cur.get(wf, 0)
            n = len(log)
            while j + 1 < n and log[j + 1][0] <= cycle:
                j += 1
            phase_cur[wf] = j
            if log[j][0] <= cycle:
                cls = _PHASE_CLASS.get(log[j][1], OTHER)
                detail = log[j][2]

        lst = spans.setdefault(wf, [])
        if kind == _K_ATOMIC:
            evs = atomics_by_wf.get(wf)
            k = atom_cur.get(wf, 0)
            extra = 0
            if evs is not None and k < len(evs):
                arr, aend = evs[k]
                atom_cur[wf] = k + 1
                extra = max(0, (aend - arr) - svc)
                extra = min(extra, end - cycle)
            if extra > 0:
                if end - extra > cycle:
                    lst.append((cycle, end - extra, cls, detail, *_dep(dep)))
                lst.append((end - extra, end, "atomic_serial", detail, -1, -1))
                continue
        lst.append((cycle, end, cls, detail, *_dep(dep)))

    # assemble per-wavefront tilings
    segments: Dict[int, List[Segment]] = {}
    total = 0.0
    for wf, lst in spans.items():
        exit_c = exit_of.get(wf, probe.cycles)
        segments[wf] = _tile_wavefront(
            wf, lst, probe.streaks.get(wf, []), exit_c
        )
        if exit_c > total:
            total = float(exit_c)
    return BlameGraph(segments=segments, total=total)


def _dep(dep: Optional[Tuple[int, int]]) -> Tuple[int, int]:
    return dep if dep is not None else (-1, -1)


def _tile_wavefront(
    wf: int,
    spans: List[Tuple[int, int, str, str, int, int]],
    streaks: List[Tuple[int, int, int, int, bool]],
    exit_c: int,
) -> List[Segment]:
    """Collapse starvation streaks and tile ``[t0, exit]`` with segments."""
    out: List[Segment] = []
    si = 0
    cur_streak: Optional[List] = None  # [s, e, dep_wf, dep_cycle, by_exit,
    #                                    dur-by-(cls,detail) dict]

    def flush_streak() -> None:
        nonlocal cur_streak
        if cur_streak is None:
            return
        s, e, dwf, dcy, by_exit, durs = cur_streak
        cur_streak = None
        if e <= s:
            return
        if by_exit:
            cls, detail = "termination", ""
        elif durs:
            (cls, detail) = max(durs, key=lambda kk: durs[kk])
        else:
            cls, detail = "dna_spin", ""
        out.append(
            Segment(
                wf, float(s), float(e), cls,
                elastic=True, dep_wf=dwf, dep_cycle=float(dcy),
                detail=detail,
            )
        )

    for start, end, cls, detail, gdwf, gdcy in spans:
        # open / close streaks that this span has moved past
        while cur_streak is not None and start >= cur_streak[1]:
            flush_streak()
        while (
            cur_streak is None
            and si < len(streaks)
            and streaks[si][1] <= start
        ):
            s, e, dwf, dcy, bye = streaks[si]
            si += 1
            cur_streak = [s, e, dwf, dcy, bye, {}]
            flush_streak()  # streak entirely before this span: emit as-is
        if (
            cur_streak is None
            and si < len(streaks)
            and streaks[si][0] <= start
        ):
            s, e, dwf, dcy, bye = streaks[si]
            si += 1
            cur_streak = [s, e, dwf, dcy, bye, {}]
        if cur_streak is not None and start >= cur_streak[0]:
            # span belongs to the streak: absorb it, remember what the
            # wavefront spent the streak doing (classifies the wait)
            durs = cur_streak[5]
            key = (cls, detail)
            durs[key] = durs.get(key, 0) + (end - start)
            if end > cur_streak[1]:
                cur_streak[1] = end
            continue
        out.append(
            Segment(
                wf, float(start), float(end), cls,
                elastic=False, detail=detail,
                dep_wf=gdwf, dep_cycle=float(gdcy),
            )
        )
    flush_streak()
    while si < len(streaks):
        s, e, dwf, dcy, bye = streaks[si]
        si += 1
        cur_streak = [s, e, dwf, dcy, bye, {}]
        flush_streak()

    # fill gaps (CU occupancy) and clip defensively into a clean tiling
    tiled: List[Segment] = []
    t0 = out[0].start if out else 0.0
    cur = t0
    for seg in out:
        if seg.start > cur:
            # the op span that ends the gap knows which op held the CU
            dwf, dcy = (seg.dep_wf, seg.dep_cycle) if not seg.elastic else (-1, -1.0)
            if dcy > seg.start:
                dwf, dcy = -1, -1.0
            tiled.append(
                Segment(
                    wf, cur, seg.start, "cu_occupancy",
                    elastic=True, dep_wf=dwf, dep_cycle=dcy,
                )
            )
        elif seg.start < cur:
            seg.start = cur
        if seg.end <= cur:
            continue
        if not seg.elastic:
            seg.dep_wf, seg.dep_cycle = -1, -1.0  # gap anchor, not its own
        tiled.append(seg)
        cur = seg.end
    if exit_c > cur:
        tiled.append(Segment(wf, cur, float(exit_c), OTHER))
    return tiled


# ----------------------------------------------------------------------
# causal replay (what-if projection)
# ----------------------------------------------------------------------
def replay(
    graph: BlameGraph,
    factors: Optional[Dict[str, float]] = None,
    materialize: bool = False,
):
    """Re-walk the graph with per-class scale factors.

    Processes all segments in recorded completion order, keeping a
    per-wavefront translation table from recorded to projected time.
    Rigid segments take ``dur * k``; anchored waits complete at
    ``max(own cursor, projected(anchor) + residual * k)`` — so shrinking
    a producer-side class propagates to its consumers, the essence of
    causal profiling.  With all factors 1 the projection reproduces the
    recorded timeline exactly.

    Returns the projected makespan, or ``(makespan, BlameGraph)`` with
    re-timed segments when ``materialize`` is set (used to plant
    synthetic slowdowns in tests).
    """
    k = factors or {}
    order: List[Segment] = []
    for segs in graph.segments.values():
        order.extend(segs)
    order.sort(key=lambda s: (s.end, s.start))

    os_of: Dict[int, List[float]] = {}
    ns_of: Dict[int, List[float]] = {}
    cursor: Dict[int, float] = {}
    for wf, segs in graph.segments.items():
        t0 = segs[0].start if segs else 0.0
        os_of[wf] = [t0]
        ns_of[wf] = [t0]
        cursor[wf] = t0

    def project(dwf: int, c: float) -> float:
        olist = os_of.get(dwf)
        if not olist:
            return c
        i = bisect_right(olist, c) - 1
        if i < 0:
            return ns_of[dwf][0] - (olist[0] - c)
        return ns_of[dwf][i] + (c - olist[i])

    new_segs: Dict[int, List[Segment]] = {w: [] for w in graph.segments}
    for seg in order:
        f = k.get(seg.cls, 1.0)
        ns = cursor[seg.wf]
        if seg.elastic and seg.dep_cycle >= 0:
            new_dep = project(seg.dep_wf, seg.dep_cycle)
            ne = max(ns, new_dep + (seg.end - seg.dep_cycle) * f)
        else:
            new_dep = -1.0
            ne = ns + (seg.end - seg.start) * f
        if materialize:
            new_segs[seg.wf].append(
                Segment(
                    seg.wf, ns, ne, seg.cls,
                    elastic=seg.elastic,
                    dep_wf=seg.dep_wf if new_dep >= 0 else -1,
                    dep_cycle=new_dep,
                    detail=seg.detail,
                )
            )
        os_of[seg.wf].append(seg.end)
        ns_of[seg.wf].append(ne)
        cursor[seg.wf] = ne

    total = max(cursor.values()) if cursor else 0.0
    if materialize:
        return total, BlameGraph(segments=new_segs, total=total)
    return total


def scale_graph(graph: BlameGraph, factors: Dict[str, float]) -> BlameGraph:
    """A re-timed copy of ``graph`` with ``factors`` applied (e.g.
    ``{"dna_spin": 2.0}`` plants a 2x slowdown in one stall class)."""
    _, g = replay(graph, factors, materialize=True)
    return g


# ----------------------------------------------------------------------
# critical path
# ----------------------------------------------------------------------
def critical_path(graph: BlameGraph):
    """Walk the binding chain backward from the last exit.

    At each step the walk charges the segment's class with the cycles it
    contributed to the chain, then moves to whichever predecessor bound
    the segment's completion: the wait's causal anchor (when the anchor
    fired at or after the wavefront's previous segment ended — by
    construction ``anchor + residual == end``, so an in-window anchor is
    always binding) or the wavefront's own previous segment.

    Returns ``(per_class_cycles, chain)`` where ``chain`` is the list of
    ``(segment, contribution)`` pairs from the end backward; the
    contributions sum to the chain's total length.
    """
    totals: Dict[str, float] = {}
    chain: List[Tuple[Segment, float]] = []
    if not graph.segments:
        return totals, chain

    end_wf = max(
        graph.segments,
        key=lambda w: graph.segments[w][-1].end if graph.segments[w] else 0.0,
    )
    segs = graph.segments[end_wf]
    if not segs:
        return totals, chain
    seg = segs[-1]
    cut = seg.end
    idx: Dict[int, int] = {end_wf: len(segs) - 1}
    limit = sum(len(s) for s in graph.segments.values()) * 2 + 4

    while seg is not None and limit > 0:
        limit -= 1
        wf_segs = graph.segments[seg.wf]
        i = idx[seg.wf]
        prev = wf_segs[i - 1] if i > 0 else None
        prev_end = prev.end if prev is not None else seg.start
        use_dep = (
            seg.elastic
            and seg.dep_cycle >= 0
            and seg.dep_cycle >= prev_end
            and seg.dep_cycle <= cut
            and seg.dep_wf in graph.segments
        )
        if use_dep:
            contrib = cut - seg.dep_cycle
            if contrib > 0:
                totals[seg.cls] = totals.get(seg.cls, 0.0) + contrib
                chain.append((seg, contrib))
            target = graph.find(seg.dep_wf, seg.dep_cycle)
            if target is None:
                break
            cut = seg.dep_cycle
            seg = target
            idx[seg.wf] = graph.segments[seg.wf].index(target)
            continue
        contrib = cut - seg.start
        if contrib > 0:
            totals[seg.cls] = totals.get(seg.cls, 0.0) + contrib
            chain.append((seg, contrib))
        if prev is None:
            break
        cut = seg.start
        seg = prev
        idx[seg.wf] = i - 1
    return totals, chain


# ----------------------------------------------------------------------
# summary
# ----------------------------------------------------------------------
@dataclass
class BlameSummary:
    """JSON-able aggregation of one (or several merged) launches."""

    #: makespan in simulated cycles (summed across merged launches).
    end_cycles: float = 0.0
    #: sum of wavefront lifetimes (the denominator of blame fractions).
    wf_cycles: float = 0.0
    n_wavefronts: int = 0
    launches: int = 0
    #: per-class observed cycles (tiling: sums exactly to wf_cycles).
    cycles: Dict[str, float] = field(default_factory=dict)
    #: per-class -> detail (queue prefix) -> cycles.
    by_detail: Dict[str, Dict[str, float]] = field(default_factory=dict)
    #: per-class cycles on the critical path.
    critical: Dict[str, float] = field(default_factory=dict)
    #: what-if: class -> projected makespan at k=0.5 and k=0.
    projections: Dict[str, Dict[str, float]] = field(default_factory=dict)

    def fraction(self, cls: str) -> float:
        if self.wf_cycles <= 0:
            return 0.0
        return self.cycles.get(cls, 0.0) / self.wf_cycles

    def speedup(self, cls: str, key: str = "half") -> float:
        proj = self.projections.get(cls, {}).get(key, 0.0)
        if proj <= 0:
            return 1.0
        return self.end_cycles / proj

    def merge(self, other: "BlameSummary") -> "BlameSummary":
        """Fold another launch's summary in (sequential composition:
        makespans and projections add across launches)."""
        self.end_cycles += other.end_cycles
        self.wf_cycles += other.wf_cycles
        self.n_wavefronts += other.n_wavefronts
        self.launches += other.launches
        for cls, v in other.cycles.items():
            self.cycles[cls] = self.cycles.get(cls, 0.0) + v
        for cls, det in other.by_detail.items():
            mine = self.by_detail.setdefault(cls, {})
            for d, v in det.items():
                mine[d] = mine.get(d, 0.0) + v
        for cls, v in other.critical.items():
            self.critical[cls] = self.critical.get(cls, 0.0) + v
        for cls, proj in other.projections.items():
            mine = self.projections.setdefault(cls, {})
            for kk, v in proj.items():
                mine[kk] = mine.get(kk, 0.0) + v
        return self

    def to_json(self) -> dict:
        return {
            "schema": 1,
            "end_cycles": self.end_cycles,
            "wf_cycles": self.wf_cycles,
            "n_wavefronts": self.n_wavefronts,
            "launches": self.launches,
            "cycles": dict(self.cycles),
            "by_detail": {c: dict(d) for c, d in self.by_detail.items()},
            "critical": dict(self.critical),
            "projections": {c: dict(p) for c, p in self.projections.items()},
        }

    @classmethod
    def from_json(cls, data: dict) -> "BlameSummary":
        return cls(
            end_cycles=float(data.get("end_cycles", 0.0)),
            wf_cycles=float(data.get("wf_cycles", 0.0)),
            n_wavefronts=int(data.get("n_wavefronts", 0)),
            launches=int(data.get("launches", 0)),
            cycles={k: float(v) for k, v in data.get("cycles", {}).items()},
            by_detail={
                c: {d: float(v) for d, v in det.items()}
                for c, det in data.get("by_detail", {}).items()
            },
            critical={
                k: float(v) for k, v in data.get("critical", {}).items()
            },
            projections={
                c: {k: float(v) for k, v in p.items()}
                for c, p in data.get("projections", {}).items()
            },
        )


def summarize_graph(
    graph: BlameGraph, whatif: bool = True
) -> BlameSummary:
    """Aggregate a graph into a :class:`BlameSummary`."""
    s = BlameSummary(end_cycles=graph.total, launches=1)
    s.n_wavefronts = len(graph.segments)
    for segs in graph.segments.values():
        for seg in segs:
            d = seg.dur
            s.wf_cycles += d
            s.cycles[seg.cls] = s.cycles.get(seg.cls, 0.0) + d
            if seg.detail:
                det = s.by_detail.setdefault(seg.cls, {})
                det[seg.detail] = det.get(seg.detail, 0.0) + d
    crit, _chain = critical_path(graph)
    s.critical = crit
    if whatif:
        for cls in STALL_CLASSES:
            if s.cycles.get(cls, 0.0) <= 0:
                continue
            s.projections[cls] = {
                "half": replay(graph, {cls: 0.5}),
                "zero": replay(graph, {cls: 0.0}),
            }
    return s


def compute_blame(probe: BlameProbe, whatif: bool = True) -> BlameSummary:
    """Convenience: :func:`build_graph` + :func:`summarize_graph`."""
    return summarize_graph(build_graph(probe), whatif=whatif)


# ----------------------------------------------------------------------
# metrics publication
# ----------------------------------------------------------------------
def publish_blame(summary: BlameSummary, registry) -> None:
    """Publish headline blame metrics into a
    :class:`~repro.obs.registry.MetricsRegistry` so the regression
    sentinel can gate on attribution drift (``blame.frac.*`` carries a
    wide tolerance, ``blame.cycles.*`` is exact — see
    :mod:`repro.obs.regress`)."""
    for cls in ALL_CLASSES:
        if cls not in summary.cycles:
            continue
        registry.counter(f"blame.cycles.{cls}").inc(int(summary.cycles[cls]))
        registry.gauge(f"blame.frac.{cls}").set(
            round(summary.fraction(cls), 6)
        )


# ----------------------------------------------------------------------
# recording session
# ----------------------------------------------------------------------
class BlameSession(Session):
    """Session attaching a :class:`BlameProbe` to every launch.

    While attached, every ``Engine.launch`` records blame evidence;
    each launch is compiled to a :class:`BlameSummary` in
    :attr:`launches` as it ends.  Use :meth:`merged` for the whole
    session.  Not re-entrant.
    """

    def __init__(
        self,
        max_events: int = 2_000_000,
        whatif: bool = True,
        keep_graphs: bool = False,
        keep_probes: bool = False,
    ):
        self.max_events = max_events
        self.whatif = whatif
        self.keep_graphs = keep_graphs
        self.keep_probes = keep_probes
        self.launches: List[BlameSummary] = []
        self.graphs: List[BlameGraph] = []
        #: raw probes (Perfetto export with flow arrows needs them).
        self.probes: List[BlameProbe] = []

    def observers(self) -> List[BlameProbe]:
        return [BlameProbe(max_events=self.max_events, on_end=self._collect)]

    def _collect(self, probe: BlameProbe) -> None:
        graph = build_graph(probe)
        if self.keep_graphs:
            self.graphs.append(graph)
        if self.keep_probes:
            self.probes.append(probe)
        self.launches.append(summarize_graph(graph, whatif=self.whatif))

    def merged(self) -> BlameSummary:
        out = BlameSummary()
        for s in self.launches:
            out.merge(s)
        return out
