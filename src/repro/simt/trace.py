"""Optional execution tracing for simulated launches.

A :class:`Tracer` wraps a kernel and records one event per yielded op —
wavefront id, op kind, a compact detail string, the active-lane count,
and (when the launch carries a probe) the simulated cycle at which the
op was issued.  The trace therefore records *issue order* — which is
what one actually reads when debugging a scheduler ("which wavefront
grabbed the token?", "who hit queue-full first?") — and, probed,
*issue time* as well.

Usage::

    tracer = Tracer(max_events=10_000)
    engine.launch(tracer.wrap(kernel), n_wavefronts, observers=[tracer])
    print(tracer.render(limit=50))
    deq = tracer.filter(kind="AtomicRMW", detail_contains="wq.ctrl")

``Tracer`` extends :class:`~repro.simt.probe.Probe` purely so it can be
one of the launch's observers: the engine then keeps the launch probe's
``now`` at the current simulated cycle, which the wrapper stamps onto
each event.  Leaving the tracer out of ``observers`` keeps tracing
working — the wrapper reads ``ctx.probe.now`` whoever owns it, and
events record ``cycle=-1`` in a launch without any probe.

Tracing is strictly opt-in: the engine's hot path is untouched, and the
wrapper adds one tuple append per op to the traced launch only.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Generator, List, Optional

import numpy as np

from .engine import Kernel, KernelContext
from .ops import AtomicRMW, Compute, LocalOp, MemRead, MemWrite, Op
from .probe import Probe


@dataclass(frozen=True)
class TraceEvent:
    """One issued wavefront instruction."""

    #: monotonically increasing issue index across the launch.
    seq: int
    #: issuing wavefront.
    wf_id: int
    #: op class name ("MemRead", "AtomicRMW", ...).
    kind: str
    #: compact human-readable payload summary.
    detail: str
    #: simulated issue cycle (-1 when the launch carried no probe).
    cycle: int = -1
    #: lanes participating in the op (wavefront size for uniform ops).
    lanes: int = 0


def _describe(op: Op) -> str:
    if isinstance(op, (MemRead, MemWrite)):
        return f"{op.buf}[n={np.size(op.index)}]"
    if isinstance(op, AtomicRMW):
        return f"{op.buf}:{op.kind.value}[n={np.size(op.index)}]"
    if isinstance(op, (Compute, LocalOp)):
        return f"{op.cycles}cy"
    return ""


def _lane_count(op: Op, wavefront_size: int) -> int:
    if isinstance(op, (MemRead, MemWrite, AtomicRMW)):
        return int(np.size(op.index))
    return wavefront_size


class Tracer(Probe):
    """Records the op stream of a traced launch."""

    def __init__(self, max_events: int = 1_000_000):
        if max_events <= 0:
            raise ValueError("max_events must be positive")
        self.max_events = max_events
        self.events: List[TraceEvent] = []
        self.truncated = False

    def wrap(self, kernel: Kernel) -> Kernel:
        """Return a kernel that records every op the wrapped one yields."""

        def traced(ctx: KernelContext) -> Generator[Op, Op, None]:
            gen = kernel(ctx)
            probe = ctx.probe  # engine keeps probe.now at the sim clock
            wf_size = ctx.device.wavefront_size
            result = None
            while True:
                try:
                    op = gen.send(result)
                except StopIteration:
                    return
                if len(self.events) < self.max_events:
                    self.events.append(
                        TraceEvent(
                            seq=len(self.events),
                            wf_id=ctx.wf_id,
                            kind=type(op).__name__,
                            detail=_describe(op),
                            cycle=probe.now if probe is not None else -1,
                            lanes=_lane_count(op, wf_size),
                        )
                    )
                else:
                    self.truncated = True
                result = yield op

        return traced

    # ------------------------------------------------------------------
    def filter(
        self,
        wf_id: Optional[int] = None,
        kind: Optional[str] = None,
        detail_contains: Optional[str] = None,
    ) -> List[TraceEvent]:
        """Events matching every given criterion."""
        out = self.events
        if wf_id is not None:
            out = [e for e in out if e.wf_id == wf_id]
        if kind is not None:
            out = [e for e in out if e.kind == kind]
        if detail_contains is not None:
            out = [e for e in out if detail_contains in e.detail]
        return list(out)

    def counts_by_kind(self) -> dict:
        """Issued-op histogram (cross-check against SimStats)."""
        out: dict = {}
        for e in self.events:
            out[e.kind] = out.get(e.kind, 0) + 1
        return out

    def render(self, limit: int = 100, wf_id: Optional[int] = None) -> str:
        """The first ``limit`` (matching) events as an aligned listing.

        The op column sizes itself to the longest kind name (fixed-width
        formatting used to shear the detail column off long op names),
        the cycle column only appears when the launch carried a probe,
        and truncation/elision notes say how many events were dropped.
        """
        matching = self.filter(wf_id=wf_id)
        events = matching[:limit]
        timed = any(e.cycle >= 0 for e in events)
        kw = max([len("op")] + [len(e.kind) for e in events])
        header = f"{'seq':>6s} {'wf':>4s} "
        if timed:
            header += f"{'cycle':>10s} "
        header += f"{'op':{kw}s} {'lanes':>5s} detail"
        lines = [header]
        for e in events:
            row = f"{e.seq:6d} {e.wf_id:4d} "
            if timed:
                row += f"{e.cycle:10d} "
            row += f"{e.kind:{kw}s} {e.lanes:5d} {e.detail}"
            lines.append(row)
        if len(matching) > limit:
            lines.append(f"... {len(matching) - limit} more events not shown")
        if self.truncated:
            lines.append(
                f"... recording truncated at max_events={self.max_events}"
            )
        return "\n".join(lines)
