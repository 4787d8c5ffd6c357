"""Host-time tracing for the benchmark: spans and per-layer self time.

The program itself carries no timers.  For the duration of one traced
job, :func:`instrumented` wraps the public entry points of each layer
from outside:

* ``Engine.launch`` (layer ``simt``), and the kernel generator it drives
  (layer ``core.scheduler``);
* ``DeviceQueue.acquire``/``publish`` on the job's queue object (layer
  ``core.queue``, wrapped by :meth:`LayerClock.queue`);
* ``BFSWorker.work_cycle`` (layer ``bfs.worker``);
* every probe callback of ``FlightRecorder`` plus the
  ``LivenessWatchdog`` hooks (layer ``obs``).

Kernel-side layers are generators that the engine resumes one simulated
op at a time, so each resume is timed separately.  Intervals nest: a
queue step runs inside a scheduler step, which runs inside
``Engine.launch``.  A layer's self time is its intervals minus the part
of them that nested intervals cover.

A per-resume span would mean millions of records per job, so only the
coarse boundaries are kept as individual spans (job, BFS call, launch,
verification).  Each fine-grained layer becomes one aggregate span per
job.  It carries the layer's summed self time and interval count, and the
bounds of the launch that contains it.
"""

from __future__ import annotations

import json
from contextlib import ExitStack, contextmanager
from pathlib import Path
from time import perf_counter
from typing import Iterator, List, Optional

#: the layers whose self time is split out, in nesting order.
LAYERS = ("simt", "core.scheduler", "core.queue", "bfs.worker", "obs")
SIMT, SCHED, QUEUE, WORKER, OBS = range(len(LAYERS))


class LayerClock:
    """Self time and interval counts per layer, from nested intervals."""

    def __init__(self) -> None:
        self.self_s: List[float] = [0.0] * len(LAYERS)
        self.calls: List[int] = [0] * len(LAYERS)
        # child time of each open interval; the bottom entry absorbs
        # top-level intervals so ``kids[-1]`` always exists.
        self._kids: List[float] = [0.0]

    def gen(self, layer: int, inner):
        """Drive generator ``inner``, timing each resume as ``layer``."""
        kids = self._kids
        selfs = self.self_s
        clock = perf_counter
        send = inner.send
        value = None
        try:
            while True:
                kids.append(0.0)
                t0 = clock()
                try:
                    op = send(value)
                finally:
                    dt = clock() - t0
                    selfs[layer] += dt - kids.pop()
                    kids[-1] += dt
                value = yield op
        except StopIteration as stop:
            return stop.value
        finally:
            inner.close()

    def func(self, layer: int, fn):
        """``fn`` wrapped so each call is one ``layer`` interval."""
        kids = self._kids
        selfs = self.self_s
        calls = self.calls
        clock = perf_counter

        def timed(*args, **kwargs):
            calls[layer] += 1
            kids.append(0.0)
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                dt = clock() - t0
                selfs[layer] += dt - kids.pop()
                kids[-1] += dt

        return timed

    def gen_func(self, layer: int, fn):
        """Generator function ``fn`` wrapped so its resumes are timed."""
        calls = self.calls

        def timed(*args, **kwargs):
            calls[layer] += 1
            return self.gen(layer, fn(*args, **kwargs))

        return timed

    def queue(self, q):
        """Time ``q.acquire``/``q.publish`` (one queue object, one job)."""
        q.acquire = self.gen_func(QUEUE, q.acquire)
        q.publish = self.gen_func(QUEUE, q.publish)
        return q


@contextmanager
def _patched(cls, name: str, value) -> Iterator[None]:
    """Set ``cls.name`` for the duration of the block, then restore it."""
    own = name in cls.__dict__
    old = cls.__dict__.get(name)
    setattr(cls, name, value)
    try:
        yield
    finally:
        if own:
            setattr(cls, name, old)
        else:
            delattr(cls, name)


@contextmanager
def instrumented(clock: LayerClock, launches: List[tuple]) -> Iterator[None]:
    """Wrap each layer's public entry points for the block.

    ``launches`` receives one ``(start, end)`` pair per ``Engine.launch``.
    Queue objects are wrapped separately (:meth:`LayerClock.queue`) by the
    factory that builds them.
    """
    from repro.bfs.persistent import BFSWorker
    from repro.obs.flight import FlightRecorder
    from repro.obs.watchdog import LivenessWatchdog
    from repro.simt.engine import Engine
    from repro.simt.probe import Probe

    launch = clock.func(SIMT, Engine.launch)

    def traced_launch(engine, kernel, *args, **kwargs):
        t0 = perf_counter()
        try:
            return launch(
                engine, clock.gen_func(SCHED, kernel), *args, **kwargs
            )
        finally:
            launches.append((t0, perf_counter()))

    work_cycle = clock.gen_func(WORKER, BFSWorker.work_cycle)
    with ExitStack() as stack:
        stack.enter_context(_patched(Engine, "launch", traced_launch))
        stack.enter_context(_patched(BFSWorker, "work_cycle", work_cycle))
        for name, attr in vars(Probe).items():
            if callable(attr) and not name.startswith("_"):
                fn = getattr(FlightRecorder, name)
                stack.enter_context(
                    _patched(FlightRecorder, name, clock.func(OBS, fn))
                )
        for name in ("launch_begin", "poll"):
            fn = getattr(LivenessWatchdog, name)
            stack.enter_context(
                _patched(LivenessWatchdog, name, clock.func(OBS, fn))
            )
        yield


class SpanLog:
    """Spans kept in memory and written as one JSON file at the end."""

    def __init__(self) -> None:
        self.spans: List[dict] = []

    def add(
        self,
        name: str,
        start: float,
        end: float,
        job: int,
        parent: Optional[int] = None,
        **extra,
    ) -> int:
        span_id = len(self.spans)
        self.spans.append(
            {
                "id": span_id,
                "name": name,
                "start": start,
                "end": end,
                "parent": parent,
                "job": job,
                **extra,
            }
        )
        return span_id

    def write(self, path: Path, meta: dict) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps({**meta, "spans": self.spans}) + "\n")
