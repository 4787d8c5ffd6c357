"""Differential net for fast-forwarded parked wavefronts.

A parked wavefront alone on its CU may go *virtual*: the engine stops
replaying its elided polls one heap event at a time and folds them in
closed form when something could observe them.  Neither a
:class:`~repro.verify.schedule.FifoController` launch (a controlled
launch never replays) nor a scalar-mode launch (no read is ever elided)
parks that way, so each is a step-by-step reference the default launch
must match: cycles, ``SimStats``, the insertion order of ``custom``,
the final costs and, where a probe is attached, its event stream.

The cases cover RF/AN, GROW and SHARDED road-map BFS with one and with
several wavefronts per CU on TESTGPU and Fiji x56, plus micro-kernels
for the corners the fold must get exactly right: a store landing on
the completion cycle of a parked read (the tie), a buffer taking more
than 48 non-overlapping stores in one park period (the span-log prune),
stores on a parked read with a quiet test (quiet ones keep it virtual
and mark its next completion fresh, loud ones materialize it), a
``max_work_cycles`` trip, a launch every wavefront stays parked in
until ``max_cycles``, and a flight-session launch whose watchdog polls
and :class:`~repro.simt.engine.IssueView` totals are pinned in
``tests/fast_forward_pin.json``.

Regenerate the pinned JSON only for an intended behaviour change::

    PYTHONPATH=src python tests/test_fast_forward.py --regen
"""

from __future__ import annotations

import hashlib
import json
import sys
from pathlib import Path

import numpy as np
import pytest

from repro.bfs.common import alloc_graph_buffers, bfs_queue_capacity, read_costs
from repro.bfs.persistent import BFSWorker
from repro.core import (
    GrowQueue, SchedulerControl, ShardedQueue, make_queue, persistent_kernel,
)
from repro.graphs.generators import roadmap_graph
from repro.obs.flight import FlightSession
from repro.simt import (
    FIJI, TESTGPU, Compute, Engine, MemRead, MemWrite, Park,
    SimulationTimeout, WedgeError,
)
from repro.simt.engine import EXEC_COUNTS
from repro.verify.schedule import FifoController

from test_core_scheduler import CountdownWorker
from test_queue_parity import HashProbe

PIN = Path(__file__).with_name("fast_forward_pin.json")

DEVICES = {"TESTGPU": TESTGPU, "Fiji": FIJI}
SIDES = {"TESTGPU": 14, "Fiji": 16}


def _sharded(cap: int) -> ShardedQueue:
    return ShardedQueue(
        cap, n_shards=4, steal=True, steal_quantum=32, spin_threshold=1
    )


QUEUES = {
    "RF/AN": lambda cap: make_queue("RF/AN", cap),
    "GROW": lambda cap: GrowQueue(cap, seg_cap=32),
    "SHARDED": _sharded,
}

#: (queue, device, wavefronts): one wavefront per CU, then several.
LAUNCHES = [
    (queue, device, n_wf)
    for queue in QUEUES
    for device, n_wf in (
        ("TESTGPU", 2), ("TESTGPU", 6), ("Fiji", 56), ("Fiji", 112)
    )
]

_GRAPHS: dict = {}


def _graph(device: str):
    g = _GRAPHS.get(device)
    if g is None:
        side = SIDES[device]
        g = _GRAPHS[device] = roadmap_graph(side, side, seed=3)
    return g


def case_id(queue: str, device: str, n_wf: int) -> str:
    return f"{queue}-{device}x{n_wf}"


class QuietHashProbe(HashProbe):
    """A :class:`HashProbe` that, like the flight recorder, takes one
    mark per park instead of the calls of every idle cycle, so parked
    wavefronts replay (and fast-forward) with a probe attached."""

    wants_idle_cycles = False


class PollLog:
    """A watchdog that never escalates: it records, at every poll, the
    cycle, the live count and the launch's :class:`IssueView` totals."""

    def __init__(self, every: int):
        self.every = every
        self.view = None
        self.polls: list = []

    def track_issues(self, view) -> None:
        self.view = view

    def launch_begin(self, device, n_wavefronts: int) -> int:
        return self.every

    def poll(self, now: int, live: int) -> int:
        v = self.view
        self.polls.append((
            now, live, v.issues(),
            sorted(v.cu_last_issue().items()),
            sorted(v.wf_last_issue().items()),
        ))
        return now + self.every


def _digest(obj) -> str:
    return hashlib.sha256(repr(obj).encode()).hexdigest()


def launch(queue: str, device: str, n_wf: int, *, observers=(),
           params=None, engine_mode=None, stats_box=None) -> dict:
    """One road-map BFS launch and its simulated record."""
    dev = DEVICES[device]
    graph = _graph(device)
    eng = Engine(dev, exec_mode=engine_mode)
    alloc_graph_buffers(eng.memory, graph, 0)
    q = QUEUES[queue](bfs_queue_capacity(graph, dev, n_wf))
    sched = SchedulerControl()
    q.allocate(eng.memory)
    sched.allocate(eng.memory)
    q.seed(eng.memory, [0])
    sched.seed(eng.memory, 1)
    kernel = persistent_kernel(q, BFSWorker(), sched)
    if stats_box is not None:
        inner = kernel

        def kernel(ctx):
            stats_box[:] = [ctx.stats]
            return inner(ctx)

    x0 = dict(EXEC_COUNTS)
    res = eng.launch(kernel, n_wf, params=params, observers=observers)
    costs = read_costs(eng.memory, graph.n_vertices)
    return {
        "cycles": int(res.cycles),
        "stats": json.loads(json.dumps(res.stats.snapshot())),
        "custom_order": list(res.stats.custom),
        "costs_sha256": hashlib.sha256(costs.tobytes()).hexdigest(),
        "reads": {k: EXEC_COUNTS[k] - x0[k]
                  for k in ("reads_elided", "reads_vector")},
    }


def _sim(rec: dict) -> dict:
    return {k: v for k, v in rec.items() if k != "reads"}


@pytest.mark.parametrize(
    "queue,device,n_wf", LAUNCHES, ids=[case_id(*c) for c in LAUNCHES]
)
def test_default_launch_matches_step_by_step_references(queue, device, n_wf):
    got = launch(queue, device, n_wf)
    fifo = launch(queue, device, n_wf, observers=[FifoController()])
    # a controlled launch makes the same elision decisions, one resume
    # per read
    assert got == fifo
    assert _sim(launch(queue, device, n_wf, engine_mode="scalar")) == _sim(got)


@pytest.mark.parametrize(
    "queue,device,n_wf",
    [c for c in LAUNCHES if c[2] in (6, 56)],
    ids=[case_id(*c) for c in LAUNCHES if c[2] in (6, 56)],
)
def test_probe_stream_matches_fifo(queue, device, n_wf):
    streams = []
    for observers in ((), (FifoController(),)):
        probe = HashProbe()
        rec = launch(queue, device, n_wf, observers=(probe, *observers))
        streams.append((rec, probe.n, probe.h.hexdigest()))
    assert streams[0] == streams[1]


def test_max_work_cycles_trip_matches_fifo():
    outcomes = []
    for observers in ((), (FifoController(),)):
        box: list = []
        with pytest.raises(RuntimeError, match="max_work_cycles") as exc:
            launch("RF/AN", "Fiji", 56, observers=observers, stats_box=box,
                   params={"max_work_cycles": 40})
        stats = box[0]
        outcomes.append((str(exc.value), stats.snapshot(), list(stats.custom)))
    assert outcomes[0] == outcomes[1]


class ViewLog(QuietHashProbe):
    """Reads the launch's :class:`IssueView` from inside probe
    callbacks: at every token delivery and every wavefront exit."""

    def __init__(self) -> None:
        super().__init__()
        self.view = None
        self.reads: list = []

    def track_issues(self, view) -> None:
        self.view = view

    def _read(self, what) -> None:
        v = self.view
        self.reads.append((what, int(self.now), v.issues(),
                           sorted(v.cu_last_issue().items()),
                           sorted(v.wf_last_issue().items())))

    def queue_deliver(self, prefix, slots, tokens) -> None:
        super().queue_deliver(prefix, slots, tokens)
        self._read("deliver")

    def on_exit(self, cycle, wf) -> None:
        self._read(("exit", wf))


@pytest.mark.parametrize("queue", ["RF/AN", "SHARDED"])
def test_issue_view_read_mid_launch_matches_fifo(queue):
    runs = []
    for observers in ((), (FifoController(),)):
        probe = ViewLog()
        launch(queue, "Fiji", 56, observers=(probe, *observers))
        runs.append(probe.reads)
    assert runs[0] == runs[1]


# ----------------------------------------------------------------------
# micro-kernels
# ----------------------------------------------------------------------
def _poller(buf: str, word: int, trans: int, log: list):
    """Parks on ``buf[word]`` until it reads non-zero; logs the number
    of polls and the cycle it saw the value at."""
    idx = np.array([word], dtype=np.int64)

    def run(ctx):
        r = MemRead(buf, idx, trans=trans, prechecked=True)
        yield r
        polls = 1
        while not int(r.result[0]):
            park = Park((r,))
            yield park
            polls += park.done + 1
        log.append((ctx.wf_id, polls, int(ctx.probe.now) if ctx.probe else 0))

    return run


def _micro(kernels: dict, n_wf: int, device=TESTGPU, observers=(),
           max_cycles=20_000_000_000, words: int = 128) -> dict:
    eng = Engine(device)
    eng.memory.alloc("flag", words)
    eng.memory.alloc("data", 4096)
    eng.memory.mark_hot("flag")

    def kernel(ctx):
        k = kernels.get(ctx.wf_id)
        if k is not None:
            yield from k(ctx)

    x0 = dict(EXEC_COUNTS)
    res = eng.launch(kernel, n_wf, observers=observers, max_cycles=max_cycles)
    return {
        "cycles": res.cycles,
        "stats": res.stats.snapshot(),
        "custom_order": list(res.stats.custom),
        "reads": {k: EXEC_COUNTS[k] - x0[k]
                  for k in ("reads_elided", "reads_vector")},
    }


def _store_after(delay: int, buf: str, word: int, value: int = 1):
    def run(ctx):
        if delay:
            yield Compute(delay)
        yield MemWrite(buf, word, value)

    return run


@pytest.mark.parametrize("n_wf", [2, 4])
def test_store_on_the_completion_cycle_of_a_parked_read(n_wf):
    # the poller's period on the hot flag is issue + l2 latency; the
    # writer's store lands on every residue of it, the exact completion
    # cycle of a parked read included (both tie orders occur: the
    # completion's event was allocated one period earlier, the store's
    # at its issue).  With four wavefronts the extra ones exit at once.
    period = TESTGPU.issue_cycles + TESTGPU.l2_latency
    for delay in range(200, 200 + 2 * period + 1):
        runs = []
        for observers in ((), (FifoController(),)):
            log: list = []
            probe = QuietHashProbe()
            rec = _micro(
                {0: _poller("flag", 3, 1, log),
                 1: _store_after(delay, "flag", 3)},
                n_wf, observers=(probe, *observers),
            )
            runs.append((rec, log, probe.n, probe.h.hexdigest()))
        assert runs[0] == runs[1], f"store after Compute({delay})"


def test_many_non_overlapping_stores_in_one_park_period():
    # a 60-transaction read parks for 44 + 59 * 4 cycles per poll; once
    # it has parked a while, the writer lands 60 single-word stores next
    # to it within one poll, so the span log prunes past the read's last
    # sample and its next completion samples fresh.  A second poller
    # watches a word the writer never touches.
    def writer(ctx):
        yield Compute(2000)
        for w in range(1, 61):
            yield MemWrite("data", w, w)
        yield Compute(2000)
        yield MemWrite("data", 0, 1)
        yield MemWrite("data", 200, 1)

    dev = TESTGPU.with_(n_cus=3)
    runs = []
    for observers in ((), (FifoController(),)):
        log: list = []
        rec = _micro(
            {0: _poller("data", 0, 60, log), 1: writer,
             2: _poller("data", 200, 1, log)},
            3, device=dev, observers=observers,
        )
        runs.append((rec, sorted(log)))
    assert runs[0] == runs[1]
    # the prune really forced fresh samples of the parked read
    assert runs[0][0]["reads"]["reads_vector"] > 4


# ----------------------------------------------------------------------
# quiet bumps: stores landing on a parked read that has a quiet test
# ----------------------------------------------------------------------
#: a probe of ``flag[4:6]`` is quiet while both words stay below this.
QUIET_BELOW = 100
#: the prober wakes (resumes its generator) every this many completions.
WAKE_EVERY = 25


def _quiet(r) -> bool:
    return int(r.result.max()) < QUIET_BELOW


def _prober(log: list, trans: int = 1, replayed=None):
    """Parks on (home poll of ``data[0]``, probe of ``flag[4:6]``) like
    an idle SHARDED thief: the probe has a quiet test, the home poll
    none.  It wakes every ``WAKE_EVERY`` completions and exits at a loud
    probe, logging what it sees at each: the completion count, the read
    that resumed it, its ``fresh`` flag and both reads' results.  Each
    quiet fresh probe that the engine tested at its completion (a
    per-event replay), not when the store landed on the words of a
    virtual one, is appended to ``replayed``."""
    h_idx = np.zeros(1, dtype=np.int64)
    p_idx = np.array([4, 5], dtype=np.int64)

    def run(ctx):
        h = MemRead("data", h_idx, trans=1, prechecked=True)
        p = MemRead("flag", p_idx, trans=trans, prechecked=True)
        reads = (h, p)

        def engine_quiet(r) -> bool:
            # the replay tests the read itself, a store on a virtual
            # read a stand-in holding the words it left
            q = _quiet(r)
            if q and r is p and replayed is not None:
                replayed.append(int(ctx.probe.now))
            return q

        yield h
        yield p
        done = cur = 0
        while True:
            park = Park(reads, limit=WAKE_EVERY - 1 - done % WAKE_EVERY,
                        start=cur, quiet=(None, engine_quiet))
            yield park
            done += park.done + 1
            i = (cur + park.done) % 2
            r = reads[i]
            loud = r is p and r.fresh and not _quiet(r)
            if loud or done % WAKE_EVERY == 0:
                ctx.stats.custom["quiet.loud" if loud else "quiet.wake"] += 1
                ctx.probe.wf_phase(ctx.wf_id, "wake", str(r.fresh))
                log.append((done, i, r.fresh, h.result.tolist(),
                            p.result.tolist(), int(ctx.probe.now)))
            if loud:
                return
            cur = 1 - i

    return run


def _stores(*steps):
    """Stores ``flag[word] = value`` after ``Compute(delay)``, per step."""

    def run(ctx):
        for delay, word, value in steps:
            if delay:
                yield Compute(delay)
            yield MemWrite("flag", word, value)

    return run


def _quiet_runs(*steps, trans: int = 1, replayed=None) -> list:
    """The prober against ``steps`` on the other CU, by default and
    under a FIFO controller: each run's record, resume log and probe
    stream.  The default run's replayed quiet probes go to
    ``replayed``."""
    runs = []
    for observers in ((), (FifoController(),)):
        log: list = []
        probe = QuietHashProbe()
        # a prober that misses its loud store times out here, early
        prober = _prober(log, trans, None if observers else replayed)
        rec = _micro({0: prober, 1: _stores(*steps)}, 2,
                     observers=(probe, *observers), max_cycles=100_000)
        runs.append((rec, log, probe.n, probe.h.hexdigest()))
    return runs


#: the prober's park period with a one-transaction probe: the home poll
#: (issue + mem latency) and the hot probe (issue + L2 latency).
QUIET_PERIOD = 2 * TESTGPU.issue_cycles + TESTGPU.mem_latency + TESTGPU.l2_latency
#: the first store's ``Compute`` delay: the prober has parked for
#: eighteen periods by then, and the stores land between two wakes
QUIET_AT = 1200


def test_quiet_store_on_every_residue_of_the_period():
    # one quiet store on each residue of the prober's period (the exact
    # completion cycle of the probe included), a second quiet store to
    # the other word later, then a loud one
    replayed: list = []
    for delay in range(QUIET_AT, QUIET_AT + 2 * QUIET_PERIOD + 1):
        runs = _quiet_runs((delay, 4, 7), (700, 5, 9), (900, 4, 1000),
                           replayed=replayed)
        assert runs[0] == runs[1], f"quiet store after Compute({delay})"
        log = runs[0][1]
        assert log[-1][4] == [1000, 9] and log[-1][2] is True
    # every quiet store landed on a virtual probe and kept it virtual:
    # a materialized one would have replayed its fresh quiet sample
    assert replayed == [], "a quiet store materialized the probe"


@pytest.mark.parametrize("gap", [0, 50])
def test_two_quiet_stores_between_completions_sample_once(gap):
    # two stores `gap + issue` cycles apart: unless a probe completes
    # between them, the next probe samples both in one fresh read.  With
    # a gap of 50 the second store's event was allocated before the
    # probe's, so where it lands on the probe's completion cycle it
    # sorts first, and that completion samples both stores.
    fresh = []
    replayed: list = []
    for delay in range(QUIET_AT, QUIET_AT + QUIET_PERIOD):
        runs = _quiet_runs((delay, 4, 7), (gap, 5, 8), (900, 4, 1000),
                           replayed=replayed)
        assert runs[0] == runs[1], f"quiet stores after Compute({delay})"
        fresh.append(runs[0][0]["reads"]["reads_vector"])
    assert replayed == [], "a quiet store materialized the probe"
    # two first samples, then the quiet pair, then the loud store; the
    # pair straddles a probe completion on at most gap + issue + 1
    # residues
    assert sorted(set(fresh)) == [4, 5]
    assert fresh.count(5) <= gap + TESTGPU.issue_cycles + 1


def test_quiet_then_loud_store_before_one_completion():
    for delay in range(QUIET_AT, QUIET_AT + QUIET_PERIOD):
        runs = _quiet_runs((delay, 4, 7), (0, 5, 1000))
        assert runs[0] == runs[1], f"stores after Compute({delay})"
        assert runs[0][1][-1][4] == [7, 1000]


def test_loud_then_quiet_store_the_replay_goes_on():
    # when no probe completes between the two stores, the loud one is
    # never sampled and the prober stays parked until the last store
    stayed = 0
    for delay in range(QUIET_AT, QUIET_AT + QUIET_PERIOD):
        runs = _quiet_runs((delay, 4, 1000), (0, 4, 7), (900, 5, 1000))
        assert runs[0] == runs[1], f"stores after Compute({delay})"
        stayed += runs[0][1][-1][4] == [7, 1000]
    assert stayed >= QUIET_PERIOD - TESTGPU.issue_cycles - 1


@pytest.mark.parametrize("words", ["span", "elsewhere"])
def test_more_than_48_quiet_stores_in_one_period(words):
    # a 60-transaction probe parks for 44 + 20 + 59 * 4 cycles per
    # period; 60 quiet stores within one period prune the span log,
    # landing on the probe's words or on others of the same buffer
    target = (lambda i: 4 + i % 2) if words == "span" else (lambda i: 20 + i)
    steps = [(2000 if i == 0 else 0, target(i), 1 + i) for i in range(60)]
    runs = _quiet_runs(*steps, (2000, 5, 1000), trans=60)
    assert runs[0] == runs[1]
    assert runs[0][1][-1][4][1] == 1000


def test_store_on_one_word_of_a_two_word_span():
    # stores to word 5 only, and next to the span: the quiet test sees
    # both words of the probe
    for delay in range(QUIET_AT, QUIET_AT + QUIET_PERIOD, 5):
        runs = _quiet_runs(
            (delay, 5, 7), (400, 6, 1000), (400, 3, 1000), (400, 5, 1000)
        )
        assert runs[0] == runs[1], f"stores after Compute({delay})"
        assert runs[0][1][-1][4] == [0, 1000]


# ----------------------------------------------------------------------
# wedges: every wavefront parked until max_cycles or the watchdog
# ----------------------------------------------------------------------
WEDGE_MAX_CYCLES = 250_000


def _wedge_rec(observers=(), queue="RF/AN", device="TESTGPU", n_wf=2):
    """A countdown launch with one phantom in-flight task: after the
    real task, every wavefront parks on the done flag forever."""
    dev = DEVICES[device]
    eng = Engine(dev)
    q = QUEUES[queue](128)
    sched = SchedulerControl()
    q.allocate(eng.memory)
    sched.allocate(eng.memory)
    q.seed(eng.memory, [1])
    sched.seed(eng.memory, 2)
    box: list = []
    inner = persistent_kernel(q, CountdownWorker(), sched)

    def kernel(ctx):
        box[:] = [ctx.stats]
        return inner(ctx)

    polls = PollLog(7_919)
    with pytest.raises((SimulationTimeout, WedgeError)) as exc:
        eng.launch(kernel, n_wf, max_cycles=WEDGE_MAX_CYCLES,
                   observers=(polls, *observers))
    v = polls.view
    snap = getattr(exc.value, "snapshot", None)
    return {
        "error": f"{type(exc.value).__name__}: {exc.value}",
        # the recorder's clock and issue state at the final escalation
        "snapshot": snap and [snap["cycle"], snap["cus"],
                              snap["progress"]["issues"]],
        "stats": box[0].snapshot(),
        "issues": [v.issues(), sorted(v.cu_last_issue().items()),
                   sorted(v.wf_last_issue().items())],
        "polls": polls.polls,
    }


@pytest.mark.parametrize(
    "queue,device,n_wf",
    [("RF/AN", "TESTGPU", 2), ("SHARDED", "TESTGPU", 4),
     ("GROW", "Fiji", 56)],
)
def test_all_parked_launch_times_out_like_fifo(queue, device, n_wf):
    got = _wedge_rec(queue=queue, device=device, n_wf=n_wf)
    assert got["error"].startswith("SimulationTimeout")
    assert got == _wedge_rec((FifoController(),), queue, device, n_wf)


def test_all_parked_launch_wedges_at_the_same_poll():
    runs = []
    for observers in ((), (FifoController(),)):
        with FlightSession(
            watchdog=True, watchdog_opts={"window": 20_000}
        ) as fs:
            rec = _wedge_rec(observers)
        runs.append((rec, [list(e) for e in fs.watchdog_events]))
    assert runs[0][0]["error"].startswith("WedgeError")
    assert runs[0] == runs[1]


# ----------------------------------------------------------------------
# flight-session launches, pinned
# ----------------------------------------------------------------------
FLIGHT = [("RF/AN", "Fiji", 56), ("SHARDED", "Fiji", 56),
          ("GROW", "Fiji", 56), ("RF/AN", "TESTGPU", 2)]


def observe_flight(queue: str, device: str, n_wf: int) -> dict:
    """A flight-session launch with a polling observer and a quiet probe:
    the watchdog poll cycles, the IssueView totals seen at each poll and
    at the end, and the probe stream."""
    polls = PollLog(2_003)
    probe = QuietHashProbe()
    with FlightSession(watchdog=True) as fs:
        rec = launch(queue, device, n_wf, observers=(polls, probe))
    last = fs.last
    return {
        **_sim(rec),
        # every poll's cycle, live count and IssueView totals, hashed;
        # the first and last poll's cycle and issue count in the clear
        "polls": len(polls.polls),
        "poll_ends": [[p[0], p[2]] for p in (polls.polls[0], polls.polls[-1])],
        "polls_sha256": _digest(polls.polls),
        "issues": last.issues,
        "last_issue_sha256": _digest(
            (sorted(last.cus.items()), sorted(last.wf_last_issue.items()))
        ),
        "probe_events": probe.n,
        "probe_sha256": probe.h.hexdigest(),
    }


@pytest.fixture(scope="module")
def pinned():
    return json.loads(PIN.read_text())


@pytest.mark.parametrize(
    "queue,device,n_wf", FLIGHT, ids=[case_id(*c) for c in FLIGHT]
)
def test_flight_launch_matches_pin(pinned, queue, device, n_wf):
    assert observe_flight(queue, device, n_wf) == pinned[
        case_id(queue, device, n_wf)
    ]


def regen() -> None:
    data = {case_id(*c): observe_flight(*c) for c in FLIGHT}
    PIN.write_text(json.dumps(data, indent=1, sort_keys=True) + "\n")
    print(f"wrote {PIN}")


if __name__ == "__main__":
    if "--regen" in sys.argv[1:]:
        regen()
    else:
        print(__doc__)
