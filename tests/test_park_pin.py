"""Pins for the starved regime: RF/AN and GROW BFS on small road maps.

Persistent wavefronts on a narrow road-map frontier spend almost every
work cycle re-polling their ``dna`` slot and the done flag.  These
launches pin, per case, the simulated cycles, ``SimStats.snapshot()``,
the insertion order of ``custom``, the launch's ``EXEC_COUNTS`` deltas
(how many reads were elided, sampled vector-wide or per lane) and a
sha256 over every ``queue_*``, ``sched_*`` and ``wf_phase`` callback a
plain (non-flight) probe records.  The same launches must also come out
identical under the scalar execution path, a FIFO schedule controller
and ``EXEC_TIMING``; ``max_work_cycles`` must trip at the pinned
wavefront with the pinned message; a launch wedged by a phantom task
must still time out, and under a flight session its watchdog must
escalate at the pinned cycles (how it classifies the wedge is a
flight-recorder matter, tested in ``test_obs_flight.py``).

Regenerate the pinned JSON only for an intended behaviour change::

    PYTHONPATH=src python tests/test_park_pin.py --regen
"""

from __future__ import annotations

import hashlib
import json
import sys
from pathlib import Path

import pytest

from repro.bfs.common import alloc_graph_buffers, bfs_queue_capacity, read_costs
from repro.bfs.persistent import BFSWorker
from repro.core import GrowQueue, SchedulerControl, make_queue, persistent_kernel
from repro.graphs.generators import roadmap_graph
from repro.obs.flight import FlightSession
from repro.simt import FIJI, TESTGPU, Engine, SimulationTimeout, WedgeError
from repro.simt import engine as engine_mod
from repro.simt.engine import EXEC_COUNTS, exec_mode
from repro.verify.schedule import FifoController

from test_core_scheduler import CountdownWorker
from test_queue_parity import HashProbe

PIN = Path(__file__).with_name("park_pin.json")

DEVICES = {"TESTGPU": TESTGPU, "Fiji": FIJI}
#: grid side of the road map each device runs (seed 1, source vertex 0).
SIDES = {"TESTGPU": 14, "Fiji": 16}
#: GROW segment size: small, so segments link and recycle mid-launch.
GROW_SEG_CAP = 32

#: (queue, device, wavefronts)
LAUNCHES = [
    (queue, device, n_wf)
    for queue in ("RF/AN", "GROW")
    for device, n_wf in (("TESTGPU", 2), ("TESTGPU", 4), ("Fiji", 56))
]

#: the wedge: one real task, two counted, on a TESTGPU RF/AN launch.
WEDGE_MAX_CYCLES = 300_000
WEDGE_WINDOW = 20_000


def case_id(queue: str, device: str, n_wf: int) -> str:
    return f"{queue}-{device}x{n_wf}"


_GRAPHS: dict = {}


def _graph(device: str):
    g = _GRAPHS.get(device)
    if g is None:
        side = SIDES[device]
        g = _GRAPHS[device] = roadmap_graph(side, side, seed=1)
    return g


def launch(queue: str, device: str, n_wf: int, *, observers=(),
           params=None, engine_mode=None) -> dict:
    """One BFS launch; returns its result, costs and EXEC_COUNTS deltas."""
    dev = DEVICES[device]
    graph = _graph(device)
    eng = Engine(dev, exec_mode=engine_mode)
    alloc_graph_buffers(eng.memory, graph, 0)
    cap = bfs_queue_capacity(graph, dev, n_wf)
    q = (
        make_queue("RF/AN", cap) if queue == "RF/AN"
        else GrowQueue(cap, seg_cap=GROW_SEG_CAP)
    )
    sched = SchedulerControl()
    q.allocate(eng.memory)
    sched.allocate(eng.memory)
    q.seed(eng.memory, [0])
    sched.seed(eng.memory, 1)
    x0 = dict(EXEC_COUNTS)
    res = eng.launch(
        persistent_kernel(q, BFSWorker(), sched), n_wf,
        params=params, observers=observers,
    )
    costs = read_costs(eng.memory, graph.n_vertices)
    return {
        "cycles": int(res.cycles),
        "stats": json.loads(json.dumps(res.stats.snapshot())),
        "custom_order": list(res.stats.custom),
        "exec_counts": {k: EXEC_COUNTS[k] - x0[k] for k in EXEC_COUNTS},
        "costs_sha256": hashlib.sha256(costs.tobytes()).hexdigest(),
    }


def _sim(rec: dict) -> dict:
    """The simulated part of a launch record (no execution-path counts)."""
    return {k: v for k, v in rec.items() if k != "exec_counts"}


def observe(queue: str, device: str, n_wf: int) -> dict:
    """The pinned record of one launch (a plain and a probed run)."""
    probe = HashProbe()
    probed = launch(queue, device, n_wf, observers=[probe])
    plain = launch(queue, device, n_wf)
    assert probed == plain
    # a per-wavefront cap at half the busiest share trips mid-launch
    cap = plain["stats"]["custom"]["scheduler.work_cycles"] // (2 * n_wf)
    return {
        **plain,
        "probe_events": probe.n,
        "probe_sha256": probe.h.hexdigest(),
        "max_work_cycles": cap,
        "trip": trip_message(queue, device, n_wf, cap),
    }


def trip_message(queue: str, device: str, n_wf: int, cap: int) -> str:
    try:
        launch(queue, device, n_wf, params={"max_work_cycles": cap})
    except RuntimeError as exc:
        return str(exc)
    return ""


def wedge(observers=()) -> None:
    """RF/AN countdown with a phantom in-flight task: never terminates."""
    eng = Engine(TESTGPU)
    q = make_queue("RF/AN", capacity=128)
    sched = SchedulerControl()
    q.allocate(eng.memory)
    sched.allocate(eng.memory)
    q.seed(eng.memory, [1])
    sched.seed(eng.memory, 2)  # one phantom task
    eng.launch(
        persistent_kernel(q, CountdownWorker(), sched), 2,
        max_cycles=WEDGE_MAX_CYCLES, observers=observers,
    )


def watched_wedge() -> FlightSession:
    """The wedge under a flight session with a short watchdog window."""
    with FlightSession(
        watchdog=True, watchdog_opts={"window": WEDGE_WINDOW}
    ) as fs:
        with pytest.raises(WedgeError):
            wedge()
    return fs


def observe_wedge() -> dict:
    with pytest.raises(SimulationTimeout) as timeout:
        wedge()
    return {
        "timeout": str(timeout.value),
        "watchdog": [[c, a] for c, a, _ in watched_wedge().watchdog_events],
    }


def _load() -> dict:
    return json.loads(PIN.read_text())


@pytest.fixture(scope="module")
def pinned():
    return _load()


@pytest.mark.parametrize(
    "queue,device,n_wf", LAUNCHES, ids=[case_id(*c) for c in LAUNCHES]
)
def test_launch_matches_pin(pinned, queue, device, n_wf):
    want = pinned["launches"][case_id(queue, device, n_wf)]
    got = observe(queue, device, n_wf)
    assert got == want


@pytest.mark.parametrize(
    "queue,device,n_wf", LAUNCHES, ids=[case_id(*c) for c in LAUNCHES]
)
def test_observers_and_paths_leave_launch_unchanged(
    pinned, monkeypatch, queue, device, n_wf
):
    want = _sim(pinned["launches"][case_id(queue, device, n_wf)])
    want = {k: want[k] for k in ("cycles", "stats", "custom_order",
                                 "costs_sha256")}
    assert _sim(launch(queue, device, n_wf, engine_mode="scalar")) == want
    with exec_mode("scalar"):
        assert _sim(launch(queue, device, n_wf)) == want
    assert _sim(
        launch(queue, device, n_wf, observers=[FifoController()])
    ) == want
    monkeypatch.setattr(engine_mod, "EXEC_TIMING", True)
    assert _sim(launch(queue, device, n_wf)) == want


def test_phantom_task_wedge(pinned):
    assert observe_wedge() == pinned["wedge"]


def regen() -> None:
    data = {
        "launches": {case_id(*c): observe(*c) for c in LAUNCHES},
        "wedge": observe_wedge(),
    }
    PIN.write_text(json.dumps(data, indent=1, sort_keys=True) + "\n")
    print(f"wrote {PIN}")


if __name__ == "__main__":
    if "--regen" in sys.argv[1:]:
        regen()
    else:
        print(__doc__)
