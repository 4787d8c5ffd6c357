"""Cost-model conformance: closed-form cycle counts from the per-op table.

Each micro-kernel's cycle count follows from docs/simulator_model.md
("Per-op costs"): a ``MemRead`` resumes its wavefront ``issue + LAT +
(T-1)*pipe`` cycles after it issues, a ``MemWrite`` lands ``issue + LAT
+ (T-1)*pipe`` after its issue, a ``Compute(c)`` resumes after ``c``,
and an ``AtomicRMW`` whose busiest word receives ``k`` requests resumes
``issue + L2/2 + k*svc + L2/2`` after it issues (``k = 1`` for distinct
words).  CAS bursts on one word also pin their winners.  The sweeps run
over ``DeviceSpec`` latencies, so a change to how any of them is charged
fails here with the parameter named, not only as a golden diff.  The read kernels run a lone wavefront per CU, where a
parked poll loop is fast-forwarded in closed form.
"""

from __future__ import annotations

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.simt import (
    TESTGPU, AtomicKind, AtomicRMW, Compute, Engine, MemRead, MemWrite, Park,
)
from repro.simt.engine import EXEC_COUNTS

latencies = st.fixed_dictionaries({
    "issue_cycles": st.integers(1, 8),
    "l2_latency": st.integers(1, 200),
    "mem_latency": st.integers(1, 600),
    "mem_pipe_cycles": st.integers(0, 12),
})

atomic_costs = st.fixed_dictionaries({
    "issue_cycles": st.integers(1, 8),
    "l2_latency": st.integers(1, 200),
    "atomic_service": st.integers(1, 40),
})


def _device(lat: dict):
    return TESTGPU.with_(n_cus=2, **lat)


def _cost(lat: dict, hot: bool, trans: int) -> tuple:
    """One read's issue-to-resume cycles and the formula naming it."""
    latency = "l2_latency" if hot else "mem_latency"
    formula = f"issue_cycles + {latency} + (T-1)*mem_pipe_cycles"
    return (
        lat["issue_cycles"] + lat[latency]
        + (trans - 1) * lat["mem_pipe_cycles"],
        formula,
    )


def _alloc(eng: Engine, hot: bool) -> str:
    name = "ctrl" if hot else "bulk"
    eng.memory.alloc(name, 256)
    if hot:
        eng.memory.mark_hot(name)
    return name


@settings(max_examples=40, deadline=None)
@given(
    lat=latencies,
    hot=st.booleans(),
    trans=st.integers(1, 6),
    k=st.integers(2, 40),
    parked=st.booleans(),
)
def test_elided_reread_costs_a_fresh_read(lat, hot, trans, k, parked):
    # k reads of the same T-segment words, back to back: each costs
    # the table's MemRead whether it samples memory afresh (a new op
    # every time) or is elided (one re-yielded op, or a Park of it).
    index = np.arange(trans, dtype=np.int64) * 16
    d, formula = _cost(lat, hot, trans)
    runs = {}
    for how in ("fresh", "elided"):
        eng = Engine(_device(lat))
        buf = _alloc(eng, hot)

        def kernel(ctx, how=how, buf=buf):
            if how == "fresh":
                for _ in range(k):
                    yield MemRead(buf, index.copy())
                return
            r = MemRead(buf, index, trans=trans, prechecked=True)
            yield r
            if parked:
                park = Park((r,), limit=k - 2)
                yield park
                assert park.done == k - 2
            else:
                for _ in range(k - 1):
                    yield r

        x0 = EXEC_COUNTS["reads_elided"]
        res = eng.launch(kernel, 1)
        runs[how] = (res.cycles, EXEC_COUNTS["reads_elided"] - x0)
    for how, (cycles, elided) in runs.items():
        assert cycles == k * d, (
            f"{how} re-read: {k} reads took {cycles} cycles; closed form "
            f"k * ({formula}) = {k * d} with {lat}, T={trans}, hot={hot}"
        )
    assert runs["elided"][1] == k - 1, "the re-reads were not elided"


@settings(max_examples=60, deadline=None)
@given(lat=latencies, c=st.integers(1, 3000))
def test_parked_poll_woken_by_a_store_exits_in_closed_form(lat, c):
    # wavefront 0 parks on a hot flag word; wavefront 1 (the other CU)
    # computes for c cycles and stores to it.  The store lands at
    # S = c + issue_cycles + l2_latency; the poller's reads complete at
    # multiples of d = issue_cycles + l2_latency, and it leaves at the
    # first one that samples the store.
    dev = _device(lat)
    issue, l2 = lat["issue_cycles"], lat["l2_latency"]
    d = issue + l2
    s = c + issue + l2
    m, rem = divmod(s, d)
    # a completion on the store's own cycle was allocated at c, like the
    # store itself: it sees the store unless its issue was made before
    # the writer's Compute ended (only in the launch's first issue round)
    exit_k = m + 1 if rem or m == 2 else m
    polls = []

    def kernel(ctx):
        if ctx.wf_id == 1:
            yield Compute(c)
            yield MemWrite("flag", 0, 1)
            return
        r = MemRead("flag", np.zeros(1, dtype=np.int64), trans=1,
                    prechecked=True)
        yield r
        n = 1
        while not int(r.result[0]):
            park = Park((r,))
            yield park
            n += park.done + 1
        polls.append(n)

    eng = Engine(dev)
    eng.memory.alloc("flag", 8)
    eng.memory.mark_hot("flag")
    res = eng.launch(kernel, 2)
    assert (polls[0], res.cycles) == (exit_k, exit_k * d), (
        f"poll loop woken by a store at S = c + issue_cycles + l2_latency "
        f"= {s}: expected {exit_k} polls of d = issue_cycles + l2_latency "
        f"= {d} cycles, exiting at {exit_k * d}; got {polls[0]} polls and "
        f"{res.cycles} cycles with {lat}, c={c}"
    )


def _afa_cost(lat: dict, k: int) -> int:
    """``issue + L2/2 + k*svc + L2/2``: the atomic travels half the L2
    round trip there (rounded down) and the rest back."""
    l2 = lat["l2_latency"]
    return (lat["issue_cycles"] + l2 // 2 + k * lat["atomic_service"]
            + (l2 - l2 // 2))


@settings(max_examples=40, deadline=None)
@given(lat=atomic_costs, scalar=st.booleans())
def test_single_afa_costs_issue_half_l2_service_half_l2(lat, scalar):
    # one fetch-and-add, as a proxy-thread scalar or a one-lane batch
    old = []

    def kernel(ctx):
        index = 3 if scalar else np.array([3], dtype=np.int64)
        op = AtomicRMW("ctrl", index, AtomicKind.ADD, 5)
        yield op
        old.append(int(op.old[0]))

    eng = Engine(TESTGPU.with_(n_cus=1, **lat))
    eng.memory.alloc("ctrl", 8)
    res = eng.launch(kernel, 1)
    want = _afa_cost(lat, 1)
    assert res.cycles == want, (
        f"a single AFA took {res.cycles} cycles; closed form issue_cycles "
        f"+ l2_latency//2 + atomic_service + (l2_latency - l2_latency//2) "
        f"= {want} with {lat}, scalar={scalar}"
    )
    assert old == [0] and int(eng.memory["ctrl"][3]) == 5
    assert res.stats.atomic_service_cycles == lat["atomic_service"]


@settings(max_examples=40, deadline=None)
@given(lat=atomic_costs, k=st.integers(2, 16), batched=st.booleans())
def test_same_address_requests_serialize_k_times_service(lat, k, batched):
    # k requests to one hot word: one wavefront's k-lane batch, or k
    # wavefronts on k CUs issuing a one-lane AFA on the same cycle.  The
    # unit serves them one after another, so the last is back k * svc
    # after the first arrived.
    def kernel(ctx):
        n = k if batched else 1
        yield AtomicRMW("ctrl", np.zeros(n, dtype=np.int64), AtomicKind.ADD, 1)

    eng = Engine(TESTGPU.with_(n_cus=1 if batched else k, **lat))
    eng.memory.alloc("ctrl", 8)
    res = eng.launch(kernel, 1 if batched else k)
    want = _afa_cost(lat, k)
    how = "one batch" if batched else "k wavefronts"
    assert res.cycles == want, (
        f"{k} same-address requests ({how}) took {res.cycles} cycles; "
        f"closed form "
        f"issue_cycles + l2_latency//2 + k*atomic_service + (l2_latency "
        f"- l2_latency//2) = {want} with {lat}"
    )
    assert int(eng.memory["ctrl"][0]) == k
    assert res.stats.atomic_service_cycles == k * lat["atomic_service"]


def _afa_kernel(op: AtomicRMW, seen: list):
    def kernel(ctx):
        yield op
        seen.append(op)
    return kernel


def _atomic_engine(lat: dict, hot: bool) -> tuple:
    # a hot control word or a cold data buffer (hot buffers also track
    # cross-batch unit occupancy; both serialize within a batch)
    eng = Engine(TESTGPU.with_(n_cus=1, **lat))
    name = "ctrl" if hot else "bulk"
    eng.memory.alloc(name, 64 if hot else 4096)
    return eng, name


@settings(max_examples=40, deadline=None)
@given(lat=atomic_costs, hot=st.booleans(), data=st.data())
def test_distinct_address_batch_costs_one_service(lat, hot, data):
    # k lanes on k distinct words: k parallel units, one service time
    eng, name = _atomic_engine(lat, hot)
    size = eng.memory[name].size
    idx = data.draw(st.lists(st.integers(0, size - 1), min_size=1,
                             max_size=64, unique=True))
    k = len(idx)
    seen = []
    op = AtomicRMW(name, np.array(idx, dtype=np.int64), AtomicKind.ADD,
                   np.arange(1, k + 1, dtype=np.int64))
    res = eng.launch(_afa_kernel(op, seen), 1)
    want = _afa_cost(lat, 1)
    assert res.cycles == want, (
        f"a {k}-lane distinct-address batch took {res.cycles} cycles; "
        f"closed form issue_cycles + l2_latency//2 + atomic_service + "
        f"(l2_latency - l2_latency//2) = {want} whatever k, with {lat}, "
        f"hot={hot}"
    )
    assert eng.memory[name][idx].tolist() == list(range(1, k + 1))
    assert seen[0].old.tolist() == [0] * k
    assert res.stats.atomic_service_cycles == k * lat["atomic_service"]


@settings(max_examples=40, deadline=None)
@given(lat=atomic_costs, hot=st.booleans(), data=st.data())
def test_mixed_duplicate_batch_costs_its_longest_run(lat, hot, data):
    # requests to one word serialize, distinct words run in parallel:
    # the batch is back after m services, m the most requests any one
    # word receives
    eng, name = _atomic_engine(lat, hot)
    span = data.draw(st.integers(2, 8))
    base = data.draw(st.integers(0, eng.memory[name].size - span))
    idx = data.draw(st.lists(st.integers(base, base + span - 1),
                             min_size=3, max_size=64))
    m = max(idx.count(a) for a in set(idx))
    seen = []
    op = AtomicRMW(name, np.array(idx, dtype=np.int64), AtomicKind.ADD, 1)
    res = eng.launch(_afa_kernel(op, seen), 1)
    want = _afa_cost(lat, m)
    assert res.cycles == want, (
        f"a batch whose busiest word gets m={m} of {len(idx)} requests "
        f"took {res.cycles} cycles; closed form issue_cycles + "
        f"l2_latency//2 + m*atomic_service + (l2_latency - l2_latency//2) "
        f"= {want} with {lat}, hot={hot}, idx={idx}"
    )
    words = eng.memory[name]
    assert all(int(words[a]) == idx.count(a) for a in set(idx))
    # each lane sees the count of earlier lanes on its word
    assert seen[0].old.tolist() == [idx[:j].count(a) for j, a in enumerate(idx)]
    assert res.stats.atomic_service_cycles == len(idx) * lat["atomic_service"]


@settings(max_examples=40, deadline=None)
@given(lat=atomic_costs, k=st.integers(2, 64), chained=st.booleans(),
       data=st.data())
def test_cas_burst_winners(lat, k, chained, data):
    # k lanes CAS one word.  Same-expected: the first lane wins, every
    # later one sees its new value and fails.  Speculative tickets
    # (expected = base + rank, new = expected + 1): the lane whose
    # ticket matches the word wins and each later lane's ticket then
    # matches too.
    eng, name = _atomic_engine(lat, True)
    base = 100
    s = data.draw(st.integers(0, k)) if chained else 0
    eng.memory[name][0] = base + s
    if chained:
        exp = base + np.arange(k, dtype=np.int64)
        op = AtomicRMW(name, np.zeros(k, dtype=np.int64), AtomicKind.CAS,
                       exp, exp + 1)
        wins = [j >= s for j in range(k)]
        final = base + k if s < k else base + s
        old = [base + s] * min(s + 1, k) + [base + j for j in range(s + 1, k)]
    else:
        op = AtomicRMW(name, np.zeros(k, dtype=np.int64), AtomicKind.CAS,
                       base, base + 1)
        wins = [True] + [False] * (k - 1)
        final = base + 1
        old = [base] + [base + 1] * (k - 1)
    seen = []
    res = eng.launch(_afa_kernel(op, seen), 1)
    how = f"chained from {s}" if chained else "same-expected"
    assert seen[0].success.tolist() == wins, f"{how} burst of {k}"
    assert seen[0].old.tolist() == old, f"{how} burst of {k}"
    assert res.stats.cas_failures == wins.count(False), (
        f"{how} burst of {k}: {res.stats.cas_failures} CAS failures, "
        f"want {wins.count(False)}"
    )
    assert int(eng.memory[name][0]) == final
    want = _afa_cost(lat, k)
    assert res.cycles == want, (
        f"a {k}-lane {how} CAS burst took {res.cycles} cycles; closed "
        f"form issue_cycles + l2_latency//2 + k*atomic_service + "
        f"(l2_latency - l2_latency//2) = {want} with {lat}"
    )
