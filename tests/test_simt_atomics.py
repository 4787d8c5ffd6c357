"""Unit and property tests for the atomic system's service paths.

The engine routes atomic batches through four shapes (scalar,
same-address closed forms, distinct-address vectorized, segmented closed
forms for mixed duplicates), each a closed form of the per-lane walk
that ``force_general`` runs; these tests pin their semantics against a
trivial sequential reference and the walk,
including the timing contracts (serialization per address, parallel
service across addresses, hot-buffer cross-batch occupancy).
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.simt import AtomicKind, AtomicRMW, DeviceSpec, GlobalMemory, SimStats
from repro.simt.atomics import AtomicSystem
from repro.simt.memory import HOT_BUFFER_WORDS


def make_system(buf_size=8, fill=0):
    dev = DeviceSpec(name="t", n_cus=1, atomic_service=5, l2_latency=10)
    mem = GlobalMemory()
    mem.alloc("b", buf_size, fill=fill)
    stats = SimStats()
    return AtomicSystem(dev, mem, stats), mem, stats


def sequential_reference(values, idx, kind, operand, operand2=None):
    """Lane-order walk — the semantics every fast path must match."""
    values = list(values)
    old, success = [], []
    for j in range(len(idx)):
        a = idx[j]
        cur = values[a]
        old.append(cur)
        if kind is AtomicKind.CAS:
            ok = cur == operand[j]
            success.append(ok)
            if ok:
                values[a] = operand2[j]
        elif kind is AtomicKind.ADD:
            values[a] = cur + operand[j]
        elif kind is AtomicKind.MIN:
            values[a] = min(cur, operand[j])
        elif kind is AtomicKind.MAX:
            values[a] = max(cur, operand[j])
        elif kind is AtomicKind.EXCH:
            values[a] = operand[j]
    return values, old, success


class TestScalarPath:
    @pytest.mark.parametrize(
        "kind,operand,expected_val,expected_old",
        [
            (AtomicKind.ADD, 7, 17, 10),
            (AtomicKind.MIN, 3, 3, 10),
            (AtomicKind.MIN, 30, 10, 10),
            (AtomicKind.MAX, 30, 30, 10),
            (AtomicKind.EXCH, 5, 5, 10),
        ],
    )
    def test_rmw_kinds(self, kind, operand, expected_val, expected_old):
        sys_, mem, _ = make_system(fill=10)
        op = AtomicRMW("b", 0, kind, operand)
        sys_.service(op, arrival=100)
        assert mem["b"][0] == expected_val
        assert int(op.old[0]) == expected_old
        assert bool(op.success[0])

    def test_cas_success_and_failure(self):
        sys_, mem, stats = make_system(fill=10)
        ok = AtomicRMW("b", 0, AtomicKind.CAS, 10, 99)
        sys_.service(ok, 0)
        assert mem["b"][0] == 99 and bool(ok.success[0])
        bad = AtomicRMW("b", 0, AtomicKind.CAS, 10, 5)
        sys_.service(bad, 0)
        assert mem["b"][0] == 99 and not bool(bad.success[0])
        assert stats.cas_failures == 1

    def test_hot_buffer_serializes_across_batches(self):
        sys_, mem, _ = make_system(buf_size=2)  # hot (tiny) buffer
        end1 = sys_.service(AtomicRMW("b", 0, AtomicKind.ADD, 1), arrival=0)
        end2 = sys_.service(AtomicRMW("b", 0, AtomicKind.ADD, 1), arrival=0)
        assert end2 == end1 + 5  # queued behind the first service

    def test_cold_buffer_does_not_track_cross_batch(self):
        sys_, mem, _ = make_system(buf_size=HOT_BUFFER_WORDS + 1)
        end1 = sys_.service(AtomicRMW("b", 0, AtomicKind.ADD, 1), arrival=0)
        end2 = sys_.service(AtomicRMW("b", 0, AtomicKind.ADD, 1), arrival=0)
        assert end1 == end2 == 5


class TestSameAddressPath:
    def test_add_closed_form(self):
        sys_, mem, _ = make_system(fill=100)
        op = AtomicRMW(
            "b", np.zeros(4, dtype=np.int64), AtomicKind.ADD,
            np.array([1, 2, 3, 4]),
        )
        sys_.service(op, 0)
        assert mem["b"][0] == 110
        assert op.old.tolist() == [100, 101, 103, 106]

    def test_min_max_running(self):
        sys_, mem, _ = make_system(fill=50)
        op = AtomicRMW(
            "b", np.zeros(4, dtype=np.int64), AtomicKind.MIN,
            np.array([60, 40, 45, 30]),
        )
        sys_.service(op, 0)
        assert mem["b"][0] == 30
        assert op.old.tolist() == [50, 50, 40, 40]

        sys2, mem2, _ = make_system(fill=5)
        op2 = AtomicRMW(
            "b", np.zeros(3, dtype=np.int64), AtomicKind.MAX,
            np.array([3, 9, 7]),
        )
        sys2.service(op2, 0)
        assert mem2["b"][0] == 9
        assert op2.old.tolist() == [5, 5, 9]

    def test_exch_chain(self):
        sys_, mem, _ = make_system(fill=1)
        op = AtomicRMW(
            "b", np.zeros(3, dtype=np.int64), AtomicKind.EXCH,
            np.array([2, 3, 4]),
        )
        sys_.service(op, 0)
        assert mem["b"][0] == 4
        assert op.old.tolist() == [1, 2, 3]

    def test_cas_ladder(self):
        sys_, mem, stats = make_system(fill=0)
        expected = np.array([0, 1, 2, 9])
        op = AtomicRMW(
            "b", np.zeros(4, dtype=np.int64), AtomicKind.CAS,
            expected, expected + 1,
        )
        sys_.service(op, 0)
        assert op.success.tolist() == [True, True, True, False]
        assert mem["b"][0] == 3
        assert stats.cas_failures == 1

    def test_timing_full_serialization(self):
        sys_, mem, _ = make_system()
        op = AtomicRMW("b", np.zeros(6, dtype=np.int64), AtomicKind.ADD, 1)
        end = sys_.service(op, arrival=100)
        assert end == 100 + 6 * 5


class TestDistinctPath:
    def test_vectorized_apply(self):
        sys_, mem, _ = make_system(buf_size=200, fill=10)
        idx = np.array([0, 5, 7, 100])
        op = AtomicRMW("b", idx, AtomicKind.ADD, np.array([1, 2, 3, 4]))
        end = sys_.service(op, arrival=50)
        assert end == 55  # parallel units: one service time
        assert mem["b"][idx].tolist() == [11, 12, 13, 14]
        assert op.old.tolist() == [10, 10, 10, 10]

    def test_cas_vectorized(self):
        sys_, mem, _ = make_system(buf_size=100, fill=10)
        idx = np.array([1, 2, 3])
        op = AtomicRMW(
            "b", idx, AtomicKind.CAS,
            np.array([10, 99, 10]), np.array([20, 20, 20]),
        )
        sys_.service(op, 0)
        assert op.success.tolist() == [True, False, True]
        assert mem["b"][1:4].tolist() == [20, 10, 20]


class TestGeneralPath:
    @given(
        idx=st.lists(st.integers(0, 3), min_size=2, max_size=12),
        operands=st.lists(st.integers(-5, 5), min_size=12, max_size=12),
        kind=st.sampled_from(
            [AtomicKind.ADD, AtomicKind.MIN, AtomicKind.MAX, AtomicKind.EXCH]
        ),
    )
    @settings(max_examples=150, deadline=None)
    def test_property_matches_sequential_reference(self, idx, operands, kind):
        sys_, mem, _ = make_system(buf_size=4, fill=0)
        n = len(idx)
        operand = np.array(operands[:n], dtype=np.int64)
        op = AtomicRMW("b", np.array(idx, dtype=np.int64), kind, operand)
        sys_.service(op, 0)
        ref_vals, ref_old, _ = sequential_reference(
            [0, 0, 0, 0], idx, kind, operand.tolist()
        )
        assert mem["b"][:4].tolist() == ref_vals
        assert op.old.tolist() == ref_old

    @given(
        idx=st.lists(st.integers(0, 2), min_size=2, max_size=10),
        data=st.data(),
    )
    @settings(max_examples=150, deadline=None)
    def test_property_cas_matches_reference(self, idx, data):
        n = len(idx)
        expected = np.array(
            data.draw(st.lists(st.integers(0, 3), min_size=n, max_size=n)),
            dtype=np.int64,
        )
        new = np.array(
            data.draw(st.lists(st.integers(0, 9), min_size=n, max_size=n)),
            dtype=np.int64,
        )
        sys_, mem, _ = make_system(buf_size=3, fill=0)
        op = AtomicRMW(
            "b", np.array(idx, dtype=np.int64), AtomicKind.CAS, expected, new
        )
        sys_.service(op, 0)
        ref_vals, ref_old, ref_ok = sequential_reference(
            [0, 0, 0], idx, AtomicKind.CAS, expected.tolist(), new.tolist()
        )
        assert mem["b"][:3].tolist() == ref_vals
        assert op.old.tolist() == ref_old
        assert op.success.tolist() == ref_ok


class TestStatsAccounting:
    def test_requests_counted_by_kind(self):
        sys_, _, stats = make_system(buf_size=100)
        sys_.service(
            AtomicRMW("b", np.arange(4), AtomicKind.ADD, 1), 0
        )
        sys_.service(AtomicRMW("b", 0, AtomicKind.CAS, 0, 1), 0)
        assert stats.atomic_requests["add"] == 4
        assert stats.atomic_requests["cas"] == 1
        assert stats.total_atomic_requests == 5

    def test_reset_timing(self):
        sys_, _, _ = make_system(buf_size=2)
        end1 = sys_.service(AtomicRMW("b", 0, AtomicKind.ADD, 1), 0)
        sys_.reset_timing()
        end2 = sys_.service(AtomicRMW("b", 0, AtomicKind.ADD, 1), 0)
        assert end1 == end2


class TestLaunchScopedTiming:
    def test_sequential_launches_see_fresh_atomic_units(self):
        """Unit-occupancy state must not leak across Engine.launch calls.

        Two identical launches on one engine, with memory reset in
        between, must cost identical cycles: each launch restarts the
        simulated clock at zero, so ``_free_at`` entries from the first
        launch (which end at large absolute cycles) would stall the
        second launch's atomics far into the future if they survived.
        """
        from repro.simt import Engine, GlobalMemory, TESTGPU

        def kernel(ctx):
            # contended hot-word atomics: every wavefront hammers ctrl[0],
            # building up large _free_at end times.
            for _ in range(20):
                yield AtomicRMW("ctrl", 0, AtomicKind.ADD, 1)

        mem = GlobalMemory()
        mem.alloc("ctrl", 2, fill=0)
        eng = Engine(TESTGPU, mem)

        first = eng.launch(kernel, 8)
        assert mem["ctrl"][0] == 8 * 20
        mem["ctrl"][:] = 0  # host resets between launches
        second = eng.launch(kernel, 8)

        assert second.cycles == first.cycles
        assert second.stats.snapshot() == first.stats.snapshot()


class _Recorder:
    """Probe that records the atomic system's hook calls in order."""

    def __init__(self):
        self.calls = []

    def on_atomic(self, *args):
        self.calls.append(("atomic",) + args)

    def on_atomic_queued(self, *args):
        self.calls.append(("queued",) + args)


class TestEveryShapeMatchesTheWalk:
    """Each service shape against ``force_general`` (the per-lane walk)."""

    @given(
        kind=st.sampled_from(list(AtomicKind)),
        shape=st.sampled_from(["scalar", "same", "distinct", "mixed"]),
        n=st.integers(1, 64),
        hot=st.booleans(),
        vector_operand=st.booleans(),
        chained=st.booleans(),
        prior=st.lists(st.integers(0, 7), max_size=6),
        arrival=st.integers(0, 40),
        seed=st.integers(0, 2**16),
    )
    @settings(max_examples=300, deadline=None)
    def test_shape_matches_force_general(
        self, kind, shape, n, hot, vector_operand, chained, prior, arrival,
        seed,
    ):
        rng = np.random.default_rng(seed)
        size = 64 if hot else 200
        if shape == "scalar":
            n = 1
            index = int(rng.integers(0, 8))
            idx = [index]
        elif shape == "same":
            idx = [int(rng.integers(0, 8))] * n
            index = np.array(idx, dtype=np.int64)
        elif shape == "distinct":
            idx = rng.permutation(size)[:n].tolist()
            index = np.array(idx, dtype=np.int64)
        else:
            idx = rng.integers(0, int(rng.integers(1, 9)), n).tolist()
            index = np.array(idx, dtype=np.int64)
        init = rng.integers(0, 4, size)
        if kind is AtomicKind.CAS:
            if chained:
                exp = int(rng.integers(0, 4)) + np.arange(n, dtype=np.int64)
                new = exp + 1
            else:
                exp = rng.integers(0, 4, n)
                new = rng.integers(0, 9, n)
            if not vector_operand:
                exp, new = int(exp[0]), int(new[0])
            operands = (exp, new)
        else:
            rhs = rng.integers(-5, 6, n)
            operands = (rhs if vector_operand else int(rhs[0]),)

        runs = []
        for force, probe in ((True, _Recorder()), (False, _Recorder()),
                             (False, None)):
            dev = DeviceSpec(name="t", n_cus=1, atomic_service=5,
                             l2_latency=10)
            mem = GlobalMemory()
            mem.alloc("b", size)
            mem["b"][:] = init
            stats = SimStats()
            sys_ = AtomicSystem(dev, mem, stats, probe=probe,
                                force_general=force)
            # a previous batch leaves unit occupancy behind (hot only)
            for a in prior:
                sys_.service(AtomicRMW("b", a, AtomicKind.ADD, 1), 0)
            op = AtomicRMW("b", index, kind, *operands)
            end = sys_.service(op, arrival)
            runs.append((
                end,
                op.old.tolist(),
                op.success.tolist(),
                mem["b"].tolist(),
                stats.cas_failures,
                stats.atomic_service_cycles,
                dict(sys_._free_at),
                probe.calls if probe is not None else None,
            ))
        walk, fast, unprobed = runs
        assert fast == walk, f"{shape} {kind} idx={idx}"
        assert unprobed[:-1] == walk[:-1], f"{shape} {kind} idx={idx}"
        before = init.copy()
        np.add.at(before, prior, 1)
        ref_vals, ref_old, ref_ok = sequential_reference(
            before.tolist(), idx, kind,
            *[np.broadcast_to(o, (n,)).tolist() for o in operands],
        )
        assert walk[1] == ref_old and walk[3] == ref_vals
        if kind is AtomicKind.CAS:
            assert walk[2] == ref_ok
