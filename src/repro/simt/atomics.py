"""Per-address atomic units with serialized service.

Every global atomic request targets one address.  Requests to the same
address are serviced one at a time, each taking ``device.atomic_service``
cycles, in arrival order; requests to distinct addresses proceed in
parallel.  This models the contended-hot-spot behaviour (Morrison & Afek
2013) that §3.2 of the paper builds its argument on:

* **AFA** (``AtomicKind.ADD`` et al.) always succeeds; contention shows up
  purely as *latency*, which the GPU can hide by switching wavefronts.
* **CAS** compares against the value *current at service time*.  When many
  wavefronts race on the same word, only the first arrival sees its
  expected value; the rest fail and — crucially — their retry loops issue
  additional instructions whose occupancy cannot be hidden.

Operation side effects are applied when the request batch arrives at the
memory system, in global event order, so interleavings (and therefore CAS
failures) emerge from simulated timing rather than being scripted.

Implementation notes
--------------------
Cross-batch unit-occupancy tracking (``_free_at``) is kept for *hot*
buffers only — small control words like queue Front/Rear and scheduler
counters, where back-to-back batches genuinely queue behind each other.
For large data buffers (BFS cost arrays) the same address is essentially
never hit by two temporally adjacent batches, so those batches are
serviced with intra-batch serialization only.  This keeps the hot-spot
physics exact where it matters and the simulator fast where it doesn't.

Every batch shape is served in closed form of the lane-order walk
(:meth:`AtomicSystem._service_general`, which ``force_general`` runs for
every batch): one scalar request; one address (a running scan over the
word and the operands, or for a CAS burst whose tickets chain, the first
lane that expects the word and every lane after it win); distinct
addresses (one vectorized pass); and mixed duplicates, where one stable
argsort by address turns each address into a segment of lanes served by
the one-address scan, row by row (a mixed CAS batch serves each
repeated address as a one-word burst).  Only a one-word CAS burst that
is not a chain is walked lane by lane.  The closed forms reserve a hot
unit once per address and batch; every shape reports
``on_atomic_queued`` only for a request that waits for an earlier
batch.
"""

from __future__ import annotations

from typing import Dict, Tuple

import numpy as np

from .device import DeviceSpec
from .errors import MemoryFault
from .memory import HOT_BUFFER_WORDS, GlobalMemory
from .ops import AtomicKind, AtomicRMW
from .stats import SimStats


def _scalar_operand(value) -> int:
    """Extract a single int operand without allocating arrays for the
    plain-int case (proxy atomics pass Python ints)."""
    if type(value) is int:
        return value
    return int(np.asarray(value).reshape(-1)[0])


_I64 = np.dtype(np.int64)

#: the running scan each non-CAS kind applies to one address's requests
#: (``None``: EXCH, where each request just replaces the word), and the
#: scan's identity, which pads the per-address rows of a mixed batch.
_SCANS = {
    AtomicKind.ADD: np.add,
    AtomicKind.MIN: np.minimum,
    AtomicKind.MAX: np.maximum,
    AtomicKind.EXCH: None,
}
_IDENTITY = {
    AtomicKind.ADD: 0,
    AtomicKind.MIN: np.iinfo(np.int64).max,
    AtomicKind.MAX: np.iinfo(np.int64).min,
    AtomicKind.EXCH: 0,
}


def _lanes(value, n: int) -> np.ndarray:
    """``value`` as ``n`` int64 lanes: an int64 lane vector as it is, a
    scalar broadcast (read-only either way)."""
    if type(value) is np.ndarray and value.dtype == _I64 and value.shape == (n,):
        return value
    return np.broadcast_to(np.asarray(value, dtype=np.int64), (n,))


def _cas_burst(cur: int, expected: np.ndarray, new: np.ndarray) -> tuple:
    """One word's CAS requests in lane order, from word value ``cur``:
    each lane's old value and success, and the word's final value."""
    n = expected.size
    success = np.zeros(n, dtype=bool)
    if not np.count_nonzero(expected[1:] != new[:-1]):
        # a ticket chain (each lane expects the previous lane's new
        # value): the first lane that expects the word wins, and every
        # later lane then finds its ticket.
        hit = expected == cur
        w = int(hit.argmax())
        if not hit[w]:
            w = n
        old = np.empty(n, dtype=np.int64)
        old[: w + 1] = cur
        old[w + 1:] = new[w:-1]
        success[w:] = True
        return old, success, int(new[-1]) if w < n else cur
    # lane-order walk; n <= wavefront size so this stays cheap, and it
    # is exact for arbitrary expected/new.
    old = [0] * n
    val = cur
    for j, (e, v) in enumerate(zip(expected.tolist(), new.tolist())):
        old[j] = val
        if val == e:
            val = v
            success[j] = True
    return np.array(old, dtype=np.int64), success, val


#: cumulative service-shape counters (scalar / same-address closed form /
#: distinct vectorized / general: mixed duplicates, and every batch of the
#: ``force_general`` walk), for the profile CLI's
#: vector-vs-scalar breakdown.  Not part of SimStats: the shape chosen is
#: a host-side implementation detail with no simulation-visible effect.
PATH_COUNTS: Dict[str, int] = {
    "atomics_scalar": 0,
    "atomics_same_address": 0,
    "atomics_distinct": 0,
    "atomics_general": 0,
}


def reset_path_counts() -> None:
    """Zero :data:`PATH_COUNTS` (profile tooling)."""
    for k in PATH_COUNTS:
        PATH_COUNTS[k] = 0


class AtomicSystem:
    """Applies :class:`AtomicRMW` batches and computes their timing."""

    def __init__(
        self,
        device: DeviceSpec,
        memory: GlobalMemory,
        stats: SimStats,
        probe=None,
        force_general: bool = False,
    ):
        self._device = device
        self._memory = memory
        self._stats = stats
        #: scalar reference mode: route every batch through the exact
        #: per-lane walk of :meth:`_service_general`.  The specialized
        #: shapes are closed forms of that walk, so values, timing and
        #: stats are identical either way — pinned by the exec-mode
        #: bit-identity suite.
        self._force_general = bool(force_general)
        #: opt-in observability hook (see repro.simt.probe); passive.
        self._probe = probe
        if probe is None:
            # unprobed launches skip the recording wrapper entirely: the
            # instance attribute shadows the class method, so `service`
            # costs exactly what it did before probes existed.
            self.service = self._service
        #: (buffer name, index) -> cycle at which that address's unit frees.
        self._free_at: Dict[Tuple[str, int], int] = {}

    # ------------------------------------------------------------------
    def service(self, op: AtomicRMW, arrival: int) -> int:
        """Apply every request in ``op`` and return the last completion cycle.

        ``arrival`` is the cycle the batch reaches the memory system.
        Requests are processed in lane order; per address, each request
        starts at ``max(arrival, unit_free_at)`` and holds the unit for
        ``atomic_service`` cycles.
        """
        probe = self._probe
        fail0 = self._stats.cas_failures
        end = self._service(op, arrival)
        n = int(np.size(op.old))
        mn, mx = op.span
        addr = mn if mn == mx else -1
        probe.on_atomic(
            arrival,
            op.buf,
            op.kind.value,
            n,
            end,
            self._stats.cas_failures - fail0,
            addr,
        )
        return end

    def _service(self, op: AtomicRMW, arrival: int) -> int:
        """Dispatch one batch to the matching service shape.

        Leaves the batch's ``(min, max)`` address span on ``op.span``.
        """
        buf = self._memory[op.buf]
        raw = op.index
        svc = self._device.atomic_service
        hot = buf.size <= HOT_BUFFER_WORDS
        if type(raw) is int or isinstance(raw, (int, np.integer)):
            # proxy-thread atomic (§4.1): a single scalar request is the
            # arbitrary-n design's common case — skip array materialization.
            a = int(raw)
            if a < 0 or a >= buf.size:
                raise MemoryFault(
                    f"buffer {op.buf!r}: index {a} out of bounds "
                    f"(size {buf.size})"
                )
            op.span = (a, a)
            self._stats.count_atomic(op.kind, 1)
            self._stats.atomic_service_cycles += svc
            if self._force_general:
                PATH_COUNTS["atomics_general"] += 1
                return self._service_general(
                    op, buf, np.array([a], dtype=np.int64), arrival, svc, hot
                )
            PATH_COUNTS["atomics_scalar"] += 1
            return self._service_scalar(op, buf, a, arrival, svc, hot)
        idx = raw
        if type(idx) is not np.ndarray or idx.dtype != _I64 or idx.ndim != 1:
            idx = np.asarray(idx, dtype=np.int64).reshape(-1)
        n = idx.size
        # one stable argsort per batch gives the bounds, the distinct
        # test and the address segments of a mixed batch
        order = None
        if n > 1:
            mn = int(idx[0])
            if idx[-1] == mn and not np.count_nonzero(idx != mn):
                mx = mn
            else:
                order = idx.argsort(kind="stable")
                srt = idx[order]
                mn = int(srt[0])
                mx = int(srt[-1])
        elif n:
            mn = mx = int(idx[0])
        else:
            mn, mx = 0, -1
        if mn < 0 or mx >= buf.size:
            # the exact first-offender message (this call always raises)
            self._memory.check_bounds(op.buf, idx)
        op.span = (mn, mx)
        self._stats.count_atomic(op.kind, n)
        self._stats.atomic_service_cycles += n * svc

        if self._force_general or n == 0:
            PATH_COUNTS["atomics_general"] += 1
            return self._service_general(op, buf, idx, arrival, svc, hot)

        if n == 1:
            PATH_COUNTS["atomics_scalar"] += 1
            return self._service_scalar(op, buf, mn, arrival, svc, hot)

        if order is None:
            PATH_COUNTS["atomics_same_address"] += 1
            return self._service_same_address(
                op, buf, mn, n, arrival, svc, hot
            )

        # head[p]: sorted lane p is the first request to its address
        head = np.empty(n, dtype=bool)
        head[0] = True
        np.not_equal(srt[1:], srt[:-1], out=head[1:])
        starts = head.nonzero()[0]
        if starts.size == n:
            PATH_COUNTS["atomics_distinct"] += 1
            return self._service_distinct(op, buf, idx, arrival, svc, hot)

        PATH_COUNTS["atomics_general"] += 1
        return self._service_segmented(
            op, buf, order, srt, head, starts, arrival, svc, hot
        )

    # ------------------------------------------------------------------
    def _unit_window(
        self, name: str, a: int, arrival: int, busy: int, hot: bool
    ) -> int:
        """Reserve the address unit for ``busy`` cycles; return finish."""
        if hot:
            key = (name, a)
            start = max(arrival, self._free_at.get(key, 0))
            end = start + busy
            self._free_at[key] = end
            if start > arrival and self._probe is not None:
                # the request queued behind an earlier batch at this hot
                # word — the cross-batch serialization blame records.
                self._probe.on_atomic_queued(name, a, arrival, start)
            return end
        return arrival + busy

    def _service_scalar(
        self,
        op: AtomicRMW,
        buf: np.ndarray,
        a: int,
        arrival: int,
        svc: int,
        hot: bool,
    ) -> int:
        end = self._unit_window(op.buf, a, arrival, svc, hot)
        cur = int(buf[a])
        kind = op.kind
        if kind is AtomicKind.CAS:
            expected = _scalar_operand(op.operand)
            new = _scalar_operand(op.operand2)
            ok = cur == expected
            if ok:
                buf[a] = new
            else:
                self._stats.cas_failures += 1
            op.old = np.array([cur], dtype=np.int64)
            op.success = np.array([ok])
            return end
        operand = _scalar_operand(op.operand)
        if kind is AtomicKind.ADD:
            buf[a] = cur + operand
        elif kind is AtomicKind.MIN:
            if operand < cur:
                buf[a] = operand
        elif kind is AtomicKind.MAX:
            if operand > cur:
                buf[a] = operand
        elif kind is AtomicKind.EXCH:
            buf[a] = operand
        else:  # pragma: no cover - enum is closed
            raise AssertionError(f"unhandled atomic kind {kind}")
        op.old = np.array([cur], dtype=np.int64)
        op.success = np.ones(1, dtype=bool)
        return end

    def _service_same_address(
        self,
        op: AtomicRMW,
        buf: np.ndarray,
        a: int,
        n: int,
        arrival: int,
        svc: int,
        hot: bool,
    ) -> int:
        """All requests hit one word: full serialization, closed forms."""
        end = self._unit_window(op.buf, a, arrival, n * svc, hot)
        cur = int(buf[a])
        kind = op.kind
        if kind is AtomicKind.CAS:
            old, success, buf[a] = _cas_burst(
                cur, _lanes(op.operand, n), _lanes(op.operand2, n)
            )
            self._stats.cas_failures += n - int(np.count_nonzero(success))
            op.old = old
            op.success = success
            return end
        # one running scan over [word, operands...]: lane j's old value
        # is the scan before it, the word's new value the last entry.
        scan = _SCANS[kind]
        run = np.empty(n + 1, dtype=np.int64)
        run[0] = cur
        run[1:] = op.operand
        if scan is not None:
            scan.accumulate(run, out=run)
        buf[a] = run[n]
        op.old = run[:n]
        op.success = np.ones(n, dtype=bool)
        return end

    def _service_distinct(
        self,
        op: AtomicRMW,
        buf: np.ndarray,
        idx: np.ndarray,
        arrival: int,
        svc: int,
        hot: bool,
    ) -> int:
        """All addresses distinct: fully parallel units, vectorized apply."""
        n = idx.size
        if hot:
            # tiny control buffers can still have cross-batch queueing.
            end = arrival
            for a in idx.tolist():
                end = max(end, self._unit_window(op.buf, a, arrival, svc, True))
        else:
            end = arrival + svc
        kind = op.kind
        old = buf[idx]
        if kind is AtomicKind.CAS:
            expected = _lanes(op.operand, n)
            new = _lanes(op.operand2, n)
            success = old == expected
            buf[idx[success]] = new[success]
            self._stats.cas_failures += n - int(np.count_nonzero(success))
            op.old = old
            op.success = success
            return end
        scan = _SCANS[kind]
        operand = _lanes(op.operand, n)
        buf[idx] = operand if scan is None else scan(old, operand)
        op.old = old
        op.success = np.ones(n, dtype=bool)
        return end

    def _service_segmented(
        self,
        op: AtomicRMW,
        buf: np.ndarray,
        order: np.ndarray,
        srt: np.ndarray,
        head: np.ndarray,
        starts: np.ndarray,
        arrival: int,
        svc: int,
        hot: bool,
    ) -> int:
        """Mixed duplicates: the same-address closed forms, per address.

        ``order`` is a stable argsort of the lanes by address and ``srt``
        the addresses in that order, so each address is one segment of
        sorted lanes, in lane order; ``head`` marks each segment's first
        lane and ``starts`` lists them.  Distinct addresses never
        interact, so serving segment by segment is the lane-order walk.
        """
        n = srt.size
        nseg = starts.size
        last = np.empty(nseg, dtype=np.int64)
        last[:-1] = starts[1:]
        last[-1] = n
        counts = last - starts
        last -= 1
        longest = int(counts.max())
        addrs = srt[starts]
        if hot:
            # each address's unit, in the lane order of its first request
            by_lane = order[starts].argsort()
            end = arrival
            for a, c in zip(addrs[by_lane].tolist(), counts[by_lane].tolist()):
                end = max(
                    end, self._unit_window(op.buf, a, arrival, c * svc, True)
                )
        else:
            end = arrival + longest * svc
        kind = op.kind
        if kind is AtomicKind.CAS:
            expected = _lanes(op.operand, n)[order]
            new = _lanes(op.operand2, n)[order]
            old = buf[srt]
            success = old == expected
            # each address's first request sees the word; the addresses
            # that repeat are served as one-word bursts
            for lo, c in zip(starts.tolist(), counts.tolist()):
                if c > 1:
                    hi = lo + c
                    old[lo:hi], success[lo:hi], _ = _cas_burst(
                        int(old[lo]), expected[lo:hi], new[lo:hi]
                    )
            # each word ends as its segment's last lane left it
            buf[addrs] = np.where(success[last], new[last], old[last])
            self._stats.cas_failures += n - int(np.count_nonzero(success))
            op.old = np.empty(n, dtype=np.int64)
            op.old[order] = old
            op.success = np.empty(n, dtype=bool)
            op.success[order] = success
            return end
        # one row per address, [word, its lanes' operands...] padded with
        # the scan's identity: each row's running scan is that address's
        # same-address closed form
        width = longest + 1
        row = np.arange(0, nseg * width, width)
        seg = np.add.accumulate(head, dtype=np.int64)
        seg -= 1
        at = np.arange(1, n + 1) + (row - starts)[seg]  # sorted lane p's entry
        grid = np.full(nseg * width, _IDENTITY[kind], dtype=np.int64)
        grid[row] = buf[addrs]
        grid[at] = _lanes(op.operand, n)[order]
        scan = _SCANS[kind]
        if scan is not None:
            rows = grid.reshape(nseg, width)
            scan.accumulate(rows, axis=1, out=rows)
        # exclusive: each lane's old value is the entry before its own;
        # the word's new value is its segment's last lane's entry
        buf[addrs] = grid[at[last]]
        op.old = np.empty(n, dtype=np.int64)
        op.old[order] = grid[at - 1]
        op.success = np.ones(n, dtype=bool)
        return end

    def _service_general(
        self,
        op: AtomicRMW,
        buf: np.ndarray,
        idx: np.ndarray,
        arrival: int,
        svc: int,
        hot: bool,
    ) -> int:
        """The reference lane-order walk every shape is a closed form of."""
        n = idx.size
        kind = op.kind
        old = np.empty(n, dtype=np.int64)
        # intra-batch per-address serialization (plus cross-batch if hot)
        local_free: Dict[int, int] = {}
        last_end = arrival

        def window(a: int) -> None:
            nonlocal last_end
            start = local_free.get(a)
            if start is None:
                # the address's first request in the batch: a hot unit
                # may still be held by an earlier batch
                if hot:
                    end = self._unit_window(op.buf, a, arrival, svc, True)
                else:
                    end = arrival + svc
            else:
                end = start + svc
                if hot:
                    self._free_at[(op.buf, a)] = end
            local_free[a] = end
            last_end = max(last_end, end)

        if kind is AtomicKind.CAS:
            expected = _lanes(op.operand, n)
            new = _lanes(op.operand2, n)
            success = np.zeros(n, dtype=bool)
            for j in range(n):
                a = int(idx[j])
                window(a)
                cur = buf[a]
                old[j] = cur
                if cur == expected[j]:
                    buf[a] = new[j]
                    success[j] = True
            self._stats.cas_failures += int(n - success.sum())
            op.old = old
            op.success = success
            return last_end
        operand = _lanes(op.operand, n)
        for j in range(n):
            a = int(idx[j])
            window(a)
            cur = buf[a]
            old[j] = cur
            if kind is AtomicKind.ADD:
                buf[a] = cur + operand[j]
            elif kind is AtomicKind.MIN:
                if operand[j] < cur:
                    buf[a] = operand[j]
            elif kind is AtomicKind.MAX:
                if operand[j] > cur:
                    buf[a] = operand[j]
            elif kind is AtomicKind.EXCH:
                buf[a] = operand[j]
            else:  # pragma: no cover - enum is closed
                raise AssertionError(f"unhandled atomic kind {kind}")
        op.old = old
        op.success = np.ones(n, dtype=bool)
        return last_end

    def reset_timing(self) -> None:
        """Forget unit occupancy (between independent kernel launches)."""
        self._free_at.clear()
