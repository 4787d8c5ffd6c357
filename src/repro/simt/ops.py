"""The instruction vocabulary kernels yield to the engine.

A simulated kernel is a Python generator.  Each ``yield`` hands the engine
one wavefront-level operation; the engine charges its cost, performs its
side effects at the architecturally correct time, fills in its result
fields, and resumes the generator.  Lane-level data lives in NumPy arrays
inside the kernel; an operation carries *vectors* of per-lane indices and
operands so a single yield models one lock-step wavefront instruction.

Op classes deliberately use ``__slots__``: benchmarks create millions of
them and attribute-dict overhead would dominate.
"""

from __future__ import annotations

import enum
from typing import Optional

import numpy as np


class AtomicKind(enum.Enum):
    """Read-modify-write flavours supported by the simulated memory system.

    ``ADD`` is the paper's AFA (atomic fetch-add): it *never fails*, which
    is the foundation of the retry-free property.  ``CAS`` can fail when the
    target changed between the kernel's read and the compare — failure
    emerges from simulated interleaving, it is never scripted.
    """

    ADD = "add"
    MIN = "min"
    MAX = "max"
    EXCH = "exch"
    CAS = "cas"


class Op:
    """Base class for everything a kernel may yield."""

    __slots__ = ()


class Compute(Op):
    """ALU work occupying the CU for ``cycles`` cycles.

    Compute occupancy is charged to the issuing CU and cannot be hidden by
    wavefront switching (the SIMD is busy).
    """

    __slots__ = ("cycles",)

    def __init__(self, cycles: int):
        if cycles < 0:
            raise ValueError(f"cycles must be non-negative, got {cycles}")
        self.cycles = int(cycles)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"Compute({self.cycles})"


class LocalOp(Op):
    """A wavefront-local (LDS) operation, e.g. lane aggregation.

    The paper's Listings 1 and 3 use local ``atomic_inc``/``atomic_add`` on
    ``lQueueSlotsNeeded`` so every lane learns its relative slot index.  In
    lock-step execution this is a prefix sum over the active mask; it never
    leaves the CU and never fails.  The data side is computed directly in
    the kernel with NumPy; this op only charges the cost.
    """

    __slots__ = ("cycles",)

    def __init__(self, cycles: int):
        if cycles < 0:
            raise ValueError(f"cycles must be non-negative, got {cycles}")
        self.cycles = int(cycles)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"LocalOp({self.cycles})"


class MemRead(Op):
    """Per-lane gather from a global buffer.

    ``index`` is a scalar or an int array of lane addresses (inactive lanes
    simply do not appear).  The engine samples memory at the architectural
    completion time and stores the values in :attr:`result`.

    Coalescing: lanes reading a contiguous, aligned range produce one
    transaction; scattered lanes produce more (see
    :func:`repro.simt.engine.transactions_for`).

    Hot-loop contract: a ``prechecked`` read may be re-yielded any number
    of times (the queue layers park one poll op per watch set), but its
    ``index`` must not be mutated in place between yields — the engine's
    read-elision fast path relies on the address set being stable.
    """

    __slots__ = ("buf", "index", "result", "trans", "prechecked", "span",
                 "epoch", "fresh")

    def __init__(self, buf: str, index, trans: Optional[int] = None,
                 prechecked: bool = False):
        self.buf = buf
        self.index = index
        self.result: Optional[np.ndarray] = None
        #: precomputed transaction count (hot-loop callers cache this).
        self.trans = trans
        #: index already validated as an in-bounds int64 array.
        self.prechecked = prechecked
        #: engine-private ``(min, max)`` of the index, computed once at
        #: issue so the completion-time bounds check needn't rescan.
        self.span: Optional[tuple] = None
        #: engine-private buffer-write epoch at the last sampling.
        self.epoch: Optional[int] = None
        #: whether :attr:`result` was re-sampled at the latest completion
        #: (False: the buffer is unchanged since the previous yield of
        #: this op, so the values are identical — kernels may reuse any
        #: cached derivation of the previous result).
        self.fresh: bool = True

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"MemRead({self.buf!r}, n={np.size(self.index)})"


class MemWrite(Op):
    """Per-lane scatter to a global buffer, applied at completion time."""

    __slots__ = ("buf", "index", "values", "trans", "prechecked", "span")

    def __init__(self, buf: str, index, values, trans: Optional[int] = None,
                 prechecked: bool = False):
        self.buf = buf
        self.index = index
        self.values = values
        self.trans = trans
        self.prechecked = prechecked
        self.span: Optional[tuple] = None

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"MemWrite({self.buf!r}, n={np.size(self.index)})"


class AtomicRMW(Op):
    """One wavefront instruction's worth of global atomic requests.

    Each element of ``index`` is an independent request.  Requests to the
    same address are serialized at that address's atomic unit in lane
    order (after any requests already queued there by other wavefronts),
    each taking ``device.atomic_service`` cycles — this is the contended
    hot spot of §3.2.  Requests to distinct addresses proceed in parallel.

    For ``CAS``, ``operand`` holds the *expected* values and ``operand2``
    the *new* values; :attr:`success` receives a per-request bool mask.
    For everything else ``operand`` is the right-hand side and
    ``operand2`` is unused.  :attr:`old` always receives the pre-op values
    (AFA semantics: "returns the old value of the target").

    A proxy-thread atomic (the paper's §4.1) is simply an ``AtomicRMW``
    with a single scalar request — the whole point of arbitrary-n is that
    the wavefront then needs only this one request.
    """

    __slots__ = (
        "buf", "index", "kind", "operand", "operand2", "old", "success", "span",
    )

    def __init__(self, buf: str, index, kind: AtomicKind, operand, operand2=None):
        self.buf = buf
        self.index = index
        self.kind = kind
        self.operand = operand
        self.operand2 = operand2
        self.old: Optional[np.ndarray] = None
        self.success: Optional[np.ndarray] = None
        #: ``(min, max)`` of the addresses, set at every service.
        self.span: Optional[tuple] = None

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"AtomicRMW({self.buf!r}, kind={self.kind.value}, "
            f"n={np.size(self.index)})"
        )


class Fence(Op):
    """A memory fence: completes when all the wavefront's prior memory
    effects are visible.  In this simulator effects are applied in global
    event order already, so a fence only charges issue occupancy; it exists
    so kernels read like their OpenCL counterparts."""

    __slots__ = ()

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return "Fence()"


class Park(Op):
    """A parked wavefront's idle work cycle, replayed by the engine.

    Not an instruction: yielding a ``Park`` issues ``reads[start]``.
    When a read completes elided (``fresh`` False: the values cannot
    have changed) and the kernel would be resumed at once (its CU idle,
    no other wavefront ready, no schedule controller), the engine
    *replays* the completion instead of resuming the kernel: it runs the
    read's entry in ``hooks`` (the probe calls the kernel makes before
    its next yield; ``hooks`` may be None) and issues the next read,
    cycling through ``reads``.  A fresh completion is replayed the same
    way when the read's entry in ``quiet`` (None, or one callable or
    None per read) returns True for it: the kernel would do with those
    values exactly what it does after an elided read.  A quiet test
    must depend on nothing but the read's ``result``: the engine may
    run it on a stand-in carrying the words a store just left there.
    At most ``limit`` completions are replayed (None: no limit).  Any other
    completion resumes the kernel, with :attr:`done` holding the number
    of replayed completions and ``reads[(start + done) % len(reads)]``
    the read that just completed, fresh or not, whose hook has not run.

    ``reads`` must be cached, prechecked :class:`MemRead` ops with a
    precomputed ``trans`` that the kernel re-yields anyway (the MemRead
    hot-loop contract), so each replayed issue and completion is exactly
    the one the step-by-step loop would make.
    """

    __slots__ = ("reads", "hooks", "limit", "start", "quiet", "done", "cur",
                 "delays")

    def __init__(self, reads: tuple, hooks: Optional[tuple] = None,
                 limit: Optional[int] = None, start: int = 0,
                 quiet: Optional[tuple] = None):
        if not reads or not all(
            type(r) is MemRead and r.prechecked and r.trans is not None
            for r in reads
        ):
            raise ValueError(
                "Park reads must be prechecked MemReads with a "
                "precomputed transaction count"
            )
        if hooks is not None and len(hooks) != len(reads):
            raise ValueError("Park needs one hook per read")
        if quiet is not None and len(quiet) != len(reads):
            raise ValueError("Park needs one quiet test per read")
        if limit is not None and limit < 0:
            raise ValueError(f"Park limit must be non-negative, got {limit}")
        if not 0 <= start < len(reads):
            raise ValueError(f"Park start {start} is not a read index")
        self.reads = reads
        self.hooks = hooks
        self.limit = limit
        self.start = start
        self.quiet = quiet
        #: completions replayed so far (engine-maintained).
        self.done = 0
        #: engine-private: index of the read in flight, and each read's
        #: issue-to-completion delay.
        self.cur = 0
        self.delays: tuple = ()

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"Park(n={len(self.reads)}, done={self.done})"


class Abort(Op):
    """Abort the kernel (queue-full exception, Listing 3 line 25).

    ``info`` optionally carries structured context about the failure —
    the queue variants pass ``{"queue": prefix, "capacity": c, "fill":
    f, "shard": s}`` so the engine can raise a typed
    :class:`~repro.simt.errors.QueueFullError` instead of a bare
    :class:`~repro.simt.errors.KernelAbort`.
    """

    __slots__ = ("reason", "info")

    def __init__(self, reason: str, info: "dict | None" = None):
        self.reason = reason
        self.info = info

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"Abort({self.reason!r})"
