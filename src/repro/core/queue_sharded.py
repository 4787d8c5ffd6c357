"""Sharded multi-queue composition with cross-shard work stealing.

The paper's RF/AN queue is a single global MPMC structure; its one
``Front``/``Rear`` pair is the contention point that the synthetic
saturation benchmark exposes at Fiji scale.  The standard next step
(Tzeng, Patney & Owens 2010; Shetty et al.; Atos) is to *shard* the
queue — one instance per compute unit — and rebalance load by stealing
between shards.  :class:`ShardedQueue` is that composition layer:

* one inner queue (RF/AN by default, AN/BASE parameterisable) per
  shard, each with its own control words and slot array;
* every wavefront has a **home shard** (``wf_id % n_shards``, which on
  this simulator coincides with its compute unit whenever
  ``n_shards == n_cus``) — all of its proxy reservations, slot parks
  and publishes go to the home shard, so *within a shard* the inner
  variant's properties (retry-freedom, arbitrary-n) are fully
  preserved;
* when the home shard keeps serving ``dna`` — the wavefront's parked
  lanes see no arrivals for more than ``spin_threshold`` consecutive
  work cycles — the wavefront attempts one **steal** per work cycle
  from a victim shard (round-robin or seeded-random selection).

Steal protocol (steal-as-transfer)
----------------------------------
Lanes only ever park on their home shard, so a steal may not hand
tokens to lanes directly (their reservations live at home).  Instead
the thief *transfers a batch*:

1. read the victim's ``(Front, Rear)``; ``avail = Rear - Front`` is the
   stealable surplus (tokens enqueued but not yet dequeue-reserved) —
   if none, try the next victim on the next work cycle.  Each wavefront
   re-yields one cached read per victim, so the engine elides the
   probe while the victim's control words are untouched, and a thief
   whose probes keep finding nothing parks on its round of home polls
   and victim probes (:meth:`ShardedQueue.idle_cycle`);
2. claim ``m = min(steal_quantum, avail)`` entries with one **CAS** on
   the victim's ``Front`` (the only non-retry-free step, and it is not
   retried: a lost race just means somebody else made progress);
3. poll the claimed slots until every token has arrived (the claimed
   range is enqueue-reserved, so each store is on its way), restore the
   ``dna`` sentinel at the victim;
4. reserve ``m`` fresh slots at the home shard with the inner queue's
   own publish-side reservation (an AFA for RF/AN) and store the
   tokens there, where the home's parked lanes pick them up through
   the unmodified retry-free dequeue path.

The transfer preserves the global no-loss/no-duplication contract
(every token leaves the victim exactly once and lands at home exactly
once — checked by :class:`repro.verify.oracle.MultiQueueOracle`) and
keeps the hot per-wavefront paths retry-free; only the cold cross-shard
path pays a CAS.  Stealing therefore requires a retry-free inner
variant (the claimed slots must be ``dna``-sentinel slots that the
thief can poll and restore); AN/BASE inner shards are supported with
``steal=False``.

With ``n_shards=1`` every method delegates directly to the single
inner queue under the *same* buffer prefix: the composition is
bit-identical to the bare inner variant (pinned by
``tests/test_simt_determinism.py``).
"""

from __future__ import annotations

import random
from functools import partial
from typing import Dict, Generator, Iterable, List, Optional, Type

import numpy as np

from repro.simt import (
    Abort,
    GlobalMemory,
    KernelContext,
    MemRead,
    MemWrite,
    Op,
)

from .constants import DNA, FRONT, REAR
from .queue_api import (
    DeviceQueue,
    IdleCycle,
    K_ARRIVAL_CHECKS,
    K_CAS_ROUNDS,
    queue_full,
)
from .queue_an import ArbitraryNQueue
from .queue_base_cas import BaseCasQueue
from .queue_rfan import RetryFreeQueue
from .state import WavefrontQueueState

# steal-path custom counters (only ever touched when n_shards > 1, so a
# single-shard run's stats stay bit-identical to the inner variant's)
K_STEAL_ATTEMPTS = "queue.steal_attempts"      # victim probes issued
K_STEAL_HITS = "queue.steal_hits"              # transfers that moved tokens
K_STEAL_EMPTY = "queue.steal_empty_probes"     # victim had no surplus
K_STEAL_CAS_FAIL = "queue.steal_cas_failures"  # lost the Front race
K_STEAL_TOKENS = "queue.stolen_tokens"         # tokens moved across shards

#: inner variants a shard may be built from.
INNER_VARIANTS: Dict[str, Type[DeviceQueue]] = {
    "RF/AN": RetryFreeQueue,
    "AN": ArbitraryNQueue,
    "BASE": BaseCasQueue,
}


def shard_key(shard: int, name: str) -> str:
    """Per-shard custom-counter key (``queue.shard<i>.<name>``)."""
    return f"queue.shard{shard}.{name}"


#: the (Front, Rear) index pair of a victim probe, shared and frozen so
#: the engine caches its span once per launch.
_CTRL_IDX = np.array([FRONT, REAR], dtype=np.int64)
_CTRL_IDX.setflags(write=False)


class _Thief:
    """Per-wavefront steal state of a multi-shard queue.

    ``ctrl[i]`` is this wavefront's victim probe of shard ``i``: one
    prechecked control read re-yielded at every attempt, so the engine
    elides re-samples while the victim's control words are untouched
    (``result`` then still holds the exact previous sample).
    """

    __slots__ = ("home", "home_q", "home_acquire", "k_granted", "spin",
                 "victims", "cursor", "draw", "victim", "seen", "ctrl")

    def __init__(self, queue: "ShardedQueue", wf_id: int):
        n = queue.n_shards
        self.home = home = wf_id % n
        self.home_q = queue.shards[home]
        self.home_acquire = self.home_q.acquire
        self.k_granted = queue._k_granted[home]
        #: idle work cycles on home; steals start once it reaches
        #: ``spin_threshold`` and it resets when tokens arrive.
        self.spin = 0
        #: every shard but home, in order; picked round-robin
        #: (``victims[cursor % len(victims)]``) or by a seeded
        #: per-wavefront PRNG (``draw``; ``choice`` draws as
        #: ``randrange``).
        self.victims = victims = [(home + 1 + off) % n for off in range(n - 1)]
        self.cursor = 0
        self.draw = None
        if queue.victim == "random":
            rng = random.Random(queue.victim_seed * 1_000_003 + wf_id)
            self.draw = partial(rng.choice, victims)
        #: the victim of the latest attempt.
        self.victim = -1
        #: the victims a stepped attempt found empty.  Once it holds
        #: them all, every counter an idle cycle moves exists, so a park
        #: may fold into them without changing ``custom``'s key order.
        self.seen: set = set()
        self.ctrl = [
            MemRead(sh.buf_ctrl, _CTRL_IDX, trans=1, prechecked=True)
            for sh in queue.shards
        ]


class ShardedQueue(DeviceQueue):
    """One inner queue per shard + cross-shard batch stealing.

    Parameters
    ----------
    capacity:
        Per-shard slot count (each shard owns its own slot array).
    n_shards:
        Number of inner queues; wavefront ``w`` is homed on shard
        ``w % n_shards``.
    inner:
        Inner variant name (``"RF/AN"``, ``"AN"``, ``"BASE"``).
    steal:
        Enable cross-shard batch transfers (requires a retry-free
        inner variant).
    steal_quantum:
        Maximum tokens moved per transfer.
    spin_threshold:
        Consecutive empty-handed work cycles (with lanes parked) a
        wavefront tolerates before probing a victim.
    victim:
        ``"round-robin"`` (deterministic cursor per wavefront) or
        ``"random"`` (seeded per-wavefront PRNG).
    victim_seed:
        Base seed for ``victim="random"``.
    """

    variant = "SHARDED"

    def __init__(
        self,
        capacity: int,
        prefix: str = "wq",
        circular: bool = False,
        *,
        n_shards: int = 1,
        inner: str = "RF/AN",
        steal: bool = True,
        steal_quantum: int = 8,
        spin_threshold: int = 4,
        victim: str = "round-robin",
        victim_seed: int = 0,
    ):
        super().__init__(capacity, prefix=prefix, circular=circular)
        if n_shards <= 0:
            raise ValueError(f"n_shards must be positive, got {n_shards}")
        try:
            inner_cls = INNER_VARIANTS[inner]
        except KeyError:
            raise ValueError(
                f"unknown inner variant {inner!r}; expected one of "
                f"{sorted(INNER_VARIANTS)}"
            ) from None
        if steal_quantum <= 0:
            raise ValueError(
                f"steal_quantum must be positive, got {steal_quantum}"
            )
        if spin_threshold < 0:
            raise ValueError(
                f"spin_threshold must be non-negative, got {spin_threshold}"
            )
        if victim not in ("round-robin", "random"):
            raise ValueError(
                f"victim must be 'round-robin' or 'random', got {victim!r}"
            )
        steal = bool(steal) and n_shards > 1
        if steal and not inner_cls.retry_free:
            raise ValueError(
                "stealing requires a retry-free inner variant (the thief "
                "polls and restores dna-sentinel slots); use inner='RF/AN' "
                "or steal=False"
            )
        self.n_shards = int(n_shards)
        self.inner = inner
        self.steal = steal
        self.steal_quantum = int(steal_quantum)
        self.spin_threshold = int(spin_threshold)
        self.victim = victim
        self.victim_seed = int(victim_seed)
        # the composition inherits the inner variant's properties: every
        # per-wavefront operation runs entirely inside one shard.
        self.retry_free = bool(inner_cls.retry_free)
        self.arbitrary_n = bool(inner_cls.arbitrary_n)
        #: the inner queues.  A single shard reuses the outer prefix so
        #: the composition is buffer-for-buffer identical to the bare
        #: inner variant.
        self.shards: List[DeviceQueue] = [
            inner_cls(
                capacity,
                prefix=prefix if n_shards == 1 else f"{prefix}.s{i}",
                circular=circular,
            )
            for i in range(self.n_shards)
        ]
        #: per-wavefront steal state (:class:`_Thief`), reset at every
        #: allocate() so one queue object can serve successive launches.
        self._wf: Dict[int, _Thief] = {}
        #: per-shard counter keys, precomputed so the per-work-cycle hot
        #: path never pays an f-string format.
        def keys(name: str) -> List[str]:
            return [shard_key(i, name) for i in range(self.n_shards)]

        self._k_granted = keys("granted")
        self._k_enqueued = keys("enqueued")
        self._k_steal_out = keys("steal_out")
        self._k_steal_in = keys("steal_in")
        # steal-path stall attribution (all only touched inside _steal,
        # i.e. never when n_shards == 1): per-victim empty probes and
        # lost CAS races, per-home arrival-poll rounds, and a histogram
        # of transfer batch sizes (1 .. steal_quantum).
        self._k_steal_empty = keys("steal_empty")
        self._k_steal_cas_fail = keys("steal_cas_fail")
        self._k_steal_polls = keys("steal_poll_rounds")
        self._k_steal_batch = [
            f"queue.steal_batch.{n}" for n in range(self.steal_quantum + 1)
        ]

    # ------------------------------------------------------------------
    # host side
    # ------------------------------------------------------------------
    def allocate(self, memory: GlobalMemory) -> None:
        for sh in self.shards:
            sh.allocate(memory)
        self._wf.clear()

    def seed(self, memory: GlobalMemory, tokens: Iterable[int]) -> int:
        """Round-robin the initial tokens across shards (token ``i`` to
        shard ``i % n_shards``), mirroring :meth:`note_seed` splitting
        in the multi-queue oracle."""
        toks = list(tokens)
        total = 0
        for i, sh in enumerate(self.shards):
            total += sh.seed(memory, toks[i :: self.n_shards])
        return total

    def drain_host(self, memory: GlobalMemory) -> np.ndarray:
        parts = [sh.drain_host(memory) for sh in self.shards]
        return (
            np.concatenate(parts) if parts else np.empty(0, dtype=np.int64)
        )

    # ------------------------------------------------------------------
    # kernel side
    # ------------------------------------------------------------------
    def acquire(
        self, ctx: KernelContext, st: WavefrontQueueState
    ) -> Generator[Op, Op, None]:
        if self.n_shards == 1:
            yield from self.shards[0].acquire(ctx, st)
            return
        th = self._wf.get(ctx.wf_id)
        if th is None:
            # the per-wavefront steal state, created on first use
            th = self._wf[ctx.wf_id] = _Thief(self, ctx.wf_id)
        before = st.n_token
        yield from th.home_acquire(ctx, st)
        yield from self._after_home(ctx, st, th, before)

    def _after_home_poll(
        self, ctx: KernelContext, st: WavefrontQueueState
    ) -> Generator[Op, Op, None]:
        """What ``acquire`` runs after the home shard's data poll
        completed: the shard's ``after_poll``, then the steal probe."""
        th = self._wf[ctx.wf_id]
        before = st.n_token
        yield from th.home_q.after_poll(ctx, st)
        yield from self._after_home(ctx, st, th, before)

    def _after_home(
        self, ctx: KernelContext, st: WavefrontQueueState, th: _Thief,
        before: int,
    ) -> Generator[Op, Op, None]:
        """Count what home granted since ``before`` tokens; if nothing,
        spin or make one steal attempt."""
        got = st.n_token - before
        if got:
            ctx.stats.custom[th.k_granted] += got
            if self.steal and st.n_watching:
                th.spin = 0
            return
        if not self.steal or not st.n_watching:
            return
        spin = th.spin
        if spin < self.spin_threshold:
            # parked lanes, nothing arrived: spin on home a while longer
            th.spin = spin + 1
            return

        # one steal attempt per work cycle, on a victim != home
        # (deterministic per wavefront).
        if th.draw is None:
            victim_idx = th.victims[th.cursor % len(th.victims)]
            th.cursor += 1
        else:
            victim_idx = th.draw()
        th.victim = victim_idx
        ctx.stats.custom[K_STEAL_ATTEMPTS] += 1
        probe = ctx.probe
        if probe is not None:
            probe.wf_phase(ctx.wf_id, "steal", self.shards[victim_idx].prefix)

        # 1. sample the victim's surplus with this wavefront's cached
        #    control read.
        yield th.ctrl[victim_idx]
        yield from self._after_probe(ctx, st)

    def _after_probe(
        self, ctx: KernelContext, st: WavefrontQueueState
    ) -> Iterable[Op]:
        """What ``acquire`` runs after the victim probe completed: the
        transfer if the sample shows a surplus (its ops, for the caller
        to ``yield from``), else count the probe empty (no ops).

        An elided re-sample (``fresh`` False) repeats this wavefront's
        previous sample of the victim, which found no surplus: a claim
        attempt moves the victim's Front (a lost one means Front had
        already moved), so the sample after one is always fresh."""
        th = self._wf[ctx.wf_id]
        victim_idx = th.victim
        ctrl = th.ctrl[victim_idx]
        if ctrl.fresh:
            front, avail = self._surplus(victim_idx, ctrl)
            if avail > 0:
                return self._steal(ctx, th, victim_idx, front, avail)
        custom = ctx.stats.custom
        custom[K_STEAL_EMPTY] += 1
        custom[self._k_steal_empty[victim_idx]] += 1
        th.seen.add(victim_idx)
        return ()

    def _surplus(self, victim_idx: int, ctrl: MemRead) -> tuple:
        """``(front, avail)`` from a fresh probe of shard ``victim_idx``:
        its Front and the tokens a thief may claim from there."""
        res = ctrl.result
        front = int(res[0])
        avail = int(res[1]) - front
        v = self.shards[victim_idx]
        if not v.circular:
            # monotonic shards: slots at or beyond capacity never
            # receive data, so never claim them (the publisher aborts
            # first).
            avail = min(avail, v.capacity - front)
        return front, avail

    def idle_cycle(
        self, ctx: KernelContext, st: WavefrontQueueState, calls: bool
    ) -> Optional[IdleCycle]:
        if self.n_shards == 1:
            return self.shards[0].idle_cycle(ctx, st, calls)
        th = self._wf[ctx.wf_id]
        if self.steal and (
            th.spin < self.spin_threshold
            or th.draw is not None
            or len(th.seen) < len(th.victims)
        ):
            # still spinning on home, random victims, or a victim whose
            # counters a fold would create: step
            return None
        home = th.home_q.idle_cycle(ctx, st, calls)
        if home is None:
            return None
        # cached next to home's, and so invalidated with it
        cycles = st.idle.get(self)
        if cycles is None:
            cycles = st.idle[self] = self._idle_cycles(ctx, th, home, calls)
        return cycles[th.cursor % len(cycles)]

    def _idle_cycles(
        self, ctx: KernelContext, th: _Thief, home: IdleCycle, calls: bool
    ) -> List[IdleCycle]:
        """The idle cycles of thief ``th`` over its home shard's idle
        cycle ``home`` (an RF/AN data poll), one per cursor position."""
        if not self.steal:
            return [home._replace(steps=(self._after_home_poll,))]
        # one period visits every victim once, in round-robin order;
        # each cycle is the home poll and a victim probe.  A park starts
        # at the cycle of the victim the cursor points at.
        victims = th.victims
        c = len(victims)
        poll = home.reads[0]
        reads = tuple(r for v in victims for r in (poll, th.ctrl[v]))
        custom = ctx.stats.custom
        k_empty = [self._k_steal_empty[v] for v in victims]

        def fold(r: int) -> None:
            # each home poll is followed by an attempt on the next
            # victim; each victim probe replayed came back empty
            polls, probes = (r + 1) // 2, r // 2
            home.fold(polls)
            start = th.cursor
            if polls:
                custom[K_STEAL_ATTEMPTS] += polls
                th.cursor = start + polls
                th.victim = victims[(start + polls - 1) % c]
            if probes:
                custom[K_STEAL_EMPTY] += probes
                each, extra = divmod(probes, c)
                for j in range(c):
                    custom[k_empty[(start + j) % c]] += each + (j < extra)

        if calls:
            probe = ctx.probe
            wf_id = ctx.wf_id
            spin, empty = home.calls
            per_cycle = []
            for v in victims:
                def attempt(prefix=self.shards[v].prefix) -> None:
                    empty()
                    probe.wf_phase(wf_id, "steal", prefix)

                per_cycle += (spin, attempt, None)
            calls = tuple(per_cycle)
        else:
            calls = None
        # a fresh probe that shows no surplus is an empty probe too
        quiet = []
        for v in victims:
            def no_surplus(ctrl: MemRead, v: int = v) -> bool:
                return self._surplus(v, ctrl)[1] <= 0

            quiet += (None, no_surplus)
        idle = IdleCycle(
            reads, 2, (self._after_home_poll, self._after_probe) * c, fold,
            ("steal", self.prefix), calls, quiet=tuple(quiet),
        )
        return [idle._replace(start=j) for j in range(c)]

    def publish(
        self,
        ctx: KernelContext,
        st: WavefrontQueueState,
        counts: np.ndarray,
        tokens: np.ndarray,
    ) -> Generator[Op, Op, None]:
        if self.n_shards == 1:
            yield from self.shards[0].publish(ctx, st, counts, tokens)
            return
        home = ctx.wf_id % self.n_shards
        total = int(np.maximum(np.asarray(counts, dtype=np.int64), 0).sum())
        yield from self.shards[home].publish(ctx, st, counts, tokens)
        if total:
            ctx.stats.custom[self._k_enqueued[home]] += total

    # ------------------------------------------------------------------
    # the steal path
    # ------------------------------------------------------------------
    def _steal(
        self, ctx: KernelContext, th: _Thief, victim_idx: int, front: int,
        avail: int,
    ) -> Generator[Op, Op, None]:
        """Transfer up to ``avail`` tokens the victim probe found: CAS
        claim, poll, republish."""
        custom = ctx.stats.custom
        probe = ctx.probe
        home = th.home
        v = self.shards[victim_idx]
        h = th.home_q
        m = min(self.steal_quantum, avail)

        # 2. claim [front, front+m) with one CAS on the victim's Front.
        #    This is the only non-retry-free step of the composition and
        #    it is deliberately not retried: a lost race means either the
        #    victim's own lanes or another thief took the surplus.
        if not (yield from v._cas(ctx, FRONT, front, m)):
            custom[K_STEAL_CAS_FAIL] += 1
            custom[K_CAS_ROUNDS] += 1
            custom[self._k_steal_cas_fail[victim_idx]] += 1
            return
        custom[self._k_steal_batch[m]] += 1
        if probe is not None:
            v._announce(ctx, FRONT, front, m)

        # 3. the claimed range is enqueue-reserved (rear covered it and
        #    Front had not passed it), so every store is on its way: poll
        #    until all m tokens arrived.
        src_raw = np.arange(front, front + m, dtype=np.int64)
        src_phys = np.asarray(v._phys(src_raw), dtype=np.int64)
        # frozen + prechecked: the claimed range never changes across poll
        # iterations, so the engine may cache its span and elide re-samples
        # while the victim's slot array is untouched.
        src_phys.setflags(write=False)
        read = MemRead(v.buf_data, src_phys, prechecked=True)
        k_polls = self._k_steal_polls[home]
        while True:
            yield read
            custom[K_ARRIVAL_CHECKS] += m
            custom[k_polls] += 1
            if not read.fresh:
                # elided re-sample: nothing stored since the previous
                # poll, which still saw an empty slot.
                continue
            # tokens are non-negative and DNA is the smallest sentinel:
            # min == DNA iff some claimed slot is still empty.
            if int(read.result.min()) != DNA:
                break
        tokens = read.result.copy()

        # 4. republish the batch into the home shard.
        yield from self._republish(ctx, h, v, src_raw, src_phys, tokens)
        custom[K_STEAL_HITS] += 1
        custom[K_STEAL_TOKENS] += m
        custom[self._k_steal_out[victim_idx]] += m
        custom[self._k_steal_in[home]] += m
        th.spin = 0

    def _republish(
        self,
        ctx: KernelContext,
        h: RetryFreeQueue,
        v: RetryFreeQueue,
        src_raw: np.ndarray,
        src_phys: np.ndarray,
        tokens: np.ndarray,
    ) -> Generator[Op, Op, None]:
        """Move ``tokens`` (already claimed and read from victim ``v``)
        into fresh slots of home shard ``h``: AFA-reserve at the home
        Rear, restore ``dna`` at the victim, then store the batch with
        the inner queue's sentinel-checked store (Listing 3).

        Split out so the planted-bug fixtures of ``repro.verify.faults``
        can sabotage exactly this window."""
        probe = ctx.probe
        m = int(tokens.size)
        home = ctx.wf_id % self.n_shards

        hbase = yield from h._advance(ctx, REAR, m)
        dst_raw = np.arange(hbase, hbase + m, dtype=np.int64)
        if probe is not None:
            # announce the transfer before the victim-side delivery so
            # the multi-queue oracle can classify the delivery as a
            # transfer rather than a lane consumption.
            probe.queue_steal(v.prefix, h.prefix, src_raw, hbase, tokens)
            probe.queue_grant(v.prefix, src_raw, probe.now)
            probe.queue_deliver(v.prefix, src_raw, tokens)
        # restore the sentinel at the victim (the consuming side of the
        # transfer — same ordering contract as the RF/AN dequeue: the
        # grant/deliver probes fire at this write's issue).
        yield MemWrite(v.buf_data, src_phys, DNA)

        # store at home with the inner queue's full-queue checks.
        oob = ~h._in_bounds(dst_raw)
        if oob.any():
            x = int(dst_raw[oob][0])
            yield queue_full(
                f"queue full: steal republish raw index {x} beyond "
                f"capacity {h.capacity} on shard {home} ({h.prefix!r}, "
                f"fill {x}/{h.capacity})",
                h.prefix, h.capacity, x, shard=home,
            )
        dst_phys = np.asarray(h._phys(dst_raw), dtype=np.int64)
        yield from self._store_batch(ctx, h, dst_raw, dst_phys, tokens)

    def _store_batch(
        self,
        ctx: KernelContext,
        h: RetryFreeQueue,
        dst_raw: np.ndarray,
        dst_phys: np.ndarray,
        tokens: np.ndarray,
    ) -> Generator[Op, Op, None]:
        """Land a transferred batch in its reserved home slots (the final
        step of :meth:`_republish`, naming the home shard in its
        queue-full abort; fault fixtures drop individual stores here)."""
        home = ctx.wf_id % self.n_shards

        def taken(bad: np.ndarray) -> Abort:
            return queue_full(
                "queue full: steal republish target slot not "
                f"data-not-arrived on shard {home} ({h.prefix!r}, ring "
                f"fill {h.capacity}/{h.capacity})",
                h.prefix, h.capacity, h.capacity, shard=home,
            )

        yield from h._store(ctx, dst_raw, dst_phys, tokens, taken)
