"""Planted queue bugs: the checker's own test fixtures.

A verification harness that has never caught anything proves nothing —
maybe the invariants are vacuous, maybe the probe hooks miss the window
where the bug lives.  Each class here is a queue variant with one
deliberate, realistic concurrency bug (the kind a port to real hardware
could introduce), and ``python -m repro.verify selftest`` asserts the
oracle actually catches every one of them.  The probe instrumentation in
the planted queues stays *honest*: it reports what the sabotaged code
really does, never what correct code would have done — the oracle must
catch the bug from the observed history, not from a confession.

Every plant is a one-step swap: it subclasses the shipping variant and
overrides exactly one protocol step (``_take``, ``_advance``, ``_store``,
``_fill``, ``_republish``, ``_store_batch`` or ``_retire_entries``), so
all the rest it runs — phase marks, ``fresh`` checks, queue-full aborts —
is the shipping code.

=====================  ==========  ===========================================
plant                  variant     bug / expected detection
=====================  ==========  ===========================================
``skip-dna-restore``   RF/AN       consumer forgets to restore the ``dna``
                                   sentinel after taking its token
                                   (Listing 2's write-back); caught at
                                   quiescence by the ``dna-not-restored``
                                   memory audit (non-circular) or as a
                                   spurious queue-full / ``wrap-overwrite``
                                   when circular.
``over-reserve``       RF/AN       proxy fetch-adds ``total + 1`` — reserves
                                   one slot more than the wavefront's hungry
                                   count; caught immediately by
                                   ``watch-reservation-mismatch``.
``lost-store``         RF/AN       publisher drops one token's slot write;
                                   the scheduler wedges (the task is counted
                                   in-flight but its token never lands) and
                                   the oracle localizes the wedge to the
                                   reserved-but-never-stored slot
                                   (``reservation-unfilled``).
``valid-before-data``  BASE        enqueuer sets the slot's valid flag
                                   *before* writing the data — the classic
                                   publication-ordering bug.  Only fails
                                   under schedules that delay the data store
                                   past a consumer's poll: caught as
                                   ``deliver-unwritten-slot`` under
                                   adversarial exploration, silent under the
                                   engine's native order.
``steal-double-        SHARDED     the thief republishes one stolen batch
deliver``                          twice (a re-executed transfer loop);
                                   caught by the multi-queue oracle at the
                                   second transfer announcement
                                   (``steal-double-transfer``).
``steal-lost-task``    SHARDED     the thief drops the last stolen token's
                                   home-side store; the scheduler wedges and
                                   the multi-queue oracle localizes the
                                   transfer that never landed
                                   (``steal-transfer-incomplete``).
``grow-link-lost-      GROW        the publisher crashes between winning the
task``                             segment-link CAS and completing the tail
                                   publish: the first store into the freshly
                                   linked segment never lands.  The scheduler
                                   wedges on the in-flight counter and the
                                   oracle localizes the reserved-but-empty
                                   slot (``reservation-unfilled`` /
                                   ``token-lost``).
``spill-reinject-      SPILL       the pump crashes between the re-publish
double-deliver``                   stores and the ring-head advance: head
                                   never moves, entries are never restored to
                                   ``dna``, so the next pump run re-publishes
                                   the same entries again.  Caught at the
                                   second announcement — the re-injected
                                   multiset exceeds the dead-dropped one
                                   (``reinject-unspilled``).
=====================  ==========  ===========================================
"""

from __future__ import annotations

from typing import Generator

import numpy as np

from repro.core.constants import DNA, FRONT
from repro.core.queue_adaptive import GrowQueue, SpillQueue
from repro.core.queue_api import K_DEQ_TOKENS
from repro.core.queue_base_cas import BaseCasQueue
from repro.core.queue_rfan import RetryFreeQueue
from repro.core.queue_sharded import ShardedQueue
from repro.simt import MemWrite, Op


def _store_dropping(store, ctx, raw, phys, vals, rest, drop: int):
    """Run the store step ``store`` without element ``drop``: that
    token's slot write never reaches memory (nor the probe)."""
    keep = np.ones(raw.size, dtype=bool)
    keep[drop] = False
    if keep.any():
        yield from store(
            ctx, raw[keep], np.asarray(phys)[keep], vals[keep], *rest
        )


class SkipDnaRestoreQueue(RetryFreeQueue):
    """RF/AN whose consumers never restore the ``dna`` sentinel."""

    def _take(self, ctx, st, lanes, phys, res) -> Generator[Op, Op, np.ndarray]:
        arrived = res != DNA
        got_lanes = lanes[arrived]
        tokens = res[arrived]
        raw = st.slot[got_lanes]
        probe = ctx.probe
        if probe is not None:
            probe.queue_grant(self.prefix, raw, probe.now)
            probe.queue_deliver(self.prefix, raw, tokens)
        # BUG: the sentinel write-back (Listing 2's `slot = dna`) is
        # missing — the token is taken but the slot still looks full.
        st.unwatch(got_lanes)
        st.grant(got_lanes, tokens)
        ctx.stats.custom[K_DEQ_TOKENS] += int(got_lanes.size)
        return raw
        yield  # pragma: no cover - keeps this a generator


class OverReserveQueue(RetryFreeQueue):
    """RF/AN whose proxy reserves one slot more than it needs."""

    def _advance(self, ctx, word, n):
        if word == FRONT:
            # BUG: off-by-one in the aggregated count — the proxy claims
            # n + 1 slots but only n lanes park on them.
            n += 1
        return (yield from super()._advance(ctx, word, n))


class LostStoreQueue(RetryFreeQueue):
    """RF/AN that silently drops the first token store of the launch."""

    #: set on the queue object once its bug has fired
    _dropped = False

    def _store(self, ctx, raw, phys, vals, *rest):
        if self._dropped:
            yield from super()._store(ctx, raw, phys, vals, *rest)
            return
        # BUG: the first store of the launch never reaches memory (a
        # masked-out lane, a lost write, a bad predicate) — the
        # reservation stays forever empty.
        self._dropped = True
        yield from _store_dropping(
            super()._store, ctx, raw, phys, vals, rest, raw.size - 1
        )


class ValidBeforeDataQueue(BaseCasQueue):
    """BASE that publishes the valid flag before the data write.

    The classic publication-ordering bug: under most schedules the data
    store lands long before any consumer polls the flag, and nothing is
    observably wrong — only a schedule that *delays* the enqueuer between
    the two stores lets a consumer read a slot whose flag says ready but
    whose data never arrived.  This is the plant that justifies schedule
    exploration: the engine's native order never catches it.
    """

    def _fill(self, ctx, raw, phys, toks):
        # BUG: flag first, data second — consumers that poll inside the
        # window read a slot whose data has not arrived.
        yield MemWrite(self.buf_valid, phys, 1)
        if ctx.probe is not None:
            ctx.probe.queue_store(self.prefix, raw, toks)
        yield MemWrite(self.buf_data, phys, toks)


class StealDoubleDeliverQueue(ShardedQueue):
    """Sharded queue whose thief republishes one stolen batch twice.

    A re-executed transfer loop (the thief retries after a perceived
    failure that actually succeeded — classic CAS-result mishandling):
    the same source slots are announced, and their tokens stored at
    home, a second time.  The instrumentation stays honest — it reports
    the duplicated transfer exactly as the code performs it — and the
    multi-queue oracle must convict from the announcement alone.
    """

    #: set on the queue object once its bug has fired
    _doubled = False

    def _republish(self, ctx, h, v, src_raw, src_phys, tokens):
        yield from super()._republish(ctx, h, v, src_raw, src_phys, tokens)
        if not self._doubled:
            self._doubled = True
            # BUG: the transfer loop runs again for the same batch.
            yield from super()._republish(
                ctx, h, v, src_raw, src_phys, tokens
            )


class StealLostTaskQueue(ShardedQueue):
    """Sharded queue whose thief drops one stolen token's home store.

    The destination-side reservation happens (the home Rear moved), the
    victim-side slot was consumed and restored, but the last token of
    the first transferred batch never lands at home — a masked-out lane
    or lost write in the republish loop.  The token is gone; the
    scheduler wedges on the in-flight counter.
    """

    #: set on the queue object once its bug has fired
    _dropped = False

    def _store_batch(self, ctx, h, dst_raw, dst_phys, tokens):
        if self._dropped or not tokens.size:
            yield from super()._store_batch(ctx, h, dst_raw, dst_phys, tokens)
            return
        # BUG: the last token of the first transferred batch is lost.
        self._dropped = True
        keep = np.ones(tokens.size, dtype=bool)
        keep[-1] = False
        if keep.any():
            yield from super()._store_batch(
                ctx, h, dst_raw[keep], dst_phys[keep], tokens[keep]
            )


class GrowLinkLostTaskQueue(GrowQueue):
    """GROW whose publisher crashes between segment-link CAS and publish.

    The link CAS wins and the segment map is updated, but the crash
    window swallows the first token store destined for the freshly
    linked segment (a masked-out lane at exactly the wrong moment).
    The reservation stands, the slot stays ``dna`` forever, the watcher
    parks forever, and the scheduler wedges on the in-flight counter.
    """

    #: set on the queue object once its bug has fired
    _dropped = False

    def _store(self, ctx, raw, phys, vals, *rest):
        beyond = np.flatnonzero(raw // self.seg_cap >= 1)
        if self._dropped or not beyond.size:
            yield from super()._store(ctx, raw, phys, vals, *rest)
            return
        # BUG: the first store into a device-linked segment (segment 0
        # is host-mapped) never reaches memory.
        self._dropped = True
        yield from _store_dropping(
            super()._store, ctx, raw, phys, vals, rest, int(beyond[0])
        )


class SpillReinjectDoubleDeliverQueue(SpillQueue):
    """SPILL whose pump crashes between re-publish and head advance.

    The re-injected tokens land in the ring, but the overflow-ring
    entries are never restored to ``dna`` and the head never advances —
    so the next pump run reads the very same entries and re-publishes
    them again.  The forced gate models the pump believing (correctly,
    per the un-advanced head) that work is still pending.
    """

    def _gate_ok(self):
        # BUG-ADJACENT: with the head stuck, (tail - head) never shrinks,
        # so an honest gate would keep pumping too; forcing it just makes
        # the second pump deterministic under the selftest scenario.
        return True

    def _retire_entries(self, ctx, entries, new_head):
        # BUG: the crash window — neither the dna restore nor the head
        # advance happens.
        return
        yield  # pragma: no cover - keeps this a generator


#: sharded-plant construction: two shards, eager stealing, so the steal
#: path fires deterministically under the selftest's fanout scenario.
_SHARDED_KW = {
    "n_shards": 2, "steal": True, "steal_quantum": 4, "spin_threshold": 1,
}

#: plant name -> (queue class, base variant, acceptable invariant names,
#: whether detection requires adversarial schedule exploration,
#: optional constructor kwargs).
PLANTS = {
    "skip-dna-restore": {
        "cls": SkipDnaRestoreQueue,
        "variant": "RF/AN",
        "invariants": {
            # non-circular: the quiescence memory audit; circular: the
            # un-restored slot either blocks a producer (spurious full),
            # collides with a wrapping store, or hands its stale token
            # to a consumer a generation late.
            "dna-not-restored", "wrap-overwrite", "unexpected-abort",
            "deliver-unwritten-slot",
        },
        "needs_schedule": False,
    },
    "over-reserve": {
        "cls": OverReserveQueue,
        "variant": "RF/AN",
        "invariants": {"watch-reservation-mismatch"},
        "needs_schedule": False,
    },
    "lost-store": {
        "cls": LostStoreQueue,
        "variant": "RF/AN",
        "invariants": {"reservation-unfilled", "token-lost"},
        "needs_schedule": False,
    },
    "valid-before-data": {
        "cls": ValidBeforeDataQueue,
        "variant": "BASE",
        "invariants": {"deliver-unwritten-slot", "token-corrupted"},
        "needs_schedule": True,
    },
    "steal-double-deliver": {
        "cls": StealDoubleDeliverQueue,
        "variant": "SHARDED",
        "invariants": {"steal-double-transfer"},
        "needs_schedule": False,
        "kwargs": dict(_SHARDED_KW),
    },
    "steal-lost-task": {
        "cls": StealLostTaskQueue,
        "variant": "SHARDED",
        # the transfer-completeness audit localizes it; the per-shard
        # conservation audits would also trip on the same hole.
        "invariants": {
            "steal-transfer-incomplete", "reservation-unfilled",
            "token-lost",
        },
        "needs_schedule": False,
        "kwargs": dict(_SHARDED_KW),
    },
    "grow-link-lost-task": {
        "cls": GrowLinkLostTaskQueue,
        "variant": "GROW",
        # the wedge audit localizes the reserved-but-empty slot.
        "invariants": {"reservation-unfilled", "token-lost"},
        "needs_schedule": False,
        "kwargs": {"seg_cap": 8, "pool_segments": 6},
    },
    "spill-reinject-double-deliver": {
        "cls": SpillReinjectDoubleDeliverQueue,
        "variant": "SPILL",
        # convicted synchronously at the duplicated announcement.
        "invariants": {"reinject-unspilled"},
        "needs_schedule": False,
        "kwargs": {"spill_capacity": 1024, "high_water": 10,
                   "low_water": 6},
    },
}


def make_planted_queue(
    plant: str,
    capacity: int,
    circular: bool = False,
    extra_kwargs: dict | None = None,
):
    """Instantiate the sabotaged queue for ``plant``.

    ``extra_kwargs`` (scenario-supplied adaptive geometry) override the
    plant's baked-in construction defaults.
    """
    try:
        spec = PLANTS[plant]
    except KeyError:
        raise ValueError(
            f"unknown plant {plant!r}; have {sorted(PLANTS)}"
        ) from None
    kwargs = dict(spec.get("kwargs", {}))
    if extra_kwargs:
        kwargs.update(extra_kwargs)
    return spec["cls"](capacity, circular=circular, **kwargs)
