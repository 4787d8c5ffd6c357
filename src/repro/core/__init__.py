"""The paper's contribution: concurrent queues + persistent-thread scheduler.

Three queue variants (§5.3), one interface:

========  ===========  ============  =======================================
Variant   retry-free   arbitrary-n   Class
========  ===========  ============  =======================================
BASE      no           no            :class:`~repro.core.queue_base_cas.BaseCasQueue`
AN        no           yes           :class:`~repro.core.queue_an.ArbitraryNQueue`
RF/AN     yes          yes           :class:`~repro.core.queue_rfan.RetryFreeQueue`
========  ===========  ============  =======================================

Use :func:`make_queue` to construct one by name, and
:func:`~repro.core.scheduler.persistent_kernel` to drive it under the
persistent-thread model.  The one kernel serves every queue: it picks
fused termination accounting (and per-shard counters) from the queue's
``n_shards``, so a :class:`~repro.core.queue_sharded.ShardedQueue` needs
no kernel of its own.

Two *adaptive-capacity* variants layer graceful overflow handling over
the RF/AN protocol (:mod:`repro.core.queue_adaptive`): ``GROW`` chains
recycled fixed-size segments behind a write-once segment map, and
``SPILL`` dead-drops overflowing publishes into a side ring that a
drain pump re-publishes under backpressure.  Both deliver the same
token multisets as the bare variants — they just stop aborting on
fill excursions (see ``docs/capacity.md``).  They, the sharded
composition and the planted bugs of :mod:`repro.verify.faults` reuse
:class:`~repro.core.queue_rfan.RetryFreeQueue`'s protocol steps rather
than copying them.
"""

from __future__ import annotations

from typing import Dict, Type

from .constants import DEFAULT_SUBTASKS_PER_CYCLE, DNA, DONE, FRONT, PENDING, REAR
from .host import (
    CasConsumer,
    CasProducer,
    HostCasQueue,
    HostRFANQueue,
    RFANConsumer,
    RFANProducer,
)
from .queue_adaptive import GrowQueue, SpillQueue
from .queue_an import ArbitraryNQueue
from .queue_api import DeviceQueue, QueueFull
from .queue_base_cas import BaseCasQueue
from .queue_rfan import RetryFreeQueue
from .queue_sharded import ShardedQueue
from .scheduler import (
    SchedulerControl,
    WorkCycleResult,
    Worker,
    persistent_kernel,
)
from .state import WavefrontQueueState

#: queue variants by their table name.
QUEUE_VARIANTS: Dict[str, Type[DeviceQueue]] = {
    "BASE": BaseCasQueue,
    "AN": ArbitraryNQueue,
    "RF/AN": RetryFreeQueue,
    "GROW": GrowQueue,
    "SPILL": SpillQueue,
}


def make_queue(
    variant: str, capacity: int, prefix: str = "wq", circular: bool = False
) -> DeviceQueue:
    """Construct a queue variant by its name in the paper's tables."""
    try:
        cls = QUEUE_VARIANTS[variant]
    except KeyError:
        raise ValueError(
            f"unknown queue variant {variant!r}; expected one of "
            f"{sorted(QUEUE_VARIANTS)}"
        ) from None
    return cls(capacity, prefix=prefix, circular=circular)


__all__ = [
    "ArbitraryNQueue",
    "BaseCasQueue",
    "CasConsumer",
    "CasProducer",
    "DEFAULT_SUBTASKS_PER_CYCLE",
    "DNA",
    "DONE",
    "DeviceQueue",
    "FRONT",
    "GrowQueue",
    "HostCasQueue",
    "HostRFANQueue",
    "PENDING",
    "QUEUE_VARIANTS",
    "QueueFull",
    "REAR",
    "RFANConsumer",
    "RFANProducer",
    "RetryFreeQueue",
    "SchedulerControl",
    "ShardedQueue",
    "SpillQueue",
    "WavefrontQueueState",
    "WorkCycleResult",
    "Worker",
    "make_queue",
    "persistent_kernel",
]
