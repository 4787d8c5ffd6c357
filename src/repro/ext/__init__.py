"""Extensions beyond the paper's shipped design.

* :class:`~repro.ext.queue_naive_cas.NaiveCasQueue` — the textbook
  per-lane CAS queue kept as evidence for the BASE-formulation decision
  in DESIGN.md §7.
* :class:`~repro.ext.distributed.DistributedWorkQueues` — the distributed
  queuing + stealing alternative from the related work (Tzeng et al.
  2010), for the single-vs-distributed trade-off bench: a set of AN
  queues whose steals are plain AN dequeues at the victim.
* :func:`~repro.ext.hybrid_bfs.run_hybrid_bfs` — direction-optimizing
  BFS (the "faster BFS" of the paper's reference [9]), for the top-down
  vs hybrid follow-up comparison.
"""

from .distributed import DistributedWorkQueues
from .hybrid_bfs import run_hybrid_bfs
from .queue_naive_cas import NaiveCasQueue

__all__ = ["DistributedWorkQueues", "NaiveCasQueue", "run_hybrid_bfs"]
