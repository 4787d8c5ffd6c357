"""Schedule exploration + linearizability checking for the queue family.

The paper's central claims — retry-free enqueue/dequeue via AFA, the
``dna``-sentinel refactoring of queue-empty, and arbitrary-n proxy
reservations — are *concurrency correctness* claims, yet the engine is
deterministic: ordinary tests only ever exercise the one interleaving
the event loop happens to produce.  This package closes that gap:

* :mod:`repro.verify.schedule` — schedule controllers, launch
  observers with a ``pick`` hook (see ``Engine.launch``), that
  perturb wavefront issue order: seeded-random interleavings plus
  targeted adversarial schedules (delay-the-proxy, starve-one-CU).
* :mod:`repro.verify.oracle` — an invariant oracle
  (:class:`~repro.verify.oracle.InvariantOracle`) that records the
  operation history through the passive probe interface and replays it,
  event by event, against a sequential FIFO-with-reservation
  specification; violations raise
  :class:`~repro.verify.oracle.VerificationError` at the exact step.
* :mod:`repro.verify.scenario` / :mod:`repro.verify.runner` — the
  JSON-serializable scenario space (variant x workload x schedule x
  capacity regime) and the ``--quick`` / ``--deep`` exploration plans.
* :mod:`repro.verify.faults` — deliberately planted queue bugs used to
  self-test the checker (a checker that catches nothing proves nothing).
* :mod:`repro.verify.shrink` — a greedy counterexample shrinker that
  minimizes a failing scenario and emits a replayable JSON artifact.

Run ``python -m repro.verify --quick`` (PR budget) or ``--deep``
(nightly budget); replay a counterexample with
``python -m repro.verify replay <file>``.  See ``docs/verification.md``.
"""

from __future__ import annotations

from .oracle import InvariantOracle, VerificationError
from .scenario import Outcome, Scenario, run_scenario
from .schedule import (
    DelayWavefrontController,
    FifoController,
    RandomController,
    ScheduleController,
    StarveCUController,
    build_controller,
)

__all__ = [
    "DelayWavefrontController",
    "FifoController",
    "InvariantOracle",
    "Outcome",
    "RandomController",
    "Scenario",
    "ScheduleController",
    "StarveCUController",
    "VerificationError",
    "build_controller",
    "run_scenario",
]
