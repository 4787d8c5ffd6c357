"""Schedule controllers: adversarial wavefront-issue-order exploration.

The engine's event loop is deterministic — left alone it explores exactly
one interleaving per (kernel, launch geometry).  A *schedule controller*
is a launch observer with a ``pick`` hook (``Engine.launch(...,
observers=[controller])``, or contributed by an attached session) that
perturbs which ready wavefront a compute unit issues next, or holds the
CU idle for a cycle.  Because the engine applies the
controller strictly at the issue-selection point, every controlled
execution is still a legal hardware execution: memory semantics, atomic
serialization and cost charging are untouched.  The controllers here are
the exploration strategies of ``python -m repro.verify``:

* :class:`FifoController` — picks index 0 every time, i.e. exactly the
  uncontrolled engine order.  Exists so the determinism suite can pin
  that the controller hook itself is bit-invisible.
* :class:`RandomController` — seeded-random pick + occasional one-cycle
  holds; the workhorse of ``--quick`` / ``--deep`` exploration.
* :class:`DelayWavefrontController` — systematically de-prioritizes one
  wavefront (e.g. a proxy mid-reservation) to stretch the windows the
  retry-free property is supposed to protect.
* :class:`StarveCUController` — periodically refuses to issue from one
  CU, emulating long scheduling bubbles / preemption on half the device.

All controllers are reset by ``launch_begin`` so one instance can serve
several launches reproducibly.  :func:`build_controller` maps the JSON
schedule spec used by :class:`repro.verify.scenario.Scenario` to a
controller instance.
"""

from __future__ import annotations

import random
from typing import Optional


class ScheduleController:
    """Base schedule controller: issue in engine (FIFO) order.

    Subclasses override :meth:`pick`.  ``pick(now, cid, ready)`` returns
    an index into ``ready`` (a deque of ready wavefronts on CU ``cid`` at
    cycle ``now``), or any negative value to hold the CU for one cycle.
    """

    #: spec name used by :func:`build_controller` / scenario JSON.
    kind = "fifo"

    def launch_begin(self, device: object, n_wavefronts: int) -> None:
        """Reset per-launch state (called by the engine before cycle 0)."""

    def pick(self, now: int, cid: int, ready) -> int:
        return 0

    def describe(self) -> dict:
        """The JSON spec that :func:`build_controller` would map back."""
        return {"kind": self.kind}


class FifoController(ScheduleController):
    """Explicit engine-order controller (bit-identity pin in tests)."""

    kind = "fifo"


class RandomController(ScheduleController):
    """Seeded-random issue order with random preemption bursts.

    Each time a CU is about to issue, with probability ``hold_prob`` the
    controller instead freezes that CU for a random burst of up to
    ``burst`` cycles — modelling scheduling bubbles, instruction-cache
    misses, preemption.  Single-cycle holds barely perturb anything (the
    memory system's latencies are tens of cycles); *bursts* are what
    stretch the windows between a wavefront's consecutive stores wide
    enough for other wavefronts to observe intermediate states.

    Parameters
    ----------
    seed:
        PRNG seed; the PRNG is re-seeded at every ``launch_begin`` so the
        same controller object replays identically across launches.
    hold_prob:
        Probability (per issue opportunity) of starting a hold burst.
    burst:
        Maximum burst length in cycles (each burst's length is drawn
        uniformly from ``[1, burst]``).
    max_holds:
        Hard cap on total held cycles per launch, so a hostile (seed,
        hold_prob) pair cannot stretch a run towards the watchdog.
    """

    kind = "random"

    def __init__(self, seed: int, hold_prob: float = 0.05, burst: int = 48,
                 max_holds: int = 50_000):
        self.seed = int(seed)
        self.hold_prob = float(hold_prob)
        self.burst = int(burst)
        self.max_holds = int(max_holds)
        self._rng = random.Random(self.seed)
        self._holds = 0
        self._frozen: dict = {}

    def launch_begin(self, device: object, n_wavefronts: int) -> None:
        self._rng = random.Random(self.seed)
        self._holds = 0
        self._frozen = {}

    def pick(self, now: int, cid: int, ready) -> int:
        rng = self._rng
        rem = self._frozen.get(cid, 0)
        if rem > 0:
            self._frozen[cid] = rem - 1
            self._holds += 1
            return -1
        if (
            self.hold_prob > 0.0
            and self._holds < self.max_holds
            and rng.random() < self.hold_prob
        ):
            self._frozen[cid] = rng.randint(1, max(self.burst, 1)) - 1
            self._holds += 1
            return -1
        n = len(ready)
        return rng.randrange(n) if n > 1 else 0

    def describe(self) -> dict:
        return {
            "kind": self.kind,
            "seed": self.seed,
            "hold_prob": self.hold_prob,
            "burst": self.burst,
            "max_holds": self.max_holds,
        }


class DelayWavefrontController(ScheduleController):
    """Always issue somebody else before wavefront ``target``.

    When only the target is ready on its CU, hold the CU for up to
    ``patience`` consecutive cycles before letting it through — this is
    the "delay the proxy" adversary: the target's in-flight reservation
    (AFA done, slots not yet watched/stored) stays open while every other
    wavefront races ahead over the reserved range.
    """

    kind = "delay"

    def __init__(self, target: int, patience: int = 64,
                 max_holds: int = 10_000):
        self.target = int(target)
        self.patience = int(patience)
        self.max_holds = int(max_holds)
        self._streak = 0
        self._holds = 0

    def launch_begin(self, device: object, n_wavefronts: int) -> None:
        self._streak = 0
        self._holds = 0

    def pick(self, now: int, cid: int, ready) -> int:
        for k, wf in enumerate(ready):
            if wf.wid != self.target:
                self._streak = 0
                return k
        # only the target is ready on this CU
        if self._streak < self.patience and self._holds < self.max_holds:
            self._streak += 1
            self._holds += 1
            return -1
        self._streak = 0
        return 0

    def describe(self) -> dict:
        return {
            "kind": self.kind,
            "target": self.target,
            "patience": self.patience,
            "max_holds": self.max_holds,
        }


class StarveCUController(ScheduleController):
    """Periodically refuse to issue from one CU.

    During the first ``duty`` cycles of every ``period``-cycle window,
    CU ``cid`` issues nothing — emulating a long scheduling bubble on
    part of the device while the rest runs at full speed.  ``max_holds``
    bounds total interference per launch.
    """

    kind = "starve"

    def __init__(self, cid: int, period: int = 512, duty: int = 256,
                 max_holds: int = 50_000):
        if not 0 < duty < period:
            raise ValueError("need 0 < duty < period")
        self.cid = int(cid)
        self.period = int(period)
        self.duty = int(duty)
        self.max_holds = int(max_holds)
        self._holds = 0

    def launch_begin(self, device: object, n_wavefronts: int) -> None:
        self._holds = 0

    def pick(self, now: int, cid: int, ready) -> int:
        if (
            cid == self.cid
            and now % self.period < self.duty
            and self._holds < self.max_holds
        ):
            self._holds += 1
            return -1
        return 0

    def describe(self) -> dict:
        return {
            "kind": self.kind,
            "cid": self.cid,
            "period": self.period,
            "duty": self.duty,
            "max_holds": self.max_holds,
        }


def build_controller(spec: Optional[dict]) -> Optional[ScheduleController]:
    """Instantiate a controller from a scenario's JSON ``schedule`` spec.

    ``None`` or ``{"kind": "none"}`` mean *uncontrolled* (the engine's
    native order with the controller hook entirely absent — the
    bit-identical baseline).  Unknown kinds raise ``ValueError`` so a
    corrupted counterexample file fails loudly at replay.
    """
    if spec is None:
        return None
    kind = spec.get("kind", "none")
    if kind == "none":
        return None
    params = {k: v for k, v in spec.items() if k != "kind"}
    if kind == "fifo":
        return FifoController()
    if kind == "random":
        return RandomController(**params)
    if kind == "delay":
        return DelayWavefrontController(**params)
    if kind == "starve":
        return StarveCUController(**params)
    raise ValueError(f"unknown schedule kind: {kind!r}")
