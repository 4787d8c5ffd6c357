"""SIMT GPU simulator substrate.

This package stands in for the paper's OpenCL GPUs (AMD Fiji and Spectre).
It provides:

* :class:`~repro.simt.device.DeviceSpec` and the :data:`FIJI` /
  :data:`SPECTRE` / :data:`TESTGPU` presets;
* :class:`~repro.simt.memory.GlobalMemory` — statically allocated buffers;
* the op vocabulary in :mod:`repro.simt.ops` that kernels (Python
  generators) yield;
* :class:`~repro.simt.engine.Engine` — the discrete-event executor with
  lock-step wavefronts, zero-cost wavefront switching, and per-address
  atomic serialization where CAS can fail and fetch-add cannot;
* lane-mask helpers in :mod:`repro.simt.lanes`;
* :class:`~repro.simt.stats.SimStats` counters feeding Figures 1 and 5;
* the opt-in :class:`~repro.simt.probe.Probe` observability interface —
  cycle-accurate hooks consumed by :mod:`repro.obs` (timelines, queue and
  contention metrics, Perfetto export).
"""

from .analysis import Utilization, analyze, utilization_report
from .device import FIJI, SPECTRE, TESTGPU, DeviceSpec, paper_workgroups
from .probe import Probe
from .trace import TraceEvent, Tracer
from .engine import (
    COALESCE_SEGMENT_WORDS,
    OP_KIND_NAMES,
    Engine,
    Kernel,
    KernelContext,
    LaunchResult,
    Session,
    attached,
    transactions_for,
)
from .errors import (
    KernelAbort,
    LaunchConfigError,
    MemoryFault,
    QueueFullError,
    SimError,
    SimulationTimeout,
    WedgeError,
)
from .lanes import ballot, first_active, lane_ids, rank_within, segmented_rank
from .memory import GlobalMemory
from .ops import (
    Abort,
    AtomicKind,
    AtomicRMW,
    Compute,
    Fence,
    LocalOp,
    MemRead,
    MemWrite,
    Op,
    Park,
)
from .stats import SimStats

__all__ = [
    "OP_KIND_NAMES",
    "Probe",
    "TraceEvent",
    "Tracer",
    "Utilization",
    "analyze",
    "utilization_report",
    "FIJI",
    "SPECTRE",
    "TESTGPU",
    "DeviceSpec",
    "paper_workgroups",
    "COALESCE_SEGMENT_WORDS",
    "Engine",
    "Kernel",
    "KernelContext",
    "LaunchResult",
    "Session",
    "attached",
    "transactions_for",
    "KernelAbort",
    "LaunchConfigError",
    "MemoryFault",
    "QueueFullError",
    "SimError",
    "SimulationTimeout",
    "WedgeError",
    "ballot",
    "first_active",
    "lane_ids",
    "rank_within",
    "segmented_rank",
    "GlobalMemory",
    "Abort",
    "AtomicKind",
    "AtomicRMW",
    "Compute",
    "Fence",
    "LocalOp",
    "MemRead",
    "MemWrite",
    "Op",
    "Park",
    "SimStats",
]
