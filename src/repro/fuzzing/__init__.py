"""The fuzzing loop (paper Figure 1a and §III-C).

- :class:`~repro.fuzzing.chatfuzz.FuzzLoop` — batch generation, differential
  execution (DUT vs golden), coverage accounting, mismatch detection.
- :class:`~repro.fuzzing.mismatch.MismatchDetector` — trace diffing with
  signature-based unique-mismatch filtering and user filters (§IV-A).
- :class:`~repro.fuzzing.simclock.SimClock` — the simulated wall-clock that
  maps test counts to the paper's time axis.
- :class:`~repro.fuzzing.campaign.Campaign` — drives a fuzzer to a
  test-count / sim-time / coverage target and records the coverage curve.
- :class:`~repro.fuzzing.executor.HarnessExecutor` — injectable execution
  strategy for the differential step: in-process
  :class:`~repro.fuzzing.executor.SerialExecutor` (default) or the
  process-pool :class:`~repro.fuzzing.pool.ShardedExecutor`.
- :class:`~repro.fuzzing.fleet.FleetRunner` — whole *fleets* of campaigns
  (declarative :class:`~repro.fuzzing.fleet.CampaignSpec` arms) sharded over
  a process pool, budget-scheduled (:mod:`repro.fuzzing.scheduler`)
  through one dispatch loop that streams slices or runs them in
  barrier-synchronised rounds, checkpointable, and aggregated into a
  :class:`~repro.fuzzing.fleet.FleetResult` (dispatch accounting in
  :class:`~repro.fuzzing.fleet.FleetStats`), with fault tolerance —
  slice retry, pool self-healing, timeouts, arm quarantine — reported in
  :class:`~repro.fuzzing.fleet.FleetHealth` and pinned by the
  deterministic chaos harness in :mod:`repro.fuzzing.faults`.
"""

from repro.fuzzing.campaign import Campaign, CampaignResult, CurvePoint
from repro.fuzzing.chatfuzz import FuzzLoop
from repro.fuzzing.executor import (
    DifferentialResult,
    HarnessExecutor,
    SerialExecutor,
)
from repro.fuzzing.faults import (
    ChaosHarnessFactory,
    FaultPlan,
    FaultPoint,
    FaultyHarnessFactory,
    InjectedCrash,
    InjectedFault,
)
from repro.fuzzing.fleet import (
    CampaignSpec,
    FleetCheckpoint,
    FleetHealth,
    FleetResult,
    FleetRunner,
    FleetStats,
    QuarantinedArm,
    SliceTimeout,
)
from repro.fuzzing.input import TestInput
from repro.fuzzing.mismatch import Mismatch, MismatchDetector, counter_csr_filter
from repro.fuzzing.pool import ShardedExecutor, default_workers
from repro.fuzzing.scheduler import BanditScheduler, BudgetScheduler, RoundRobin
from repro.fuzzing.simclock import SimClock

__all__ = [
    "BanditScheduler",
    "BudgetScheduler",
    "Campaign",
    "CampaignResult",
    "CampaignSpec",
    "ChaosHarnessFactory",
    "CurvePoint",
    "DifferentialResult",
    "FaultPlan",
    "FaultPoint",
    "FaultyHarnessFactory",
    "FleetCheckpoint",
    "FleetHealth",
    "FleetResult",
    "FleetRunner",
    "FleetStats",
    "FuzzLoop",
    "HarnessExecutor",
    "InjectedCrash",
    "InjectedFault",
    "Mismatch",
    "MismatchDetector",
    "QuarantinedArm",
    "RoundRobin",
    "SerialExecutor",
    "ShardedExecutor",
    "SimClock",
    "SliceTimeout",
    "TestInput",
    "counter_csr_filter",
    "default_workers",
]
