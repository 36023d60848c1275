"""Configuration for the RocketCore model: geometry, latencies, bug switches."""

from __future__ import annotations

from dataclasses import dataclass

from repro.golden.simulator import MAX_STEPS, MAX_TRAPS


@dataclass(frozen=True)
class RocketParams:
    """Elaboration-time parameters of :class:`~repro.soc.rocket.core.RocketCore`.

    The bug flags default to True because the paper's DUT *contains* these
    behaviours; tests and ablations flip them off to obtain a clean core.
    """

    # Cache geometry (RocketCore defaults scaled down: 2-way, 8 sets, 32 B).
    icache_ways: int = 2
    icache_sets: int = 8
    dcache_ways: int = 2
    dcache_sets: int = 8
    line_bytes: int = 32

    # Latencies, in cycles (the timing model).
    icache_miss_penalty: int = 20
    dcache_miss_penalty: int = 20
    mul_latency: int = 4
    div_latency: int = 20
    mispredict_penalty: int = 3
    trap_penalty: int = 5
    fencei_penalty: int = 10

    # Execution limits (the golden model's defaults).
    max_steps: int = MAX_STEPS
    max_traps: int = MAX_TRAPS

    # Store buffer depth.
    store_buffer_depth: int = 2

    #: When True, CSR reads of cycle/time expose the *timed* cycle count,
    #: which legitimately differs from the untimed golden model — the classic
    #: differential-testing false positive that mismatch filters remove
    #: (paper §IV-A).  Default False: counters are virtualised to match the
    #: golden model, as co-simulation environments (Chipyard DiffTest) do.
    timed_counter_csr: bool = False

    # --- injected paper behaviours -----------------------------------------
    bug1_fencei: bool = True          # CWE-1202 stale I$ without FENCE.I
    bug2_tracer_muldiv: bool = True   # CWE-440 missing mul/div trace write-back
    finding1_trap_priority: bool = True  # access-fault over misaligned
    finding2_amo_x0_trace: bool = True   # AMO rd=x0 shows data in trace
    finding3_x0_trace: bool = True       # spurious x0 writes in trace

    @classmethod
    def clean(cls) -> "RocketParams":
        """A bug-free Rocket (used to validate trace equivalence vs golden)."""
        return cls(
            bug1_fencei=False,
            bug2_tracer_muldiv=False,
            finding1_trap_priority=False,
            finding2_amo_x0_trace=False,
            finding3_x0_trace=False,
        )
