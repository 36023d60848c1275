"""Configuration for the BOOM-like out-of-order core model."""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class BoomParams:
    """Elaboration-time parameters of :class:`~repro.soc.boom.core.BoomCore`."""

    # Cache geometry.  Small enough that eviction/conflict FSM states are
    # exercised by ordinary test programs.
    icache_ways: int = 2
    icache_sets: int = 4
    dcache_ways: int = 2
    dcache_sets: int = 8
    line_bytes: int = 32

    # Out-of-order structures.
    rob_entries: int = 16
    issue_queue_entries: int = 8
    ldq_entries: int = 3
    stq_entries: int = 3
    ras_entries: int = 2
    phys_regs: int = 48

    # Latencies, in cycles.
    icache_miss_penalty: int = 24
    dcache_miss_penalty: int = 24
    mul_latency: int = 3
    div_latency: int = 16
    mispredict_penalty: int = 7

    # Execution limits.
    max_steps: int = 4096
    max_traps: int = 64
