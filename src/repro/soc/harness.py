"""Test harness: turns a fuzzer-generated instruction body into a full
program image and runs it on a DUT and/or the golden model.

As in real processor-fuzzing setups (TheHuzz, DifuzzRTL), a fixed preamble
initialises the pointer registers to valid data addresses before the test
body runs, so that memory instructions have a fighting chance of touching
mapped memory; a ``wfi`` terminator marks normal test completion.  The same
image runs on both simulators, so the preamble can never cause a mismatch.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Callable, NamedTuple

from repro.golden.simulator import GoldenSimulator, SimConfig
from repro.golden.trace import CommitTrace
from repro.isa.encoder import encode
from repro.isa.spec import DRAM_BASE
from repro.rtl.report import CoverageReport


# -- engine-capability registry ----------------------------------------------


class EngineSpec(NamedTuple):
    """What one harness kind can do.

    ``batch_cls`` is the kind's batched DUT engine (a
    ``DutBatchSimulator``-shaped class) or ``None`` for kinds that only
    have a scalar core — requesting ``dut_lanes`` on those fails loudly.
    """

    core_cls: type
    params_cls: type
    batch_cls: type | None


def _load_rocket() -> EngineSpec:
    from repro.soc.batch import DutBatchSimulator
    from repro.soc.rocket import RocketCore, RocketParams

    return EngineSpec(RocketCore, RocketParams, DutBatchSimulator)


def _load_boom() -> EngineSpec:
    from repro.soc.boom import BoomCore, BoomParams

    return EngineSpec(BoomCore, BoomParams, None)


#: kind -> lazy :class:`EngineSpec` loader.  This is the single place a
#: harness kind declares its core, params and (optional) batch engine:
#: adding a core kind means adding one loader entry here — the harness,
#: factory and fleet layers all dispatch through it.
ENGINE_REGISTRY: dict[str, Callable[[], EngineSpec]] = {
    "rocket": _load_rocket,
    "boom": _load_boom,
}

#: Harness kinds a :class:`HarnessFactory` can build (CampaignSpec wiring).
HARNESS_KINDS = tuple(ENGINE_REGISTRY)


def resolve_engine(kind: str) -> EngineSpec:
    """Registry lookup with the loud unknown-kind error.

    Deliberately uncached: the loaders only touch ``sys.modules`` after
    the first import, and tests register throwaway kinds.
    """
    try:
        loader = ENGINE_REGISTRY[kind]
    except KeyError:
        raise ValueError(
            f"unknown harness kind: {kind!r} (expected one of {HARNESS_KINDS})"
        ) from None
    return loader()


def _batch_engine_for(core) -> type | None:
    """The registered batch engine matching a scalar core, if any."""
    for kind in ENGINE_REGISTRY:
        spec = resolve_engine(kind)
        if isinstance(core, spec.core_cls):
            return spec.batch_cls
    return None


@lru_cache(maxsize=1)
def _preamble_cached() -> tuple[int, ...]:
    """Encoded preamble — fixed, so encoded once per process."""
    return (
        encode("auipc", rd=2, imm=0x80),        # sp = pc + 0x80000
        encode("addi", rd=2, rs1=2, imm=0x400),
        encode("auipc", rd=8, imm=0x80),        # s0 = pc+8 + 0x80000
        encode("addi", rd=8, rs1=8, imm=0xF8),
        encode("auipc", rd=3, imm=0x80),        # gp = pc+16 + 0x80000
        encode("addi", rd=3, rs1=3, imm=-16),
        encode("auipc", rd=4, imm=0x80),        # tp = pc+24 + 0x80000
        encode("addi", rd=4, rs1=4, imm=0x1E8),
        encode("addi", rd=10, rs1=0, imm=8),    # a0 = 8
        encode("addi", rd=11, rs1=0, imm=3),    # a1 = 3
        encode("addi", rd=12, rs1=0, imm=-1),   # a2 = -1
        encode("addi", rd=5, rs1=0, imm=0x7F),  # t0 = 127
        encode("addi", rd=6, rs1=0, imm=1),     # t1 = 1
        encode("slli", rd=6, rs1=6, shamt=31),  # t1 = 1 << 31
        encode("addi", rd=7, rs1=0, imm=0),     # t2 = 0
        encode("addi", rd=9, rs1=2, imm=64),    # s1 = sp + 64
    )


def preamble_words() -> list[int]:
    """Register-initialisation preamble (position: start of the image).

    Uses ``auipc``-relative addressing so it works regardless of the sign
    of the load address.  After it runs::

        sp = base + 0x80400    s0 = base + 0x80100    gp = base + 0x80000
        tp = base + 0x80200    a0..a2, t0..t2 = small mixed constants
    """
    return list(_preamble_cached())


TERMINATOR = encode("wfi")


@lru_cache(maxsize=8192)
def _ra_setup_cached(body_len: int) -> tuple[int, ...]:
    """``ra``-initialisation chain — depends only on the body length.

    ra = pc_of_auipc + offset  ->  address of the wfi terminator.  The
    offset depends on how many addi instructions the chain itself needs.
    """
    n_addi = 1
    while 4 * (1 + n_addi + body_len) - 2044 * (n_addi - 1) > 2047:
        n_addi += 1
    total = 4 * (1 + n_addi + body_len)
    ra_setup = [encode("auipc", rd=1, imm=0)]
    ra_setup += [encode("addi", rd=1, rs1=1, imm=2044)] * (n_addi - 1)
    ra_setup.append(encode("addi", rd=1, rs1=1, imm=total - 2044 * (n_addi - 1)))
    return tuple(ra_setup)


def build_program(body: list[int]) -> list[int]:
    """Full program image: preamble + ra setup + fuzzed body + terminator.

    ``ra`` is pointed at the terminating ``wfi`` so that generated code
    ending in ``ret`` (every corpus-shaped function does) terminates the test
    cleanly instead of escaping to address 0.  The fixed parts (preamble,
    per-length ra chain) are memoized — the harness builds one image per
    test, so re-encoding them dominated image construction.
    """
    return [*_preamble_cached(), *_ra_setup_cached(len(body)),
            *body, TERMINATOR]


class DutHarness:
    """Runs test bodies on one DUT core and on the golden model.

    Parameters
    ----------
    core:
        Any object with ``run(program, base) -> (CommitTrace, CoverageReport)``
        and ``params`` (RocketCore or BoomCore).  The golden model stops at
        the core's own ``params.max_steps`` and ``params.max_traps``, so
        both traces end at the same limit.
    golden_lanes:
        Lane-group width for the batched golden engine
        (:class:`repro.golden.batch.GoldenBatchSimulator`).  ``0`` (the
        default) keeps the scalar golden path; any positive width routes
        :meth:`run_golden_batch` / :meth:`run_differential_batch` through
        numpy lane execution, which is bit-identical to the scalar engine
        (pinned by ``tests/golden/test_batch.py``) but several times
        faster on whole batches.
    dut_lanes:
        Lane-group width for the batched DUT engine of the core's kind,
        resolved through :data:`ENGINE_REGISTRY` (only Rocket has one:
        :class:`repro.soc.batch.DutBatchSimulator`).  ``0`` (the default)
        keeps the scalar DUT; any positive width routes
        :meth:`run_dut_batch` / :meth:`run_differential_batch` through
        numpy lane execution producing bit-identical traces *and* coverage
        reports (pinned by ``tests/soc/test_batch.py``).  Cores whose kind
        declares no batch engine, BOOM among them, reject it loudly.
    """

    def __init__(self, core, golden_lanes: int = 0,
                 dut_lanes: int = 0) -> None:
        self.core = core
        self.golden_lanes = golden_lanes
        self.dut_lanes = dut_lanes
        limits = SimConfig(max_steps=core.params.max_steps,
                           max_traps=core.params.max_traps)
        self.golden = GoldenSimulator(limits)
        self._golden_batch = None
        self._dut_batch = None
        if golden_lanes > 0:
            from repro.golden.batch import GoldenBatchSimulator

            self._golden_batch = GoldenBatchSimulator(limits,
                                                      lanes=golden_lanes)
        if dut_lanes > 0:
            batch_cls = _batch_engine_for(core)
            if batch_cls is None:
                raise ValueError(
                    f"dut_lanes requires a DUT core with a batch engine; "
                    f"{type(core).__name__} declares none in ENGINE_REGISTRY")
            self._dut_batch = batch_cls(core.params, lanes=dut_lanes)

    @property
    def total_arms(self) -> int:
        """Static size of the DUT's condition-coverage universe."""
        return self.core.cov.total_arms

    def run_dut(self, body: list[int], base: int = DRAM_BASE) -> tuple[CommitTrace, CoverageReport]:
        """Simulate the body on the DUT; returns (trace, coverage report)."""
        return self.core.run(build_program(body), base)

    def run_golden(self, body: list[int], base: int = DRAM_BASE) -> CommitTrace:
        """Simulate the body on the golden model; returns its trace."""
        return self.golden.run(build_program(body), base)

    def run_differential(self, body: list[int], base: int = DRAM_BASE):
        """Run both simulators; returns (dut_trace, golden_trace, report)."""
        dut_trace, report = self.run_dut(body, base)
        golden_trace = self.run_golden(body, base)
        return dut_trace, golden_trace, report

    # -- batched golden path ------------------------------------------------

    def run_golden_batch(self, bodies: list[list[int]],
                         base: int = DRAM_BASE) -> list[CommitTrace]:
        """Golden traces for a whole batch of bodies, in order.

        With ``golden_lanes > 0`` the bodies execute as lockstep numpy
        lanes; otherwise this is the scalar path in a loop.  Either way the
        traces are bit-identical to ``[self.run_golden(b) for b in bodies]``.
        """
        programs = [build_program(body) for body in bodies]
        if self._golden_batch is not None:
            return self._golden_batch.run_batch(programs, base)
        return [self.golden.run(program, base) for program in programs]

    def run_dut_batch(self, bodies: list[list[int]],
                      base: int = DRAM_BASE) -> list[tuple[CommitTrace, CoverageReport]]:
        """DUT ``(trace, report)`` pairs for a whole batch, in order.

        With ``dut_lanes > 0`` the bodies execute as lockstep numpy lanes;
        otherwise this is the scalar path in a loop.  Either way the pairs
        are bit-identical to ``[self.run_dut(b) for b in bodies]``.
        """
        programs = [build_program(body) for body in bodies]
        if self._dut_batch is not None:
            return self._dut_batch.run_batch(programs, base)
        return [self.core.run(program, base) for program in programs]

    def run_differential_batch(self, bodies: list[list[int]],
                               base: int = DRAM_BASE):
        """Batch form of :meth:`run_differential`; results in order.

        Each side that has a lane engine configured runs as one batched
        call; with both ``golden_lanes`` and ``dut_lanes`` set the whole
        differential chunk is vectorised end to end.  Executors route whole
        batches here so the speedup survives the executor and fleet layers.
        """
        golden_traces = self.run_golden_batch(bodies, base)
        dut_results = self.run_dut_batch(bodies, base)
        return [(dut_trace, golden_trace, report)
                for (dut_trace, report), golden_trace
                in zip(dut_results, golden_traces)]


def make_harness(kind: str = "rocket", params=None, golden_lanes: int = 0,
                 dut_lanes: int = 0) -> DutHarness:
    """Harness around any registered core kind, batch engines included."""
    engine = resolve_engine(kind)
    return DutHarness(engine.core_cls(params or engine.params_cls()),
                      golden_lanes=golden_lanes, dut_lanes=dut_lanes)


@dataclass(frozen=True)
class HarnessFactory:
    """Picklable recipe for building a :class:`DutHarness`.

    Executors that shard simulation across processes
    (:class:`~repro.fuzzing.pool.ShardedExecutor`) ship this to each worker,
    which builds its own harness once from it — the params dataclasses
    pickle cheaply, while a live harness (core + caches + coverage database)
    would not.  Calling the factory builds a fresh, independent harness, so
    it also serves as the harness argument to ``FuzzLoop`` and is what a
    fleet's :class:`~repro.fuzzing.fleet.CampaignSpec` resolves a kind
    string to.  Construction validates the kind and, when ``dut_lanes`` is
    requested, the kind's batch-engine capability, so a bad recipe fails
    where it is written rather than inside a worker process.
    """

    kind: str = "rocket"
    params: object = None
    #: Lane-group width for the batched golden engine (0 = scalar golden).
    golden_lanes: int = 0
    #: Lane-group width for the kind's batched DUT engine (0 = scalar DUT;
    #: kinds without a registered engine reject it with a loud error).
    dut_lanes: int = 0

    def __post_init__(self) -> None:
        engine = resolve_engine(self.kind)
        if self.dut_lanes and engine.batch_cls is None:
            raise ValueError(
                f"dut_lanes requires a harness kind with a batch engine; "
                f"{self.kind!r} declares none in ENGINE_REGISTRY")

    def __call__(self) -> DutHarness:
        return make_harness(self.kind, self.params, self.golden_lanes,
                            self.dut_lanes)
