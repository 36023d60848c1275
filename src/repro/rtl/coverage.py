"""Condition-coverage instrumentation.

VCS condition coverage counts, for every boolean condition in the design,
whether the condition has been observed *true* and observed *false* — two
cover points ("arms") per condition.  :class:`ConditionCoverage` reproduces
that model with a declare-before-use discipline: the universe of cover points
is a static property of the elaborated design, never of the stimulus, so
percentages are comparable across runs (and fuzzers).

Conditions are declared once (at module construction = "elaboration") and
recorded on the hot path as packed arm masks.

Recording is bitset-based: the per-run hit state is one packed int bitmap
(bit ``arm`` set <=> arm observed), kept alongside a per-arm bit table that
is filled in during elaboration and sealed at :meth:`freeze`.  Both core
models record one mask per cycle.  At elaboration every
:class:`~repro.rtl.module.Module` prebinds each condition's
``(false_bit, true_bit)`` pair in its ``arms`` table; at run time the core
indexes each pair with the condition's value, ORs the bit (together with
memoized groups whose outcome is a pure function of one key: the decode
conditions of an instruction word, the cause comparators of a trap) into
one local int, and ends the cycle with a single :meth:`record_mask`.
``RocketCore.step_cycle`` and ``BoomCore.run`` record each cycle this way,
and the caches, branch predictor and tracer fold each call's group the
same way.  One OR per group instead of one call per arm is where the
engine's throughput comes from (see ``benchmarks/test_perf_coverage.py``).

:meth:`record` is the one-observation primitive (a table lookup and an
OR).  No core calls it; the tests and the coverage micro-benchmark drive
the database through it.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.rtl.bitset import Bitset


@dataclass(frozen=True)
class ConditionInfo:
    """Metadata for one declared condition."""

    index: int
    name: str


class ConditionCoverage:
    """The coverage database for one elaborated design.

    Arms are indexed ``2*idx`` (false arm) and ``2*idx + 1`` (true arm).
    The packed per-run bitmap accumulates the arms observed since the last
    :meth:`begin_run`; :attr:`run_hits` exposes it as an immutable
    set-compatible :class:`~repro.rtl.bitset.Bitset`.
    """

    def __init__(self) -> None:
        self._by_name: dict[str, ConditionInfo] = {}
        self._names: list[str] = []
        self._frozen = False
        #: Packed per-run hit bitmap (bit ``arm`` <=> arm observed this run).
        self._run_bits = 0
        #: Per-arm bit masks (``_arm_bits[arm] == 1 << arm``), grown at
        #: declare time so the record path never constructs shift results.
        self._arm_bits: list[int] = []

    # -- elaboration ---------------------------------------------------------

    def declare(self, name: str) -> int:
        """Register a condition; returns the handle used by :meth:`record`."""
        if self._frozen:
            raise RuntimeError(
                f"cannot declare {name!r}: design already elaborated (frozen)"
            )
        if name in self._by_name:
            raise ValueError(f"condition {name!r} declared twice")
        info = ConditionInfo(index=len(self._names), name=name)
        self._by_name[name] = info
        self._names.append(name)
        arm = 2 * info.index
        self._arm_bits.append(1 << arm)
        self._arm_bits.append(1 << (arm + 1))
        return info.index

    def freeze(self) -> None:
        """End elaboration: the arm universe (and bit table) is now fixed."""
        self._frozen = True

    # -- recording (hot path) --------------------------------------------------

    def record(self, handle: int, value) -> bool:
        """Record one observation of a condition; returns ``bool(value)`` so
        the call can wrap the condition in-line: ``if cov.record(h, a == b):``"""
        value = bool(value)
        self._run_bits |= self._arm_bits[2 * handle + value]
        return value

    def record_mask(self, mask: int) -> None:
        """Fold a precomputed group of arm observations in one OR.

        ``mask`` is an int bitmap of arm indices (build it from
        :meth:`arm_bit` or a module's prebound
        :attr:`~repro.rtl.module.Module.arms` pairs).
        This is the vectorised record path: a whole correlated condition
        group costs one call instead of one per arm.
        """
        self._run_bits |= mask

    def arm_bit(self, handle: int, value) -> int:
        """The bitmap contribution of one observation (for mask building)."""
        return self._arm_bits[2 * handle + (1 if value else 0)]

    # -- per-test bookkeeping ----------------------------------------------------

    def begin_run(self) -> None:
        """Clear the per-test hit bitmap (total counts live in the calculator)."""
        self._run_bits = 0

    @property
    def run_hits(self) -> Bitset:
        """The arms observed since :meth:`begin_run`, as an immutable bitset."""
        return Bitset(self._run_bits, self.total_arms)

    def run_bits(self) -> int:
        """The raw packed per-run bitmap (zero-copy view for snapshots)."""
        return self._run_bits

    # -- introspection -------------------------------------------------------------

    @property
    def num_conditions(self) -> int:
        return len(self._names)

    @property
    def total_arms(self) -> int:
        return 2 * len(self._names)

    def arm_name(self, arm: int) -> str:
        """Human-readable name of one arm, e.g. ``core.dcache.hit:T``."""
        return f"{self._names[arm // 2]}:{'T' if arm % 2 else 'F'}"

    def arm_index(self, arm_name: str) -> int:
        """Inverse of :meth:`arm_name`: ``core.dcache.hit:T`` -> arm index."""
        name, _, polarity = arm_name.rpartition(":")
        if polarity not in ("T", "F") or name not in self._by_name:
            raise KeyError(f"not a declared arm: {arm_name!r}")
        return 2 * self._by_name[name].index + (1 if polarity == "T" else 0)

    def names(self) -> tuple[str, ...]:
        return tuple(self._names)
