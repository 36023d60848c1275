"""Campaign fleets: many campaigns, one experiment.

The paper's headline artifacts (the Figure-2 coverage comparison, the
E-BUGS detection table) are *fleets* of campaigns — ChatFuzz vs. TheHuzz
vs. DifuzzRTL vs. random, across seeds and SoC configs — and this module
turns the single-campaign driver into that horizontally scalable
experiment engine:

- :class:`CampaignSpec` — a declarative, fully picklable recipe for one
  campaign arm: fuzzer kind + config (or a prebuilt generator), harness
  factory, seed, batch size and test budget.
- :class:`FleetRunner` — shards specs over a process pool (same lazy
  spin-up / worker reuse / graceful shutdown / deterministic ordering
  playbook as :mod:`repro.fuzzing.pool`), or runs them in-process on a
  pool of one that takes the same dispatch path.  Workers cache the
  expensive campaign shell (harness elaboration) per spec; the *mutable*
  state travels with each slice as a compact state dict, pickled on the
  way in as any pool pickles it, so any worker can continue any
  campaign and a kill never strands state in a dead process.
- budget scheduling — :meth:`FleetRunner.run_scheduled` allocates the
  shared budget in slices through a pluggable
  :class:`~repro.fuzzing.scheduler.BudgetScheduler` (round-robin baseline
  or MABFuzz-style UCB1 bandit rewarded by new fleet-union coverage).
  One dispatch loop keeps at most one slice per worker slot in flight.
  In ``"streaming"`` mode each slice is folded into the fleet union, fed
  to the scheduler and replaced by the next dispatch the moment it
  completes, so workers never idle at a round barrier; ``"rounds"`` is
  the same loop plus a barrier, fully deterministic (see the
  determinism contract on :meth:`FleetRunner.run_scheduled`).
  :meth:`FleetRunner.run` is the streaming loop with round-robin picks
  and each arm's whole budget as one slice.
- checkpoint/resume — with ``checkpoint_dir`` set, each completed slice's
  campaign state is pickled to a new file and committed by rewriting the
  manifest that names it (round mode commits once per round), so a fleet
  killed at any moment resumes from its last commit without losing
  committed slices and finishes with a result equal to an uninterrupted
  run.
- :class:`FleetResult` — aggregation: unions the campaigns' packed
  ``final_coverage`` bitmaps, merges their coverage curves onto a shared
  sim-hours epoch, and dedupes mismatch signatures across campaigns
  (classification/attribution tables live in ``repro.analysis.fleet``).
- fault tolerance — a failed or timed-out slice is retried from its last
  known state (slices are idempotent: a slice runs on a pickled copy,
  so the parent's state is untouched however far a failed attempt got,
  in-process or pooled), worker death (``BrokenProcessPool``) triggers a
  pool rebuild with only the in-flight slices requeued, and an arm that
  keeps failing past ``max_retries`` is *quarantined*: excluded from
  further scheduling, recorded with its terminal exception in
  :class:`FleetHealth`, while the rest of the fleet runs to completion.
  Health travels on :class:`FleetStats`/:class:`FleetResult` and in
  checkpoint manifests (resume never resurrects a quarantined arm).
  Every recovery path is pinned by deterministic fault injection
  (:mod:`repro.fuzzing.faults`).  See ROADMAP "Failure semantics".

Nested-pool caveat: campaigns built from specs always run their
differential step on a :class:`~repro.fuzzing.executor.SerialExecutor` —
fleet workers *are* the parallelism, and a ``ShardedExecutor`` inside a
pool worker would oversubscribe the machine (see ROADMAP's "fleet workers
vs. harness workers" guidance).
"""

from __future__ import annotations

import copy
import ctypes
import hashlib
import inspect
import json
import os
import pickle
import time
from concurrent.futures import (
    FIRST_COMPLETED,
    Future,
    ProcessPoolExecutor,
    wait,
)
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Sequence

from repro.fuzzing.campaign import Campaign, CampaignResult, CurvePoint
from repro.fuzzing.chatfuzz import FuzzLoop
from repro.fuzzing.faults import FaultPlan, FaultPoint
from repro.fuzzing.pool import default_workers
from repro.fuzzing.scheduler import BudgetScheduler, RoundRobin
from repro.obs.events import NULL_SINK, EventSink, ListSink
from repro.rtl.bitset import Bitset
from repro.rtl.report import coverage_percent, disjoint_union_percent
from repro.soc.harness import HarnessFactory


def _generator_classes() -> dict[str, type]:
    """The fuzzer kinds a spec can name, each built as
    ``cls(seed=spec.seed, **spec.fuzzer_config)``.

    Imported on call: ``repro.baselines`` imports ``repro.fuzzing``, so
    importing it at module scope here would be circular.
    """
    from repro.baselines.difuzzrtl import DifuzzRTLGenerator
    from repro.baselines.random_regression import RandomRegressionGenerator
    from repro.baselines.thehuzz import TheHuzzGenerator

    return {"thehuzz": TheHuzzGenerator, "difuzzrtl": DifuzzRTLGenerator,
            "random": RandomRegressionGenerator}


def _unknown_keywords(cls: type, config: dict) -> list[str]:
    """The keys of ``config`` that ``cls(seed=..., **config)`` rejects.

    Each key must name a parameter of ``cls.__init__``; one that takes
    ``**kwargs`` hands the rest to its base class, whose parameters count
    too.  ``seed`` is the spec's own field, so the config may not set it.
    """
    unknown = set(config)
    for klass in cls.__mro__:
        if "__init__" not in vars(klass):
            continue
        _, *params = inspect.signature(klass.__init__).parameters.values()
        unknown -= {p.name for p in params
                    if p.kind in (p.POSITIONAL_OR_KEYWORD, p.KEYWORD_ONLY)}
        if not any(p.kind is p.VAR_KEYWORD for p in params):
            break
    return sorted(unknown | ({"seed"} & set(config)))


@dataclass(frozen=True)
class CampaignSpec:
    """Declarative recipe for one campaign arm (fully picklable).

    Either name a baseline ``fuzzer`` kind ("thehuzz", "difuzzrtl" or
    "random", built per worker from ``seed`` + ``fuzzer_config``) or
    supply a prebuilt picklable ``generator`` object: the ChatFuzz path,
    whose trained ``LLMInputGenerator`` carries its own model, and the way
    to run any other generator.  The generator is deep-copied at build
    time so one spec can be built repeatedly without sharing mutable
    fuzzer state.
    """

    name: str
    fuzzer: str = "thehuzz"
    fuzzer_config: dict = field(default_factory=dict)
    #: Prebuilt generator object; overrides ``fuzzer``/``fuzzer_config``.
    generator: object = None
    #: HarnessFactory, or a kind string ("rocket"/"boom"); None = rocket.
    #: Lanes are a factory's perf knob, e.g.
    #: ``HarnessFactory("rocket", golden_lanes=8)``: they never change
    #: results, so :meth:`fingerprint` leaves them out and checkpoints
    #: resume under a different width.
    harness: object = None
    seed: int = 0
    batch_size: int = 16
    #: Test budget for whole-budget fleet runs (:meth:`FleetRunner.run`)
    #: and the per-arm cap in scheduled runs.
    budget_tests: int = 256
    use_default_filters: bool = True

    def __post_init__(self) -> None:
        # Fail at spec construction, not inside a pool worker mid-run.
        for knob in ("batch_size", "budget_tests"):
            if getattr(self, knob) < 1:
                raise ValueError(
                    f"spec {self.name!r}: {knob} must be >= 1, "
                    f"got {getattr(self, knob)}"
                )
        kinds = _generator_classes()
        if self.generator is None:
            if self.fuzzer not in kinds:
                raise ValueError(
                    f"spec {self.name!r}: unknown fuzzer kind {self.fuzzer!r} "
                    f"(known: {sorted(kinds)}; pass generator= for others)"
                )
            unknown = _unknown_keywords(kinds[self.fuzzer], self.fuzzer_config)
            if unknown:
                raise ValueError(
                    f"spec {self.name!r}: fuzzer_config keys {unknown} are "
                    f"not parameters of the {self.fuzzer!r} generator"
                )
        self.harness_factory()

    def harness_factory(self) -> HarnessFactory:
        """Resolve the harness field to a picklable zero-arg factory."""
        if self.harness is None or isinstance(self.harness, str):
            return HarnessFactory(
                "rocket" if self.harness is None else self.harness)
        if callable(self.harness):
            return self.harness
        raise TypeError(
            f"spec {self.name!r}: harness must be a factory or kind string, "
            f"got {type(self.harness).__name__}"
        )

    def build_generator(self):
        """Build a fresh generator for one campaign instance."""
        if self.generator is not None:
            return copy.deepcopy(self.generator)
        builder = _generator_classes()[self.fuzzer]
        return builder(seed=self.seed, **self.fuzzer_config)

    def build_campaign(self) -> Campaign:
        """Materialise the campaign shell (harness elaboration happens here).

        Always the loop's default serial executor inside: fleet workers are
        already processes, so the differential step must stay in-process.
        """
        loop = FuzzLoop(
            self.build_generator(),
            self.harness_factory(),
            batch_size=self.batch_size,
            use_default_filters=self.use_default_filters,
        )
        return Campaign(loop, self.name)

    def fingerprint(self) -> str:
        """Stable identity string (checkpoint compatibility guard).

        A prebuilt generator contributes a content hash of its pickled
        initial state — two fleets whose "ChatFuzz" arms were trained
        differently must not pass as the same fleet — and a custom factory
        its qualified name, not just ``function``.
        """
        factory = self.harness_factory()
        harness_id = (
            (factory.kind, repr(factory.params))
            if isinstance(factory, HarnessFactory)
            else (getattr(factory, "__module__", "?"),
                  getattr(factory, "__qualname__", type(factory).__name__))
        )
        generator_id = (
            (type(self.generator).__name__,
             hashlib.sha256(pickle.dumps(self.generator)).hexdigest())
            if self.generator is not None
            else (self.fuzzer, sorted(self.fuzzer_config.items()))
        )
        return repr((self.name, generator_id, harness_id, self.seed,
                     self.batch_size, self.budget_tests,
                     self.use_default_filters))


# -- health --------------------------------------------------------------------


class SliceTimeout(RuntimeError):
    """A slice exceeded ``slice_timeout``.  Made parent-side (a slice
    cannot time itself out) and fed to the ordinary retry machinery."""


@dataclass
class QuarantinedArm:
    """One arm removed from scheduling after exhausting its retries.

    ``tests_run`` is where the arm's last good state stops — its partial
    results still count in the fleet aggregate; ``error`` is the terminal
    exception of the final attempt (earlier attempts may have failed
    differently, e.g. a timeout before a raise).
    """

    arm: int
    name: str
    error: str
    retries: int
    tests_run: int


@dataclass
class FleetHealth:
    """Fault-tolerance ledger for one fleet run (and its checkpoints).

    All-zero/empty (``healthy``) on the fault-free path.  Checkpoint
    manifests persist it via :meth:`state_dict`, so a resumed fleet knows
    prior retries and — critically — never resurrects a quarantined arm.
    """

    #: Slices re-dispatched after a retryable failure (includes timeouts).
    retries: int = 0
    #: Slices that exceeded ``slice_timeout`` (subset of ``retries`` unless
    #: the timeout exhausted the retry budget).
    timeouts: int = 0
    #: Worker pools discarded and respawned after worker death or a hang.
    pool_rebuilds: int = 0
    #: Arms removed from scheduling, in quarantine order.
    quarantined: list[QuarantinedArm] = field(default_factory=list)

    @property
    def healthy(self) -> bool:
        """True when the run needed no recovery of any kind."""
        return not (self.retries or self.timeouts or self.pool_rebuilds
                    or self.quarantined)

    def quarantined_arms(self) -> set[int]:
        return {record.arm for record in self.quarantined}

    def state_dict(self) -> dict:
        return {
            "retries": self.retries,
            "timeouts": self.timeouts,
            "pool_rebuilds": self.pool_rebuilds,
            "quarantined": [
                {"arm": q.arm, "name": q.name, "error": q.error,
                 "retries": q.retries, "tests_run": q.tests_run}
                for q in self.quarantined
            ],
        }

    @classmethod
    def from_state_dict(cls, state: dict) -> "FleetHealth":
        return cls(
            retries=int(state.get("retries", 0)),
            timeouts=int(state.get("timeouts", 0)),
            pool_rebuilds=int(state.get("pool_rebuilds", 0)),
            quarantined=[
                QuarantinedArm(arm=int(q["arm"]), name=q["name"],
                               error=q["error"], retries=int(q["retries"]),
                               tests_run=int(q["tests_run"]))
                for q in state.get("quarantined", [])
            ],
        )

    def summary(self) -> str:
        if self.healthy:
            return "health: ok"
        lines = [f"health: {self.retries} retries, {self.timeouts} timeouts, "
                 f"{self.pool_rebuilds} pool rebuilds, "
                 f"{len(self.quarantined)} quarantined"]
        lines += [
            f"  quarantined {q.name!r} (arm {q.arm}) after {q.retries} "
            f"retries at {q.tests_run} tests: {q.error}"
            for q in self.quarantined
        ]
        return "\n".join(lines)


# -- aggregation ---------------------------------------------------------------


@dataclass
class FleetStats:
    """Dispatch accounting for one fleet entry-point call.

    ``busy_seconds`` is worker-side compute (summed over slices, measured
    inside :func:`_run_slice` around the actual campaign work), so
    ``utilisation`` = busy / (wall x worker slots) exposes exactly what the
    streaming runtime exists to improve: how much of the pool's capacity
    round barriers leave idle.  In-process runs have one slot and so sit
    near 1.0 by construction; the metric is only discriminating on >= 2
    workers (``BENCH_fleet.json`` records it per mode).
    """

    mode: str = "rounds"
    n_workers: int = 0
    #: Effective concurrent execution slots: 1 in-process, else the worker
    #: count clamped by the run's concurrency cap (``concurrent_slices`` /
    #: the job count) — so utilisation measures dispatch quality against
    #: the slots the run could actually fill, not raw pool size.
    worker_slots: int = 1
    wall_seconds: float = 0.0
    busy_seconds: float = 0.0
    slices: int = 0
    tests: int = 0
    #: Fault-tolerance ledger for this call (shared object with the
    #: :class:`FleetResult` the call returns).
    health: FleetHealth = field(default_factory=FleetHealth)

    @property
    def utilisation(self) -> float:
        """Mean fraction of worker slots kept busy over the run's wall time."""
        if self.wall_seconds <= 0.0:
            return 0.0
        return self.busy_seconds / (self.wall_seconds
                                    * max(1, self.worker_slots))


@dataclass
class FleetResult:
    """Aggregated outcome of a fleet run (campaigns in spec order).

    ``health`` records what the fault-tolerance layer had to do: a
    quarantined arm's campaign entry holds its last good partial state,
    so aggregates stay well-defined under graceful degradation — check
    ``health.quarantined`` before treating every arm as having reached
    its budget.
    """

    campaigns: list[CampaignResult]
    health: FleetHealth = field(default_factory=FleetHealth)

    @property
    def total_tests(self) -> int:
        return sum(c.tests_run for c in self.campaigns)

    @property
    def total_sim_hours(self) -> float:
        """Aggregate simulator-hours (the paper's "ten VCS instances" cost
        axis): campaigns run in parallel, so this is compute, not latency."""
        return sum(c.sim_hours for c in self.campaigns)

    def _universe(self) -> int:
        sizes = {c.total_arms for c in self.campaigns if c.total_arms}
        if len(sizes) > 1:
            raise ValueError(
                "campaigns cover different DUT universes "
                f"({sorted(sizes)} arms); a union bitmap is only defined "
                "per universe — aggregate matching campaigns separately"
            )
        return sizes.pop() if sizes else 0

    def union_coverage(self) -> Bitset:
        """Union of every campaign's packed coverage bitmap (no
        re-simulation — the whole point of carrying bitmaps in results)."""
        universe = self._universe()
        bits = 0
        for campaign in self.campaigns:
            bits |= campaign.final_coverage.to_int()
        return Bitset(bits, universe)

    @property
    def union_percent(self) -> float:
        """Union coverage percent, with one union per DUT universe size,
        so it is defined for fleets that mix Rocket and BOOM arms too (see
        :func:`~repro.rtl.report.disjoint_union_percent`)."""
        unions: dict[int, int] = {}
        for campaign in self.campaigns:
            universe = campaign.total_arms
            unions[universe] = (unions.get(universe, 0)
                                | campaign.final_coverage.to_int())
        return disjoint_union_percent(unions)

    def merged_curve(self) -> list[CurvePoint]:
        """The fleet's coverage trajectory on a shared sim-hours epoch.

        Campaigns run in parallel and each charges its own elaboration, so
        their clocks share one epoch; at every snapshot time the fleet's
        coverage is the *union* of each campaign's latest bitmap (percent
        values cannot be merged, bitmaps can).  ``tests`` accumulates the
        fleet-wide test count at that moment.
        """
        universe = self._universe()
        events = sorted(
            ((point.sim_hours, index, point)
             for index, campaign in enumerate(self.campaigns)
             for point in campaign.curve),
            key=lambda event: (event[0], event[1], event[2].tests),
        )
        latest_bits = [0] * len(self.campaigns)
        latest_tests = [0] * len(self.campaigns)
        merged: list[CurvePoint] = []
        for position, (hours, index, point) in enumerate(events):
            if point.hits is not None:
                latest_bits[index] = point.hits.to_int()
            latest_tests[index] = point.tests
            # Emit one point per distinct time: fold simultaneous snapshots.
            if position + 1 < len(events) and events[position + 1][0] == hours:
                continue
            union = 0
            for bits in latest_bits:
                union |= bits
            merged.append(CurvePoint(
                tests=sum(latest_tests),
                sim_hours=hours,
                coverage_percent=coverage_percent(union.bit_count(),
                                                  universe),
                hits=Bitset(union, universe),
            ))
        return merged

    @property
    def unique_signatures(self) -> set[tuple]:
        """Mismatch signatures deduped across campaigns (count-once view;
        per-campaign attribution lives in ``repro.analysis.fleet``)."""
        return {m.signature for c in self.campaigns for m in c.mismatches}

    def summary(self) -> str:
        lines = [
            f"fleet: {len(self.campaigns)} campaigns, "
            f"{self.total_tests} tests, "
            f"{self.total_sim_hours:.2f} sim-hours, "
            f"union coverage {self.union_percent:.2f}%, "
            f"{len(self.unique_signatures)} deduped unique mismatches",
        ]
        lines += [f"  {campaign.summary()}" for campaign in self.campaigns]
        if not self.health.healthy:
            lines.append(self.health.summary())
        return "\n".join(lines)


# -- worker protocol -----------------------------------------------------------

#: Installed by :func:`_fleet_init` in each pool worker.
_WORKER_SPECS: list[CampaignSpec] | None = None
#: Campaign shells cached per spec index (harness built once per worker).
_WORKER_CAMPAIGNS: dict[int, Campaign] = {}


def _one_blas_thread() -> None:
    """Limit every loaded OpenBLAS to one thread; a no-op without one.

    A fleet takes its parallelism from worker processes, so a worker that
    kept the library's default of one thread per core would oversubscribe
    the machine as soon as two workers sample a model at once.  The
    library is found in this process's memory map and called through
    ctypes.
    """
    try:
        with open("/proc/self/maps") as maps:
            paths = {line.split()[-1] for line in maps
                     if "openblas" in line.lower()}
        libraries = [ctypes.CDLL(path) for path in sorted(paths)]
    except OSError:
        return
    for lib in libraries:
        for symbol in ("scipy_openblas_set_num_threads64_",
                       "openblas_set_num_threads64_",
                       "openblas_set_num_threads"):
            setter = getattr(lib, symbol, None)
            if setter is not None:
                setter.argtypes, setter.restype = [ctypes.c_int], None
                setter(1)
                break


def _fleet_init(specs: list[CampaignSpec]) -> None:
    """Pool worker start-up: one BLAS thread, the fleet's specs and an
    empty campaign cache."""
    global _WORKER_SPECS, _WORKER_CAMPAIGNS
    _one_blas_thread()
    _WORKER_SPECS = specs
    _WORKER_CAMPAIGNS = {}


def _get_campaign(specs, cache, index: int, fresh: bool) -> Campaign:
    """The cached campaign shell for ``index`` (rebuilt when ``fresh``).

    ``fresh`` marks a campaign's first-ever slice: no state will be loaded,
    so a shell left over from an earlier fleet run on this worker must not
    leak its state forward.
    """
    campaign = cache.get(index)
    if campaign is None or fresh:
        campaign = cache[index] = specs[index].build_campaign()
    return campaign


def _run_slice(campaign: Campaign, n_tests: int, state: dict | None,
               fault: FaultPoint | None = None, collect: bool = False):
    """Continue one campaign by one slice; returns (new state, snapshot,
    busy seconds, events).

    ``state`` is a pickled copy of the parent's state for the campaign
    (None only for its very first slice), in-process as on a pool — the
    cached shell contributes only the immutable, expensive parts (harness,
    executor), so slices of one campaign may land on different workers in
    any order, and an attempt that fails part-way leaves the state its
    retry restarts from untouched.  ``busy seconds``
    is the wall time this slice held its worker slot (state restore +
    simulation + snapshot), the numerator of
    :attr:`FleetStats.utilisation`.

    ``events`` is the slice's telemetry relay: with ``collect`` the
    campaign's in-slice events (per-phase batch timings, coverage points,
    mismatch discoveries — see :mod:`repro.obs.events`) are recorded into a
    temporary :class:`~repro.obs.events.ListSink` and returned as picklable
    ``(kind, data)`` pairs for the parent to re-emit into its own sink,
    tagged with the arm — so one fleet keeps *one* writer per store
    segment no matter how many workers it shards over.  Without
    ``collect`` (the default, and the whole no-sink fast path) it is
    ``None`` and the campaign does zero telemetry work.

    An injected ``fault`` fires first, before the state is loaded (a
    ``"hang"`` fault returns and runs the slice normally — its stall is
    charged to busy seconds, which is what the completion-time timeout
    check in :meth:`FleetRunner._pump` inspects).
    """
    started = time.perf_counter()
    if fault is not None:
        fault.fire()
    if state is not None:
        campaign.load_state_dict(state)
    events = None
    if collect:
        relay = ListSink(writer="slice")
        previous = campaign.loop.sink
        campaign.loop.sink = relay
        try:
            result = campaign.run_slice(n_tests)
        finally:
            campaign.loop.sink = previous
        events = [(event.kind, event.data) for event in relay.events]
    else:
        result = campaign.run_slice(n_tests)
    return (campaign.state_dict(), result,
            time.perf_counter() - started, events)


def _fleet_slice(index: int, n_tests: int, state: dict | None,
                 fault: FaultPoint | None = None, collect: bool = False):
    campaign = _get_campaign(_WORKER_SPECS, _WORKER_CAMPAIGNS, index,
                             fresh=state is None)
    return _run_slice(campaign, n_tests, state, fault, collect)


class _InProcessPool:
    """The pool of an in-process fleet: one slot, in the parent.

    ``submit`` runs the slice at once on a pickled copy of its arguments,
    the way a pool hands a worker its arguments, so a failed attempt
    cannot touch the state its retry restarts from, and a state that
    does not pickle fails its attempt as it would on a pool.  The
    returned future is already settled.  A ``BaseException`` (an
    injected crash, ``KeyboardInterrupt``) propagates and aborts the
    fleet.
    """

    def submit(self, fn, *args) -> Future:
        future = Future()
        try:
            future.set_result(fn(*pickle.loads(pickle.dumps(args))))
        except Exception as exc:
            future.set_exception(exc)
        return future

    def shutdown(self, wait: bool = True,
                 cancel_futures: bool = False) -> None:
        pass


@dataclass
class _SliceTask:
    """One dispatchable slice plus its fault-tolerance bookkeeping.

    ``ordinal`` counts the arm's dispatches within the current entry-point
    call (the fault plan's schedule key — retries keep their ordinal and
    bump ``attempt``); ``deadline`` is the ``time.monotonic()`` instant
    after which a slice is considered hung (None until submitted, and
    reset on requeue).
    """

    arm: int
    n_tests: int
    state: dict | None
    ordinal: int
    attempt: int = 0
    deadline: float | None = None


# -- checkpointing -------------------------------------------------------------


class FleetCheckpoint:
    """A fleet's resumable state: one pickle per arm, committed by a
    manifest.

    Layout under ``directory``:

    - ``campaign_<i>-<tests>.pkl`` — arm ``i``'s whole
      :meth:`~repro.fuzzing.campaign.Campaign.state_dict` after ``tests``
      tests, in a new file for every snapshot;
    - ``manifest.json`` — fleet-level: spec fingerprints, per-arm test
      counts (which name the arm files), scheduler state, rounds
      completed and the health ledger.

    The manifest is the commit point.  Every file is written to a temp
    name and ``os.replace``d, the arm files before the manifest that names
    them, and a resume reads only the files the manifest names.  Once a
    new manifest is in place, the arm files it does not name are deleted;
    nothing else in the directory is touched.  So a kill at any moment
    leaves the last commit whole, and a resume runs whatever the kill
    left uncommitted again from there.
    """

    def __init__(self, directory: Path,
                 specs: Sequence[CampaignSpec]) -> None:
        self.directory = Path(directory)
        self.manifest_path = self.directory / "manifest.json"
        self.fingerprints = [spec.fingerprint() for spec in specs]

    def _arm_path(self, index: int, tests: int) -> Path:
        return self.directory / f"campaign_{index}-{tests}.pkl"

    def _write_atomic(self, path: Path, data: bytes) -> None:
        """All-or-nothing file write (temp + rename): a kill mid-write can
        never leave a truncated file behind."""
        self.directory.mkdir(parents=True, exist_ok=True)
        temp = path.with_name(path.name + ".tmp")
        temp.write_bytes(data)
        os.replace(temp, path)

    def save_arm(self, index: int, state: dict) -> None:
        """Write arm ``index``'s campaign state to a new file, which counts
        once a manifest names it."""
        self._write_atomic(self._arm_path(index, state["loop"]["tests_run"]),
                           pickle.dumps(state))

    def save_manifest(self, states: dict[int, dict],
                      scheduler: BudgetScheduler | None,
                      rounds: int,
                      health: FleetHealth | None = None) -> None:
        """Commit ``states``: replace the manifest, then delete the arm
        files it does not name."""
        tests = {index: state["loop"]["tests_run"]
                 for index, state in states.items()}
        manifest = {
            "fingerprints": self.fingerprints,
            "rounds": rounds,
            "arms": {str(index): {"tests_run": count}
                     for index, count in tests.items()},
            "scheduler": scheduler.state_dict() if scheduler else None,
            "health": health.state_dict() if health is not None else None,
        }
        self._write_atomic(self.manifest_path,
                           (json.dumps(manifest, indent=2) + "\n").encode())
        named = {self._arm_path(index, count).name
                 for index, count in tests.items()}
        for path in self.directory.glob("campaign_*-*.pkl"):
            if path.name not in named:
                path.unlink()

    def load(self) -> dict | None:
        """The manifest, or None when no checkpoint exists yet.

        Raises on a spec mismatch (the checkpoint belongs to a different
        fleet) — resuming someone else's state silently would be worse.
        """
        if not self.manifest_path.exists():
            return None
        manifest = json.loads(self.manifest_path.read_text())
        if manifest["fingerprints"] != self.fingerprints:
            raise ValueError(
                f"checkpoint at {self.directory} was written for different "
                "campaign specs; point the fleet at a fresh directory or "
                "delete the stale checkpoint"
            )
        return manifest

    def load_arm(self, index: int, expected_tests: int) -> dict:
        """Arm ``index``'s state from the file the manifest names.

        Raises when that file is missing or holds another test count,
        which no kill can cause: the directory was changed outside the
        fleet, or holds a checkpoint of another layout.
        """
        path = self._arm_path(index, expected_tests)
        found = "is missing"
        if path.exists():
            state = pickle.loads(path.read_bytes())
            if state["loop"]["tests_run"] == expected_tests:
                return state
            found = f"says {state['loop']['tests_run']}"
        raise ValueError(
            f"torn checkpoint for arm {index}: manifest says "
            f"{expected_tests} tests, {path.name} {found} — delete "
            f"{self.directory} and rerun"
        )


# -- the runner ----------------------------------------------------------------


class FleetRunner:
    """Runs a fleet of campaign specs, optionally sharded over a process
    pool and scheduled by a budget policy (see module docstring).

    Parameters
    ----------
    specs:
        The campaign arms, in result order.  Names must be unique (they key
        cross-campaign mismatch attribution).
    n_workers:
        ``0`` runs every slice in-process, on a pool of one that takes
        the pooled dispatch path (deterministic and free of worker
        processes — the right mode for tests and one-core machines);
        ``N >= 1`` shards slices over ``N`` worker processes, each of
        which limits OpenBLAS to one thread (an in-process fleet leaves
        the caller's BLAS alone).  Defaults to the machine's core count.
        Results are identical across modes (for scheduled runs, at equal
        ``concurrent_slices``): state travels with each slice, so
        placement never affects behaviour.
    checkpoint_dir:
        Enables :class:`FleetCheckpoint`: each completed slice (each
        round, in rounds mode) is committed by the manifest, and every
        entry point first resumes from the last commit, so committed work
        is not redone.  A kill at any moment leaves the last commit
        whole, so a resume needs no options; what the kill left
        uncommitted runs again from the committed state.
    max_retries:
        Retries per slice after a retryable failure (any ``Exception``,
        including worker death and timeouts) before the arm is handled
        per ``quarantine``.  ``0`` disables retrying.  Fault-free runs are
        unaffected: retry bookkeeping adds no dispatch-path work.
    retry_backoff:
        Base of the exponential retry delay: attempt ``k`` sleeps
        ``retry_backoff * 2**k`` seconds before re-dispatch.  ``0``
        retries immediately (what the deterministic tests use).
    slice_timeout:
        Seconds a slice may hold a worker slot.  It is a deadline set when
        the slice is submitted; the dispatch loop submits no more slices
        than there are worker slots, so the clock runs only while the
        slice holds a worker.  An overdue slice's pool is recycled (a
        hung worker cannot be interrupted individually) and innocent
        in-flight slices are requeued without being charged.  A slice
        that completes with more busy seconds than the limit fails too:
        an in-process slice runs to completion when it is submitted, so
        this is how it times out (a pooled slice meets this check only
        when it finished after its deadline but before the wait
        returned).  Timeouts count as retryable failures.  None (default)
        disables the mechanism.
    quarantine:
        When an arm exhausts its retries: ``True`` (default) quarantines
        it — the fleet completes with partial results and the failure
        recorded in ``FleetHealth`` — while ``False`` restores fail-fast
        (the terminal exception propagates).
    fault_plan:
        A :class:`~repro.fuzzing.faults.FaultPlan` of injected faults for
        chaos testing; None (default) injects nothing.
    sink:
        Telemetry sink (:mod:`repro.obs.events`) for the structured event
        stream: fleet lifecycle (``fleet_started``/``fleet_finished``),
        dispatch (``slice_dispatched``/``slice_completed``), fault
        tolerance (``slice_retried``/``slice_timeout``/
        ``arm_quarantined``/``pool_rebuilt``), checkpoints
        (``checkpoint_written``), scheduler rewards (``arm_reward``), plus
        the relayed in-slice events (batch phase timings, coverage points,
        mismatch discoveries — see :func:`_run_slice`).  Per-arm coverage
        bitmaps go to ``sink.save_coverage`` as slices fold.  The default
        :data:`~repro.obs.events.NULL_SINK` disables all of it: no
        payloads, no timers, no worker-side relay — a no-sink run is
        bit-identical to an uninstrumented one (pinned in ``tests/obs/``).
        Pass a :class:`~repro.obs.store.StoreSink` for a durable results
        store a dashboard can watch live.

    Every entry point records its dispatch accounting in
    :attr:`last_stats` (wall/busy seconds, slice count, worker
    utilisation, fault-tolerance health) — the observable the streaming
    mode improves.
    """

    def __init__(self, specs: Sequence[CampaignSpec],
                 n_workers: int | None = None,
                 checkpoint_dir: str | Path | None = None,
                 max_retries: int = 2,
                 retry_backoff: float = 0.05,
                 slice_timeout: float | None = None,
                 quarantine: bool = True,
                 fault_plan: FaultPlan | None = None,
                 sink: EventSink = NULL_SINK) -> None:
        self.specs = list(specs)
        if not self.specs:
            raise ValueError("a fleet needs at least one campaign spec")
        names = [spec.name for spec in self.specs]
        if len(set(names)) != len(names):
            raise ValueError(f"campaign names must be unique, got {names}")
        self.n_workers = default_workers() if n_workers is None else n_workers
        if self.n_workers < 0:
            raise ValueError(f"n_workers must be >= 0, got {self.n_workers}")
        if max_retries < 0:
            raise ValueError(f"max_retries must be >= 0, got {max_retries}")
        if slice_timeout is not None and slice_timeout <= 0:
            raise ValueError(
                f"slice_timeout must be positive or None, got {slice_timeout}"
            )
        self.checkpoint = (
            FleetCheckpoint(Path(checkpoint_dir), self.specs)
            if checkpoint_dir is not None else None
        )
        self.max_retries = max_retries
        self.retry_backoff = retry_backoff
        self.slice_timeout = slice_timeout
        self.quarantine = quarantine
        self.fault_plan = fault_plan
        self.sink = sink
        #: Dispatch accounting of the most recent run/run_scheduled call.
        self.last_stats = FleetStats(n_workers=self.n_workers)
        self._pool: ProcessPoolExecutor | _InProcessPool | None = None
        self._local_campaigns: dict[int, Campaign] = {}
        self._closed = False

    # -- lifecycle -------------------------------------------------------------

    def _ensure_pool(self) -> ProcessPoolExecutor | _InProcessPool:
        if self._closed:
            raise RuntimeError("FleetRunner is closed")
        if self._pool is None:
            self._pool = _InProcessPool() if self.n_workers == 0 else (
                ProcessPoolExecutor(
                    max_workers=self.n_workers,
                    initializer=_fleet_init,
                    initargs=(self.specs,),
                ))
        return self._pool

    def close(self) -> None:
        """Release the worker pool; in-process shells stay.

        Idempotent, and safe while slices are in flight: queued slices are
        cancelled, running ones finish and are discarded, and no worker
        processes are left behind (a dispatch loop interrupted this way
        surfaces ``CancelledError`` to its caller rather than hanging).
        Also safe after worker death — shutting down a broken pool can
        raise, and that must never mask the error that broke it.
        """
        self._closed = True
        pool, self._pool = self._pool, None
        if pool is not None:
            try:
                pool.shutdown(wait=True, cancel_futures=True)
            except Exception:
                pass

    def _kill_pool(self) -> None:
        """Hard-discard the pool (dead or hung) without waiting on it.

        Live worker processes are terminated — a hung worker would
        otherwise hold its slot (and the machine's core) indefinitely —
        and the next ``_ensure_pool`` spawns a replacement pool.
        """
        pool, self._pool = self._pool, None
        if pool is None:
            return
        for process in list((getattr(pool, "_processes", None) or {}).values()):
            try:
                process.terminate()
            except Exception:
                pass
        try:
            pool.shutdown(wait=False, cancel_futures=True)
        except Exception:
            pass

    def __enter__(self) -> "FleetRunner":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # -- dispatch --------------------------------------------------------------

    def _begin_stats(self, mode: str, concurrency: int,
                     health: FleetHealth) -> FleetStats:
        slots = max(1, min(self.n_workers, concurrency))
        self.last_stats = FleetStats(mode=mode, n_workers=self.n_workers,
                                     worker_slots=slots, health=health)
        return self.last_stats

    def _run_local_slice(self, index: int, n_tests: int, state: dict | None,
                         fault: FaultPoint | None, collect: bool):
        """:func:`_fleet_slice` for the in-process pool: one slice on the
        cached local campaign shell."""
        campaign = _get_campaign(
            self.specs, self._local_campaigns, index, fresh=state is None
        )
        return _run_slice(campaign, n_tests, state, fault, collect)

    # -- telemetry -------------------------------------------------------------

    def _emit_completion(self, arm: int, output, ran: int) -> None:
        """Re-emit a finished slice's relayed events, then announce the
        completion and persist the arm's latest coverage bitmap.

        The relay is replayed *before* ``slice_completed`` so a reader of
        the single parent-side segment sees the slice's internal timeline
        (batch timings, coverage points, mismatches) close before its
        completion record — the same order events happened in the worker.
        """
        if not self.sink.enabled:
            return
        name = self.specs[arm].name
        _, result, busy, events = output
        for kind, data in events or ():
            payload = {"arm": arm, "name": name}
            payload.update(data)
            self.sink.emit(kind, **payload)
        self.sink.emit(
            "slice_completed", arm=arm, name=name,
            tests=result.tests_run, ran=ran, busy_seconds=busy,
            coverage_percent=result.final_coverage_percent,
        )
        self.sink.save_coverage(f"{arm:02d}_{name}", result.final_coverage)

    # -- fault-tolerant dispatch -----------------------------------------------

    def _fault_for(self, task: _SliceTask) -> FaultPoint | None:
        if self.fault_plan is None:
            return None
        return self.fault_plan.find(task.arm, task.ordinal, task.attempt)

    def _retry_or_quarantine(self, task: _SliceTask, exc: Exception,
                             health: FleetHealth,
                             on_quarantine) -> _SliceTask | None:
        """Central failure policy: the retry task, or None after
        quarantining the arm (or a re-raise when neither applies).

        Only ``Exception``s are retryable and reach here —
        ``KeyboardInterrupt``, ``SystemExit`` and other
        ``BaseException``s (an operator kill) propagate out of the pool's
        ``submit`` or the slice's future and abort the fleet with
        checkpoints intact.  ``on_quarantine`` lets the dispatch loop
        release the removed arm's bookkeeping and persist the decision
        immediately.
        """
        if isinstance(exc, SliceTimeout):
            health.timeouts += 1
            if self.sink.enabled:
                self.sink.emit(
                    "slice_timeout", arm=task.arm,
                    name=self.specs[task.arm].name, ordinal=task.ordinal,
                    limit_seconds=self.slice_timeout,
                )
        if task.attempt < self.max_retries:
            health.retries += 1
            if self.sink.enabled:
                self.sink.emit(
                    "slice_retried", arm=task.arm,
                    name=self.specs[task.arm].name, ordinal=task.ordinal,
                    attempt=task.attempt + 1,
                    error=f"{type(exc).__name__}: {exc}",
                )
            if self.retry_backoff > 0:
                time.sleep(self.retry_backoff * (2 ** task.attempt))
            return replace(task, attempt=task.attempt + 1, deadline=None)
        if not self.quarantine:
            raise exc
        health.quarantined.append(QuarantinedArm(
            arm=task.arm,
            name=self.specs[task.arm].name,
            error=f"{type(exc).__name__}: {exc}",
            retries=task.attempt,
            tests_run=self._state_tests(task.state),
        ))
        if self.sink.enabled:
            record = health.quarantined[-1]
            self.sink.emit(
                "arm_quarantined", arm=record.arm, name=record.name,
                error=record.error, retries=record.retries,
                tests_run=record.tests_run,
            )
        on_quarantine(task)
        return None

    def _submit_task(self, inflight: dict[Future, _SliceTask],
                     task: _SliceTask, health: FleetHealth) -> None:
        """Submit one slice to the pool, :func:`_fleet_slice` to a process
        pool and :meth:`_run_local_slice` to the in-process one (which
        runs it at once), rebuilding the pool once if the submit itself
        finds it broken — the task never ran, so no attempt is charged.
        Its ``slice_timeout`` deadline starts here, which is why the
        dispatch loop only submits to a free worker slot."""
        if self.slice_timeout is not None and task.deadline is None:
            task.deadline = time.monotonic() + self.slice_timeout
        collect = self.sink.enabled
        if collect:
            self.sink.emit(
                "slice_dispatched", arm=task.arm,
                name=self.specs[task.arm].name, ordinal=task.ordinal,
                attempt=task.attempt, n_tests=task.n_tests,
            )
        fn = _fleet_slice if self.n_workers else self._run_local_slice
        args = (task.arm, task.n_tests, task.state, self._fault_for(task),
                collect)
        try:
            future = self._ensure_pool().submit(fn, *args)
        except BrokenProcessPool:
            self._kill_pool()
            health.pool_rebuilds += 1
            if collect:
                self.sink.emit("pool_rebuilt", layer="fleet",
                               reason="pool found broken at submit")
            future = self._ensure_pool().submit(fn, *args)
        inflight[future] = task

    def _pump(self, inflight: dict[Future, _SliceTask], health: FleetHealth,
              on_quarantine) -> list[tuple[_SliceTask, tuple]]:
        """Advance the dispatch loop by one wait: successfully completed
        ``(task, output)`` pairs, sorted by arm.

        All recovery happens inside: failed slices, and completed ones
        whose busy seconds exceed ``slice_timeout``, are retried (requeued
        into ``inflight``), worker death recycles the pool and requeues
        every in-flight slice (the pool cannot say which task killed the
        worker, so each is charged an attempt), an overdue slice recycles
        the pool with only the overdue arms charged (innocents requeue
        free — their slices never misbehaved), and exhausted arms are
        quarantined.  May return an empty list when the wait's progress
        was recovery rather than completion.
        """
        timeout = None
        if self.slice_timeout is not None:
            soonest = min(task.deadline for task in inflight.values())
            timeout = max(0.0, soonest - time.monotonic())
        done, _ = wait(set(inflight), timeout=timeout,
                       return_when=FIRST_COMPLETED)

        completed: list[tuple[_SliceTask, tuple]] = []
        failed: list[tuple[_SliceTask, Exception]] = []
        requeue: list[_SliceTask] = []
        broken = False
        # Deterministic handling order among simultaneous completions.
        for future in sorted(done, key=lambda f: inflight[f].arm):
            task = inflight.pop(future)
            try:
                output = future.result()
            except BrokenProcessPool as exc:
                broken = True
                failed.append((task, exc))
            except Exception as exc:
                failed.append((task, exc))
            else:
                if (self.slice_timeout is not None
                        and output[2] > self.slice_timeout):
                    failed.append((task, SliceTimeout(
                        f"arm {task.arm} slice {task.ordinal} busy for "
                        f"{output[2]:.3f}s > slice_timeout="
                        f"{self.slice_timeout}s"
                    )))
                else:
                    completed.append((task, output))

        if broken:
            # Worker death strands every other in-flight slice on the dead
            # pool too; recycle once and requeue them all.
            for task in sorted(inflight.values(), key=lambda t: t.arm):
                failed.append((task, BrokenProcessPool(
                    "slice was in flight on a pool a worker death broke"
                )))
            inflight.clear()
            self._kill_pool()
            health.pool_rebuilds += 1
            if self.sink.enabled:
                self.sink.emit("pool_rebuilt", layer="fleet",
                               reason="worker death (BrokenProcessPool)")
        elif self.slice_timeout is not None and inflight:
            now = time.monotonic()
            if any(task.deadline <= now for task in inflight.values()):
                # A hung worker cannot be interrupted individually —
                # recycle the pool.  Overdue arms are charged a timeout;
                # the innocent in-flight slices requeue at the same
                # attempt.
                for task in sorted(inflight.values(), key=lambda t: t.arm):
                    if task.deadline <= now:
                        failed.append((task, SliceTimeout(
                            f"arm {task.arm} slice {task.ordinal} exceeded "
                            f"slice_timeout={self.slice_timeout}s"
                        )))
                    else:
                        requeue.append(replace(task, deadline=None))
                inflight.clear()
                self._kill_pool()
                health.pool_rebuilds += 1
                if self.sink.enabled:
                    self.sink.emit("pool_rebuilt", layer="fleet",
                                   reason="hung slice past slice_timeout")

        for task, exc in failed:
            retry = self._retry_or_quarantine(task, exc, health,
                                              on_quarantine)
            if retry is not None:
                requeue.append(retry)
        for task in requeue:
            self._submit_task(inflight, task, health)
        return completed

    # -- checkpoint plumbing ---------------------------------------------------

    @staticmethod
    def _state_tests(state: dict | None) -> int:
        return 0 if state is None else state["loop"]["tests_run"]

    def _load_states(self, scheduler: BudgetScheduler | None):
        """(states, rounds, health) from the checkpoint's last commit, or
        fresh.

        ``health`` starts as the persisted ledger (quarantined arms stay
        quarantined across resume) and keeps accumulating through the
        run.
        """
        manifest = self.checkpoint.load() if self.checkpoint else None
        if manifest is None:
            return {}, 0, FleetHealth()
        states = {int(key): self.checkpoint.load_arm(int(key),
                                                     arm["tests_run"])
                  for key, arm in manifest["arms"].items()}
        if scheduler is not None and manifest["scheduler"] is not None:
            scheduler.load_state_dict(manifest["scheduler"])
        health = FleetHealth.from_state_dict(manifest.get("health") or {})
        return states, manifest["rounds"], health

    def _save_round(self, states: dict[int, dict],
                    scheduler: BudgetScheduler | None, rounds: int,
                    dirty: Sequence[int],
                    health: FleetHealth | None = None) -> None:
        if self.checkpoint is None:
            return
        for index in dirty:
            self.checkpoint.save_arm(index, states[index])
        self.checkpoint.save_manifest(states, scheduler, rounds, health)
        if self.sink.enabled:
            self.sink.emit("checkpoint_written", rounds=rounds,
                           dirty=list(dirty))

    # -- entry points ----------------------------------------------------------

    def run(self) -> FleetResult:
        """Run every spec to its full ``budget_tests`` (one slice each).

        The basic sharding mode: N independent campaigns spread over the
        pool, gathered in spec order.  It is the streaming loop of
        :meth:`run_scheduled` with round-robin picks and each arm's
        remaining budget as its one slice, so each campaign is
        checkpointed the moment its slice completes and a kill loses only
        in-flight work.  With a checkpoint, arms that already reached
        their budget are not re-run, and arms quarantined by a previous
        run stay quarantined.  Its manifests hold no scheduler state, so
        they resume under :meth:`run_scheduled` with any scheduler.
        """
        return self._run(RoundRobin(), "whole-budget")

    def run_scheduled(self, scheduler: BudgetScheduler | None = None,
                      slice_tests: int = 64,
                      total_tests: int | None = None,
                      target_percent: float | None = None,
                      concurrent_slices: int | None = None,
                      mode: str = "rounds") -> FleetResult:
        """Allocate the budget in slices via ``scheduler`` (MABFuzz-style).

        Both modes share one dispatch loop, which keeps at most
        ``worker_slots`` slices in flight: one in-process, else the worker
        count clamped by ``concurrent_slices`` (default: the worker
        count).  Each finished slice is folded into the fleet-wide
        coverage union and reported to ``scheduler.on_slice_complete``
        with its reward — the arm's *new* contribution to the union,
        normalised by the universe size.

        ``mode="streaming"`` folds and checkpoints each completion at once
        and hands the freed slot to the next ``scheduler.next_campaign``
        pick, so worker slots never idle at a barrier.  ``mode="rounds"``
        (the default) is the same loop with a barrier: the scheduler makes
        a round's picks (up to ``concurrent_slices`` distinct arms) back
        to back, and once the last of them finishes the round is folded
        and checkpointed once, in pick order.  Rounds are deterministic
        for a given configuration regardless of worker timing, at the
        cost of every round waiting for its slowest slice.

        The determinism contract: every campaign's *own* trajectory stays
        deterministic (slices carry their state, and a campaign never has
        two slices in flight), so with per-arm budgets as the only stop
        condition the final per-campaign results — and hence the fleet
        union — are bit-identical across modes.  Only the *interleaving*
        (scheduler observation order, and therefore the allocation under
        shared ``total_tests`` / ``target_percent`` caps on a real pool)
        varies run-to-run in streaming mode.  In-process streaming
        (``n_workers=0``) has one slot and is fully deterministic — the
        reference for the kill/resume equality tests.

        Stops when every arm reached its ``budget_tests``, the fleet spent
        ``total_tests`` (checked at slice granularity — batch rounding may
        overshoot slightly), or union coverage reached ``target_percent``.
        An arm that exhausts its retries is quarantined (see the class
        docstring): it leaves the scheduler's eligible set, its partial
        state stays in the aggregate, and the remaining arms keep running
        to their budgets.  ``slice_tests`` and ``concurrent_slices`` must
        be at least 1.
        """
        if mode not in ("rounds", "streaming"):
            raise ValueError(
                f"mode must be 'rounds' or 'streaming', got {mode!r}"
            )
        if slice_tests < 1:
            raise ValueError(f"slice_tests must be >= 1, got {slice_tests}")
        if concurrent_slices is not None and concurrent_slices < 1:
            raise ValueError(
                f"concurrent_slices must be >= 1, got {concurrent_slices}"
            )
        return self._run(scheduler if scheduler is not None else RoundRobin(),
                         mode, slice_tests, total_tests, target_percent,
                         concurrent_slices)

    def _run(self, scheduler: BudgetScheduler, mode: str,
             slice_tests: int | None = None,
             total_tests: int | None = None,
             target_percent: float | None = None,
             concurrency: int | None = None) -> FleetResult:
        """Resume, dispatch and aggregate one entry-point call.

        ``slice_tests=None`` (whole-budget) gives each pick the arm's
        whole remaining budget.  Whole-budget runs neither load nor save
        scheduler state, which keeps their manifests at
        ``"scheduler": null``.
        """
        if self._closed:
            raise RuntimeError("FleetRunner is closed")
        persisted = None if mode == "whole-budget" else scheduler
        scheduler.bind(len(self.specs))
        if self.sink.enabled:
            scheduler.attach_sink(self.sink)
        started = time.perf_counter()
        states, rounds, health = self._load_states(persisted)
        quarantined = health.quarantined_arms()

        def tests(arm: int) -> int:
            return self._state_tests(states.get(arm))

        def open_arms() -> list[int]:
            """Arms still under budget and not quarantined."""
            return [index for index, spec in enumerate(self.specs)
                    if index not in quarantined
                    and tests(index) < spec.budget_tests]

        if mode == "whole-budget":
            concurrency = len(open_arms())
        elif concurrency is None:
            concurrency = max(1, self.n_workers)
        stats = self._begin_stats(mode, concurrency, health)
        # The fleet union, one bitmap per DUT universe size: arms of
        # different designs never share an arm.
        unions: dict[int, int] = {}
        for state in states.values():
            coverage: Bitset = state["loop"]["coverage"]
            unions[coverage.nbits] = (unions.get(coverage.nbits, 0)
                                      | coverage.to_int())
        spent = sum(tests(index) for index in states)
        # Tests promised to picked, not yet folded slices, so the shared
        # total_tests cap holds at dispatch time; ``picked`` keeps an arm
        # from having two slices out at once.
        reserved = 0
        picked: set[int] = set()
        ordinals: dict[int, int] = {}
        if self.sink.enabled:
            self.sink.emit(
                "fleet_started", mode=mode, n_workers=self.n_workers,
                worker_slots=stats.worker_slots, arms=len(self.specs),
                scheduler=type(scheduler).__name__, resumed_tests=spent,
            )

        def pick() -> _SliceTask | None:
            """The scheduler's next slice, or None once a stop condition
            holds."""
            nonlocal reserved
            if (target_percent is not None and sum(unions)
                    and disjoint_union_percent(unions) >= target_percent):
                return None
            if total_tests is not None and spent + reserved >= total_tests:
                return None
            eligible = [index for index in open_arms() if index not in picked]
            if not eligible:
                return None
            arm = scheduler.next_campaign(eligible)
            n_tests = self.specs[arm].budget_tests - tests(arm)
            if slice_tests is not None:
                n_tests = min(n_tests, slice_tests)
            if total_tests is not None:
                n_tests = min(n_tests, total_tests - spent - reserved)
            picked.add(arm)
            reserved += n_tests
            ordinal = ordinals.get(arm, 0)
            ordinals[arm] = ordinal + 1
            return _SliceTask(arm, n_tests, states.get(arm), ordinal=ordinal)

        def release(task: _SliceTask) -> None:
            nonlocal reserved
            picked.discard(task.arm)
            reserved -= task.n_tests

        def fold(completed: list[tuple[_SliceTask, tuple]]) -> None:
            """Fold finished slices in order (union, reward, scheduler,
            stats), then checkpoint them together."""
            nonlocal spent, rounds
            for task, output in completed:
                release(task)
                state, result, busy, _events = output
                ran = result.tests_run - tests(task.arm)
                self._emit_completion(task.arm, output, ran)
                spent += ran
                states[task.arm] = state
                # Reward the arms new to the slice's own universe.
                universe = result.final_coverage.nbits
                bits = result.final_coverage.to_int()
                union = unions.get(universe, 0)
                gained = (bits & ~union).bit_count()
                unions[universe] = union | bits
                scheduler.on_slice_complete(
                    task.arm, ran, gained / universe if universe else 0.0
                )
                stats.busy_seconds += busy
                stats.slices += 1
                stats.tests += ran
            rounds += 1
            self._save_round(states, persisted, rounds,
                             dirty=[task.arm for task, _ in completed],
                             health=health)

        def on_quarantine(task: _SliceTask) -> None:
            release(task)
            quarantined.add(task.arm)
            scheduler.on_arm_quarantined(task.arm)
            self._save_round(states, persisted, rounds, dirty=[],
                             health=health)

        self._dispatch(pick, fold, concurrency if mode == "rounds" else None,
                       health, on_quarantine)
        stats.wall_seconds = time.perf_counter() - started
        fleet_result = FleetResult([
            CampaignResult.from_state(spec.name, states[index]["loop"],
                                      list(states[index]["curve"] or []))
            if index in states
            else CampaignResult(name=spec.name)
            for index, spec in enumerate(self.specs)
        ], health=health)
        if self.sink.enabled:
            self.sink.emit(
                "fleet_finished", mode=mode,
                wall_seconds=stats.wall_seconds,
                busy_seconds=stats.busy_seconds, slices=stats.slices,
                tests=stats.tests, union_percent=fleet_result.union_percent,
            )
        return fleet_result

    def _dispatch(self, pick, fold, round_size: int | None,
                  health: FleetHealth, on_quarantine) -> None:
        """The one dispatch loop behind every entry point.

        Keeps at most ``worker_slots`` slices in flight; in-process that
        is one slice, run to completion when it is submitted.  ``pick()``
        supplies the next slice (None once a stop condition holds) and
        ``fold`` takes ``(task, output)`` completions.  Without
        ``round_size`` each completion is folded at once and its slot
        goes to the next pick.  With it the loop adds a barrier: up to
        ``round_size`` picks are made back to back, run through the
        slots, and folded together, in pick order, once the last one
        finishes.  A quarantined pick is simply absent from its round,
        and the budget it reserved frees up for the next one.  Retries
        happen inside :meth:`_pump` and keep their arm's slot.
        """
        slots = self.last_stats.worker_slots
        inflight: dict[Future, _SliceTask] = {}
        picks: list[_SliceTask] = []  # the round's picks, in pick order
        queue: list[_SliceTask] = []  # the round's picks not yet started
        outputs: dict[int, tuple] = {}
        try:
            while True:
                if round_size is not None and not queue and not inflight:
                    if picks:
                        fold([(task, outputs[task.arm]) for task in picks
                              if task.arm in outputs])
                    picks, outputs = [], {}
                    while len(picks) < round_size:
                        task = pick()
                        if task is None:
                            break
                        picks.append(task)
                    if not picks:
                        return
                    queue = list(picks)
                while len(inflight) < slots:
                    if round_size is None:
                        task = pick()
                    else:
                        task = queue.pop(0) if queue else None
                    if task is None:
                        break
                    self._submit_task(inflight, task, health)
                if not inflight:
                    if round_size is None:
                        return
                    continue
                for task, output in self._pump(inflight, health,
                                               on_quarantine):
                    if round_size is None:
                        fold([(task, output)])
                    else:
                        outputs[task.arm] = output
        except BaseException:
            for future in inflight:
                future.cancel()
            raise
