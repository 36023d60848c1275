"""Fault-injection coverage for the fleet fault-tolerance layer.

Every recovery path of ``repro.fuzzing.fleet`` is pinned here with the
deterministic chaos harness from ``repro.fuzzing.faults`` (ISSUE 6
acceptance):

- slice retry: an injected failure is retried and the final
  ``FleetResult`` is bit-identical to the fault-free run, in ``run()``
  and both ``run_scheduled`` modes;
- pool self-healing: an injected worker death mid-fleet rebuilds the
  pool, requeues the in-flight slices, and still matches the fault-free
  result (``FleetRunner`` and ``ShardedExecutor``);
- timeouts: a hung slice trips ``slice_timeout`` (post-hoc in-process, a
  recycled pool when pooled) and the retry restores parity;
- quarantine: an arm whose harness always fails is removed after
  ``max_retries`` while the rest of the fleet reaches its budgets, the
  decision round-trips through checkpoints, and the scheduler hears
  ``on_arm_quarantined``;
- crash/resume equality: a fleet killed by an injected crash resumes to
  a bit-identical result (rounds + streaming, in-process + pooled);
- torn-write recovery: ``checkpoint_recover=True`` resumes past a torn
  arm snapshot, reporting what was dropped, instead of refusing.
"""

from __future__ import annotations

import json
import pickle

import pytest

from repro.fuzzing import FuzzLoop, ShardedExecutor
from repro.fuzzing.faults import (
    FAULT_KINDS,
    ChaosHarnessFactory,
    FaultPlan,
    FaultPoint,
    FaultyHarnessFactory,
    InjectedCrash,
    InjectedFault,
    fire,
    reset_build_counts,
)
from repro.fuzzing.fleet import (
    CampaignSpec,
    FleetHealth,
    FleetRunner,
    QuarantinedArm,
    SliceTimeout,
)
from repro.fuzzing.scheduler import RoundRobin
from repro.soc.harness import HarnessFactory


@pytest.fixture(autouse=True)
def _fresh_build_counts():
    reset_build_counts()
    yield
    reset_build_counts()


def spec_pair(budget: int = 24) -> list[CampaignSpec]:
    """Two small real-DUT campaign arms (TheHuzz + random, fixed seeds)."""
    return [
        CampaignSpec("thehuzz-0", fuzzer="thehuzz",
                     fuzzer_config={"body_instructions": 16}, seed=5,
                     batch_size=8, budget_tests=budget),
        CampaignSpec("random-0", fuzzer="random",
                     fuzzer_config={"body_instructions": 16}, seed=2,
                     batch_size=8, budget_tests=budget),
    ]


def faulty_spec(budget: int = 24, label: str = "bad",
                kind: str = "raise") -> CampaignSpec:
    """An arm whose harness factory always fires ``kind`` at build time."""
    return CampaignSpec(label, fuzzer="random",
                        fuzzer_config={"body_instructions": 16}, seed=3,
                        batch_size=8, budget_tests=budget,
                        harness=FaultyHarnessFactory(
                            HarnessFactory("rocket"), kind=kind,
                            label=label))


def assert_campaigns_equal(a, b) -> None:
    """Bit-identical per-campaign results (the fleet parity invariant)."""
    assert [c.name for c in a.campaigns] == [c.name for c in b.campaigns]
    for x, y in zip(a.campaigns, b.campaigns):
        assert x.tests_run == y.tests_run
        assert x.final_coverage.to_int() == y.final_coverage.to_int()
        assert [p.coverage_percent for p in x.curve] == \
            [p.coverage_percent for p in y.curve]
        assert {m.signature for m in x.mismatches} == \
            {m.signature for m in y.mismatches}


class TestFaultPlan:
    def test_find_is_keyed_by_arm_ordinal_attempt(self):
        point = FaultPoint(1, 2, attempt=1, kind="raise")
        plan = FaultPlan([point])
        assert plan.find(1, 2, 1) is point
        assert plan.find(1, 2, 0) is None
        assert plan.find(1, 1, 1) is None
        assert plan.find(0, 2, 1) is None
        assert len(plan) == 1 and list(plan) == [point]

    def test_duplicate_points_rejected(self):
        with pytest.raises(ValueError, match="duplicate fault points"):
            FaultPlan([FaultPoint(0, 0), FaultPoint(0, 0, kind="hang")])

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError, match="unknown fault kind"):
            FaultPoint(0, 0, kind="explode")
        with pytest.raises(ValueError, match="unknown fault kind"):
            fire("explode", "ctx")

    def test_seeded_plan_is_deterministic(self):
        one = FaultPlan.seeded(7, n_arms=3, n_slices=10, rate=0.3,
                               kinds=("raise", "hang"))
        two = FaultPlan.seeded(7, n_arms=3, n_slices=10, rate=0.3,
                               kinds=("raise", "hang"))
        assert one.points == two.points
        other = FaultPlan.seeded(8, n_arms=3, n_slices=10, rate=0.3,
                                 kinds=("raise", "hang"))
        assert one.points != other.points
        assert all(p.kind in ("raise", "hang") for p in one.points)
        assert all(p.attempt == 0 for p in one.points)

    def test_seeded_rate_extremes(self):
        assert len(FaultPlan.seeded(1, 2, 5, rate=0.0)) == 0
        assert len(FaultPlan.seeded(1, 2, 5, rate=1.0)) == 10

    def test_fire_kinds(self):
        with pytest.raises(InjectedFault):
            fire("raise", "ctx")
        with pytest.raises(InjectedCrash):
            fire("crash", "ctx")
        fire("hang", "ctx", hang_seconds=0.0)  # returns normally
        assert isinstance(InjectedFault("x"), Exception)
        assert not isinstance(InjectedCrash("x"), Exception)
        assert set(FAULT_KINDS) == {"raise", "hang", "die", "crash"}

    def test_points_are_picklable(self):
        plan = FaultPlan([FaultPoint(0, 1, kind="die")])
        clone = pickle.loads(pickle.dumps(plan.points[0]))
        assert clone == plan.points[0]


class TestChaosWrappers:
    def test_faulty_factory_fails_first_n_builds(self):
        wrapped = FaultyHarnessFactory(HarnessFactory("rocket"),
                                       fail_builds=2, label="first-n")
        for _ in range(2):
            with pytest.raises(InjectedFault):
                wrapped()
        harness = wrapped()  # third build succeeds
        assert harness.total_arms > 0

    def test_faulty_factory_always_fails_by_default(self):
        wrapped = FaultyHarnessFactory(HarnessFactory("rocket"),
                                       label="always")
        for _ in range(3):
            with pytest.raises(InjectedFault):
                wrapped()

    def test_wrappers_are_picklable(self):
        for wrapped in (FaultyHarnessFactory(HarnessFactory("rocket")),
                        ChaosHarnessFactory(HarnessFactory("rocket"),
                                            once_dir="/tmp/x")):
            assert pickle.loads(pickle.dumps(wrapped)) == wrapped

    def test_chaos_harness_fires_on_nth_test_once(self, tmp_path):
        chaos = ChaosHarnessFactory(HarnessFactory("rocket"), fail_test=1,
                                    kind="raise", once_dir=str(tmp_path),
                                    label="nth")
        harness = chaos()
        assert harness.total_arms > 0  # proxy passes metadata through
        harness.run_differential([0x13])  # test 0: clean
        with pytest.raises(InjectedFault):
            harness.run_differential([0x13])  # test 1: fires, takes latch
        assert chaos.latch_path.exists()
        # A second harness (a respawned worker) must not re-fire.
        fresh = chaos()
        fresh.run_differential([0x13])
        fresh.run_differential([0x13])

    def test_chaos_harness_without_latch_fires_per_instance(self):
        chaos = ChaosHarnessFactory(HarnessFactory("rocket"), fail_test=0,
                                    kind="raise")
        for _ in range(2):
            with pytest.raises(InjectedFault):
                chaos().run_differential([0x13])

    def test_chaos_batch_fires_at_exact_ordinal_mid_chunk(self):
        chaos = ChaosHarnessFactory(HarnessFactory("rocket"), fail_test=5,
                                    kind="raise", label="mid-chunk")
        harness = chaos()
        harness.run_differential_batch([[0x13]] * 4)  # ordinals 0-3: clean
        with pytest.raises(InjectedFault, match="test 5"):
            harness.run_differential_batch([[0x13]] * 4)  # 4-7: fires at 5

    def test_chaos_batch_keeps_lanes_batched_off_fault_chunk(self):
        """Chunks without the fault ordinal must delegate to the inner
        batched engines (dut_lanes/golden_lanes stay vectorised)."""
        chaos = ChaosHarnessFactory(
            HarnessFactory("rocket", golden_lanes=4, dut_lanes=4),
            fail_test=4, kind="raise", label="lanes-on")
        harness = chaos()
        calls = []
        inner_batched = harness._inner.run_differential_batch

        def spying(bodies, *args, **kwargs):
            calls.append(len(bodies))
            return inner_batched(bodies, *args, **kwargs)

        harness._inner.run_differential_batch = spying
        clean = harness.run_differential_batch([[0x13]] * 4)  # 0-3: clean
        assert calls == [4], "fault-free chunk must stay one batched call"
        scalar = HarnessFactory("rocket")().run_differential_batch([[0x13]])
        assert clean[0][0] == scalar[0][0]  # proxy returns real results
        with pytest.raises(InjectedFault):
            harness.run_differential_batch([[0x13]] * 4)  # 4-7: per body
        assert calls == [4], "fault chunk must not reach the batched path"

    def test_chaos_batch_ordinals_advance_on_delegated_chunks(self):
        chaos = ChaosHarnessFactory(HarnessFactory("rocket", dut_lanes=2),
                                    fail_test=2, kind="raise",
                                    label="advance")
        harness = chaos()
        harness.run_differential_batch([[0x13]] * 2)  # 0-1 delegated
        assert harness._runs == 2
        with pytest.raises(InjectedFault, match="test 2"):
            harness.run_differential_batch([[0x13]] * 2)


class TestHealthRecord:
    def test_state_dict_round_trip(self):
        health = FleetHealth(retries=3, timeouts=1, pool_rebuilds=2,
                             quarantined=[QuarantinedArm(
                                 1, "bad", "InjectedFault: x", 2, 8)],
                             dropped_snapshots=["arm 0: snapshot dropped"])
        clone = FleetHealth.from_state_dict(
            json.loads(json.dumps(health.state_dict()))
        )
        assert clone == health
        assert not clone.healthy
        assert clone.quarantined_arms() == {1}
        assert "quarantined 'bad'" in clone.summary()

    def test_healthy_default(self):
        health = FleetHealth()
        assert health.healthy
        assert health.summary() == "health: ok"
        assert FleetHealth.from_state_dict(health.state_dict()) == health


class TestInProcessRetryParity:
    """An injected retryable failure must leave no trace in the result."""

    def test_streaming_retry_matches_fault_free(self):
        base = FleetRunner(spec_pair(), n_workers=0).run_scheduled(
            RoundRobin(), slice_tests=8, mode="streaming")
        plan = FaultPlan([FaultPoint(0, 1, 0, kind="raise")])
        runner = FleetRunner(spec_pair(), n_workers=0, fault_plan=plan,
                             retry_backoff=0.0)
        faulted = runner.run_scheduled(RoundRobin(), slice_tests=8,
                                       mode="streaming")
        assert faulted.health.retries == 1
        assert faulted.health.quarantined == []
        assert_campaigns_equal(base, faulted)
        assert runner.last_stats.health is faulted.health

    def test_rounds_retry_matches_fault_free(self):
        base = FleetRunner(spec_pair(), n_workers=0).run_scheduled(
            RoundRobin(), slice_tests=8, mode="rounds")
        plan = FaultPlan([FaultPoint(1, 0, 0, kind="raise"),
                          FaultPoint(0, 2, 0, kind="raise")])
        faulted = FleetRunner(spec_pair(), n_workers=0, fault_plan=plan,
                              retry_backoff=0.0).run_scheduled(
            RoundRobin(), slice_tests=8, mode="rounds")
        assert faulted.health.retries == 2
        assert_campaigns_equal(base, faulted)

    def test_whole_budget_retry_matches_fault_free(self):
        base = FleetRunner(spec_pair(), n_workers=0).run()
        plan = FaultPlan([FaultPoint(0, 0, 0, kind="raise")])
        faulted = FleetRunner(spec_pair(), n_workers=0, fault_plan=plan,
                              retry_backoff=0.0).run()
        assert faulted.health.retries == 1
        assert_campaigns_equal(base, faulted)

    def test_second_attempt_fault_consumes_two_retries(self):
        base = FleetRunner(spec_pair(), n_workers=0).run_scheduled(
            RoundRobin(), slice_tests=8, mode="streaming")
        plan = FaultPlan([FaultPoint(0, 1, 0, kind="raise"),
                          FaultPoint(0, 1, 1, kind="raise")])
        faulted = FleetRunner(spec_pair(), n_workers=0, fault_plan=plan,
                              max_retries=2, retry_backoff=0.0).run_scheduled(
            RoundRobin(), slice_tests=8, mode="streaming")
        assert faulted.health.retries == 2
        assert_campaigns_equal(base, faulted)

    def test_fault_free_path_identical_with_retries_disabled(self):
        """Fault-tolerance bookkeeping must not perturb clean runs."""
        default = FleetRunner(spec_pair(), n_workers=0).run_scheduled(
            RoundRobin(), slice_tests=8, mode="streaming")
        fail_fast = FleetRunner(spec_pair(), n_workers=0, max_retries=0,
                                quarantine=False).run_scheduled(
            RoundRobin(), slice_tests=8, mode="streaming")
        assert default.health.healthy and fail_fast.health.healthy
        assert_campaigns_equal(default, fail_fast)


class TestQuarantine:
    """ISSUE acceptance: an always-failing arm is quarantined after
    ``max_retries`` and the fleet completes with the rest at budget."""

    def _specs(self):
        return spec_pair() + [faulty_spec(label="bad-arm")]

    def test_rounds_quarantines_and_completes(self):
        result = FleetRunner(self._specs(), n_workers=0, max_retries=2,
                             retry_backoff=0.0).run_scheduled(
            RoundRobin(), slice_tests=8, mode="rounds")
        assert result.campaigns[0].tests_run == 24
        assert result.campaigns[1].tests_run == 24
        assert result.campaigns[2].tests_run == 0
        [record] = result.health.quarantined
        assert record.arm == 2 and record.name == "bad-arm"
        assert record.retries == 2
        assert "InjectedFault" in record.error
        assert result.health.retries == 2
        assert "quarantined" in result.summary()

    def test_streaming_quarantines_and_completes(self):
        result = FleetRunner(self._specs(), n_workers=0, max_retries=1,
                             retry_backoff=0.0).run_scheduled(
            RoundRobin(), slice_tests=8, mode="streaming")
        assert result.campaigns[0].tests_run == 24
        assert result.campaigns[1].tests_run == 24
        [record] = result.health.quarantined
        assert record.arm == 2 and record.retries == 1

    def test_whole_budget_quarantines_and_completes(self):
        result = FleetRunner(self._specs(), n_workers=0, max_retries=0,
                             retry_backoff=0.0).run()
        assert result.campaigns[0].tests_run == 24
        assert result.campaigns[1].tests_run == 24
        [record] = result.health.quarantined
        assert record.arm == 2 and record.retries == 0

    def test_quarantine_false_restores_fail_fast(self):
        runner = FleetRunner(self._specs(), n_workers=0, max_retries=1,
                             retry_backoff=0.0, quarantine=False)
        with pytest.raises(InjectedFault):
            runner.run_scheduled(RoundRobin(), slice_tests=8, mode="rounds")

    def test_scheduler_hears_quarantine(self):
        heard: list[int] = []

        class Recording(RoundRobin):
            def on_arm_quarantined(self, arm: int) -> None:
                heard.append(arm)

        FleetRunner(self._specs(), n_workers=0, max_retries=0,
                    retry_backoff=0.0).run_scheduled(
            Recording(), slice_tests=8, mode="streaming")
        assert heard == [2]

    def test_all_arms_quarantined_still_returns(self):
        specs = [faulty_spec(label="bad-a"),
                 faulty_spec(label="bad-b")]
        # Distinct seeds keep the names unique constraint happy.
        result = FleetRunner(specs, n_workers=0, max_retries=0,
                             retry_backoff=0.0).run_scheduled(
            RoundRobin(), slice_tests=8, mode="rounds")
        assert len(result.health.quarantined) == 2
        assert all(c.tests_run == 0 for c in result.campaigns)

    def test_crash_kind_is_never_quarantined(self):
        """BaseException faults abort the fleet even with quarantine on."""
        plan = FaultPlan([FaultPoint(0, 0, 0, kind="crash")])
        runner = FleetRunner(spec_pair(), n_workers=0, fault_plan=plan,
                             retry_backoff=0.0)
        with pytest.raises(InjectedCrash):
            runner.run_scheduled(RoundRobin(), slice_tests=8,
                                 mode="streaming")


class TestInProcessTimeout:
    def test_hang_trips_post_hoc_timeout_then_parity(self):
        base = FleetRunner(spec_pair(), n_workers=0).run_scheduled(
            RoundRobin(), slice_tests=8, mode="streaming")
        plan = FaultPlan([FaultPoint(1, 0, 0, kind="hang",
                                     hang_seconds=0.6)])
        faulted = FleetRunner(spec_pair(), n_workers=0, fault_plan=plan,
                              slice_timeout=0.25,
                              retry_backoff=0.0).run_scheduled(
            RoundRobin(), slice_tests=8, mode="streaming")
        assert faulted.health.timeouts == 1
        assert faulted.health.retries == 1
        assert_campaigns_equal(base, faulted)

    def test_timeout_exhausting_retries_quarantines(self):
        plan = FaultPlan([FaultPoint(1, 0, attempt, kind="hang",
                                     hang_seconds=0.6)
                          for attempt in range(2)])
        result = FleetRunner(spec_pair(), n_workers=0, fault_plan=plan,
                             slice_timeout=0.25, max_retries=1,
                             retry_backoff=0.0).run_scheduled(
            RoundRobin(), slice_tests=8, mode="streaming")
        [record] = result.health.quarantined
        assert record.arm == 1
        assert "SliceTimeout" in record.error
        assert result.campaigns[0].tests_run == 24

    def test_slice_timeout_validation(self):
        with pytest.raises(ValueError, match="slice_timeout"):
            FleetRunner(spec_pair(), n_workers=0, slice_timeout=0.0)
        with pytest.raises(ValueError, match="max_retries"):
            FleetRunner(spec_pair(), n_workers=0, max_retries=-1)


class TestPooledFaults:
    """Worker-death and hang recovery on a real process pool."""

    def test_worker_death_self_heals_streaming(self):
        """ISSUE acceptance: injected worker death mid-fleet no longer
        aborts the run — the slice requeues on a rebuilt pool and the
        result is bit-identical to the fault-free run."""
        with FleetRunner(spec_pair(), n_workers=2) as runner:
            base = runner.run_scheduled(RoundRobin(), slice_tests=8,
                                        mode="streaming")
        plan = FaultPlan([FaultPoint(0, 1, 0, kind="die")])
        with FleetRunner(spec_pair(), n_workers=2, fault_plan=plan,
                         retry_backoff=0.0) as runner:
            faulted = runner.run_scheduled(RoundRobin(), slice_tests=8,
                                           mode="streaming")
        assert faulted.health.pool_rebuilds >= 1
        assert faulted.health.retries >= 1
        assert faulted.health.quarantined == []
        assert_campaigns_equal(base, faulted)

    def test_worker_death_self_heals_rounds(self):
        with FleetRunner(spec_pair(), n_workers=2) as runner:
            base = runner.run_scheduled(RoundRobin(), slice_tests=8,
                                        mode="rounds")
        plan = FaultPlan([FaultPoint(1, 0, 0, kind="die")])
        with FleetRunner(spec_pair(), n_workers=2, fault_plan=plan,
                         retry_backoff=0.0) as runner:
            faulted = runner.run_scheduled(RoundRobin(), slice_tests=8,
                                           mode="rounds")
        assert faulted.health.pool_rebuilds >= 1
        assert_campaigns_equal(base, faulted)

    def test_worker_death_self_heals_whole_budget(self):
        with FleetRunner(spec_pair(), n_workers=2) as runner:
            base = runner.run()
        plan = FaultPlan([FaultPoint(0, 0, 0, kind="die")])
        with FleetRunner(spec_pair(), n_workers=2, fault_plan=plan,
                         retry_backoff=0.0) as runner:
            faulted = runner.run()
        assert faulted.health.pool_rebuilds >= 1
        assert_campaigns_equal(base, faulted)

    def test_hung_worker_recycled_by_slice_timeout(self):
        import time as _time

        with FleetRunner(spec_pair(), n_workers=2) as runner:
            base = runner.run_scheduled(RoundRobin(), slice_tests=8,
                                        mode="streaming")
        plan = FaultPlan([FaultPoint(0, 1, 0, kind="hang",
                                     hang_seconds=60.0)])
        started = _time.monotonic()
        with FleetRunner(spec_pair(), n_workers=2, fault_plan=plan,
                         slice_timeout=2.0, retry_backoff=0.0) as runner:
            faulted = runner.run_scheduled(RoundRobin(), slice_tests=8,
                                           mode="streaming")
        elapsed = _time.monotonic() - started
        assert elapsed < 40.0  # the 60s hang did not hold the fleet
        assert faulted.health.timeouts >= 1
        assert faulted.health.pool_rebuilds >= 1
        assert_campaigns_equal(base, faulted)

    def test_close_is_safe_after_worker_death(self):
        """Satellite: FleetRunner.close() after BrokenProcessPool."""
        plan = FaultPlan([FaultPoint(0, 0, 0, kind="die")])
        runner = FleetRunner(spec_pair(), n_workers=2, fault_plan=plan,
                             max_retries=0, quarantine=False)
        with pytest.raises(Exception):
            runner.run()
        runner.close()  # must not raise on the broken pool
        runner.close()  # and stays idempotent


class TestShardedExecutorHealing:
    """Satellite: ShardedExecutor survives die-mid-chunk and closes safely."""

    BODIES = [[0x13 + (i << 20)] for i in range(16)]

    def test_die_mid_chunk_heals_with_parity(self, tmp_path):
        serial = ShardedExecutor(HarnessFactory("rocket"),
                                 n_workers=2).run_batch(self.BODIES)
        chaos = ChaosHarnessFactory(HarnessFactory("rocket"), fail_test=3,
                                    kind="die", once_dir=str(tmp_path),
                                    label="heal-parity")
        executor = ShardedExecutor(chaos, n_workers=2, max_retries=1)
        try:
            healed = executor.run_batch(self.BODIES)
        finally:
            executor.close()
        assert executor.stats.rebuilds == 1
        assert len(healed) == len(serial)
        for clean, after in zip(serial, healed):
            assert clean.report.hits.to_int() == after.report.hits.to_int()
            assert clean.dut_trace == after.dut_trace

    def test_max_retries_zero_fails_fast_and_close_is_safe(self, tmp_path):
        from concurrent.futures.process import BrokenProcessPool

        chaos = ChaosHarnessFactory(HarnessFactory("rocket"), fail_test=3,
                                    kind="die", once_dir=str(tmp_path),
                                    label="fail-fast")
        executor = ShardedExecutor(chaos, n_workers=2, max_retries=0)
        with pytest.raises(BrokenProcessPool):
            executor.run_batch(self.BODIES)
        executor.close()  # broken pool must be discarded, not re-raised
        executor.close()

    def test_fuzz_loop_close_safe_after_worker_death(self, tmp_path):
        """FuzzLoop.close() routes through executor.close() unharmed."""
        from concurrent.futures.process import BrokenProcessPool

        from repro.baselines.thehuzz import TheHuzzGenerator

        chaos = ChaosHarnessFactory(HarnessFactory("rocket"), fail_test=0,
                                    kind="die", once_dir=str(tmp_path),
                                    label="loop-close")
        loop = FuzzLoop(TheHuzzGenerator(body_instructions=16, seed=5),
                        batch_size=8,
                        executor=ShardedExecutor(chaos, n_workers=2,
                                                 max_retries=0))
        with pytest.raises(BrokenProcessPool):
            loop.run_batch()
        loop.close()
        loop.close()

    def test_negative_max_retries_rejected(self):
        with pytest.raises(ValueError, match="max_retries"):
            ShardedExecutor(HarnessFactory("rocket"), n_workers=1,
                            max_retries=-1)


class TestCrashResumeEquality:
    """ISSUE acceptance: kill mid-fleet by injected fault, resume, and the
    per-campaign results are bit-identical to an uninterrupted run —
    rounds and streaming, in-process and pooled."""

    def _baseline(self, n_workers, mode):
        with FleetRunner(spec_pair(), n_workers=n_workers) as runner:
            return runner.run_scheduled(RoundRobin(), slice_tests=8,
                                        mode=mode)

    @pytest.mark.parametrize("mode", ["rounds", "streaming"])
    def test_in_process_crash_then_resume(self, tmp_path, mode):
        base = self._baseline(0, mode)
        plan = FaultPlan([FaultPoint(1, 1, 0, kind="crash")])
        killed = FleetRunner(spec_pair(), n_workers=0,
                             checkpoint_dir=tmp_path, fault_plan=plan,
                             retry_backoff=0.0)
        with pytest.raises(InjectedCrash):
            killed.run_scheduled(RoundRobin(), slice_tests=8, mode=mode)
        resumed = FleetRunner(spec_pair(), n_workers=0,
                              checkpoint_dir=tmp_path).run_scheduled(
            RoundRobin(), slice_tests=8, mode=mode)
        assert_campaigns_equal(base, resumed)

    @pytest.mark.parametrize("mode", ["rounds", "streaming"])
    def test_pooled_worker_death_then_resume(self, tmp_path, mode):
        base = self._baseline(2, mode)
        plan = FaultPlan([FaultPoint(1, 1, 0, kind="die")])
        killed = FleetRunner(spec_pair(), n_workers=2,
                             checkpoint_dir=tmp_path, fault_plan=plan,
                             max_retries=0, quarantine=False)
        try:
            with pytest.raises(Exception):
                killed.run_scheduled(RoundRobin(), slice_tests=8, mode=mode)
        finally:
            killed.close()
        with FleetRunner(spec_pair(), n_workers=2,
                         checkpoint_dir=tmp_path) as runner:
            resumed = runner.run_scheduled(RoundRobin(), slice_tests=8,
                                           mode=mode)
        assert_campaigns_equal(base, resumed)


class TestCheckpointHealthRoundTrip:
    """ISSUE acceptance: checkpoints round-trip retry/quarantine state —
    no re-running completed slices, no resurrecting quarantined arms."""

    def _specs(self):
        return spec_pair() + [faulty_spec(label="bad-arm")]

    def test_quarantine_survives_resume(self, tmp_path):
        first = FleetRunner(self._specs(), n_workers=0, max_retries=1,
                            retry_backoff=0.0, checkpoint_dir=tmp_path,
                            ).run_scheduled(RoundRobin(), slice_tests=8,
                                            mode="streaming")
        [record] = first.health.quarantined
        assert record.arm == 2
        manifest = json.loads((tmp_path / "manifest.json").read_text())
        assert manifest["health"]["quarantined"][0]["arm"] == 2

        # The resumed fleet must not rebuild (i.e. retry) the bad arm:
        # its harness factory counts builds per process, and the first
        # run already consumed attempts 0 and 1 in this process.
        from repro.fuzzing.faults import _BUILD_COUNTS

        builds_before = _BUILD_COUNTS.get("bad-arm", 0)
        resumed = FleetRunner(self._specs(), n_workers=0, max_retries=1,
                              retry_backoff=0.0, checkpoint_dir=tmp_path,
                              ).run_scheduled(RoundRobin(), slice_tests=8,
                                              mode="streaming")
        assert _BUILD_COUNTS.get("bad-arm", 0) == builds_before
        [persisted] = resumed.health.quarantined
        assert persisted == record
        assert resumed.campaigns[0].tests_run == 24
        assert resumed.campaigns[1].tests_run == 24

    def test_completed_slices_not_rerun_on_resume(self, tmp_path):
        done = FleetRunner(spec_pair(), n_workers=0,
                           checkpoint_dir=tmp_path).run_scheduled(
            RoundRobin(), slice_tests=8, mode="streaming")
        again = FleetRunner(spec_pair(), n_workers=0,
                            checkpoint_dir=tmp_path)
        resumed = again.run_scheduled(RoundRobin(), slice_tests=8,
                                      mode="streaming")
        assert again.last_stats.slices == 0  # nothing re-ran
        assert_campaigns_equal(done, resumed)

    def test_whole_budget_skips_quarantined_arm(self, tmp_path):
        FleetRunner(self._specs(), n_workers=0, max_retries=0,
                    retry_backoff=0.0, checkpoint_dir=tmp_path).run()
        runner = FleetRunner(self._specs(), n_workers=0, max_retries=0,
                             retry_backoff=0.0, checkpoint_dir=tmp_path)
        from repro.fuzzing.faults import _BUILD_COUNTS

        builds_before = _BUILD_COUNTS.get("bad-arm", 0)
        result = runner.run()
        assert _BUILD_COUNTS.get("bad-arm", 0) == builds_before
        assert len(result.health.quarantined) == 1


class TestTornWriteRecovery:
    """Satellite: checkpoint_recover resumes past torn snapshots."""

    def _checkpointed_run(self, tmp_path):
        return FleetRunner(spec_pair(), n_workers=0,
                           checkpoint_dir=tmp_path).run_scheduled(
            RoundRobin(), slice_tests=8, mode="streaming")

    def test_stale_manifest_recovers_newer_intact_snapshot(self, tmp_path):
        """Kill between arm writes and the manifest write: the arm files
        are intact but ahead — recovery resumes from them."""
        self._checkpointed_run(tmp_path)
        manifest_path = tmp_path / "manifest.json"
        manifest = json.loads(manifest_path.read_text())
        manifest["arms"]["0"]["tests_run"] -= 8  # manifest one slice behind
        manifest_path.write_text(json.dumps(manifest))

        with pytest.raises(ValueError, match="torn checkpoint"):
            FleetRunner(spec_pair(), n_workers=0, checkpoint_dir=tmp_path)\
                .run_scheduled(RoundRobin(), slice_tests=8, mode="streaming")

        runner = FleetRunner(spec_pair(), n_workers=0,
                             checkpoint_dir=tmp_path,
                             checkpoint_recover=True)
        result = runner.run_scheduled(RoundRobin(), slice_tests=8,
                                      mode="streaming")
        [note] = result.health.dropped_snapshots
        assert "intact snapshot" in note
        assert runner.last_stats.slices == 0  # nothing was re-run
        assert result.campaigns[0].tests_run == 24

    def test_torn_arm_files_drop_the_arm_and_restart_it(self, tmp_path):
        """Kill mid-arm-write: no intact snapshot exists — the arm is
        dropped, reported, and re-run from scratch to the same result."""
        base = self._checkpointed_run(tmp_path)
        json_path = tmp_path / "campaign_0.json"
        document = json.loads(json_path.read_text())
        document["tests_run"] += 8  # now disagrees with .pkl stamp
        json_path.write_text(json.dumps(document))

        runner = FleetRunner(spec_pair(), n_workers=0,
                             checkpoint_dir=tmp_path,
                             checkpoint_recover=True)
        result = runner.run_scheduled(RoundRobin(), slice_tests=8,
                                      mode="streaming")
        [note] = result.health.dropped_snapshots
        assert "snapshot dropped" in note
        assert runner.last_stats.slices > 0  # arm 0 really re-ran
        assert_campaigns_equal(base, result)

    def test_strict_mode_unchanged_by_default(self, tmp_path):
        self._checkpointed_run(tmp_path)
        json_path = tmp_path / "campaign_0.json"
        document = json.loads(json_path.read_text())
        document["tests_run"] += 8
        json_path.write_text(json.dumps(document))
        with pytest.raises(ValueError, match="torn checkpoint"):
            FleetRunner(spec_pair(), n_workers=0,
                        checkpoint_dir=tmp_path).run_scheduled(
                RoundRobin(), slice_tests=8, mode="streaming")
