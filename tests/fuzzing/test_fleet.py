"""Campaign fleets: spec building, slice API, fleet-vs-serial parity,
scheduling acceptance, checkpoint/resume equality, aggregation.

The load-bearing guarantees (ISSUE acceptance):

- a ``FleetRunner`` over N single-campaign specs produces the same unioned
  coverage bitmap and deduped mismatch set as running the N campaigns
  serially (and the union matches the retained set-based reference engine
  over the concatenated test stream);
- ``BanditScheduler`` reaches a fixed coverage target in no more total
  tests than ``RoundRobin`` on the standard rocket config;
- checkpoint → kill → resume yields a result equal to an uninterrupted run.
"""

from __future__ import annotations

import ctypes
import hashlib
import json
import pickle
from concurrent.futures import ProcessPoolExecutor

import pytest

from repro.baselines.thehuzz import TheHuzzGenerator
from repro.coverage.reference import SetCoverageReport, SetCumulativeCoverage
from repro.fuzzing import Campaign, FuzzLoop
from repro.fuzzing.campaign import CampaignResult, CurvePoint
from repro.fuzzing.executor import SerialExecutor
from repro.fuzzing.faults import (
    FaultPlan,
    FaultPoint,
    FaultyHarnessFactory,
    reset_build_counts,
)
from repro.fuzzing.fleet import (
    CampaignSpec,
    FleetRunner,
    FleetStats,
    _fleet_init,
)
from repro.fuzzing.scheduler import BanditScheduler, RoundRobin
from repro.obs.events import ListSink
from repro.rtl.bitset import Bitset
from repro.soc.harness import HarnessFactory, make_harness


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


class TestCampaignSpec:
    def test_spec_is_picklable(self):
        for spec in spec_pair():
            clone = pickle.loads(pickle.dumps(spec))
            assert clone == spec

    def test_unknown_fuzzer_kind(self):
        # A typo fails where the spec is written, not as a quarantined arm
        # after its retries inside a worker.
        with pytest.raises(ValueError, match="unknown fuzzer kind"):
            CampaignSpec("x", fuzzer="thehuzzz")

    def test_harness_kind_string(self):
        factory = CampaignSpec("x", harness="rocket").harness_factory()
        assert factory.kind == "rocket"
        # Invalid harnesses fail at spec construction, not in a worker.
        with pytest.raises(ValueError, match="unknown harness kind"):
            CampaignSpec("x", harness="vax")
        with pytest.raises(TypeError, match="factory or kind"):
            CampaignSpec("x", harness=42)

    def test_build_campaign_forces_serial_executor(self):
        """Nested-pool caveat: spec-built campaigns never own a pool."""
        campaign = spec_pair()[0].build_campaign()
        assert isinstance(campaign.loop.executor, SerialExecutor)

    def test_prebuilt_generator_is_copied_per_build(self):
        from repro.baselines.thehuzz import TheHuzzGenerator

        generator = TheHuzzGenerator(body_instructions=8, seed=1)
        spec = CampaignSpec("x", generator=generator, batch_size=4,
                            budget_tests=4)
        a = spec.build_generator()
        b = spec.build_generator()
        assert a is not generator and a is not b
        a.pool.append([1])  # mutating one build must not leak to the next
        assert spec.build_generator().pool == []

    @pytest.mark.parametrize("batch_size", [0, -8])
    def test_batch_size_must_be_positive(self, batch_size):
        """An empty batch never advances ``tests_run``, so a slice would
        spin forever inside a worker; the spec refuses it up front."""
        with pytest.raises(ValueError, match="batch_size"):
            CampaignSpec("x", batch_size=batch_size)

    @pytest.mark.parametrize("budget", [0, -4])
    def test_budget_tests_must_be_positive(self, budget):
        """A non-positive budget would run as a healthy arm with 0 tests."""
        with pytest.raises(ValueError, match="budget_tests"):
            CampaignSpec("x", budget_tests=budget)

    @pytest.mark.parametrize("fuzzer, config", [
        ("thehuzz", {"body_instrs": 16}),
        ("random", {"corpus_size": 8}),
        # DifuzzRTL passes **kwargs on to TheHuzz, whose names count.
        ("difuzzrtl", {"body_instrs": 16}),
        ("thehuzz", {"seed": 3}),
    ])
    def test_fuzzer_config_keys_must_be_generator_parameters(self, fuzzer,
                                                             config):
        """A misspelt key fails where the spec is written, not as a
        quarantined arm after its retries inside a worker."""
        with pytest.raises(ValueError, match="fuzzer_config"):
            CampaignSpec("x", fuzzer=fuzzer, fuzzer_config=config)

    def test_fuzzer_config_accepts_inherited_parameters(self):
        spec = CampaignSpec("x", fuzzer="difuzzrtl",
                            fuzzer_config={"body_instructions": 8,
                                           "corpus_size": 4})
        assert spec.build_generator().corpus_size == 4

    def test_fingerprint_stable_and_discriminating(self):
        one, two = spec_pair()
        assert one.fingerprint() == spec_pair()[0].fingerprint()
        assert one.fingerprint() != two.fingerprint()
        reseeded = CampaignSpec("thehuzz-0", fuzzer="thehuzz",
                                fuzzer_config={"body_instructions": 16},
                                seed=6, batch_size=8, budget_tests=24)
        assert reseeded.fingerprint() != one.fingerprint()


class TestRunSlice:
    def _loop(self):
        return FuzzLoop(
            TheHuzzGenerator(body_instructions=16, seed=5),
            HarnessFactory("rocket"),
            batch_size=8,
        )

    def test_slices_equal_one_run_tests(self):
        """Two 8-test slices are indistinguishable from run_tests(16)."""
        sliced = Campaign(self._loop(), "c")
        sliced.run_slice(8)
        result = sliced.run_slice(8)
        whole = Campaign(self._loop(), "c").run_tests(16)
        assert result == whole

    @pytest.mark.parametrize("batch_size", [0, -1])
    def test_loop_batch_size_must_be_positive(self, batch_size):
        with pytest.raises(ValueError, match="batch_size"):
            FuzzLoop(TheHuzzGenerator(body_instructions=16, seed=5),
                     HarnessFactory("rocket"), batch_size=batch_size)

    def test_result_property_tracks_accumulation(self):
        campaign = Campaign(self._loop(), "c")
        assert campaign.result is None
        first = campaign.run_slice(8)
        assert campaign.result is first
        second = campaign.run_slice(8)
        assert second is first  # same accumulating object
        assert second.tests_run == 16
        assert [p.tests for p in second.curve] == [0, 8, 16]

    def test_state_roundtrip_reproduces_future(self):
        campaign = Campaign(self._loop(), "c")
        campaign.run_slice(8)
        frozen = pickle.dumps(campaign.state_dict())
        expected = campaign.run_slice(8)
        clone = Campaign(self._loop(), "c")
        clone.load_state_dict(pickle.loads(frozen))
        assert clone.run_slice(8) == expected


class TestFleetVsSerialParity:
    """Acceptance pin: fleet == N serial campaigns, bit for bit."""

    def _serial_results(self, specs):
        return [spec.build_campaign().run_slice(spec.budget_tests)
                for spec in specs]

    def test_in_process_fleet_matches_serial(self):
        specs = spec_pair()
        serial = self._serial_results(specs)
        with FleetRunner(specs, n_workers=0) as fleet:
            result = fleet.run()
        assert result.campaigns == serial
        union = Bitset(
            serial[0].final_coverage.to_int()
            | serial[1].final_coverage.to_int(),
            serial[0].total_arms,
        )
        assert result.union_coverage() == union
        assert result.unique_signatures == {
            m.signature for r in serial for m in r.mismatches
        }

    def test_pooled_fleet_matches_serial(self):
        specs = spec_pair()
        serial = self._serial_results(specs)
        with FleetRunner(specs, n_workers=2) as fleet:
            result = fleet.run()
        assert result.campaigns == serial

    def test_scheduled_fleet_matches_whole_budget_run(self):
        """Slicing the budget changes nothing about the final state."""
        specs = spec_pair()
        with FleetRunner(specs, n_workers=0) as fleet:
            whole = fleet.run()
        with FleetRunner(specs, n_workers=0) as fleet:
            sliced = fleet.run_scheduled(RoundRobin(), slice_tests=8)
        for a, b in zip(sliced.campaigns, whole.campaigns):
            assert a.final_coverage == b.final_coverage
            assert a.tests_run == b.tests_run
            assert {m.signature for m in a.mismatches} == \
                {m.signature for m in b.mismatches}

    def test_union_matches_reference_engine_over_concatenated_stream(self):
        """Satellite pin: cross-campaign bitmap union == the set-based
        reference engine run serially over the concatenated test stream,
        in whole-budget, rounds-scheduled and streaming-scheduled modes
        alike.

        Feedback-free generators, so the replayed serial stream is
        guaranteed identical to what the campaigns generated (a mutation
        fuzzer's stream depends on loop feedback the replay below skips).
        """
        specs = [
            CampaignSpec("random-a", fuzzer="random",
                         fuzzer_config={"body_instructions": 16}, seed=3,
                         batch_size=8, budget_tests=16),
            CampaignSpec("random-b", fuzzer="random",
                         fuzzer_config={"body_instructions": 16}, seed=4,
                         batch_size=8, budget_tests=16),
        ]
        with FleetRunner(specs, n_workers=0) as fleet:
            result = fleet.run()

        harness = make_harness("rocket")
        reference = SetCumulativeCoverage(total_arms=harness.total_arms)
        for spec in specs:
            generator = spec.build_generator()
            consumed = 0
            while consumed < spec.budget_tests:
                for test in generator.generate_batch(spec.batch_size):
                    _, _, report = harness.run_differential(list(test.words))
                    reference.merge(SetCoverageReport(
                        hits=frozenset(report.hits),
                        total_arms=report.total_arms,
                    ))
                consumed += spec.batch_size

        assert result.union_coverage() == reference.hits
        assert result.union_percent == reference.percent

        for mode in ("rounds", "streaming"):
            with FleetRunner(specs, n_workers=0) as fleet:
                scheduled = fleet.run_scheduled(RoundRobin(), slice_tests=8,
                                                mode=mode)
            assert scheduled.union_coverage() == reference.hits


class TestStreamingMode:
    """The event-driven dispatch loop: parity with rounds, stats, modes."""

    def _run(self, mode, n_workers=0, scheduler=None, **kwargs):
        with FleetRunner(spec_pair(budget=24), n_workers=n_workers) as fleet:
            result = fleet.run_scheduled(
                scheduler if scheduler is not None else RoundRobin(),
                slice_tests=8, mode=mode, **kwargs,
            )
            return result, fleet.last_stats

    def test_streaming_matches_rounds_in_process(self):
        """Full per-arm budgets: streaming == rounds, campaign for
        campaign (the tentpole's fleet-union parity acceptance pin)."""
        rounds, _ = self._run("rounds")
        streaming, _ = self._run("streaming")
        assert streaming.campaigns == rounds.campaigns
        assert streaming.union_coverage() == rounds.union_coverage()

    def test_pooled_streaming_matches_rounds(self):
        """Interleaving may differ on a pool, but per-campaign
        trajectories are deterministic, so final results agree."""
        rounds, _ = self._run("rounds")
        pooled, stats = self._run("streaming", n_workers=2)
        assert pooled.campaigns == rounds.campaigns
        assert stats.mode == "streaming" and stats.n_workers == 2

    def test_streaming_with_bandit(self):
        rounds, _ = self._run("rounds", scheduler=BanditScheduler())
        streaming, _ = self._run("streaming", scheduler=BanditScheduler())
        assert streaming.campaigns == rounds.campaigns

    def test_streaming_respects_per_arm_budgets(self):
        result, stats = self._run("streaming")
        assert [c.tests_run for c in result.campaigns] == [24, 24]
        assert stats.slices == 6  # 2 arms x 24 tests / 8-test slices

    def test_streaming_respects_total_tests_cap(self):
        result, _ = self._run("streaming", total_tests=16)
        assert result.total_tests == 16

    def test_streaming_respects_target_percent(self):
        result, _ = self._run("streaming", target_percent=30.0)
        assert result.union_percent >= 30.0
        full, _ = self._run("streaming")
        assert result.total_tests < full.total_tests

    def test_invalid_mode_rejected(self):
        with FleetRunner(spec_pair(), n_workers=0) as fleet:
            with pytest.raises(ValueError, match="rounds.*streaming"):
                fleet.run_scheduled(mode="async")

    def test_stats_account_wall_busy_and_utilisation(self):
        result, stats = self._run("streaming")
        assert isinstance(stats, FleetStats)
        assert stats.wall_seconds > 0
        assert 0 < stats.busy_seconds <= stats.wall_seconds * 1.05
        assert stats.tests == result.total_tests
        assert 0.0 < stats.utilisation <= 1.05
        assert stats.worker_slots == 1  # in-process

    def test_whole_budget_run_records_stats(self):
        with FleetRunner(spec_pair(budget=16), n_workers=0) as fleet:
            result = fleet.run()
            stats = fleet.last_stats
        assert stats.mode == "whole-budget"
        assert stats.slices == 2
        assert stats.tests == result.total_tests

    def test_streaming_closed_runner_refuses_work(self):
        runner = FleetRunner(spec_pair(), n_workers=0)
        runner.close()
        with pytest.raises(RuntimeError, match="closed"):
            runner.run_scheduled(mode="streaming")


class TestMixedArmFleet:
    """Heterogeneous fleet: a Rocket arm on golden and DUT lanes next to a
    BOOM arm on golden lanes (BOOM has no batched DUT engine)."""

    def _specs(self, lanes=0):
        return [
            CampaignSpec("rocket-arm", fuzzer="thehuzz",
                         fuzzer_config={"body_instructions": 16}, seed=5,
                         harness=HarnessFactory("rocket", golden_lanes=lanes,
                                                dut_lanes=lanes),
                         batch_size=8, budget_tests=24),
            CampaignSpec("boom-arm", fuzzer="random",
                         fuzzer_config={"body_instructions": 16}, seed=2,
                         harness=HarnessFactory("boom", golden_lanes=lanes),
                         batch_size=8, budget_tests=24),
        ]

    def test_streaming_lanes_bit_identical_to_scalar(self):
        """Vector lanes are a pure perf knob fleet-wide: every arm's
        trace stream, curve and final coverage bitmap — hence any union
        taken over them — must equal the all-scalar fleet's exactly."""
        def run(lanes=0):
            with FleetRunner(self._specs(lanes)) as fleet:
                return fleet.run_scheduled(RoundRobin(), slice_tests=8,
                                           mode="streaming")

        scalar = run()
        vector = run(lanes=8)
        assert vector.campaigns == scalar.campaigns
        for got, ref in zip(vector.campaigns, scalar.campaigns):
            assert got.final_coverage == ref.final_coverage
            assert got.mismatches == ref.mismatches


class TestMixedUniverseUnion:
    """A fleet that mixes Rocket and BOOM arms keeps one union per DUT
    universe: the bandit reward, the fleet result and the results store
    all count each arm's coverage against its own design."""

    def _specs(self):
        return [
            CampaignSpec("thehuzz-rocket", fuzzer="thehuzz",
                         fuzzer_config={"body_instructions": 16}, seed=5,
                         harness="rocket", batch_size=8, budget_tests=16),
            CampaignSpec("random-boom", fuzzer="random",
                         fuzzer_config={"body_instructions": 16}, seed=2,
                         harness="boom", batch_size=8, budget_tests=16),
        ]

    def test_rewards_result_and_store_count_per_universe(self, tmp_path):
        from repro.obs.store import ResultsStore, StoreSink

        store = ResultsStore(tmp_path / "store")
        scheduler = _recording(RoundRobin)()
        with StoreSink(store) as store_sink, FleetRunner(
                self._specs(), n_workers=0, sink=store_sink) as runner:
            result = runner.run_scheduled(scheduler, slice_tests=8)

        # Each arm's coverage after each of its two slices, run alone.
        slice_bits = []
        for spec in self._specs():
            campaign = spec.build_campaign()
            slice_bits.append([campaign.run_slice(8).final_coverage.to_int()
                               for _ in range(2)])
        universes = [c.total_arms for c in result.campaigns]
        assert len(set(universes)) == 2
        # One arm per universe: a slice's reward is what it added to its
        # own arm's coverage, over its own universe size.
        seen = [0, 0]
        expected = []
        for arm in (0, 1, 0, 1):
            bits = slice_bits[arm][len(expected) // 2]
            expected.append(("on_slice_complete", arm, 8,
                             (bits & ~seen[arm]).bit_count()
                             / universes[arm]))
            seen[arm] |= bits
        assert [call for call in scheduler.calls
                if call[0] == "on_slice_complete"] == expected

        covered = sum(c.final_coverage.to_int().bit_count()
                      for c in result.campaigns)
        union = 100.0 * (covered / sum(universes))
        assert result.union_percent == union
        assert f"union coverage {union:.2f}%" in result.summary()
        finished = [e for e in store.read_events()
                    if e.kind == "fleet_finished"]
        assert finished[0].data["union_percent"] == union
        aggregates = store.aggregate()
        assert aggregates.universe == sum(universes)
        assert aggregates.union_percent == union
        # A single union bitmap still has no meaning across universes.
        with pytest.raises(ValueError, match="different DUT universes"):
            result.union_coverage()


class TestScheduling:
    def _arms(self, budget=160):
        """One strong arm and two weak ones (2-instruction random bodies
        plateau almost immediately) on the standard rocket config."""
        weak = {"body_instructions": 2}
        return [
            CampaignSpec("thehuzz", fuzzer="thehuzz",
                         fuzzer_config={"body_instructions": 16}, seed=5,
                         batch_size=8, budget_tests=budget),
            CampaignSpec("weak-a", fuzzer="random", fuzzer_config=dict(weak),
                         seed=1, batch_size=8, budget_tests=budget),
            CampaignSpec("weak-b", fuzzer="random", fuzzer_config=dict(weak),
                         seed=7, batch_size=8, budget_tests=budget),
        ]

    def test_bandit_no_worse_than_round_robin_to_target(self):
        """Acceptance pin: UCB1 reaches the coverage target within the
        round-robin test spend (it exploits the productive arm instead of
        feeding exhausted ones)."""
        target = 66.0
        with FleetRunner(self._arms(), n_workers=0) as fleet:
            rr = fleet.run_scheduled(RoundRobin(), slice_tests=8,
                                     target_percent=target)
        with FleetRunner(self._arms(), n_workers=0) as fleet:
            bandit = fleet.run_scheduled(
                BanditScheduler(exploration=0.05), slice_tests=8,
                target_percent=target,
            )
        assert rr.union_percent >= target
        assert bandit.union_percent >= target
        assert bandit.total_tests <= rr.total_tests

    def test_total_tests_cap_stops_the_fleet(self):
        with FleetRunner(self._arms(budget=64), n_workers=0) as fleet:
            result = fleet.run_scheduled(RoundRobin(), slice_tests=8,
                                         total_tests=24)
        assert result.total_tests == 24

    def test_pooled_scheduled_matches_in_process_at_same_concurrency(self):
        """Placement independence: slices carry their state, so a worker
        pool changes wall-clock only, never the scheduled results."""
        def arms():
            return [
                CampaignSpec(name, fuzzer="random",
                             fuzzer_config={"body_instructions": 8},
                             seed=seed, batch_size=8, budget_tests=16)
                for name, seed in (("a", 1), ("b", 2), ("c", 3))
            ]

        with FleetRunner(arms(), n_workers=2) as fleet:
            pooled = fleet.run_scheduled(RoundRobin(), slice_tests=8)
        with FleetRunner(arms(), n_workers=0) as fleet:
            local = fleet.run_scheduled(RoundRobin(), slice_tests=8,
                                        concurrent_slices=2)
        assert pooled.campaigns == local.campaigns

    def test_per_arm_budgets_are_respected(self):
        specs = spec_pair(budget=16)
        with FleetRunner(specs, n_workers=0) as fleet:
            result = fleet.run_scheduled(RoundRobin(), slice_tests=8)
        assert [c.tests_run for c in result.campaigns] == [16, 16]


class TestCheckpointResume:
    def test_kill_and_resume_equals_uninterrupted(self, tmp_path):
        """Acceptance pin: checkpoint → kill → resume == one clean run."""
        specs = spec_pair(budget=40)
        with FleetRunner(specs, n_workers=0) as fleet:
            uninterrupted = fleet.run_scheduled(RoundRobin(), slice_tests=8)
        # "Kill" after 16 tests, then resume from the checkpoint with a
        # fresh runner (fresh scheduler instance, fresh worker shells).
        with FleetRunner(specs, n_workers=0,
                         checkpoint_dir=tmp_path) as fleet:
            fleet.run_scheduled(RoundRobin(), slice_tests=8, total_tests=16)
        with FleetRunner(specs, n_workers=0,
                         checkpoint_dir=tmp_path) as fleet:
            resumed = fleet.run_scheduled(RoundRobin(), slice_tests=8)
        assert resumed.campaigns == uninterrupted.campaigns

    def test_streaming_kill_and_resume_equals_uninterrupted(self, tmp_path):
        """Satellite pin: incremental (per-slice) checkpoints resume to the
        same final state as an uninterrupted streaming run.  In-process
        streaming is fully deterministic, so equality is exact."""
        specs = spec_pair(budget=40)
        with FleetRunner(specs, n_workers=0) as fleet:
            uninterrupted = fleet.run_scheduled(RoundRobin(), slice_tests=8,
                                                mode="streaming")
        with FleetRunner(specs, n_workers=0,
                         checkpoint_dir=tmp_path) as fleet:
            fleet.run_scheduled(RoundRobin(), slice_tests=8,
                                mode="streaming", total_tests=16)
        with FleetRunner(specs, n_workers=0,
                         checkpoint_dir=tmp_path) as fleet:
            resumed = fleet.run_scheduled(RoundRobin(), slice_tests=8,
                                          mode="streaming")
        assert resumed.campaigns == uninterrupted.campaigns

    def test_streaming_checkpoint_resumes_into_rounds_and_back(self, tmp_path):
        """Incremental checkpoints are mode-agnostic: a fleet killed in
        streaming mode can resume in round mode (and vice versa) because
        the snapshot format is identical — with full per-arm budgets the
        final result matches either mode's uninterrupted run."""
        specs = spec_pair(budget=40)
        with FleetRunner(specs, n_workers=0) as fleet:
            uninterrupted = fleet.run_scheduled(RoundRobin(), slice_tests=8)
        with FleetRunner(specs, n_workers=0,
                         checkpoint_dir=tmp_path) as fleet:
            fleet.run_scheduled(RoundRobin(), slice_tests=8,
                                mode="streaming", total_tests=16)
        with FleetRunner(specs, n_workers=0,
                         checkpoint_dir=tmp_path) as fleet:
            resumed = fleet.run_scheduled(RoundRobin(), slice_tests=8,
                                          mode="rounds")
        assert resumed.campaigns == uninterrupted.campaigns

    def test_streaming_checkpoints_are_per_slice(self, tmp_path):
        """The incremental contract itself: after a single-slice cap, the
        checkpoint holds exactly that slice — not a round barrier's worth
        of arms."""
        specs = spec_pair(budget=40)
        with FleetRunner(specs, n_workers=0,
                         checkpoint_dir=tmp_path) as fleet:
            fleet.run_scheduled(RoundRobin(), slice_tests=8,
                                mode="streaming", total_tests=8)
        manifest = json.loads((tmp_path / "manifest.json").read_text())
        assert manifest["arms"] == {"0": {"tests_run": 8}}
        assert (tmp_path / "campaign_0-8.pkl").exists()
        assert not list(tmp_path.glob("campaign_1-*.pkl"))

    def test_whole_budget_resume_skips_completed_arms(self, tmp_path):
        specs = spec_pair(budget=16)
        with FleetRunner(specs, n_workers=0, checkpoint_dir=tmp_path) as fleet:
            first = fleet.run()
        # A fresh runner over the same checkpoint re-runs nothing: results
        # are rebuilt from the snapshot, bit-identical.
        with FleetRunner(specs, n_workers=0, checkpoint_dir=tmp_path) as fleet:
            second = fleet.run()
        assert second.campaigns == first.campaigns

    def test_checkpoint_files_are_manifest_plus_arm_pickles(self, tmp_path):
        specs = spec_pair(budget=16)
        with FleetRunner(specs, n_workers=0, checkpoint_dir=tmp_path) as fleet:
            result = fleet.run()
        manifest = json.loads((tmp_path / "manifest.json").read_text())
        assert [int(k) for k in manifest["arms"]] == [0, 1]
        for index, campaign in enumerate(result.campaigns):
            state = pickle.loads(
                (tmp_path / f"campaign_{index}-16.pkl").read_bytes()
            )
            assert state["loop"]["tests_run"] == campaign.tests_run
            assert state["loop"]["coverage"] == campaign.final_coverage
            assert state["curve"] == campaign.curve

    def test_torn_checkpoint_is_detected(self, tmp_path):
        """An arm file that holds another test count than the manifest
        names is refused."""
        specs = spec_pair(budget=16)
        with FleetRunner(specs, n_workers=0, checkpoint_dir=tmp_path) as fleet:
            fleet.run()
        pkl_path = tmp_path / "campaign_0-16.pkl"
        state = pickle.loads(pkl_path.read_bytes())
        state["loop"]["tests_run"] += 8
        pkl_path.write_bytes(pickle.dumps(state))
        with FleetRunner(specs, n_workers=0, checkpoint_dir=tmp_path) as fleet:
            with pytest.raises(ValueError, match="torn checkpoint"):
                fleet.run()

    def test_foreign_checkpoint_is_rejected(self, tmp_path):
        specs = spec_pair(budget=16)
        with FleetRunner(specs, n_workers=0, checkpoint_dir=tmp_path) as fleet:
            fleet.run()
        other = [CampaignSpec("thehuzz-0", fuzzer="thehuzz", seed=99,
                              batch_size=8, budget_tests=16),
                 specs[1]]
        with FleetRunner(other, n_workers=0, checkpoint_dir=tmp_path) as fleet:
            with pytest.raises(ValueError, match="different campaign specs"):
                fleet.run()


class TestFleetRunnerValidation:
    def test_needs_specs(self):
        with pytest.raises(ValueError, match="at least one"):
            FleetRunner([])

    def test_unique_names(self):
        spec = spec_pair()[0]
        with pytest.raises(ValueError, match="unique"):
            FleetRunner([spec, spec])

    def test_invalid_worker_count(self):
        with pytest.raises(ValueError, match="n_workers"):
            FleetRunner(spec_pair(), n_workers=-1)

    @pytest.mark.parametrize("mode", ["rounds", "streaming"])
    @pytest.mark.parametrize("kwargs", [
        {"slice_tests": 0}, {"slice_tests": -8}, {"concurrent_slices": 0},
    ], ids=["slice_tests=0", "slice_tests=-8", "concurrent_slices=0"])
    def test_degenerate_slicing_rejected(self, mode, kwargs):
        """Zero-test slices never advance an arm (rounds used to fold them
        forever), and zero slots dispatch nothing: both are errors."""
        with FleetRunner(spec_pair(), n_workers=0) as fleet:
            with pytest.raises(ValueError, match=next(iter(kwargs))):
                fleet.run_scheduled(mode=mode, **kwargs)

    def test_closed_runner_refuses_work(self):
        runner = FleetRunner(spec_pair(), n_workers=0)
        runner.close()
        runner.close()  # idempotent
        with pytest.raises(RuntimeError, match="closed"):
            runner.run()


class TestSliceSlots:
    """A pooled fleet keeps at most ``worker_slots`` slices in flight, so
    no slice waits in the pool's queue and ``slice_timeout`` only runs
    while a slice holds a worker."""

    @staticmethod
    def _arms(n: int, budget: int = 8) -> list[CampaignSpec]:
        return [CampaignSpec(f"random-{seed}", fuzzer="random",
                             fuzzer_config={"body_instructions": 8},
                             seed=seed, batch_size=8, budget_tests=budget)
                for seed in range(n)]

    @staticmethod
    def _peak_in_flight(sink: ListSink) -> int:
        """Most arms dispatched and not yet completed at any one time."""
        in_flight: set[int] = set()
        peak = 0
        for event in sink.events:
            if event.kind == "slice_dispatched":
                in_flight.add(event.data["arm"])
            elif event.kind == "slice_completed":
                in_flight.discard(event.data["arm"])
            peak = max(peak, len(in_flight))
        return peak

    def test_whole_budget_run_holds_one_slice_per_worker(self):
        sink = ListSink()
        with FleetRunner(self._arms(4), n_workers=1, sink=sink) as fleet:
            result = fleet.run()
        assert fleet.last_stats.worker_slots == 1
        assert self._peak_in_flight(sink) == 1
        assert [c.tests_run for c in result.campaigns] == [8] * 4

    def test_streaming_holds_one_slice_per_worker(self):
        sink = ListSink()
        with FleetRunner(self._arms(4, budget=16), n_workers=1,
                         sink=sink) as fleet:
            result = fleet.run_scheduled(RoundRobin(), slice_tests=8,
                                         concurrent_slices=4,
                                         mode="streaming")
        assert fleet.last_stats.worker_slots == 1
        assert self._peak_in_flight(sink) == 1
        assert [c.tests_run for c in result.campaigns] == [16] * 4

    def test_queued_round_pick_is_not_charged_a_timeout(self):
        """Both picks of a round stall for 1.5 s under a 2.4 s limit on one
        worker.  Each fits the limit on its own, but a second pick whose
        clock started while it waited behind the first would pass it."""
        plan = FaultPlan([FaultPoint(arm, 0, kind="hang", hang_seconds=1.5)
                          for arm in (0, 1)])
        with FleetRunner(self._arms(2), n_workers=1, slice_timeout=2.4,
                         retry_backoff=0.0, fault_plan=plan) as fleet:
            result = fleet.run_scheduled(RoundRobin(), slice_tests=8,
                                         concurrent_slices=2)
        assert result.health.timeouts == 0
        assert result.health.healthy
        assert [c.tests_run for c in result.campaigns] == [8, 8]


def _blas_threads() -> int | None:
    """Threads the loaded OpenBLAS will use, asked from the library, or
    None when no OpenBLAS is loaded."""
    try:
        with open("/proc/self/maps") as maps:
            paths = {line.split()[-1] for line in maps
                     if "openblas" in line.lower()}
    except OSError:
        return None
    for path in sorted(paths):
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_",
                       "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            getter = getattr(lib, symbol, None)
            if getter is not None:
                getter.argtypes, getter.restype = [], ctypes.c_int
                return int(getter())
    return None


class TestWorkerBlasThreads:
    """A fleet takes its parallelism from worker processes, so each worker
    runs OpenBLAS on one thread; an in-process fleet leaves the caller's
    BLAS alone."""

    @pytest.fixture(autouse=True)
    def _needs_openblas(self):
        if _blas_threads() is None:
            pytest.skip("no OpenBLAS loaded")

    def test_pool_worker_runs_one_blas_thread(self):
        with ProcessPoolExecutor(max_workers=1, initializer=_fleet_init,
                                 initargs=(spec_pair(),)) as pool:
            assert pool.submit(_blas_threads).result() == 1

    def test_in_process_fleet_leaves_parent_blas_alone(self):
        before = _blas_threads()
        with FleetRunner(spec_pair(budget=8), n_workers=0) as fleet:
            fleet.run()
        assert _blas_threads() == before


class TestFleetResultAggregation:
    """Pure aggregation logic on hand-built campaign results (no DUT)."""

    def _campaign(self, name, arms, universe=16, tests=10, hours=1.0):
        hits = Bitset.from_iterable(arms, universe)
        return CampaignResult(
            name=name,
            curve=[CurvePoint(0, 0.5, 0.0, Bitset(0, universe)),
                   CurvePoint(tests, hours,
                              100.0 * len(hits) / universe, hits)],
            tests_run=tests,
            sim_hours=hours,
            final_coverage_percent=100.0 * len(hits) / universe,
            final_coverage=hits,
        )

    def test_union_and_percent(self):
        from repro.fuzzing.fleet import FleetResult

        result = FleetResult([
            self._campaign("a", {0, 1, 2}),
            self._campaign("b", {2, 3}),
        ])
        assert result.union_coverage() == {0, 1, 2, 3}
        assert result.union_percent == pytest.approx(100.0 * 4 / 16)
        assert result.total_tests == 20

    def test_mixed_universes_are_rejected(self):
        from repro.fuzzing.fleet import FleetResult

        result = FleetResult([
            self._campaign("rocket", {0, 1}, universe=16),
            self._campaign("boom", {0, 1}, universe=32),
        ])
        with pytest.raises(ValueError, match="different DUT universes"):
            result.union_coverage()

    def test_merged_curve_unions_on_shared_epoch(self):
        from repro.fuzzing.fleet import FleetResult

        result = FleetResult([
            self._campaign("a", {0, 1}, tests=10, hours=1.0),
            self._campaign("b", {1, 2, 3}, tests=20, hours=2.0),
        ])
        merged = result.merged_curve()
        # Distinct times: 0.5 (both initial snapshots), 1.0, 2.0.
        assert [point.sim_hours for point in merged] == [0.5, 1.0, 2.0]
        assert merged[0].coverage_percent == 0.0
        assert merged[1].hits == {0, 1}          # only campaign a has run
        assert merged[2].hits == {0, 1, 2, 3}    # union of both
        assert merged[-1].tests == 30
        percents = [point.coverage_percent for point in merged]
        assert percents == sorted(percents)
        assert merged[-1].coverage_percent == pytest.approx(
            result.union_percent
        )

    def test_summary_names_every_campaign(self):
        from repro.fuzzing.fleet import FleetResult

        result = FleetResult([self._campaign("alpha", {0}),
                              self._campaign("beta", {1})])
        summary = result.summary()
        assert "alpha" in summary and "beta" in summary
        assert "2 campaigns" in summary


#: Event payload fields that carry host timings; dispatch pins skip them.
TIMING_FIELDS = frozenset({"seconds", "busy_seconds", "wall_seconds",
                           "limit_seconds"})


def _recording(base):
    """``base`` scheduler subclass that logs every call the fleet makes."""

    class Recording(base):
        def __init__(self, **kwargs):
            super().__init__(**kwargs)
            self.calls = []

        def next_campaign(self, eligible):
            arm = super().next_campaign(eligible)
            self.calls.append(("next_campaign", list(eligible), arm))
            return arm

        def on_slice_complete(self, arm, tests, reward):
            self.calls.append(("on_slice_complete", arm, tests, reward))
            super().on_slice_complete(arm, tests, reward)

        def on_arm_quarantined(self, arm):
            self.calls.append(("on_arm_quarantined", arm))
            super().on_arm_quarantined(arm)

    Recording.__name__ = Recording.__qualname__ = f"Recording{base.__name__}"
    return Recording


class TestDispatchPin:
    """Digest pins for the fleet's dispatch: ``run()``, and rounds and
    streaming under round-robin and UCB1.

    Each case runs an in-process fleet of three arms: two healthy ones
    and, between them, one whose harness never builds (quarantined after
    its retry).  One healthy slice fails once and is retried.  Scheduled
    cases run two slices per round and stop on a ``total_tests`` cap
    that runs out mid-round.  A digest hashes the event stream without
    its timing fields, every scheduler call, each arm's tests and
    coverage bitmap, and the final checkpoint manifest without its
    health ledger.  The expected digests were recorded on the runner as
    it stood before ``run()``, rounds and streaming shared one dispatch
    loop.  ``run()``'s ``fleet_started`` event now also names its
    round-robin scheduler, so that field is left out of its digest.  The
    two round-robin scheduled digests were recorded again when fleet
    percents moved to :func:`~repro.rtl.report.coverage_percent`: their
    ``fleet_finished`` union percent moved by one ulp, and their digests
    without that field did not change.
    """

    EXPECTED = {
        "run": "cc3375d99fa27068",
        ("rounds", "RoundRobin"): "4aedff46a5025e84",
        ("rounds", "BanditScheduler"): "2b6129750c9b7dbd",
        ("streaming", "RoundRobin"): "adc17c696ca0d0d7",
        ("streaming", "BanditScheduler"): "d649ac042d3ecac2",
    }

    @pytest.fixture(autouse=True)
    def _fresh_build_counts(self):
        reset_build_counts()
        yield
        reset_build_counts()

    @staticmethod
    def _specs() -> list[CampaignSpec]:
        good = spec_pair(budget=40)
        bad = CampaignSpec("bad", fuzzer="random",
                           fuzzer_config={"body_instructions": 16}, seed=3,
                           batch_size=8, budget_tests=40,
                           harness=FaultyHarnessFactory(
                               HarnessFactory("rocket"), label="pin-bad"))
        return [good[0], bad, good[1]]

    @staticmethod
    def _digest(sink, calls, result, checkpoint_dir, drop=()) -> str:
        h = hashlib.sha256()
        for event in sink.events:
            data = {key: value for key, value in event.data.items()
                    if key not in TIMING_FIELDS
                    and (event.kind, key) not in drop}
            h.update(json.dumps([event.kind, data], sort_keys=True).encode())
        h.update(repr(calls).encode())
        h.update(repr([(c.tests_run, c.final_coverage.to_int())
                       for c in result.campaigns]).encode())
        manifest = json.loads((checkpoint_dir / "manifest.json").read_text())
        manifest.pop("health")
        h.update(json.dumps(manifest, sort_keys=True).encode())
        return h.hexdigest()[:16]

    def _runner(self, tmp_path, ordinal: int) -> tuple[FleetRunner, ListSink]:
        sink = ListSink()
        plan = FaultPlan([FaultPoint(2, ordinal, kind="raise")])
        return FleetRunner(self._specs(), n_workers=0, max_retries=1,
                           retry_backoff=0.0, fault_plan=plan,
                           checkpoint_dir=tmp_path, sink=sink), sink

    def test_run(self, tmp_path):
        runner, sink = self._runner(tmp_path, ordinal=0)
        with runner:
            result = runner.run()
        assert [q.name for q in result.health.quarantined] == ["bad"]
        assert result.health.retries == 2
        digest = self._digest(sink, [], result, tmp_path,
                              drop={("fleet_started", "scheduler")})
        assert digest == self.EXPECTED["run"]

    @pytest.mark.parametrize("scheduler", [RoundRobin, BanditScheduler],
                             ids=lambda cls: cls.__name__)
    @pytest.mark.parametrize("mode", ["rounds", "streaming"])
    def test_scheduled(self, tmp_path, mode, scheduler):
        runner, sink = self._runner(tmp_path, ordinal=1)
        policy = _recording(scheduler)(
            **({"exploration": 0.05} if scheduler is BanditScheduler else {}))
        with runner:
            result = runner.run_scheduled(policy, slice_tests=8,
                                          total_tests=60,
                                          concurrent_slices=2, mode=mode)
        assert [q.name for q in result.health.quarantined] == ["bad"]
        assert result.health.retries == 2
        assert 60 <= result.total_tests < 60 + 8
        digest = self._digest(sink, policy.calls, result, tmp_path)
        assert digest == self.EXPECTED[mode, scheduler.__name__]
