"""Tests for the stage cache: LRU semantics, hit/miss/invalidation,
the on-disk layer, and stage-granular campaign resumption."""

from __future__ import annotations

import json

import pytest

from repro.pipeline import (
    Experiment,
    ExperimentOptions,
    STAGE_CACHE,
    StageCache,
    clear_stage_cache,
    stage_cache_info,
    stage_key,
)
from repro.power.breakdown import EnergyBreakdown
from repro.workloads import build_corpus, spec_profile

SCALE = 0.02
FAST = ExperimentOptions(simulate=False)


def _corpus(name="swim", scale=SCALE):
    return build_corpus(spec_profile(name), scale=scale)


@pytest.fixture(autouse=True)
def _fresh_cache():
    """Isolate every test from the process-wide memo and counters."""
    clear_stage_cache(reset_stats=True)
    STAGE_CACHE.detach_store()
    yield
    clear_stage_cache(reset_stats=True)
    STAGE_CACHE.detach_store()


# ----------------------------------------------------------------------
# the LRU itself
# ----------------------------------------------------------------------
class TestLRU:
    def test_hit_refreshes_recency(self):
        cache = StageCache(capacity=2)
        cache.store("profile-a", 1)
        cache.store("profile-b", 2)
        assert cache.lookup("profile-a") == 1  # refresh a
        cache.store("profile-c", 3)  # evicts b, the least recently used
        assert cache.lookup("profile-a") == 1
        assert StageCache.is_miss(cache.lookup("profile-b"))
        assert cache.lookup("profile-c") == 3
        assert cache.evictions == 1

    def test_insertion_order_alone_does_not_decide_eviction(self):
        # The seed bug: pop(next(iter(...))) dropped by *insertion* order
        # even when the oldest entry was the hottest.
        cache = StageCache(capacity=3)
        for name in ("a", "b", "c"):
            cache.store(f"profile-{name}", name)
        cache.lookup("profile-a")  # hottest
        cache.store("profile-d", "d")
        assert cache.lookup("profile-a") == "a"
        assert StageCache.is_miss(cache.lookup("profile-b"))

    def test_counters(self):
        cache = StageCache(capacity=4)
        cache.store("profile-x", 1)
        cache.lookup("profile-x")
        cache.lookup("profile-y")
        info = cache.info()
        assert info["hits"] == 1
        assert info["misses"] == 1
        assert info["entries"] == 1
        assert info["by_stage"]["profile"] == {
            "hits": 1,
            "misses": 1,
            "disk_hits": 0,
            "corrupt": 0,
        }

    def test_capacity_validated(self):
        with pytest.raises(ValueError):
            StageCache(capacity=0)

    def test_store_same_key_updates_in_place(self):
        cache = StageCache(capacity=2)
        cache.store("calibrate-k", 1)
        cache.store("calibrate-k", 2)
        assert len(cache) == 1
        assert cache.lookup("calibrate-k") == 2

    def test_stage_key_is_deterministic_and_distinct(self):
        assert stage_key("profile", "a", 1) == stage_key("profile", "a", 1)
        assert stage_key("profile", "a", 1) != stage_key("profile", "a", 2)
        assert stage_key("profile", "a", 1) != stage_key("calibrate", "a", 1)
        assert stage_key("profile", "x").startswith("profile-")


# ----------------------------------------------------------------------
# hit/miss/invalidation through real experiment runs
# ----------------------------------------------------------------------
class TestExperimentCaching:
    def test_second_run_hits_profile_and_calibrate(self):
        corpus = _corpus()
        Experiment.paper(FAST).run(corpus)
        first = stage_cache_info()
        assert first["misses"] == 4 and first["hits"] == 0
        Experiment.paper(FAST).run(corpus)
        second = stage_cache_info()
        assert second["hits"] == 4
        assert second["misses"] == 4  # unchanged
        assert second["by_stage"]["profile"]["hits"] == 2
        assert second["by_stage"]["calibrate"]["hits"] == 2

    def test_breakdown_change_invalidates_calibration_not_profiling(self):
        corpus = _corpus()
        Experiment.paper(FAST).run(corpus)
        swept = ExperimentOptions(
            simulate=False,
            breakdown=EnergyBreakdown.paper_baseline().with_shares(0.2, 0.25),
        )
        clearing = stage_cache_info()["misses"]
        Experiment.paper(swept).run(corpus)
        info = stage_cache_info()
        # first profile pass shared; the new breakdown re-calibrates,
        # changing the weights, so the *second* profile pass re-runs too
        assert info["by_stage"]["profile"]["hits"] == 1
        assert info["by_stage"]["calibrate"]["hits"] == 0
        assert info["misses"] > clearing

    def test_corpus_change_invalidates_profiling(self):
        Experiment.paper(FAST).run(_corpus(scale=SCALE))
        Experiment.paper(FAST).run(_corpus(scale=0.03))
        info = stage_cache_info()
        assert info["hits"] == 0
        assert info["misses"] == 8

    def test_stage_log_records_cache_outcomes(self):
        corpus = _corpus()
        Experiment.paper(FAST).run(corpus)
        context = Experiment.paper(FAST).run_context(corpus)
        assert [entry for entry in context.stage_log[:4]] == [
            ("profile", "cached"),
            ("calibrate", "cached"),
            ("profile", "cached"),
            ("calibrate", "cached"),
        ]


# ----------------------------------------------------------------------
# the on-disk layer
# ----------------------------------------------------------------------
class TestDiskLayer:
    def test_disk_round_trip_is_bit_identical(self, tmp_path):
        corpus = _corpus()
        STAGE_CACHE.attach_store(tmp_path)
        first = Experiment.paper(FAST).run(corpus)
        files = sorted(p.name for p in tmp_path.glob("*.json"))
        assert len(files) == 4
        assert sum(1 for f in files if f.startswith("profile-")) == 2
        assert sum(1 for f in files if f.startswith("calibrate-")) == 2

        clear_stage_cache()  # drop memory, keep disk
        second = Experiment.paper(FAST).run(corpus)
        info = stage_cache_info()
        assert info["disk_hits"] == 4
        assert second.to_dict() == first.to_dict()

    def test_corrupt_artifact_recomputed_not_fatal(self, tmp_path):
        corpus = _corpus()
        STAGE_CACHE.attach_store(tmp_path)
        first = Experiment.paper(FAST).run(corpus)
        for path in tmp_path.glob("*.json"):
            path.write_text("{not json")
        clear_stage_cache(reset_stats=True)
        second = Experiment.paper(FAST).run(corpus)
        assert stage_cache_info()["disk_hits"] == 0
        assert second.to_dict() == first.to_dict()

    def test_incompatible_artifact_schema_recomputed(self, tmp_path):
        corpus = _corpus()
        STAGE_CACHE.attach_store(tmp_path)
        Experiment.paper(FAST).run(corpus)
        for path in tmp_path.glob("profile-*.json"):
            path.write_text(json.dumps({"profile": {"bogus": 1}}))
        clear_stage_cache(reset_stats=True)
        Experiment.paper(FAST).run(corpus)  # must not raise
        assert stage_cache_info()["by_stage"]["profile"]["disk_hits"] == 0

    def test_detach_stops_persistence(self, tmp_path):
        STAGE_CACHE.attach_store(tmp_path)
        STAGE_CACHE.detach_store()
        Experiment.paper(FAST).run(_corpus())
        assert list(tmp_path.glob("*.json")) == []


# ----------------------------------------------------------------------
# stage-granular campaign resumption (the acceptance scenario)
# ----------------------------------------------------------------------
class TestCampaignStageReuse:
    def test_resume_after_deleting_measurements_reuses_stages(self, tmp_path):
        from repro.campaign import CampaignSpec, ResultStore, run_campaign
        from repro.reporting import campaign_summary

        spec = CampaignSpec(
            benchmarks=("171.swim",), scale=SCALE, simulate=False
        )
        store = ResultStore(tmp_path / "cache")
        first = run_campaign(spec.expand(), store=store)
        assert first.results[0].stage_cache == {
            "hits": 0,
            "misses": 4,
            "disk_hits": 0,
            "corrupt": 0,
        }
        assert len(list(store.stage_keys())) == 4
        reference = first.results[0].evaluation.to_dict()

        # Invalidate the measurements: drop every whole-job entry.
        for key in list(store.keys()):
            store.delete(key)
        # Simulate a fresh process: no in-memory memo, no attached store.
        clear_stage_cache(reset_stats=True)
        STAGE_CACHE.detach_store()

        resumed = run_campaign(spec.expand(), store=store)
        result = resumed.results[0]
        assert not result.cached  # the job itself had to re-run...
        assert result.stage_cache["disk_hits"] == 4  # ...but not profiling
        assert result.stage_cache["misses"] == 0
        assert resumed.stage_cache_hits == 4
        assert "4 stage-cache hit(s)" in campaign_summary(resumed)
        assert result.evaluation.to_dict() == reference

    def test_whole_job_hit_skips_execution_entirely(self, tmp_path):
        from repro.campaign import CampaignSpec, ResultStore, run_campaign

        spec = CampaignSpec(
            benchmarks=("171.swim",), scale=SCALE, simulate=False
        )
        store = ResultStore(tmp_path / "cache")
        run_campaign(spec.expand(), store=store)
        rerun = run_campaign(spec.expand(), store=store)
        assert rerun.n_cached == 1
        assert rerun.results[0].stage_cache is None
        assert rerun.stage_cache_hits == 0

    def test_disk_layer_detached_after_inline_campaign(self, tmp_path):
        # The campaign must not leak its disk layer into later pipeline
        # runs in the same process (the store may be a temp directory).
        from repro.campaign import CampaignSpec, ResultStore, run_campaign

        spec = CampaignSpec(
            benchmarks=("171.swim",), scale=SCALE, simulate=False
        )
        run_campaign(spec.expand(), store=ResultStore(tmp_path / "cache"))
        assert STAGE_CACHE.store_dir is None
        clear_stage_cache()
        Experiment.paper(FAST).run(_corpus())
        assert list((tmp_path / "cache" / "stages").glob("*.json"))  # old
        assert stage_cache_info()["disk_hits"] == 0  # but unused now

    def test_no_store_means_no_stage_dir(self):
        from repro.campaign import CampaignSpec, run_campaign

        spec = CampaignSpec(
            benchmarks=("171.swim",), scale=SCALE, simulate=False
        )
        outcome = run_campaign(spec.expand(), store=None)
        assert outcome.results[0].ok
        assert STAGE_CACHE.store_dir is None
