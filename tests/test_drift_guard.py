"""Pinned outputs for scheduler configurations the benchmark never runs.

The benchmark's cold and warm workloads check their outputs against
recorded digests, but only under the paper's default scheduler options
and its first three palettes.  This guard pins the canonical-JSON digest
of two recurrence-bound benchmarks under each ablation knob and a
three-level per-domain palette, so a change to the scheduler's arithmetic
that shifts any of these results fails here instead of drifting silently.

An intended change of output re-records the digests and says why.
"""

from __future__ import annotations

import hashlib

import pytest

from repro.machine.clocking import FrequencyPalette
from repro.pipeline import Experiment, ExperimentOptions
from repro.pipeline.cache import (
    LOOP_CACHE,
    STAGE_CACHE,
    clear_loop_cache,
    clear_stage_cache,
)
from repro.pipeline.serialization import canonical_json
from repro.scheduler import SchedulerOptions
from repro.workloads import build_corpus, spec_profile

SCALE = 0.02

VARIANTS = {
    "no-sync": SchedulerOptions(sync_penalties=False),
    "no-ed2": SchedulerOptions(ed2_refinement=False),
    "no-preplace": SchedulerOptions(preplace_recurrences=False),
    "uniform3": SchedulerOptions(palette=FrequencyPalette.per_domain_uniform(3)),
}

#: sha256 prefixes of ``canonical_json(evaluation.to_dict())``.
DIGESTS = {
    ("189.lucas", "no-sync"): "c1ad4303a58f1137",
    ("189.lucas", "no-ed2"): "997061a73fd4fb4d",
    ("189.lucas", "no-preplace"): "6e0c602bb9ee5215",
    ("189.lucas", "uniform3"): "1f12d106ef6ca8a9",
    ("200.sixtrack", "no-sync"): "8e9eca400910f447",
    ("200.sixtrack", "no-ed2"): "11b7c4796bb29208",
    ("200.sixtrack", "no-preplace"): "d9d04739c6081af8",
    ("200.sixtrack", "uniform3"): "d7c96823045cafbf",
}


@pytest.mark.parametrize("bench,variant", sorted(DIGESTS))
def test_evaluation_digest_is_pinned(bench, variant):
    STAGE_CACHE.detach_store()
    LOOP_CACHE.detach_store()
    clear_stage_cache(reset_stats=True)
    clear_loop_cache(reset_stats=True)
    corpus = build_corpus(spec_profile(bench), scale=SCALE)
    options = ExperimentOptions(scheduler=VARIANTS[variant])
    evaluation = Experiment.paper(options).run(corpus)
    digest = hashlib.sha256(
        canonical_json(evaluation.to_dict()).encode()
    ).hexdigest()[:16]
    assert digest == DIGESTS[(bench, variant)]
