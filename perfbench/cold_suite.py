"""``cold-suite``: the paper experiment over all ten corpora, caches cold.

Closed loop in one process: one benchmark evaluation after another,
round-robin over the ten corpora, with the stage and loop caches
detached from disk and emptied before every evaluation.  About three
quarters of the time is in the scheduler and nothing is ever a cache
hit, so scheduler work shows here more strongly than anywhere else.
"""

from __future__ import annotations

import statistics
import time
from typing import Dict, List

from perfbench import common

SCALE = 0.05
SETUP_REPS = 3
#: Two rounds give 20 evaluations, enough for a tail with ten beyond it.
MIN_ROUNDS = 2


def evaluate_cold(corpus):
    """One evaluation with both caches empty and detached."""
    from repro.pipeline import Experiment
    from repro.pipeline.cache import (
        LOOP_CACHE,
        STAGE_CACHE,
        clear_loop_cache,
        clear_stage_cache,
    )

    STAGE_CACHE.detach_store()
    LOOP_CACHE.detach_store()
    clear_stage_cache(reset_stats=True)
    clear_loop_cache(reset_stats=True)
    return Experiment.paper().run(corpus)


def evaluate(name: str, spec, scale: float) -> Dict[str, object]:
    """One timed evaluation of a freshly built corpus.

    The corpus is built outside the timed region, so nothing the program
    memoizes on loop objects carries over from an earlier evaluation.
    Outputs are checked later, so the checker's work never lands in a
    traced layer.
    """
    from repro.pipeline.cache import LOOP_CACHE
    from repro.workloads import build_corpus

    corpus = build_corpus(spec, scale=scale)
    evaluation, elapsed, reference = common.timed(lambda: evaluate_cold(corpus))
    return {
        "benchmark": name,
        "loops": len(corpus.loops),
        "s": elapsed,
        "reference_s": reference,
        "evaluation": evaluation,
        "loop_cache": LOOP_CACHE.stats(),
    }


def measure(specs, scale: float, seconds: float) -> List[Dict[str, object]]:
    """Evaluate round-robin in whole rounds (at least ``MIN_ROUNDS``)
    until ``seconds`` have passed; whole rounds keep the benchmark mix
    of every run the same."""
    records: List[Dict[str, object]] = []
    started = time.perf_counter()
    rounds = 0
    while rounds < MIN_ROUNDS or time.perf_counter() - started < seconds:
        records += [evaluate(name, spec, scale) for name, spec in specs]
        rounds += 1
    return records


def traced_pairs(specs, scale: float, rounds: int, tracer):
    """Every evaluation twice, back to back: untraced, then traced.

    Pairing keeps slow drift in machine speed out of the overhead ratio.
    """
    untraced: List[Dict[str, object]] = []
    traced: List[Dict[str, object]] = []
    for _ in range(rounds):
        for name, spec in specs:
            untraced.append(evaluate(name, spec, scale))
            with tracer:
                traced.append(evaluate(name, spec, scale))
    return untraced, traced


def check(records, outputs: common.OutputCheck) -> int:
    """Check each record's output; returns the number of failures."""
    failed = 0
    for record in records:
        record["ok"] = outputs.check(record["benchmark"], record["evaluation"].to_dict())
        failed += 0 if record["ok"] else 1
    return failed


def run(seed: int, seconds: float, trace: bool, scale: float = SCALE) -> Dict[str, object]:
    from perfbench.tracer import Tracer

    specs = common.seeded_specs(seed)
    _, build_times, setup_times = common.timed_corpus_builds(seed, scale, SETUP_REPS)
    outputs = common.OutputCheck(common.reference_digests("cold-suite", scale, seed))
    records = measure(specs, scale, seconds)
    failed = check(records, outputs)
    busy = sum(record["reference_s"] for record in records)
    correct = [record for record in records if record["ok"]]
    latency = common.p50_and_tail([record["s"] for record in records])
    metrics: Dict[str, float] = {
        "setup_s": statistics.median(setup_times),
        "loops_per_s": sum(record["loops"] for record in correct) / busy,
        "goodput_jobs_per_s": len(correct) / busy,
        "result_p50_s": latency["p50"],
        "result_tail_s": latency["tail"],
    }
    ratios = {record["benchmark"]: record["evaluation"].ed2_ratio for record in records}
    report: Dict[str, object] = {
        "scale": scale,
        "evaluations": len(records),
        "busy_s": sum(record["s"] for record in records),
        "result_tail": latency,
        "fig6_gap": common.fig6_gap(ratios),
        "ed2_ratios": ratios,
        "outputs": outputs.report(),
    }
    attempted = len(records)
    if trace:
        tracer = Tracer()
        untraced, traced = traced_pairs(specs, scale, len(records) // len(specs), tracer)
        traced_busy = sum(record["s"] for record in traced)
        failed += check(untraced + traced, outputs)
        attempted += len(untraced) + len(traced)
        metrics.update(tracer.metrics())
        metrics.update(
            common.loop_cache_metrics(record["loop_cache"] for record in traced)
        )
        metrics.update(
            {
                "workloads.build_corpus.s": statistics.median(build_times),
                "fig6_gap": report["fig6_gap"],
                "trace.overhead_ratio": traced_busy / sum(record["s"] for record in untraced),
                # Corpus builds between evaluations are not program work
                # under test, so the share is of the evaluations' time.
                "trace.attributed_share": tracer.attributed_s() / traced_busy,
            }
        )
    return {"metrics": metrics, "attempted": attempted, "failed": failed, "report": report}
