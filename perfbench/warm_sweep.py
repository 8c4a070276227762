"""``warm-sweep``: a palette sweep served from the loop cache's disk tier.

A ``run_campaign`` over the ten corpora x three frequency palettes on
``nproc`` worker processes.  Set-up primes ``<store>/loops/`` with one
cold run of the same sweep; before each timed sweep the result store
and ``stages/`` are emptied, so every loop is read back from disk and
the scheduler does no work.  Time goes to the simulator, V/f selection
and the time model, loop-cache reads, campaign dispatch and store
writes: this workload reads what ``cold-suite`` computes.
"""

from __future__ import annotations

import shutil
import statistics
import time
from pathlib import Path
from typing import Dict, List

from perfbench import common

SCALE = 0.05
SETUP_REPS = 3
N_PALETTES = 3


def sweep_jobs(seed: int, scale: float):
    """``{job key: (paper name, job)}`` for every point of the sweep."""
    from repro.campaign.job import ExperimentJob
    from repro.perf import _sweep_option_sets

    jobs = [
        (name, ExperimentJob(benchmark=spec.name, scale=scale, options=options))
        for options in _sweep_option_sets(N_PALETTES)
        for name, spec in common.seeded_specs(seed)
    ]
    return {job.key(): (name, job) for name, job in jobs}


def run_sweep(jobs, store, n_jobs: int):
    """One campaign; returns (wall seconds, per-job records)."""
    from repro.campaign.executor import run_campaign

    finished: Dict[str, float] = {}
    payloads: Dict[str, dict] = {}
    started = time.perf_counter()

    def sink(key, payload, cached):
        payloads[key] = payload
        finished[key] = time.perf_counter() - started

    result = run_campaign([job for _, job in jobs.values()], store=store, n_jobs=n_jobs, sink=sink)
    wall = time.perf_counter() - started
    records = []
    for job_result in result:
        payload = payloads[job_result.key]
        name = jobs[job_result.key][0]
        records.append(
            {
                "key": f"{name}|{job_result.job.config_label()}",
                "benchmark": name,
                "config": job_result.job.config_label(),
                "ok": job_result.ok,
                "cached": job_result.cached,
                "evaluation": payload.get("evaluation"),
                "elapsed_s": job_result.elapsed_s,
                "done_s": finished[job_result.key],
                "loop_cache": job_result.loop_cache,
            }
        )
    return wall, records


def forget_in_memory() -> None:
    """Empty this process's stage and loop memos and corpus memo.

    Pool workers fork from this process, and ``n_jobs=1`` runs here, so
    anything left in memory would serve a sweep that should read disk.
    """
    from repro.campaign import executor
    from repro.pipeline.cache import clear_loop_cache, clear_stage_cache

    clear_stage_cache(reset_stats=True)
    clear_loop_cache(reset_stats=True)
    executor._CORPUS_CACHE.clear()


def empty_results(store) -> None:
    """Drop the result entries, ``stages/`` and every in-memory memo;
    keep ``loops/``."""
    for key in list(store.keys()):
        store.delete(key)
    shutil.rmtree(store.stage_dir, ignore_errors=True)
    forget_in_memory()


def setup(jobs, workdir: Path, n_jobs: int):
    """Prime a fresh store ``SETUP_REPS`` times; returns the last store,
    its cold records and the set-up times at the reference speed."""
    from repro.campaign.store import ResultStore

    times: List[float] = []
    for rep in range(SETUP_REPS):
        root = workdir / f"store{rep}"
        forget_in_memory()
        store = ResultStore(root)
        (_, cold), _, reference = common.timed(lambda: run_sweep(jobs, store, n_jobs), n_jobs)
        times.append(reference)
        if rep + 1 < SETUP_REPS:
            shutil.rmtree(root)
    return store, cold, times


def check_records(records, check: common.OutputCheck) -> int:
    """Check every record's output, keeping the verdict in ``record["ok"]``;
    returns the number of failures."""
    failed = 0
    for record in records:
        computed = record["ok"] and not record["cached"]
        record["ok"] = computed and check.check(record["key"], record["evaluation"])
        failed += 0 if record["ok"] else 1
    return failed


def run(seed: int, seconds: float, trace: bool, scale: float = SCALE) -> Dict[str, object]:
    n_jobs = common.nproc()
    jobs = sweep_jobs(seed, scale)
    corpora, build_times, _ = common.timed_corpus_builds(seed, scale)
    loops = {name: len(corpus.loops) for name, corpus in corpora}
    with common.scratch_dir() as workdir:
        store, cold, setup_times = setup(jobs, workdir, n_jobs)
        # Seed 0 checks the cold outputs against the recorded digests;
        # every seed checks each warm output against its cold twin.
        failed = check_records(
            cold, common.OutputCheck(common.reference_digests("warm-sweep", scale, seed))
        )
        check = common.OutputCheck(
            {record["key"]: common.digest(record["evaluation"]) for record in cold}
        )
        sweeps, walls = [], []
        started = time.perf_counter()
        while not sweeps or time.perf_counter() - started < seconds:
            empty_results(store)
            sweep, _, reference = common.timed(lambda: run_sweep(jobs, store, n_jobs), n_jobs)
            sweeps.append(sweep)
            walls.append(reference)
        records = [record for _, sweep in sweeps for record in sweep]
        failed += check_records(records, check)
        latency = common.p50_and_tail([record["done_s"] for record in records])
        metrics: Dict[str, float] = {
            "setup_s": statistics.median(setup_times),
            "loops_per_s": statistics.median(
                [
                    sum(loops[record["benchmark"]] for record in sweep if record["ok"]) / wall
                    for wall, (_, sweep) in zip(walls, sweeps)
                ]
            ),
            "goodput_jobs_per_s": statistics.median(
                [
                    sum(1 for record in sweep if record["ok"]) / wall
                    for wall, (_, sweep) in zip(walls, sweeps)
                ]
            ),
            "result_p50_s": latency["p50"],
            "result_tail_s": latency["tail"],
        }
        # The any-frequency palette is the paper's Figure 6 configuration.
        ratios = {
            record["benchmark"]: common.ed2_ratio(record["evaluation"])
            for record in cold
            if record["config"] == "buses=1"
        }
        report: Dict[str, object] = {
            "scale": scale,
            "n_jobs": n_jobs,
            "sweep_walls_s": [sweep_wall for sweep_wall, _ in sweeps],
            "reference_walls_s": walls,
            "jobs_per_sweep": len(jobs),
            "result_tail": latency,
            "fig6_gap": common.fig6_gap(ratios),
            "outputs": check.report(),
        }
        attempted = len(cold) + len(records)
        if trace:
            layers, traced = traced_layers(jobs, store, sweeps, n_jobs)
            failed += check_records(traced, check)
            attempted += len(traced)
            metrics.update(layers)
            metrics.update(common.loop_cache_metrics(record["loop_cache"] for record in records))
            metrics["workloads.build_corpus.s"] = statistics.median(build_times)
            metrics["fig6_gap"] = report["fig6_gap"]
            report["traced_inline"] = True
    return {"metrics": metrics, "attempted": attempted, "failed": failed, "report": report}


def traced_layers(jobs, store, sweeps, n_jobs: int):
    """Per-layer metrics from two inline sweeps (``n_jobs=1``), so the
    wrappers see the worker-side layers; the overhead ratio compares them
    with two untraced inline sweeps.  Returns (metrics, inline records)."""
    from perfbench.tracer import Tracer

    def inline_sweep():
        empty_results(store)
        return run_sweep(jobs, store, 1)

    elapsed = sum(record["elapsed_s"] for _, sweep in sweeps for record in sweep)
    wall = sum(sweep_wall for sweep_wall, _ in sweeps)
    # The first inline sweep pays this process's first-call costs;
    # untraced and traced sweeps then alternate, which keeps drift in
    # machine speed out of the ratio.
    inline_sweep()
    tracer = Tracer()
    walls = {"untraced": 0.0, "traced": 0.0}
    records = []
    for _ in range(2):
        sweep_wall, sweep = inline_sweep()
        walls["untraced"] += sweep_wall
        records += sweep
        with tracer:
            sweep_wall, sweep = inline_sweep()
        walls["traced"] += sweep_wall
        records += sweep
    layers = tracer.metrics()
    layers.update(
        {
            "campaign.parallel_efficiency": elapsed / (wall * n_jobs),
            "trace.overhead_ratio": walls["traced"] / walls["untraced"],
            "trace.attributed_share": tracer.attributed_s() / walls["traced"],
        }
    )
    return layers, records

