"""``service-mixed``: open-loop HTTP traffic against the real service.

An in-process ``ServiceServer`` with its real ``JobManager`` (process
pool pumped through the fleet queue, result store, warehouse) receives
seeded Poisson arrivals at one fixed rate from one generator holding at
most ``nproc`` connections.  Each arrival is an evaluate submit drawn
from a Zipf-skewed key space (most dedup, a minority compute), a
job-status read or a warehouse query; a ``/healthz`` probe runs
alongside.  This is the only workload that reaches the service, fleet
and warehouse layers; its misses still run the real scheduler.
"""

from __future__ import annotations

import asyncio
import random
import statistics
import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from perfbench import common

SCALE = 0.02
#: Pool start-up time varies a lot from one start to the next.
SETUP_REPS = 7
#: Offered load, below capacity: 120 submits in 15 s, a third of them
#: compute, about 0.35 s each on two workers that can take 6 per second.
RATE = 16.0
MIX = (("submit", 0.5), ("status", 0.25), ("query", 0.25))
QUERIES = ("/v1/query/best", "/v1/query/pareto", "/stats")
ZIPF_EXPONENT = 1.0
HEALTHZ_INTERVAL_S = 0.1
DRAIN_TIMEOUT_S = 120.0


@dataclass
class Arrival:
    due: float
    kind: str  # submit | status | query | healthz
    target: object = None  # submit: key index; status: draw in [0, 1); query: path
    status: Optional[int] = None
    latency: Optional[float] = None
    lag: float = 0.0
    document: Dict[str, object] = field(default_factory=dict)

    @property
    def ok(self) -> bool:
        return self.status is not None and 200 <= self.status < 300


def key_space(specs, scale: float) -> List[Tuple[str, Dict[str, object]]]:
    """The 40 evaluate requests, hottest first (a fixed ranking)."""
    return [
        (
            f"{name}|buses={buses}|simulate={simulate}",
            {"benchmark": spec.name, "scale": scale, "buses": buses, "simulate": simulate},
        )
        for simulate in (True, False)
        for buses in (1, 2)
        for name, spec in specs
    ]


def schedule(seed: int, seconds: float, n_keys: int) -> List[Arrival]:
    """Arrival times and kinds for one run, all drawn from ``seed``.

    A Poisson process conditioned on its count: ``RATE * seconds``
    arrivals placed uniformly at random in the window.  The mix is
    exact, shuffled.  Every key is submitted once, so every long enough
    run computes the same jobs; the other submits follow a Zipf law over
    the ranking and dedup.
    """
    rng = random.Random(seed)
    count = round(RATE * seconds)
    kinds = [kind for kind, share in MIX for _ in range(round(share * count))]
    rng.shuffle(kinds)
    n_submits = kinds.count("submit")
    weights = [1.0 / rank**ZIPF_EXPONENT for rank in range(1, n_keys + 1)]
    keys = list(range(n_keys)) + rng.choices(range(n_keys), weights, k=max(0, n_submits - n_keys))
    rng.shuffle(keys)
    arrivals = []
    for due, kind in zip(sorted(rng.uniform(0.0, seconds) for _ in kinds), kinds):
        if kind == "submit":
            target = keys.pop()
        elif kind == "status":
            target = rng.random()
        else:
            target = rng.choice(QUERIES)
        arrivals.append(Arrival(due, kind, target))
    probes = int(seconds / HEALTHZ_INTERVAL_S)
    arrivals += [Arrival(i * HEALTHZ_INTERVAL_S, "healthz") for i in range(probes)]
    return sorted(arrivals, key=lambda arrival: arrival.due)


# ----------------------------------------------------------------------
# the service under test
# ----------------------------------------------------------------------
def run_payload(*args, **kwargs) -> Dict[str, object]:
    """The service's own payload runner between two calibrations, in the
    pool worker that runs it; the payload's ``elapsed_s`` comes back at
    the reference speed of that worker's CPU."""
    from repro.campaign.executor import execute_job_payload

    payload, elapsed, reference = common.timed(lambda: execute_job_payload(*args, **kwargs))
    payload["elapsed_s"] *= reference / elapsed
    return payload


def start_service(workdir):
    """Start a service with a store and warehouse under ``workdir``."""
    from repro.campaign.store import ResultStore
    from repro.service import JobManager
    from repro.service.http import start_in_thread
    from repro.warehouse import Warehouse

    store = ResultStore(workdir / "store")
    warehouse = Warehouse.for_store(store)
    workers = common.nproc()

    def factory():
        return JobManager(
            store=store, warehouse=warehouse, run_payload=run_payload, max_workers=workers
        )

    return start_in_thread(factory), warehouse


def stop_service(service, warehouse) -> None:
    service.stop()
    warehouse.close()
    common.reap_children()


async def _request(service, method: str, path: str, body=None):
    from repro.loadgen.harness import http_json

    return await http_json(service.host, service.port, method, path, body, timeout=30.0)


async def _wait_done(service, job_ids, timeout: float) -> Dict[str, dict]:
    """Poll until every job is terminal; returns the job documents."""
    deadline = time.monotonic() + timeout
    while True:
        _, document = await _request(service, "GET", "/v1/jobs")
        jobs = {job["id"]: job for job in document.get("jobs", [])}
        if all(jobs.get(job_id, {}).get("status") in ("done", "failed") for job_id in job_ids):
            return jobs
        if time.monotonic() > deadline:
            raise TimeoutError(f"{len(job_ids)} jobs not drained in {timeout}s")
        await asyncio.sleep(0.05)


def warm_up(service, specs, scale: float) -> None:
    """Run one small evaluate per worker so the pool is up and imported."""

    async def go():
        ids = []
        for index in range(common.nproc()):
            _, spec = specs[index % len(specs)]
            request = {"benchmark": spec.name, "scale": scale / 2, "buses": 1 + index % 2}
            status, document = await _request(service, "POST", "/v1/evaluate", request)
            if status not in (200, 202):
                raise RuntimeError(f"warm-up submit answered {status}: {document}")
            ids.append(document["job"]["id"])
        await _wait_done(service, ids, DRAIN_TIMEOUT_S)

    asyncio.run(go())


def setup(specs, workdir, scale: float, reps: int = SETUP_REPS):
    """Start and warm the service ``reps`` times; keeps the last."""
    times = []
    for rep in range(reps):
        started = time.perf_counter()
        service, warehouse = start_service(workdir / f"service{rep}")
        try:
            warm_up(service, specs, scale)
        except BaseException:
            stop_service(service, warehouse)
            raise
        times.append(time.perf_counter() - started)
        if rep + 1 < reps:
            stop_service(service, warehouse)
    return service, warehouse, times


# ----------------------------------------------------------------------
# the load generator
# ----------------------------------------------------------------------
async def _generate(service, arrivals: List[Arrival], keys) -> Tuple[float, float]:
    """Send every arrival at its due time; returns (wall start, window).

    At most ``nproc`` connections are open at once.  An arrival waiting
    for a free connection is late, never dropped, and every latency is
    timed from the due time.
    """
    loop = asyncio.get_running_loop()
    connections = asyncio.Semaphore(common.nproc())
    submitted: List[str] = []
    start, wall_start = loop.time(), time.time()

    async def send(arrival: Arrival) -> None:
        method, body = "GET", None
        if arrival.kind == "submit":
            method, path, body = "POST", "/v1/evaluate", keys[arrival.target][1]
        elif arrival.kind == "status" and submitted:
            path = f"/v1/jobs/{submitted[int(arrival.target * len(submitted))]}"
        elif arrival.kind == "status":
            path = "/v1/jobs"
        elif arrival.kind == "query":
            path = arrival.target
        else:
            path = "/healthz"
        async with connections:
            arrival.lag = loop.time() - (start + arrival.due)
            try:
                arrival.status, arrival.document = await _request(service, method, path, body)
            except (OSError, asyncio.TimeoutError) as error:
                arrival.document = {"error": repr(error)}
            arrival.latency = loop.time() - (start + arrival.due)
        if arrival.kind == "submit" and arrival.ok:
            submitted.append(arrival.document["job"]["id"])

    tasks = []
    for arrival in arrivals:
        delay = start + arrival.due - loop.time()
        if delay > 0:
            await asyncio.sleep(delay)
        tasks.append(asyncio.ensure_future(send(arrival)))
    window = loop.time() - start
    await asyncio.gather(*tasks)
    return wall_start, window


async def _drive(service, arrivals, keys) -> Dict[str, object]:
    """Generate, drain every submitted job, then fetch documents and results."""
    wall_start, window = await _generate(service, arrivals, keys)
    job_ids = sorted(
        {a.document["job"]["id"] for a in arrivals if a.kind == "submit" and a.ok}
    )
    jobs = await _wait_done(service, job_ids, DRAIN_TIMEOUT_S)
    results = {}
    for job_id in job_ids:
        status, document = await _request(service, "GET", f"/v1/jobs/{job_id}/result")
        results[job_id] = document.get("result") if status == 200 else None
    _, stats = await _request(service, "GET", "/stats")
    return {
        "wall_start": wall_start,
        "window": window,
        "jobs": jobs,
        "results": results,
        "stats": stats,
    }


def summarize(run, arrivals, keys, check: common.OutputCheck, loops: Dict[str, int]):
    """Check one driven window's outputs; returns (metrics, report, failed)."""
    jobs, results = run["jobs"], run["results"]
    correct = 0
    # job id -> benchmark of every distinct job whose output checked out
    correct_jobs: Dict[str, str] = {}
    failures: List[Dict[str, object]] = []
    result_s: List[float] = []
    paper: Dict[str, float] = {}
    for arrival in arrivals:
        ok = arrival.ok
        if ok and arrival.kind == "submit":
            key = keys[arrival.target][0]
            job = jobs[arrival.document["job"]["id"]]
            result = results[job["id"]]
            ok = (
                job["status"] == "done"
                and result is not None
                and check.check(key, result["evaluation"])
            )
            # A dedup onto a finished job is done when its answer arrives.
            finished = job["finished_at"] - (run["wall_start"] + arrival.due)
            result_s.append(max(arrival.latency, finished))
            if ok:
                correct += 1
                correct_jobs[job["id"]] = key.split("|", 1)[0]
                # Figure 6 is the 1-bus, simulated configuration.
                if key.endswith("|buses=1|simulate=True"):
                    paper[key.split("|", 1)[0]] = common.ed2_ratio(result["evaluation"])
        if not ok:
            failures.append(_failure(arrival, keys, jobs))
    requests = [a.latency for a in arrivals if a.kind != "healthz"]
    probes = [a.latency for a in arrivals if a.kind == "healthz"]
    result_latency = common.p50_and_tail(result_s)
    submit_latency = common.p50_and_tail(requests)
    healthz_latency = common.p50_and_tail(probes)
    distinct = [jobs[job_id] for job_id in results]
    counters = run["stats"]["jobs"]
    window = run["window"]
    # Served from the first due time until the last job is terminal or
    # the last answer arrives, whichever is later: the drain is included.
    served_s = max(
        max((job["finished_at"] for job in distinct), default=run["wall_start"]),
        run["wall_start"] + max(a.due + a.latency for a in arrivals if a.latency is not None),
    ) - run["wall_start"]
    # Every distinct job was computed by a pool worker, which reports
    # the time it spent on it at the reference speed (``run_payload``);
    # queueing behind busy workers is left out, as it depends on how the
    # seed's arrivals bunch.
    compute_s = sum(results[job_id]["summary"]["elapsed_s"] for job_id in correct_jobs)
    metrics = {
        "loops_per_s": sum(loops[name] for name in correct_jobs.values()) / compute_s,
        "goodput_jobs_per_s": correct / served_s,
        "result_p50_s": result_latency["p50"],
        "result_tail_s": result_latency["tail"],
        "submit_tail_ms": submit_latency["tail"] * 1e3,
        "healthz_tail_ms": healthz_latency["tail"] * 1e3,
        "loadgen.lag_max_s": max(a.lag for a in arrivals),
        "fleet.queue_wait_p50_s": statistics.median(
            [job["started_at"] - job["created_at"] for job in distinct]
        ),
        "service.run_p50_s": statistics.median(
            [job["finished_at"] - job["started_at"] for job in distinct]
        ),
        "service.dedup_ratio": counters["deduped"] / counters["submitted"],
        "service.rejected": counters["rejected"],
        "fleet.lease.requeued": run["stats"]["fleet"]["leases"].get("requeued", 0),
    }
    report = {
        "failures": failures[:10],
        "window_s": window,
        "served_s": served_s,
        "compute_s": compute_s,
        "arrivals": len(requests),
        "healthz_probes": len(probes),
        "distinct_jobs": len(distinct),
        "computed": counters["computed"],
        "result_tail": result_latency,
        "submit_tail": submit_latency,
        "healthz_tail": healthz_latency,
        "fig6_gap_over": sorted(paper),
        "fig6_gap": common.fig6_gap(paper) if paper else None,
        "serving_s": sum(requests) + sum(probes),
    }
    return metrics, report, len(failures)


def _failure(arrival: Arrival, keys, jobs) -> Dict[str, object]:
    """What went wrong with one operation, for the report."""
    detail: Dict[str, object] = {"kind": arrival.kind, "due": arrival.due, "status": arrival.status}
    if arrival.kind == "submit":
        detail["key"] = keys[arrival.target][0]
        job = jobs.get((arrival.document.get("job") or {}).get("id"), {})
        detail["job_status"] = job.get("status")
        detail["error"] = str(job.get("error") or arrival.document.get("error"))[-400:]
    else:
        detail["error"] = str(arrival.document.get("error"))[-400:]
    return detail


def run(seed: int, seconds: float, trace: bool, scale: float = SCALE) -> Dict[str, object]:
    specs = common.seeded_specs(seed)
    corpora, build_times, _ = common.timed_corpus_builds(seed, scale)
    loops = {name: len(corpus.loops) for name, corpus in corpora}
    keys = key_space(specs, scale)
    arrivals = schedule(seed, seconds, len(keys))
    check = common.OutputCheck(common.reference_digests("service-mixed", scale, seed))
    with common.scratch_dir() as workdir:
        service, warehouse, setup_times = setup(specs, workdir, scale)
        try:
            driven = asyncio.run(_drive(service, arrivals, keys))
        finally:
            stop_service(service, warehouse)
        metrics, report, failed = summarize(driven, arrivals, keys, check, loops)
        attempted = len(arrivals)
        metrics["setup_s"] = statistics.median(setup_times)
        report.update(scale=scale, rate_per_s=RATE, outputs=check.report())
        if trace:
            layers, traced, traced_failed = traced_layers(
                specs, workdir, scale, arrivals, keys, check, loops
            )
            metrics.update(layers)
            metrics["workloads.build_corpus.s"] = statistics.median(build_times)
            if report["fig6_gap"] is not None:
                metrics["fig6_gap"] = report["fig6_gap"]
            metrics["trace.overhead_ratio"] = traced["serving_s"] / report["serving_s"]
            report["traced_failures"] = traced["failures"]
            failed += traced_failed
            attempted += len(arrivals)
    return {"metrics": metrics, "attempted": attempted, "failed": failed, "report": report}


def traced_layers(specs, workdir, scale, arrivals, keys, check, loops):
    """Per-layer metrics from the same traffic replayed on a fresh service
    with the wrappers installed in this process.

    The wrappers see the service-side layers (HTTP handling, store,
    warehouse, job keys).  Evaluations run in the pool's worker
    processes, out of their sight: the scheduler and simulator layers
    are measured on ``cold-suite`` and ``warm-sweep``.  The overhead
    ratio compares the summed request latencies with the measured run.
    """
    from perfbench.tracer import Tracer

    fresh = [Arrival(a.due, a.kind, a.target) for a in arrivals]
    service, warehouse, _ = setup(specs, workdir / "traced", scale, reps=1)
    tracer = Tracer()
    try:
        with tracer:
            driven = asyncio.run(_drive(service, fresh, keys))
    finally:
        stop_service(service, warehouse)
    _, report, failed = summarize(driven, fresh, keys, check, loops)
    return tracer.metrics(), report, failed
