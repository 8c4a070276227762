"""Parallel, cached, resumable execution of campaign jobs.

:func:`run_campaign` consults the :class:`~repro.campaign.store.ResultStore`
before scheduling anything, then hands the uncached jobs to an
in-process :class:`~repro.fleet.coordinator.FleetCoordinator` and
drains them with a :class:`~repro.fleet.coordinator.LocalWorkerPump` —
the same driver the service runs — on one thread for a single worker,
or on a :class:`ProcessPoolExecutor` otherwise (the pipeline is pure
CPU-bound Python, so processes buy real parallelism).  The coordinator
runs single-attempt: a job whose worker dies completes as a captured
failure rather than a retry (retries are the *service* fleet's policy,
where hosts genuinely disappear).  Every job is timed, and failures are
captured as data instead of letting one bad configuration kill a sweep.

Workers receive the job in its canonical dict form and return a
JSON-safe payload, so exactly what crosses the process boundary is what
lands in the cache — no pickling of live pipeline objects.
"""

from __future__ import annotations

import asyncio
import time
import traceback
from concurrent.futures import Executor, ProcessPoolExecutor, ThreadPoolExecutor
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Sequence

from repro.campaign.job import ExperimentJob
from repro.campaign.store import ResultStore
from repro.pipeline.experiment import BenchmarkEvaluation
from repro.telemetry import get_logger, span, tracing_enabled

#: ``status`` values of a job payload.
STATUS_OK = "ok"
STATUS_ERROR = "error"

_log = get_logger("campaign")


@dataclass
class JobResult:
    """Outcome of one campaign job (computed, cached or failed)."""

    job: ExperimentJob
    key: str
    status: str
    elapsed_s: float
    cached: bool
    evaluation: Optional[BenchmarkEvaluation] = None
    error: Optional[str] = None
    #: Stage-cache counter deltas of this job's execution: ``hits``
    #: (memory LRU), ``misses`` and ``disk_hits`` — the two hit kinds
    #: stay distinct so the disk layer's contribution is visible.  None
    #: for whole-job cache answers and payloads written before
    #: stage-granular caching existed.
    stage_cache: Optional[Dict[str, int]] = None
    #: Per-loop cache counter deltas (same shape as ``stage_cache``):
    #: hits/misses/disk_hits of the loop-granular profile/schedule
    #: artifacts this job touched.  None for whole-job cache answers and
    #: payloads written before per-loop caching existed.
    loop_cache: Optional[Dict[str, int]] = None
    #: Serialized span tree of the job's execution (see
    #: :mod:`repro.telemetry.trace`); None unless tracing was enabled
    #: in the process — worker or inline — that ran the job.
    trace: Optional[Dict[str, Any]] = None

    @property
    def ok(self) -> bool:
        """True when the job produced an evaluation."""
        return self.status == STATUS_OK and self.evaluation is not None

    @property
    def stage_cache_memory_hits(self) -> int:
        """Stage-cache hits answered from the in-memory LRU."""
        return (self.stage_cache or {}).get("hits", 0)

    @property
    def stage_cache_disk_hits(self) -> int:
        """Stage-cache hits answered from the on-disk layer."""
        return (self.stage_cache or {}).get("disk_hits", 0)

    @property
    def loop_cache_memory_hits(self) -> int:
        """Per-loop cache hits answered from the in-memory LRU."""
        return (self.loop_cache or {}).get("hits", 0)

    @property
    def loop_cache_disk_hits(self) -> int:
        """Per-loop cache hits answered from the on-disk layer."""
        return (self.loop_cache or {}).get("disk_hits", 0)

    @property
    def loop_cache_misses(self) -> int:
        """Loops this job actually had to profile/schedule."""
        return (self.loop_cache or {}).get("misses", 0)


@dataclass
class CampaignResult:
    """All job results of one campaign run, in job order."""

    results: List[JobResult] = field(default_factory=list)

    def __iter__(self):
        return iter(self.results)

    def __len__(self) -> int:
        return len(self.results)

    @property
    def succeeded(self) -> List[JobResult]:
        """Results that carry an evaluation."""
        return [r for r in self.results if r.ok]

    @property
    def failed(self) -> List[JobResult]:
        """Results whose job raised."""
        return [r for r in self.results if r.status == STATUS_ERROR]

    @property
    def n_cached(self) -> int:
        """How many jobs were answered from the store."""
        return sum(1 for r in self.results if r.cached)

    @property
    def total_elapsed_s(self) -> float:
        """Sum of per-job wall times (compute actually spent this run)."""
        return sum(r.elapsed_s for r in self.results if not r.cached)

    @property
    def stage_cache_hits(self) -> int:
        """Stage-level cache hits (memory + disk) across executed jobs."""
        return self.stage_cache_memory_hits + self.stage_cache_disk_hits

    @property
    def stage_cache_memory_hits(self) -> int:
        """Stage-level memory-LRU hits across executed jobs."""
        return sum(r.stage_cache_memory_hits for r in self.results)

    @property
    def stage_cache_disk_hits(self) -> int:
        """Stage-level disk-layer hits across executed jobs."""
        return sum(r.stage_cache_disk_hits for r in self.results)

    @property
    def loop_cache_hits(self) -> int:
        """Per-loop cache hits (memory + disk) across executed jobs."""
        return self.loop_cache_memory_hits + self.loop_cache_disk_hits

    @property
    def loop_cache_memory_hits(self) -> int:
        """Per-loop memory-LRU hits across executed jobs."""
        return sum(r.loop_cache_memory_hits for r in self.results)

    @property
    def loop_cache_disk_hits(self) -> int:
        """Per-loop disk-layer hits across executed jobs."""
        return sum(r.loop_cache_disk_hits for r in self.results)

    @property
    def loop_cache_misses(self) -> int:
        """Loops actually profiled/scheduled across executed jobs."""
        return sum(r.loop_cache_misses for r in self.results)


# ----------------------------------------------------------------------
# worker side
# ----------------------------------------------------------------------
#: Per-process corpus memo: jobs sweeping configurations re-run the same
#: (benchmark, scale) corpora, and corpus construction (plus the per-loop
#: analyses memoized off its DDGs) is pure, so each worker builds each
#: corpus once instead of once per job.  Bounded FIFO: corpora pin their
#: DDGs (and thereby the weak-keyed loop analyses), so an unbounded memo
#: would grow for the life of a long-lived driver process.
_CORPUS_CACHE: Dict[Any, Any] = {}
_CORPUS_CACHE_LIMIT = 32


def _corpus_for(benchmark: str, scale: float):
    from repro.workloads.corpus import build_corpus
    from repro.workloads.spec_profiles import spec_profile

    # Keyed by the resolved *spec* (frozen, hashable), not the name:
    # registered workloads can be re-registered with a new definition
    # mid-process (e.g. jobs carrying edited pack workloads), and a
    # name-keyed memo would serve the stale corpus.
    spec = spec_profile(benchmark)
    key = (spec, scale)
    corpus = _CORPUS_CACHE.get(key)
    if corpus is None:
        corpus = build_corpus(spec, scale=scale)
        while len(_CORPUS_CACHE) >= _CORPUS_CACHE_LIMIT:
            _CORPUS_CACHE.pop(next(iter(_CORPUS_CACHE)))
        _CORPUS_CACHE[key] = corpus
    return corpus


def _worker_init(
    store_root: Optional[str],
    workload_packs: Sequence[str] = (),
    telemetry: bool = False,
) -> None:
    """One-time setup of a worker process.

    Attaches the stage and loop caches to the result store at
    ``store_root`` for the life of the process, registers the workload
    packs (pack-declared benchmarks must resolve in *this* process —
    registration does not survive the spawn/forkserver boundary),
    mirrors the driver's tracing switch (span state is process-local,
    so enablement must be carried across the spawn boundary
    explicitly), and warms the heavyweight imports — machine registry,
    workload profiles, pipeline stages — so the first job of each
    worker doesn't pay them inside its measured time.
    """
    if telemetry:
        from repro.telemetry import enable_tracing

        enable_tracing()
    if store_root is not None:
        ResultStore(store_root).attach_caches()
    if workload_packs:
        from repro.scenarios import find_pack

        for ref in workload_packs:
            find_pack(ref).register()
    import repro.pipeline.registry  # noqa: F401  (registers factories)
    import repro.pipeline.stages  # noqa: F401
    import repro.workloads.spec_profiles  # noqa: F401


def worker_pool(
    store: Optional[ResultStore],
    max_workers: int,
    workload_packs: Sequence[str] = (),
    telemetry: bool = False,
) -> ProcessPoolExecutor:
    """The process pool that in-process drivers run jobs on.

    Every worker runs :func:`_worker_init` once, so it reads and writes
    ``store``'s stage and loop caches without any per-job setup.
    """
    return ProcessPoolExecutor(
        max_workers=max_workers,
        initializer=_worker_init,
        initargs=(
            None if store is None else str(store.root),
            tuple(workload_packs),
            telemetry,
        ),
    )


def execute_job_payload(job_data: Dict[str, Any]) -> Dict[str, Any]:
    """Run one job from its dict form; never raises.

    Module-level so :class:`ProcessPoolExecutor` can pickle it by
    reference.  The stage and loop caches are used wherever the
    driver attached them (see :meth:`ResultStore.attach_caches`); the
    payload records both caches' counter deltas.
    """
    started = time.perf_counter()
    try:
        job = ExperimentJob.from_dict(job_data)
        from repro.pipeline.cache import LOOP_CACHE, STAGE_CACHE
        from repro.pipeline.experiment import evaluate_corpus

        stats_before = STAGE_CACHE.stats()
        loops_before = LOOP_CACHE.stats()
        with span(
            "job", benchmark=job.benchmark, config=job.config_label()
        ) as job_span:
            corpus = _corpus_for(job.benchmark, job.scale)
            evaluation = evaluate_corpus(corpus, job.options)
        stats_after = STAGE_CACHE.stats()
        loops_after = LOOP_CACHE.stats()
        return {
            "schema": 1,
            "job": job_data,
            "status": STATUS_OK,
            "elapsed_s": time.perf_counter() - started,
            "evaluation": evaluation.to_dict(),
            "error": None,
            "stage_cache": {
                name: stats_after[name] - stats_before[name]
                for name in stats_after
            },
            "loop_cache": {
                name: loops_after[name] - loops_before[name]
                for name in loops_after
            },
            # Serialized span tree: JSON-safe, so it crosses the worker
            # boundary with the payload and lands in store + warehouse.
            "trace": None if job_span is None else job_span.to_dict(),
        }
    except Exception:
        return {
            "schema": 1,
            "job": job_data,
            "status": STATUS_ERROR,
            "elapsed_s": time.perf_counter() - started,
            "evaluation": None,
            "error": traceback.format_exc(),
        }


# ----------------------------------------------------------------------
# driver side
# ----------------------------------------------------------------------
def _result_from_payload(
    job: ExperimentJob, key: str, payload: Dict[str, Any], cached: bool
) -> JobResult:
    evaluation = payload.get("evaluation")
    return JobResult(
        job=job,
        key=key,
        status=payload.get("status", STATUS_ERROR),
        elapsed_s=payload.get("elapsed_s", 0.0),
        cached=cached,
        evaluation=(
            BenchmarkEvaluation.from_dict(evaluation)
            if evaluation is not None
            else None
        ),
        error=payload.get("error"),
        stage_cache=None if cached else payload.get("stage_cache"),
        loop_cache=None if cached else payload.get("loop_cache"),
        trace=None if cached else payload.get("trace"),
    )


def run_campaign(
    jobs: Sequence[ExperimentJob],
    store: Optional[ResultStore] = None,
    n_jobs: int = 1,
    progress: Optional[Callable[[JobResult], None]] = None,
    recompute: bool = False,
    workload_packs: Sequence[str] = (),
    sink: Optional[Callable[[str, Dict[str, Any], bool], None]] = None,
) -> CampaignResult:
    """Execute ``jobs``, reusing cached results and sharding the rest.

    ``n_jobs`` bounds worker processes (1 runs on one thread of this
    process); ``progress`` is invoked once per finished job, in
    completion order, on the calling thread; ``recompute`` forces fresh
    runs even for cached keys.  ``workload_packs`` names
    scenario packs (bundled names or paths) whose workloads every worker
    registers at startup — required when jobs reference pack-declared
    benchmarks and ``n_jobs > 1``, because registry state does not cross
    the process boundary.  Successful results are persisted to ``store``
    before the call returns; failures are reported but never cached, so
    a fixed configuration re-runs.

    ``sink`` is the raw-payload hook: called once per finished job with
    ``(key, payload, cached)`` — the exact dict that lands in (or came
    from) the store.  The warehouse uses it to index results as they
    complete; ``progress`` stays the human-facing, deserialized view.

    Caching is two-granular: whole jobs are answered from ``store``
    without executing, and executed jobs reuse stage-level artifacts
    (profiling, calibration) persisted under ``store.stage_dir`` — so a
    resume whose job entries were invalidated still skips the expensive
    profiling passes.
    """
    if n_jobs < 1:
        raise ValueError(f"n_jobs must be >= 1, got {n_jobs}")
    keyed = [(job, job.key()) for job in jobs]
    results: Dict[str, JobResult] = {}
    uncached: Dict[str, ExperimentJob] = {}
    for job, key in keyed:
        if key in results or key in uncached:  # duplicate job
            continue
        payload = None if (store is None or recompute) else store.get(key)
        cached_result = None
        if payload is not None and payload.get("status") == STATUS_OK:
            try:
                cached_result = _result_from_payload(job, key, payload, cached=True)
            except Exception:
                # Stale or schema-incompatible entry (e.g. written by an
                # older code version): treat as a miss and recompute.
                cached_result = None
        if cached_result is not None:
            results[key] = cached_result
            if sink is not None:
                sink(key, dict(payload, key=key), True)
            if progress is not None:
                progress(cached_result)
            continue
        uncached[key] = job

    def finish(key: str, payload: Dict[str, Any]) -> None:
        job = uncached[key]
        if sink is not None:
            sink(key, dict(payload, key=key), False)
        results[key] = _result_from_payload(job, key, payload, cached=False)
        if results[key].status == STATUS_ERROR:
            _log.warning(
                "job failed", extra={"key": key, "benchmark": job.benchmark}
            )
        if progress is not None:
            progress(results[key])

    workers = min(n_jobs, len(uncached))
    if workers:
        executor = (
            ThreadPoolExecutor(max_workers=1, thread_name_prefix="repro-campaign")
            if workers == 1
            else worker_pool(store, workers, workload_packs, tracing_enabled())
        )
        with executor:
            asyncio.run(_drain(uncached, store, executor, workers, finish))
    return CampaignResult(results=[results[key] for _, key in keyed])


async def _drain(
    jobs: Dict[str, ExperimentJob],
    store: Optional[ResultStore],
    executor: Executor,
    slots: int,
    finish: Callable[[str, Dict[str, Any]], None],
) -> None:
    """Run ``jobs`` through an in-process fleet and a local pump.

    Single-attempt: a job whose worker dies completes as a captured
    failure, never a retry.  ``finish`` sees every payload once, in
    completion order, on the calling thread.
    """
    from repro.fleet.coordinator import FleetCoordinator, LocalWorkerPump

    coordinator = FleetCoordinator(store=store, max_attempts=1)
    finished: "asyncio.Queue" = asyncio.Queue()
    for key, job in jobs.items():
        coordinator.submit(key, job.to_dict()).add_done_callback(
            lambda future, key=key: finished.put_nowait((key, future.result()))
        )
    pump = LocalWorkerPump(
        coordinator, lambda: executor, execute_job_payload, slots=slots
    )
    pump.ensure_started()
    try:
        for _ in jobs:
            finish(*await finished.get())
    finally:
        await pump.close()
