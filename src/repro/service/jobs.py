"""The async job manager: submission, dedup, events, executor bridging.

A :class:`JobManager` lives on one asyncio event loop and turns incoming
requests into *service jobs* (evaluate, suite, campaign).  Work dedupes
at two levels, both content-addressed:

* **service-job level** — a request's job id is the content key of its
  canonical form (for ``evaluate`` it *is* the campaign subsystem's
  :meth:`ExperimentJob.key`), so resubmitting an identical request —
  concurrently or later — attaches to the existing job instead of
  creating a new one;
* **experiment level** — every underlying experiment (a bare evaluate,
  or one point of a suite/campaign expansion) funnels through one
  in-flight table keyed by :meth:`ExperimentJob.key`, backed by the
  result store: concurrent *different* requests that share points (a
  campaign overlapping a pending evaluate, say) still compute each
  point exactly once.

Heavy work never runs on the loop: every experiment is submitted to the
manager's :class:`~repro.fleet.coordinator.FleetCoordinator`, whose
lease queue is drained by whichever workers exist — the in-process
:class:`~repro.fleet.coordinator.LocalWorkerPump` (the same driver
campaigns use; by default on a process pool built by
:func:`~repro.campaign.executor.worker_pool`) and/or remote
``python -m repro worker`` processes pulling over HTTP.  The pump keeps
this process's stage and loop caches attached to the store while it
runs, so payloads on an inline thread executor share one attachment.
With ``max_workers=0`` the pump is disabled and the service relies
entirely on remote workers.  Tests and benches inject a counting/inline
runner instead.
"""

from __future__ import annotations

import asyncio
import contextvars
import time
import traceback
import uuid
from concurrent.futures import Executor, ThreadPoolExecutor
from dataclasses import dataclass, field
from typing import Any, Awaitable, Callable, Dict, List, Optional

from repro.campaign.executor import STATUS_OK, execute_job_payload
from repro.campaign.job import ExperimentJob
from repro.campaign.spec import CampaignSpec
from repro.campaign.store import ResultStore
from repro.errors import ReproError
from repro.fleet.coordinator import FleetCoordinator, LocalWorkerPump
from repro.fleet.queue import BATCH, INTERACTIVE
from repro.pipeline.experiment import ExperimentOptions
from repro.pipeline.serialization import content_key, evaluation_ratios
from repro.telemetry import (
    Span,
    counter,
    gauge,
    get_logger,
    record_event,
    root_span,
    span,
)
from repro.warehouse.db import Warehouse
from repro.workloads.spec_profiles import SPEC2000_PROFILES

_log = get_logger("service")

#: Registry twins of ``JobManager.stats``: the dict stays the precise
#: per-manager introspection surface (and API response), the metrics are
#: what /metrics scrapes across the process.
_DEDUP_HITS = counter(
    "repro_service_dedup_hits_total",
    "Work answered without recomputing, by dedup level "
    "(job, store, inflight)",
)
_JOBS = counter(
    "repro_service_jobs_total",
    "Service jobs reaching a terminal state, by kind and status",
)
_QUEUE_DEPTH = gauge(
    "repro_service_queue_depth",
    "Service jobs currently queued or running, by admission class",
)
_REJECTED = counter(
    "repro_service_rejected_total",
    "Submissions refused by admission control, by admission class",
)
_DEADLINES = counter(
    "repro_service_deadline_exceeded_total",
    "Service jobs that failed their request deadline, by kind",
)

#: Service-job lifecycle states.
JOB_QUEUED = "queued"
JOB_RUNNING = "running"
JOB_DONE = "done"
JOB_FAILED = "failed"

#: Sentinel closing an event subscription stream.
_STREAM_END = None


class ServiceError(ReproError):
    """A malformed or unserviceable request."""


class ServiceOverloadError(ServiceError):
    """Admission control refused a submission: the queue is full.

    Carries the admission class that was full and a ``retry_after_s``
    hint the HTTP layer surfaces as a ``Retry-After`` header.
    """

    def __init__(
        self, message: str, job_class: str, retry_after_s: float
    ) -> None:
        super().__init__(message)
        self.job_class = job_class
        self.retry_after_s = retry_after_s


#: Which admission class each job kind bills against: evaluates are
#: the cheap interactive traffic, suite/campaign fan-out is batch.
_KIND_CLASS = {
    "evaluate": INTERACTIVE,
    "suite": BATCH,
    "campaign": BATCH,
}


def mint_trace_id() -> str:
    """A fresh 16-hex-char trace id (minted at HTTP/manager ingress)."""
    return uuid.uuid4().hex[:16]


@dataclass(frozen=True)
class AdmissionPolicy:
    """Bounds on concurrently admitted (queued or running) jobs.

    Limits are per admission class; ``None`` means unbounded.  Dedup
    attaches are always admitted — they add no work.  ``retry_after_s``
    is the base backoff hint returned with a 429.
    """

    max_interactive: Optional[int] = 128
    max_batch: Optional[int] = 16
    retry_after_s: float = 1.0

    def limit(self, job_class: str) -> Optional[int]:
        if job_class == INTERACTIVE:
            return self.max_interactive
        return self.max_batch

    @classmethod
    def unbounded(cls) -> "AdmissionPolicy":
        return cls(max_interactive=None, max_batch=None)


@dataclass
class ServiceJob:
    """One submitted unit of service work and its event history."""

    id: str
    kind: str  # "evaluate" | "suite" | "campaign"
    request: Dict[str, Any]
    status: str = JOB_QUEUED
    created_at: float = field(default_factory=time.time)
    started_at: Optional[float] = None
    finished_at: Optional[float] = None
    result: Optional[Dict[str, Any]] = None
    error: Optional[str] = None
    #: How many submissions this job absorbed (1 = no dedup happened).
    submissions: int = 1
    #: Admission class ("interactive" | "batch").
    job_class: str = INTERACTIVE
    #: Request deadline: relative budget (seconds) and its absolute
    #: ``time.monotonic`` form, fixed at submission.
    deadline_s: Optional[float] = None
    deadline_at: Optional[float] = None
    #: Distributed-trace correlation: the id every lease grant, worker
    #: payload and flight-recorder event of this job carries, and the
    #: job's root ``submit`` span (set once its driver starts), under
    #: which the cross-process span tree grows.
    trace_id: Optional[str] = None
    trace: Optional[Span] = field(default=None, repr=False)
    events: List[Dict[str, Any]] = field(default_factory=list)
    _queues: List[asyncio.Queue] = field(default_factory=list, repr=False)
    _done: Optional[asyncio.Event] = field(default=None, repr=False)

    @property
    def finished(self) -> bool:
        """True once the job reached a terminal state."""
        return self.status in (JOB_DONE, JOB_FAILED)

    def describe(self) -> Dict[str, Any]:
        """JSON-safe public view (what ``GET /v1/jobs/<id>`` returns)."""
        data: Dict[str, Any] = {
            "id": self.id,
            "kind": self.kind,
            "status": self.status,
            "request": self.request,
            "created_at": self.created_at,
            "started_at": self.started_at,
            "finished_at": self.finished_at,
            "submissions": self.submissions,
            "n_events": len(self.events),
        }
        if self.deadline_s is not None:
            data["deadline_s"] = self.deadline_s
        if self.trace_id is not None:
            data["trace"] = self.trace_id
        if self.error is not None:
            data["error"] = self.error
        return data

    # ------------------------------------------------------------------
    def publish(self, event: str, **payload: Any) -> None:
        """Record an event and fan it out to live subscribers."""
        record = {"event": event, "job": self.id, "t": time.time(), **payload}
        self.events.append(record)
        for queue in list(self._queues):
            queue.put_nowait(record)
        if self.finished:
            for queue in list(self._queues):
                queue.put_nowait(_STREAM_END)
            if self._done is not None:
                self._done.set()

    def subscribe(self) -> asyncio.Queue:
        """A queue replaying past events, then streaming live ones.

        The stream terminates with ``None`` once the job finishes.
        """
        queue: asyncio.Queue = asyncio.Queue()
        for record in self.events:
            queue.put_nowait(record)
        if self.finished:
            queue.put_nowait(_STREAM_END)
        else:
            self._queues.append(queue)
        return queue

    def unsubscribe(self, queue: asyncio.Queue) -> None:
        """Detach a subscriber queue (no-op if already detached)."""
        if queue in self._queues:
            self._queues.remove(queue)


# ----------------------------------------------------------------------
# request parsing
# ----------------------------------------------------------------------
def _options_from_request(request: Dict[str, Any]) -> ExperimentOptions:
    """Experiment options from a request's shorthand (or full) form."""
    if "options" in request:  # power users post the canonical dict
        return ExperimentOptions.from_dict(request["options"])
    return ExperimentOptions(
        n_buses=int(request.get("buses", 1)),
        machine=str(request.get("machine", "paper")),
        machine_file=request.get("machine_file"),
        simulate=bool(request.get("simulate", True)),
    )


def _experiment_job(request: Dict[str, Any]) -> ExperimentJob:
    if "benchmark" not in request:
        raise ServiceError("evaluate request needs a 'benchmark'")
    try:
        return ExperimentJob(
            benchmark=str(request["benchmark"]),
            scale=float(request.get("scale", 0.05)),
            options=_options_from_request(request),
        )
    except ReproError:
        raise
    except Exception as error:
        raise ServiceError(f"malformed evaluate request: {error}") from error


def _campaign_spec(request: Dict[str, Any]) -> CampaignSpec:
    try:
        spec = dict(request.get("spec", request))
        spec.pop("label", None)
        benchmarks = spec.get("benchmarks", "all")
        if benchmarks == "all":
            benchmarks = list(SPEC2000_PROFILES)
        return CampaignSpec(
            benchmarks=tuple(benchmarks),
            scale=float(spec.get("scale", 0.05)),
            buses_grid=tuple(spec.get("buses_grid", (1,))),
            machine_grid=tuple(spec.get("machine_grid", ("paper",))),
            machine_files=tuple(spec.get("machine_files", ())),
            per_class_energy_grid=tuple(
                spec.get("per_class_energy_grid", (True,))
            ),
            preplace_grid=tuple(spec.get("preplace_grid", (True,))),
            ed2_refinement_grid=tuple(spec.get("ed2_refinement_grid", (True,))),
            sync_penalties_grid=tuple(spec.get("sync_penalties_grid", (True,))),
            simulate=bool(spec.get("simulate", True)),
        )
    except ReproError:
        raise
    except Exception as error:
        raise ServiceError(f"malformed campaign request: {error}") from error


def _evaluation_summary(payload: Dict[str, Any]) -> Dict[str, Any]:
    """The headline numbers of one experiment payload."""
    evaluation = payload.get("evaluation") or {}
    summary: Dict[str, Any] = {"elapsed_s": payload.get("elapsed_s")}
    if "heterogeneous_measured" in evaluation:
        ed2, energy, time_ratio = evaluation_ratios(evaluation)
        summary.update(
            ed2_ratio=ed2, energy_ratio=energy, time_ratio=time_ratio
        )
    return summary


# ----------------------------------------------------------------------
class JobManager:
    """Owns the service's jobs, dedup tables and executor bridge.

    ``executor``/``run_payload`` define how experiment payloads execute:
    the defaults build a lazily started
    :func:`~repro.campaign.executor.worker_pool` of ``max_workers``
    processes running
    :func:`~repro.campaign.executor.execute_job_payload`.  Pass a
    :class:`ThreadPoolExecutor` (``inline_executor``) and/or a counting
    stub to embed the manager in tests.  Either way the local pump runs
    ``max_workers`` jobs at a time (0 disables it).

    All public methods must be called from the manager's event loop.
    """

    def __init__(
        self,
        store: Optional[ResultStore] = None,
        warehouse: Optional[Warehouse] = None,
        executor: Optional[Executor] = None,
        run_payload: Callable[[Dict[str, Any]], Dict[str, Any]] = execute_job_payload,
        max_workers: int = 2,
        lease_ttl: float = 60.0,
        fleet_retries: int = 3,
        admission: Optional[AdmissionPolicy] = None,
        default_deadline: Optional[float] = None,
    ) -> None:
        self._store = store
        self._warehouse = warehouse
        self._executor = executor
        self._own_executor = executor is None
        self._run_payload = run_payload
        self._max_workers = max_workers
        self.admission = admission if admission is not None else AdmissionPolicy()
        self.default_deadline = default_deadline
        #: Admitted (non-terminal) jobs per admission class.
        self._active: Dict[str, int] = {INTERACTIVE: 0, BATCH: 0}
        #: All experiment execution dispatches through the fleet: the
        #: coordinator's queue feeds the local pump and remote workers
        #: alike, and owns the store write-through on completion.
        self.fleet = FleetCoordinator(
            store=store, ttl=lease_ttl, max_attempts=fleet_retries
        )
        self._pump: Optional[LocalWorkerPump] = None
        self._jobs: Dict[str, ServiceJob] = {}
        self._order: List[str] = []  # submission order for listings
        self._inflight: Dict[str, asyncio.Task] = {}
        #: Strong references to driver tasks (the loop only keeps weak
        #: ones; an unreferenced running task may be collected mid-run).
        self._drivers: set = set()
        self.stats: Dict[str, int] = {
            "submitted": 0,
            "deduped": 0,
            "computed": 0,
            "store_hits": 0,
            "inflight_hits": 0,
            "failed": 0,
            "rejected": 0,
            "deadline_exceeded": 0,
        }

    def active_by_class(self) -> Dict[str, int]:
        """Admitted (non-terminal) job counts per admission class."""
        return dict(self._active)

    # ------------------------------------------------------------------
    @property
    def store(self) -> Optional[ResultStore]:
        """The backing result store (may be None)."""
        return self._store

    @property
    def warehouse(self) -> Optional[Warehouse]:
        """The warehouse kept in sync (may be None)."""
        return self._warehouse

    @classmethod
    def inline_executor(cls, max_workers: int = 4) -> ThreadPoolExecutor:
        """A thread executor for in-process embedding (tests, benches)."""
        return ThreadPoolExecutor(
            max_workers=max_workers, thread_name_prefix="repro-inline"
        )

    def _ensure_executor(self) -> Executor:
        if self._executor is None:
            from repro.campaign.executor import worker_pool

            self._executor = worker_pool(self._store, self._max_workers)
        return self._executor

    def _ensure_pump(self) -> None:
        """Start the in-process fleet worker (loop side, idempotent).

        The pump runs ``max_workers`` jobs at a time.  With
        ``max_workers=0`` the service runs pump-less: only remote
        workers drain the queue.
        """
        if self._max_workers <= 0:
            return
        if self._pump is None:
            self._pump = LocalWorkerPump(
                self.fleet,
                self._ensure_executor,
                self._run_payload,
                slots=self._max_workers,
            )
        self._pump.ensure_started()

    def drain(self) -> None:
        """Stop granting fleet leases (graceful shutdown's first step)."""
        self.fleet.drain()

    async def close(self) -> None:
        """Cancel in-flight work and release the executor."""
        for task in list(self._inflight.values()):
            task.cancel()
        if self._inflight:
            await asyncio.gather(
                *self._inflight.values(), return_exceptions=True
            )
        self._inflight.clear()
        if self._pump is not None:
            await self._pump.close()
            self._pump = None
        await self.fleet.close()
        if self._own_executor and self._executor is not None:
            self._executor.shutdown(wait=False, cancel_futures=True)
            self._executor = None

    # ------------------------------------------------------------------
    # submission
    # ------------------------------------------------------------------
    def job(self, job_id: str) -> Optional[ServiceJob]:
        """Look up a service job by id."""
        return self._jobs.get(job_id)

    def jobs(self) -> List[ServiceJob]:
        """All service jobs, in submission order."""
        return [self._jobs[job_id] for job_id in self._order]

    async def wait(
        self, job_id: str, timeout: Optional[float] = None
    ) -> ServiceJob:
        """Block until a job finishes (or ``timeout`` elapses)."""
        job = self._jobs[job_id]
        if job.finished:
            return job
        if job._done is None:
            job._done = asyncio.Event()
        await asyncio.wait_for(job._done.wait(), timeout)
        return job

    def _deadline_budget(self, request: Dict[str, Any]) -> Optional[float]:
        """The request's deadline budget in seconds (None = unbounded)."""
        raw = request.get("deadline_s", self.default_deadline)
        if raw is None:
            return None
        try:
            budget = float(raw)
        except (TypeError, ValueError):
            raise ServiceError(
                f"deadline_s must be a number, got {raw!r}"
            ) from None
        if budget <= 0:
            raise ServiceError(f"deadline_s must be positive, got {budget}")
        return budget

    def _admit(
        self,
        job_id: str,
        kind: str,
        request: Dict[str, Any],
        runner: Callable[[ServiceJob], Awaitable[Dict[str, Any]]],
    ) -> ServiceJob:
        """Register (or dedup onto) a service job and start it.

        Dedup attaches bypass admission control (they add no work);
        genuinely new jobs are refused with
        :class:`ServiceOverloadError` when their class is at its limit.

        Every new job gets a distributed trace: its id comes from the
        request's ``trace`` field (the ``X-Repro-Trace`` header at the
        HTTP layer) or is minted here, and the admission decision is
        the trace's first lifecycle span.
        """
        admitted_at = time.perf_counter()
        budget = self._deadline_budget(request)
        raw_trace = request.get("trace")
        trace_id = str(raw_trace) if raw_trace else mint_trace_id()
        self.stats["submitted"] += 1
        existing = self._jobs.get(job_id)
        if existing is not None and existing.status != JOB_FAILED:
            # In-flight or completed: attach, don't recompute.  Failed
            # jobs fall through and retry — errors are not cached.
            # The attach joins the existing job's trace.
            existing.submissions += 1
            self.stats["deduped"] += 1
            _DEDUP_HITS.inc(level="job")
            record_event(
                "admission.dedup",
                trace=existing.trace_id,
                job=job_id,
                job_kind=kind,
            )
            return existing
        job_class = _KIND_CLASS.get(kind, BATCH)
        limit = self.admission.limit(job_class)
        if limit is not None and self._active[job_class] >= limit:
            self.stats["rejected"] += 1
            _REJECTED.inc(job_class=job_class)
            _log.warning(
                "job rejected: admission queue full",
                extra={"kind": kind, "job_class": job_class, "limit": limit},
            )
            record_event(
                "admission.rejected",
                trace=str(raw_trace) if raw_trace else None,
                job=job_id,
                job_kind=kind,
                job_class=job_class,
                limit=limit,
                active=self._active[job_class],
            )
            raise ServiceOverloadError(
                f"{job_class} admission queue full "
                f"({self._active[job_class]}/{limit} jobs in flight)",
                job_class=job_class,
                retry_after_s=self.admission.retry_after_s,
            )
        job = ServiceJob(
            id=job_id,
            kind=kind,
            request=request,
            job_class=job_class,
            deadline_s=budget,
            deadline_at=(
                None if budget is None else time.monotonic() + budget
            ),
            trace_id=trace_id,
        )
        record_event(
            "admission.admitted",
            trace=trace_id,
            job=job_id,
            job_kind=kind,
            job_class=job_class,
        )
        if existing is None:
            self._order.append(job_id)
        self._jobs[job_id] = job
        self._active[job_class] += 1
        _QUEUE_DEPTH.inc(job_class=job_class)
        _log.info(
            "job submitted",
            extra={"job": job_id, "kind": kind, "trace": trace_id},
        )
        job.publish("submitted", kind=kind, trace=trace_id)
        task = asyncio.get_running_loop().create_task(
            self._drive(job, runner, time.perf_counter() - admitted_at)
        )
        self._drivers.add(task)
        task.add_done_callback(self._drivers.discard)
        return job

    async def _drive(
        self,
        job: ServiceJob,
        runner: Callable[[ServiceJob], Awaitable[Dict[str, Any]]],
        admission_s: float,
    ) -> None:
        """Run a job inside its trace's root ``submit`` span.

        Every span the job opens on the loop — its experiments, their
        warehouse writes, a deadline cancel — nests under the root
        through this task's context.  ``admission`` is the root's first
        child, placed at offset 0 with the duration :meth:`_admit`
        measured.
        """
        try:
            with root_span(
                "submit", kind=job.kind, job=job.id, trace_id=job.trace_id
            ) as root:
                job.trace = root
                admission = Span(
                    "admission",
                    {"job_class": job.job_class, "outcome": "admitted"},
                )
                admission.start_s = root.start_s
                admission.elapsed_s = admission_s
                root.children.append(admission)
                await self._execute(job, runner)
        finally:
            root.annotate(status=job.status)
            if self._warehouse is not None:
                # Fire-and-forget: the live timeline serves from
                # memory, the warehouse copy is for post-hoc
                # ``repro query timeline`` — not worth blocking
                # (or failing) the settle path on a busy SQLite.
                asyncio.get_running_loop().run_in_executor(
                    None, self._record_trace, job
                )

    async def _execute(
        self,
        job: ServiceJob,
        runner: Callable[[ServiceJob], Awaitable[Dict[str, Any]]],
    ) -> None:
        job.status = JOB_RUNNING
        job.started_at = time.time()
        job.publish("started")
        try:
            if job.deadline_at is None:
                job.result = await runner(job)
            else:
                # Enforce the request deadline here; the fleet queue
                # additionally cancels still-pending experiment work at
                # the same deadline so it is never computed at all.
                job.result = await asyncio.wait_for(
                    runner(job),
                    timeout=max(0.0, job.deadline_at - time.monotonic()),
                )
            job.status = JOB_DONE
            job.finished_at = time.time()
            job.publish("completed", summary=job.result.get("summary"))
        except asyncio.CancelledError:
            job.status = JOB_FAILED
            job.error = "cancelled: service shutting down"
            job.finished_at = time.time()
            self.stats["failed"] += 1
            job.publish("failed", error=job.error)
            raise
        except (asyncio.TimeoutError, TimeoutError):
            with span("deadline_cancel", budget_s=job.deadline_s):
                job.status = JOB_FAILED
                job.error = (
                    f"deadline exceeded: job still incomplete after its "
                    f"{job.deadline_s:g}s budget"
                )
                job.finished_at = time.time()
                self.stats["failed"] += 1
                self.stats["deadline_exceeded"] += 1
                _DEADLINES.inc(kind=job.kind)
                _log.warning(
                    "job deadline exceeded",
                    extra={"job": job.id, "kind": job.kind},
                )
                record_event(
                    "deadline.exceeded",
                    trace=job.trace_id,
                    job=job.id,
                    job_kind=job.kind,
                    budget_s=job.deadline_s,
                )
                job.publish("failed", error=job.error)
        except Exception:
            job.status = JOB_FAILED
            job.error = traceback.format_exc()
            job.finished_at = time.time()
            self.stats["failed"] += 1
            _log.warning(
                "job failed", extra={"job": job.id, "kind": job.kind}
            )
            job.publish("failed", error=job.error)
        finally:
            self._active[job.job_class] -= 1
            _QUEUE_DEPTH.dec(job_class=job.job_class)
            _JOBS.inc(kind=job.kind, status=job.status)

    def submit_evaluate(self, request: Dict[str, Any]) -> ServiceJob:
        """Submit one experiment; job id == the experiment's cache key."""
        experiment = _experiment_job(dict(request))
        job_id = experiment.key()

        async def run(job: ServiceJob) -> Dict[str, Any]:
            payload = await self._run_experiment(
                experiment,
                job_class=INTERACTIVE,
                deadline=job.deadline_at,
                trace_id=job.trace_id,
            )
            if payload.get("status") != STATUS_OK:
                raise ServiceError(
                    f"experiment failed:\n{payload.get('error')}"
                )
            return {
                "kind": "evaluate",
                "key": job_id,
                "summary": _evaluation_summary(payload),
                "evaluation": payload.get("evaluation"),
            }

        return self._admit(job_id, "evaluate", dict(request), run)

    def submit_suite(self, request: Dict[str, Any]) -> ServiceJob:
        """Submit all benchmarks at one configuration."""
        request = dict(request)
        options = _options_from_request(request)
        scale = float(request.get("scale", 0.05))
        experiments = [
            ExperimentJob(benchmark=name, scale=scale, options=options)
            for name in SPEC2000_PROFILES
        ]
        job_id = content_key(
            {"kind": "suite", "points": [e.key() for e in experiments]}
        )
        return self._admit(
            job_id,
            "suite",
            request,
            lambda job: self._run_points(job, "suite", experiments),
        )

    def submit_campaign(self, request: Dict[str, Any]) -> ServiceJob:
        """Submit a campaign grid; points dedupe against everything.

        The warehouse label is part of the job identity: resubmitting
        the same grid under a *new* label is a fresh (cheap — every
        point answers from the store or in-flight table) job that
        records the new campaign, rather than deduping onto the old one
        and silently dropping the label.
        """
        request = dict(request)
        spec = _campaign_spec(request)
        experiments = spec.expand()
        job_id = content_key(
            {
                "kind": "campaign",
                "points": [e.key() for e in experiments],
                "label": request.get("label"),
            }
        )
        label = request.get("label") or f"service:{job_id}"
        return self._admit(
            job_id,
            "campaign",
            request,
            lambda job: self._run_points(
                job, "campaign", experiments, campaign=label
            ),
        )

    # ------------------------------------------------------------------
    # experiment-level execution and dedup
    # ------------------------------------------------------------------
    async def _run_experiment(
        self,
        experiment: ExperimentJob,
        campaign: Optional[str] = None,
        job_class: str = BATCH,
        deadline: Optional[float] = None,
        trace_id: Optional[str] = None,
    ) -> Dict[str, Any]:
        """One experiment payload, computed at most once per key.

        Resolution order: result store (completed history), in-flight
        table (running right now, await the same task), fresh compute.

        Inside a job's trace the whole resolution is an ``experiment``
        span: dedup hits get a span tagged with their source, computed
        experiments additionally gain ``queue_wait``, one ``lease`` span
        per granted attempt (from the coordinator's lease log, tagged
        worker/token/outcome, the completing attempt holding the
        re-parented worker span tree) and a ``warehouse_record`` span.
        """
        key = experiment.key()
        with span(
            "experiment",
            key=key,
            benchmark=experiment.benchmark,
            config=experiment.config_label(),
        ) as exp_span:
            if self._store is not None:
                payload = self._store.get(key)
                if payload is not None and payload.get("status") == STATUS_OK:
                    self.stats["store_hits"] += 1
                    _DEDUP_HITS.inc(level="store")
                    if exp_span is not None:
                        exp_span.annotate(source="store")
                    await self._record_async(key, payload, campaign)
                    return payload
            task = self._inflight.get(key)
            if task is not None:
                self.stats["inflight_hits"] += 1
                _DEDUP_HITS.inc(level="inflight")
                if exp_span is not None:
                    exp_span.annotate(source="inflight")
                payload = await asyncio.shield(task)
                await self._record_async(key, payload, campaign)
                return payload
            # Every job deduping onto this key shares the task, and it
            # lazily starts the pump and sweeper: run it in an empty
            # context so no long-lived task keeps this job's span chain.
            task = contextvars.Context().run(
                asyncio.get_running_loop().create_task,
                self._compute(experiment, key, job_class, deadline, trace_id),
            )
            self._inflight[key] = task
            try:
                payload = await asyncio.shield(task)
            finally:
                self._inflight.pop(key, None)
            if exp_span is not None:
                exp_span.annotate(source="fleet")
                self._attach_lease_spans(exp_span, key, payload)
            await self._record_async(key, payload, campaign)
            return payload

    async def _compute(
        self,
        experiment: ExperimentJob,
        key: str,
        job_class: str = BATCH,
        deadline: Optional[float] = None,
        trace_id: Optional[str] = None,
    ) -> Dict[str, Any]:
        self.stats["computed"] += 1
        self.fleet.ensure_sweeper()
        self._ensure_pump()
        # The coordinator saves accepted OK payloads to the store before
        # resolving this future, so downstream _record sees a fresh file.
        return await self.fleet.submit(
            key,
            experiment.to_dict(),
            job_class=job_class,
            deadline=deadline,
            trace=(
                None
                if trace_id is None
                else {"trace_id": trace_id, "parent": key}
            ),
        )

    def _attach_lease_spans(
        self, exp_span: Span, key: str, payload: Dict[str, Any]
    ) -> None:
        """Rebuild queue/lease history as spans under the experiment.

        The coordinator's lease log recorded the queue's own monotonic
        clock at submit, each grant, and each attempt's terminal event;
        durations come from that single clock (never from wall-clock
        differences across processes), while ``start_s`` wall stamps
        only *place* the spans on the merged timeline.  The worker's
        serialized span tree — shipped back inside the payload —
        re-parents under the attempt that produced it, byte-stable.
        """
        log = self.fleet.take_lease_log(key)
        if log is None:
            return
        now_mono = time.monotonic()
        submitted_t = log.get("submitted_t")
        attempts = log.get("attempts") or []
        if submitted_t is not None:
            waited_until = (
                attempts[0]["granted_t"] if attempts else now_mono
            )
            queue_wait = Span("queue_wait", {"leased": bool(attempts)})
            queue_wait.start_s = log.get("submitted_wall")
            queue_wait.elapsed_s = max(0.0, waited_until - submitted_t)
            exp_span.children.append(queue_wait)
        worker_tree = payload.get("trace")
        worker_attempt = payload.get("attempt")
        for record in attempts:
            end_t = record["end_t"] if record["end_t"] is not None else now_mono
            lease_span = Span(
                "lease",
                {
                    "worker": record["worker"],
                    "token": record["token"],
                    "attempt": record["attempt"],
                    "outcome": record["outcome"] or "abandoned",
                },
            )
            lease_span.start_s = record["granted_wall"]
            lease_span.elapsed_s = max(0.0, end_t - record["granted_t"])
            exp_span.children.append(lease_span)
            if (
                isinstance(worker_tree, dict)
                and record["outcome"] == "completed"
                and (
                    worker_attempt is None
                    or worker_attempt == record["attempt"]
                )
            ):
                lease_span.children.append(Span.from_dict(worker_tree))

    async def _record_async(
        self,
        key: str,
        payload: Dict[str, Any],
        campaign: Optional[str],
    ) -> None:
        """Warehouse write-through, off the event loop.

        SQLite writes retry with backoff sleeps under contention (or an
        injected busy storm); running them on a worker thread keeps
        /healthz and every other handler responsive while they ride it
        out.
        """
        if self._warehouse is None or payload.get("status") != STATUS_OK:
            return
        with span("warehouse_record", key=key):
            await asyncio.get_running_loop().run_in_executor(
                None, self._record, key, payload, campaign
            )

    def _record_trace(self, job: ServiceJob) -> None:
        """Persist a settled job's trace tree (worker thread).

        Best-effort by design: the in-memory timeline already answered
        any live consumer, and a trace lost to a closing warehouse is
        not worth failing the job over.
        """
        if self._warehouse is None or job.trace is None:
            return
        try:
            self._warehouse.record_trace(
                trace_id=job.trace_id,
                job_id=job.id,
                kind=job.kind,
                created_at=job.created_at,
                tree=job.trace.to_dict(),
            )
        except Exception:
            _log.warning("trace record failed", extra={"job": job.id})

    def timeline(self, job_id: str) -> Optional[Dict[str, Any]]:
        """The live distributed trace of one job (by id or trace id)."""
        job = self._jobs.get(job_id)
        if job is None:
            for candidate in self._jobs.values():
                if candidate.trace_id == job_id:
                    job = candidate
                    break
        if job is None or job.trace is None:
            return None
        tree = job.trace.to_dict()
        if job.trace.elapsed_s == 0.0:
            # The root is still open: report its elapsed time so far.
            tree["elapsed_s"] = max(0.0, time.time() - job.trace.start_s)
        return {
            "job": job.id,
            "trace": job.trace_id,
            "kind": job.kind,
            "status": job.status,
            "tree": tree,
        }

    def _record(
        self,
        key: str,
        payload: Dict[str, Any],
        campaign: Optional[str],
    ) -> None:
        """Keep the warehouse in sync with a completed experiment."""
        if self._warehouse is None or payload.get("status") != STATUS_OK:
            return
        mtime = None
        if self._store is not None:
            try:
                mtime = self._store.path(key).stat().st_mtime
            except OSError:
                mtime = None
        self._warehouse.record_payload(
            dict(payload, key=key), campaign=campaign, source_mtime=mtime
        )

    async def _run_points(
        self,
        job: ServiceJob,
        kind: str,
        experiments: List[ExperimentJob],
        campaign: Optional[str] = None,
    ) -> Dict[str, Any]:
        """Fan a suite/campaign over its points, with progress events."""

        async def one_point(experiment: ExperimentJob):
            payload = await self._run_experiment(
                experiment,
                campaign=campaign,
                job_class=BATCH,
                deadline=job.deadline_at,
                trace_id=job.trace_id,
            )
            return experiment, payload

        points: List[Dict[str, Any]] = []
        done = 0
        failures = 0
        tasks = [
            asyncio.ensure_future(one_point(experiment))
            for experiment in experiments
        ]
        try:
            for future in asyncio.as_completed(tasks):
                experiment, payload = await future
                done += 1
                ok = payload.get("status") == STATUS_OK
                failures += 0 if ok else 1
                point = {
                    "key": experiment.key(),
                    "benchmark": experiment.benchmark,
                    "config": experiment.config_label(),
                    "status": payload.get("status"),
                    **(_evaluation_summary(payload) if ok else {}),
                }
                if not ok:
                    point["error"] = payload.get("error")
                points.append(point)
                job.publish(
                    "progress",
                    completed=done,
                    total=len(experiments),
                    point=point,
                )
        except BaseException:
            for task in tasks:
                task.cancel()
            raise
        points.sort(key=lambda point: (point["benchmark"], point["key"]))
        ok_points = [p for p in points if p["status"] == STATUS_OK]
        summary: Dict[str, Any] = {
            "points": len(points),
            "failed": failures,
        }
        for metric in ("ed2_ratio", "energy_ratio", "time_ratio"):
            values = [p[metric] for p in ok_points if metric in p]
            if values:
                summary[f"mean_{metric}"] = sum(values) / len(values)
        result: Dict[str, Any] = {
            "kind": kind,
            "summary": summary,
            "points": points,
        }
        if campaign is not None:
            result["campaign"] = campaign
        return result
