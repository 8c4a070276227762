"""Nesting-aware timing of calls into each layer's public functions.

The traced run patches the entry points below with wrappers that time
each call with ``perf_counter`` deltas.  A per-thread stack of open
calls makes self time well defined: a call's self time is its duration
minus the time covered by the wrapped calls it made.  Nothing inside
the program changes; :meth:`Tracer.uninstall` restores every original.
"""

from __future__ import annotations

import importlib
import threading
import time
from collections import defaultdict
from typing import Any, Callable, Dict, List, Tuple, Union

#: A metric name, or a callable that receives the call's arguments and
#: returns the metric name.
Name = Union[str, Callable[..., str]]


def _stage_name(stage, *args, **kwargs) -> str:
    return f"pipeline.stage.{stage.name}"


def _cache_name(operation: str) -> Callable[..., str]:
    def name(cache, *args, **kwargs) -> str:
        from repro.pipeline.cache import LOOP_CACHE

        tier = "loop_cache" if cache is LOOP_CACHE else "stage_cache"
        return f"pipeline.{tier}.{operation}"

    return name


#: Spans that enclose the layers rather than belong to one.  Their self
#: time is what the named layers miss, so it is reported on its own and
#: never counted as attributed.
CATCH_ALL = "pipeline.stage."


#: (module, attribute path, metric name) of every wrapped entry point.
ENTRY_POINTS: Tuple[Tuple[str, str, Name], ...] = (
    ("repro.scheduler.heterogeneous", "HeterogeneousModuloScheduler.schedule", "scheduler.schedule"),
    ("repro.scheduler.heterogeneous", "build_partition", "scheduler.partition"),
    ("repro.scheduler.partition.driver", "coarsen", "scheduler.partition.coarsen"),
    ("repro.scheduler.partition.driver", "refine", "scheduler.partition.refine"),
    ("repro.scheduler.partition.refine", "partition_cost", "scheduler.pseudo.partition_cost"),
    ("repro.scheduler.kernel", "KernelScheduler.run", "scheduler.kernel.run"),
    ("repro.scheduler.schedule", "Schedule.validate", "scheduler.validate"),
    ("repro.sim.executor", "LoopExecutor.run", "sim.run"),
    ("repro.power.time_model", "TimeModel.loop_estimate", "power.time_model"),
    ("repro.pipeline.stages", "calibrate", "power.calibrate"),
    ("repro.vfs.selector", "ConfigurationSelector.select", "vfs.select"),
    ("repro.pipeline.stages", "optimum_homogeneous", "vfs.optimum_homogeneous"),
    ("repro.pipeline.stages", "Stage.run", _stage_name),
    ("repro.pipeline.profiling", "profile_loop", "pipeline.profile_loop"),
    ("repro.pipeline.stages", "measure_homogeneous", "pipeline.measure_homogeneous"),
    ("repro.pipeline.stages", "ScheduleSummary.from_schedule", "pipeline.schedule_summary"),
    ("repro.pipeline.cache", "StageCache.lookup", _cache_name("lookup")),
    ("repro.pipeline.cache", "StageCache.store", _cache_name("store")),
    ("repro.pipeline.stages", "stage_key", "pipeline.cache_key"),
    ("repro.ir.loop", "Loop.fingerprint", "pipeline.cache_key"),
    ("repro.pipeline.serialization", "canonical_json", "pipeline.serialization"),
    ("repro.pipeline.serialization", "schedule_from_dict", "pipeline.serialization"),
    ("repro.pipeline.serialization", "evaluation_to_dict", "pipeline.serialization"),
    ("repro.pipeline.serialization", "loop_profile_to_dict", "pipeline.serialization"),
    ("repro.campaign.job", "canonical_json", "pipeline.serialization"),
    ("repro.workloads.corpus", "build_corpus", "workloads.build_corpus"),
    ("repro.campaign.store", "ResultStore.save", "campaign.store"),
    ("repro.campaign.store", "ResultStore.get", "campaign.store"),
    ("repro.warehouse.db", "Warehouse.record_payload", "warehouse.record"),
)


class Tracer:
    """Accumulates calls, total time and self time per metric name."""

    def __init__(self) -> None:
        self._local = threading.local()
        self._lock = threading.Lock()
        self.calls: Dict[str, int] = defaultdict(int)
        self.total_s: Dict[str, float] = defaultdict(float)
        self.self_s: Dict[str, float] = defaultdict(float)
        self.counts: Dict[str, int] = defaultdict(int)
        self._installed: List[Tuple[Any, str, Any]] = []

    # ------------------------------------------------------------------
    def _stack(self) -> List[List[float]]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _record(self, name: str, elapsed: float, child: float) -> None:
        with self._lock:
            self.calls[name] += 1
            self.total_s[name] += elapsed
            self.self_s[name] += elapsed - child

    def count(self, name: str, amount: int = 1) -> None:
        with self._lock:
            self.counts[name] += amount

    def wrap(self, function: Callable, name: Name) -> Callable:
        tracer = self

        def traced(*args, **kwargs):
            metric = name if isinstance(name, str) else name(*args, **kwargs)
            stack = tracer._stack()
            frame = [0.0]
            stack.append(frame)
            started = time.perf_counter()
            try:
                result = function(*args, **kwargs)
            except Exception as error:
                tracer._on_error(metric, error)
                raise
            finally:
                elapsed = time.perf_counter() - started
                stack.pop()
                if stack:
                    stack[-1][0] += elapsed
                tracer._record(metric, elapsed, frame[0])
            tracer._on_result(metric, result)
            return result

        traced.__wrapped__ = function
        return traced

    def _on_error(self, metric: str, error: Exception) -> None:
        if metric == "scheduler.kernel.run":
            self.count("scheduler.kernel.failures")

    def _on_result(self, metric: str, result: Any) -> None:
        if metric == "sim.run":
            self.count("sim.events", result.events_processed)

    # ------------------------------------------------------------------
    def install(self) -> "Tracer":
        for module_name, path, name in ENTRY_POINTS:
            owner: Any = importlib.import_module(module_name)
            *parents, attr = path.split(".")
            for parent in parents:
                owner = getattr(owner, parent)
            original = owner.__dict__[attr]
            if isinstance(original, classmethod):
                setattr(owner, attr, classmethod(self.wrap(original.__func__, name)))
            else:
                setattr(owner, attr, self.wrap(original, name))
            self._installed.append((owner, attr, original))
        return self

    def uninstall(self) -> None:
        while self._installed:
            owner, attr, original = self._installed.pop()
            setattr(owner, attr, original)

    def __enter__(self) -> "Tracer":
        return self.install()

    def __exit__(self, *exc_info) -> None:
        self.uninstall()

    # ------------------------------------------------------------------
    def attributed_s(self) -> float:
        """Wall time spent in named layers: the self times of every
        wrapped call except the catch-all stage spans."""
        return sum(
            seconds for span, seconds in self.self_s.items() if not span.startswith(CATCH_ALL)
        )

    def metrics(self) -> Dict[str, float]:
        """The per-layer metrics of every wrapped layer that was called.

        A layer whose entry point never ran in this process is left out,
        so the report can list it as not measured rather than as 0.
        """
        metrics: Dict[str, float] = {}
        for span in self.calls:
            if span.startswith(CATCH_ALL):
                metrics[f"{span}.s"] = self.total_s[span]
            else:
                metrics[f"{span}.self_s"] = self.self_s[span]
        stages = [span for span in self.calls if span.startswith(CATCH_ALL)]
        if stages:
            metrics["pipeline.stage.self_s"] = sum(self.self_s[span] for span in stages)
        for span in ("scheduler.schedule", "scheduler.pseudo.partition_cost",
                     "power.time_model", "sim.run"):
            if span in self.calls:
                metrics[f"{span}.calls"] = self.calls[span]
        schedules = self.calls.get("scheduler.schedule")
        if schedules:
            partitions = self.calls.get("scheduler.partition", 0)
            metrics["scheduler.attempts_per_loop"] = partitions / schedules
        if "scheduler.kernel.run" in self.calls:
            metrics["scheduler.kernel.failures"] = self.counts["scheduler.kernel.failures"]
        events = self.counts.get("sim.events")
        if events:
            metrics["sim.events"] = events
            metrics["sim.ns_per_event"] = self.self_s["sim.run"] / events * 1e9
        return metrics
