"""Cross-cutting telemetry: tracing, metrics, logging, flight recorder.

Four independent layers, all stdlib-only:

* :mod:`repro.telemetry.trace` — timed span trees, opt-in per process
  (``with span("schedule_loop", loop=name): ...``) or always live
  under a :func:`root_span` (the service's per-job roots), serialized
  across the worker-process boundary, rendered by ``repro trace``;
* :mod:`repro.telemetry.metrics` — always-on counters/gauges/histograms
  in a process-wide registry, served as Prometheus text on the
  service's ``GET /metrics``;
* :mod:`repro.telemetry.logs` — opt-in per-subsystem loggers configured
  by the CLI's ``-v``/``-q`` flags and ``REPRO_LOG=json|text``;
* :mod:`repro.telemetry.recorder` — an always-on bounded ring of
  structured debug events (lease transitions, chaos injections,
  admission rejections...), correlated by trace id and served on the
  service's ``GET /v1/debug/events`` for post-hoc debugging.

See ``docs/observability.md`` for naming conventions and walkthroughs.
"""

from repro.telemetry.logs import (
    LOG_ENV,
    JsonFormatter,
    TextFormatter,
    configure_logging,
    get_logger,
    level_for,
)
from repro.telemetry.metrics import (
    DEFAULT_BUCKETS,
    REGISTRY,
    Counter,
    Gauge,
    Histogram,
    HistogramData,
    MetricsError,
    MetricsRegistry,
    counter,
    gauge,
    histogram,
    render_prometheus,
)
from repro.telemetry.recorder import (
    CAPACITY_ENV,
    DEFAULT_CAPACITY,
    FlightRecorder,
    configure_flight_recorder,
    flight_recorder,
    record_event,
)
from repro.telemetry.trace import (
    TRACE_ENV,
    Span,
    attribution,
    disable_tracing,
    enable_tracing,
    env_tracing_requested,
    merge_summaries,
    root_span,
    span,
    span_count,
    summarize_trace,
    tracing_enabled,
)

__all__ = [
    "LOG_ENV",
    "TRACE_ENV",
    "CAPACITY_ENV",
    "DEFAULT_BUCKETS",
    "DEFAULT_CAPACITY",
    "FlightRecorder",
    "configure_flight_recorder",
    "flight_recorder",
    "record_event",
    "REGISTRY",
    "Counter",
    "Gauge",
    "Histogram",
    "HistogramData",
    "JsonFormatter",
    "MetricsError",
    "MetricsRegistry",
    "Span",
    "TextFormatter",
    "attribution",
    "configure_logging",
    "counter",
    "disable_tracing",
    "enable_tracing",
    "env_tracing_requested",
    "gauge",
    "get_logger",
    "histogram",
    "level_for",
    "merge_summaries",
    "render_prometheus",
    "root_span",
    "span",
    "span_count",
    "summarize_trace",
    "tracing_enabled",
]
