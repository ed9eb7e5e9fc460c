"""repro.obs — live telemetry: metrics, tracing, exposition, gating.

All opt-in and zero-overhead when off:

* :mod:`repro.obs.metrics` — labelled counters/gauges/fixed-bucket
  histograms behind a thread-safe :class:`MetricsRegistry` (the shared
  :data:`NULL_REGISTRY` is the disabled default); latency percentiles
  are read from histogram buckets;
* :mod:`repro.obs.tracing` — nestable ``span()`` context managers
  producing an exportable span tree (:data:`NULL_TRACER` when off);
* :mod:`repro.obs.export` — Prometheus-text exposition rendering, the
  :class:`PeriodicExporter` snapshot thread, and flush-on-exit hooks;
* :mod:`repro.obs.run` — :class:`RunRecorder` combining metrics and
  tracing with a config fingerprint into a run-manifest JSON, plus the
  ambient ``with recording(run):`` scope, the one way to turn
  telemetry on;
* :mod:`repro.obs.regress` — the perf-regression gate over persisted
  ``BENCH_*.json`` reports (``python -m repro.obs.regress``).

Quickstart::

    from repro.obs import RunRecorder, recording

    run = RunRecorder(name="my-experiment")
    with recording(run):
        model.fit(graph, log)          # instrumented paths record into run
    run.write("run_manifest.json")
    print(run.tracer.flame_text())
"""

from repro.obs.export import (
    PeriodicExporter,
    on_process_exit,
    render_prometheus,
)
from repro.obs.metrics import MetricsRegistry, NULL_REGISTRY, TelemetryError
from repro.obs.run import (
    NULL_RUN,
    RunRecorder,
    active_metrics,
    active_run,
    config_fingerprint,
    recording,
)
from repro.obs.tracing import NULL_TRACER, Tracer

__all__ = [
    "MetricsRegistry",
    "NULL_REGISTRY",
    "TelemetryError",
    "Tracer",
    "NULL_TRACER",
    "PeriodicExporter",
    "on_process_exit",
    "render_prometheus",
    "RunRecorder",
    "NULL_RUN",
    "recording",
    "active_run",
    "active_metrics",
    "config_fingerprint",
]
