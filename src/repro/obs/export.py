"""Live telemetry exposition: Prometheus text rendering + periodic export.

PR 2's ``repro.obs`` only materialised metrics at process exit — a
running ``repro serve`` was a black box, and a killed one lost its
telemetry entirely.  This module is the live half:

* :func:`render_prometheus` turns a
  :meth:`~repro.obs.metrics.MetricsRegistry.snapshot` into the
  Prometheus text exposition format (version 0.0.4) — counters,
  gauges and cumulative-bucket histograms — so any scrape-based
  pipeline (or plain ``watch cat``) can read it;
* :class:`PeriodicExporter` is a background daemon thread that
  atomically rewrites an exposition snapshot (plus the run manifest
  and span trace) every ``every`` seconds via
  :func:`repro.ckpt.atomic.atomic_output`, so readers never observe a
  torn file and a crash leaves the last complete snapshot behind;
* :func:`on_process_exit` registers flush callbacks with ``atexit``
  *and* a chaining SIGTERM handler, which is what makes the CLI's
  ``--telemetry-dir`` survive a polite kill: the handler flushes every
  registered callback, then re-delivers the signal so the exit status
  still reports the termination.

All writes go through the atomic primitive; the exporter thread is a
daemon so it can never block interpreter shutdown.
"""

from __future__ import annotations

import atexit
import itertools
import os
import re
import signal
import threading
from pathlib import Path
from typing import Callable, Mapping, Union

from repro.ckpt.atomic import atomic_write_text
from repro.utils.logging import get_logger

__all__ = [
    "EXPOSITION_FILENAME",
    "PeriodicExporter",
    "on_process_exit",
    "prometheus_name",
    "render_prometheus",
]

PathLike = Union[str, Path]

logger = get_logger(__name__)

#: Exposition snapshot filename inside a telemetry directory.
EXPOSITION_FILENAME = "metrics.prom"
#: Run-manifest filename inside a telemetry directory.
MANIFEST_FILENAME = "manifest.json"
#: Span-trace filename inside a telemetry directory.
TRACE_FILENAME = "trace.jsonl"

_NAME_SANITIZER = re.compile(r"[^a-zA-Z0-9_:]")
_LABEL_SANITIZER = re.compile(r"[^a-zA-Z0-9_]")


def prometheus_name(name: str) -> str:
    """Sanitise an instrument name into a legal Prometheus metric name.

    Dots (the registry's namespacing convention) and any other illegal
    characters become underscores; a leading digit gains an underscore
    prefix.
    """
    sanitised = _NAME_SANITIZER.sub("_", name)
    if sanitised and sanitised[0].isdigit():
        sanitised = "_" + sanitised
    return sanitised


def _escape_label_value(value: str) -> str:
    """Backslash-escape a label value per the exposition format."""
    return value.replace("\\", "\\\\").replace('"', '\\"').replace("\n", "\\n")


def _parse_labels(key: str) -> list[tuple[str, str]]:
    """Parse the registry's ``"k1=v1,k2=v2"`` sample key into pairs.

    Registry label *names* are Python keyword identifiers so commas and
    ``=`` inside them cannot occur; values are split on the first ``=``
    of each comma-separated chunk.
    """
    if not key:
        return []
    pairs = []
    for chunk in key.split(","):
        name, _, value = chunk.partition("=")
        pairs.append((_LABEL_SANITIZER.sub("_", name), value))
    return pairs


def _format_labels(pairs: list[tuple[str, str]]) -> str:
    if not pairs:
        return ""
    body = ",".join(
        f'{name}="{_escape_label_value(value)}"' for name, value in pairs
    )
    return "{" + body + "}"


def _format_value(value: object) -> str:
    number = float(value)  # type: ignore[arg-type]
    if number != number:  # NaN
        return "NaN"
    if number in (float("inf"), float("-inf")):
        return "+Inf" if number > 0 else "-Inf"
    return repr(number)


def _render_scalar(lines, name, samples) -> None:
    for key, value in sorted(samples.items()):
        labels = _format_labels(_parse_labels(key))
        lines.append(f"{name}{labels} {_format_value(value)}")


def _render_histogram(lines, name, samples) -> None:
    for key, sample in sorted(samples.items()):
        pairs = _parse_labels(key)
        cumulative = 0
        for edge, count in zip(sample["buckets"], sample["counts"]):
            cumulative += int(count)
            bucket_labels = _format_labels(
                pairs + [("le", _format_value(edge))]
            )
            lines.append(f"{name}_bucket{bucket_labels} {cumulative}")
        inf_labels = _format_labels(pairs + [("le", "+Inf")])
        lines.append(f"{name}_bucket{inf_labels} {int(sample['count'])}")
        base = _format_labels(pairs)
        lines.append(f"{name}_sum{base} {_format_value(sample['sum'])}")
        lines.append(f"{name}_count{base} {int(sample['count'])}")


def render_prometheus(snapshot: Mapping[str, Mapping[str, object]]) -> str:
    """Render a registry snapshot as Prometheus text exposition format.

    ``snapshot`` is the return value of
    :meth:`repro.obs.metrics.MetricsRegistry.snapshot`.  Instruments
    render in sorted name order with ``# HELP`` / ``# TYPE`` headers;
    histograms emit cumulative ``_bucket{le=...}`` series plus
    ``_sum``/``_count``.
    """
    lines: list[str] = []
    for raw_name, instrument in sorted(snapshot.items()):
        kind = instrument.get("type", "gauge")
        samples = instrument.get("samples", {})
        name = prometheus_name(raw_name)
        description = str(instrument.get("description") or raw_name)
        prom_type = {
            "counter": "counter",
            "gauge": "gauge",
            "histogram": "histogram",
        }.get(kind, "untyped")
        lines.append(f"# HELP {name} {description}")
        lines.append(f"# TYPE {name} {prom_type}")
        if kind == "histogram":
            _render_histogram(lines, name, samples)
        else:
            _render_scalar(lines, name, samples)
    return "\n".join(lines) + ("\n" if lines else "")


# ----------------------------------------------------------------------
# Flush-on-exit plumbing (atexit + chaining SIGTERM handler)
# ----------------------------------------------------------------------

_EXIT_LOCK = threading.Lock()
_EXIT_CALLBACKS: dict[int, Callable[[], None]] = {}
_EXIT_TOKENS = itertools.count()
_PREVIOUS_HANDLERS: dict[int, object] = {}
_ATEXIT_INSTALLED = False


def _run_exit_callbacks() -> None:
    """Run every registered flush callback; failures must not mask exit."""
    with _EXIT_LOCK:
        callbacks = list(_EXIT_CALLBACKS.values())
    for callback in callbacks:
        try:
            callback()
        except Exception:
            logger.exception("telemetry flush callback failed at exit")


def _signal_handler(signum: int, frame: object) -> None:
    _run_exit_callbacks()
    previous = _PREVIOUS_HANDLERS.get(signum)
    if callable(previous):
        previous(signum, frame)
        return
    # Restore the default disposition and re-deliver so the process
    # still dies "by signal N" — parents/tests see the honest status.
    signal.signal(signum, signal.SIG_DFL)
    os.kill(os.getpid(), signum)


def on_process_exit(
    callback: Callable[[], None],
    signals: tuple[int, ...] = (signal.SIGTERM,),
) -> Callable[[], None]:
    """Run ``callback`` at interpreter exit and on the given signals.

    Returns an *unregister* callable: invoke it after a normal
    completion so the callback does not fire again at interpreter
    shutdown.  The signal handler chains to any previously installed
    Python handler, or re-delivers the signal with the default
    disposition after flushing, so exit statuses stay truthful.
    Signal installation is skipped silently off the main thread (the
    atexit half still applies).
    """
    global _ATEXIT_INSTALLED
    with _EXIT_LOCK:
        token = next(_EXIT_TOKENS)
        _EXIT_CALLBACKS[token] = callback
        if not _ATEXIT_INSTALLED:
            atexit.register(_run_exit_callbacks)
            _ATEXIT_INSTALLED = True
    for signum in signals:
        if signum in _PREVIOUS_HANDLERS:
            continue
        try:
            previous = signal.signal(signum, _signal_handler)
        except ValueError:  # not the main thread
            continue
        if previous is not _signal_handler:
            _PREVIOUS_HANDLERS[signum] = previous

    def unregister() -> None:
        with _EXIT_LOCK:
            _EXIT_CALLBACKS.pop(token, None)

    return unregister


class PeriodicExporter:
    """Background thread atomically exporting live telemetry snapshots.

    Every ``every`` seconds (and once at :meth:`start`, once at
    :meth:`stop`) the run's registry snapshot is rendered to Prometheus
    text and written — together with the run manifest JSON and the span
    trace JSONL — into ``directory``, each file through the atomic
    temp+fsync+replace primitive.  ``install_exit_hooks`` (default on)
    additionally registers :meth:`flush` with :func:`on_process_exit`,
    so SIGTERM and interpreter exit leave a complete final snapshot.

    Parameters
    ----------
    run:
        The :class:`~repro.obs.run.RunRecorder` whose sinks to export.
    directory:
        Target directory (created on first flush).
    every:
        Export cadence in seconds.
    """

    def __init__(
        self,
        run,
        directory: PathLike,
        every: float = 5.0,
    ):
        if every <= 0:
            raise ValueError(f"export cadence must be positive, got {every}")
        self.run = run
        self.directory = Path(directory)
        self.every = float(every)
        self.exposition_path = self.directory / EXPOSITION_FILENAME
        self.manifest_path = self.directory / MANIFEST_FILENAME
        self.trace_path = self.directory / TRACE_FILENAME
        self._stop_event = threading.Event()
        # Reentrant: a signal handler flushing on the thread that is
        # already mid-flush must not deadlock against itself.
        self._flush_lock = threading.RLock()
        self._thread: threading.Thread | None = None
        self._unregister: Callable[[], None] | None = None
        self.flush_count = 0

    def flush(self) -> Path:
        """Atomically rewrite the exposition, manifest, and trace files."""
        with self._flush_lock:
            text = render_prometheus(self.run.metrics.snapshot())
            atomic_write_text(self.exposition_path, text)
            self.run.write(self.manifest_path)
            self.run.write_trace(self.trace_path)
            self.flush_count += 1
        return self.exposition_path

    def _loop(self) -> None:
        while not self._stop_event.wait(self.every):
            try:
                self.flush()
            except Exception:
                # A full disk must not kill the exporter for the life of
                # the process; the next cadence retries.
                logger.exception("periodic telemetry export failed")

    def start(self, install_exit_hooks: bool = True) -> "PeriodicExporter":
        """Write an initial snapshot and begin the export thread."""
        if self._thread is not None:
            return self
        # Hooks first, then the initial flush: once the snapshot file is
        # observable on disk, a SIGTERM is already guaranteed to flush.
        if install_exit_hooks:
            self._unregister = on_process_exit(self.flush)
        self.flush()
        self._thread = threading.Thread(
            target=self._loop, name="repro-telemetry-exporter", daemon=True
        )
        self._thread.start()
        return self

    def stop(self) -> None:
        """Stop the export thread and write one final snapshot."""
        self._stop_event.set()
        if self._thread is not None:
            self._thread.join(timeout=10.0)
            self._thread = None
        if self._unregister is not None:
            self._unregister()
            self._unregister = None
        self.flush()

    def __enter__(self) -> "PeriodicExporter":
        return self.start()

    def __exit__(self, *exc_info: object) -> None:
        self.stop()

    def __repr__(self) -> str:
        running = self._thread is not None
        return (
            f"PeriodicExporter(directory={str(self.directory)!r}, "
            f"every={self.every}, running={running})"
        )
