"""Run manifests: metrics + spans + config fingerprint for one run.

A :class:`RunRecorder` bundles the two telemetry sinks
(:class:`~repro.obs.metrics.MetricsRegistry`,
:class:`~repro.obs.tracing.Tracer`) with run identity — a fingerprinted
config (e.g. :class:`repro.core.inf2vec.Inf2vecConfig`), dataset
statistics, and free-form annotations — and serialises everything as a
single *run manifest* JSON.  The manifest is the artifact future
``BENCH_*.json`` entries cite: any perf claim can point at the manifest
of the run that produced it.

Opting in
---------
Telemetry is off by default (the ambient run is :data:`NULL_RUN`, whose
sinks are the shared null registry/tracer).  One way turns it on: wrap
any code in ``with recording(run):``, and every instrumented library
call inside the scope records into ``run``.  Instrumented entry points
look the ambient run up once (:func:`active_run` /
:func:`active_metrics`); nothing takes a recorder or registry argument.

``recording`` scopes nest (innermost wins) and are process-global, not
thread-local: one orchestrating scope is visible to worker threads,
which matches the registry's thread-safe increments.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import time
from contextlib import contextmanager
from pathlib import Path
from typing import Iterator, Mapping

from repro.ckpt.atomic import atomic_write_text
from repro.obs.metrics import MetricsRegistry, NULL_REGISTRY
from repro.obs.tracing import Tracer, NULL_TRACER

__all__ = [
    "RunRecorder",
    "NULL_RUN",
    "recording",
    "active_run",
    "active_metrics",
    "config_fingerprint",
    "MANIFEST_VERSION",
]

#: Schema version stamped into every manifest.
MANIFEST_VERSION = 1


def config_fingerprint(config: object) -> tuple[dict[str, object], str]:
    """``(payload, fingerprint)`` for any config-like object.

    Dataclasses are flattened with :func:`dataclasses.asdict` (nested
    configs included), mappings are copied, anything else falls back to
    its ``repr``.  The fingerprint is the first 16 hex chars of the
    SHA-256 of the canonical (sorted-key) JSON — stable across key
    order and processes, so equal configs always share a fingerprint.
    """
    if dataclasses.is_dataclass(config) and not isinstance(config, type):
        payload: dict[str, object] = dataclasses.asdict(config)
    elif isinstance(config, Mapping):
        payload = dict(config)
    else:
        payload = {"repr": repr(config)}
    canonical = json.dumps(payload, sort_keys=True, default=str)
    digest = hashlib.sha256(canonical.encode("utf-8")).hexdigest()[:16]
    return payload, digest


class RunRecorder:
    """Live telemetry sinks plus identity for one run.

    Parameters
    ----------
    name:
        Label stamped into the manifest (e.g. ``"inf2vec.fit"``).
    """

    enabled = True

    def __init__(self, name: str = "run"):
        self.name = name
        self.metrics = MetricsRegistry()
        self.tracer = Tracer()
        # Manifest creation is stamped with absolute epoch time so runs
        # can be ordered across machines; no duration is derived from it.
        self.created_unix = time.time()  # lint: disable=no-wallclock-timing
        self._config_payload: dict[str, object] | None = None
        self._fingerprint: str | None = None
        self._dataset: dict[str, object] = {}
        self._annotations: dict[str, object] = {}

    # ------------------------------------------------------------------
    # Recording surface
    # ------------------------------------------------------------------

    def span(self, name: str, **attributes: object):
        """Shorthand for ``self.tracer.span(...)``."""
        return self.tracer.span(name, **attributes)

    def set_config(self, config: object) -> None:
        """Fingerprint and attach the run's config (last call wins)."""
        self._config_payload, self._fingerprint = config_fingerprint(config)

    def set_dataset(self, **stats: object) -> None:
        """Merge dataset statistics (num_users, num_episodes, ...)."""
        self._dataset.update(stats)

    def annotate(self, **fields: object) -> None:
        """Merge free-form annotations (seed, git rev, host, ...)."""
        self._annotations.update(fields)

    # ------------------------------------------------------------------
    # Export
    # ------------------------------------------------------------------

    def manifest(self) -> dict[str, object]:
        """The JSON-ready run manifest combining all recorded state."""
        return {
            "manifest_version": MANIFEST_VERSION,
            "name": self.name,
            "created_unix": self.created_unix,
            "config": {
                "values": self._config_payload,
                "fingerprint": self._fingerprint,
            },
            "dataset": dict(self._dataset),
            "annotations": dict(self._annotations),
            "metrics": self.metrics.snapshot(),
            "spans": self.tracer.to_dicts(),
        }

    def write(self, path: str | Path) -> Path:
        """Atomically serialise :meth:`manifest` to ``path`` and return it.

        A killed run can therefore never leave a half-written manifest
        that poisons later tooling: either the previous complete file
        survives or the new complete one is installed.
        """
        return atomic_write_text(
            path, json.dumps(self.manifest(), indent=2, default=str) + "\n"
        )

    def write_trace(self, path: str | Path) -> Path:
        """Write the span forest as JSONL (see ``Tracer.write_jsonl``)."""
        return self.tracer.write_jsonl(path)

    @staticmethod
    def load_manifest(path: str | Path) -> dict[str, object]:
        """Load a manifest written by :meth:`write`."""
        return json.loads(Path(path).read_text())

    def __repr__(self) -> str:
        return f"RunRecorder(name={self.name!r}, metrics={len(self.metrics.names())})"


class _NullRunRecorder:
    """The disabled recorder: null sinks, every mutation a no-op."""

    enabled = False
    name = "null"
    metrics = NULL_REGISTRY
    tracer = NULL_TRACER

    def span(self, name: str, **attributes: object):
        return NULL_TRACER.span(name, **attributes)

    def set_config(self, config: object) -> None:
        pass

    def set_dataset(self, **stats: object) -> None:
        pass

    def annotate(self, **fields: object) -> None:
        pass

    def manifest(self) -> dict[str, object]:
        return {}

    def __repr__(self) -> str:
        return "NullRunRecorder()"


#: Shared disabled recorder — the ambient default.
NULL_RUN = _NullRunRecorder()

#: Stack of active recorders; the innermost ``recording`` scope wins.
_ACTIVE: list[RunRecorder] = []


@contextmanager
def recording(run: RunRecorder) -> Iterator[RunRecorder]:
    """Make ``run`` the ambient recorder for the duration of the scope.

    ``recording(NULL_RUN)`` turns recording off inside an outer scope.
    """
    _ACTIVE.append(run)
    try:
        yield run
    finally:
        _ACTIVE.pop()


def active_run() -> RunRecorder:
    """The innermost active recorder, or :data:`NULL_RUN` when none is."""
    return _ACTIVE[-1] if _ACTIVE else NULL_RUN  # type: ignore[return-value]


def active_metrics() -> MetricsRegistry:
    """The active recorder's registry (null registry when disabled)."""
    return active_run().metrics

