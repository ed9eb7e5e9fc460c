"""Nestable span tracing for training-stage latency attribution.

``Tracer.span("train.epoch")`` opens a timed span; spans opened inside
its ``with`` block become children, so a run produces a tree such as::

    fit
    ├── contexts
    └── epoch (x N)
        └── sgd

Each span records wall-clock start, monotonic duration, free-form
attributes, and an ``ok``/``error`` status (exceptions propagate but
are stamped on the span first).  The tree exports as JSONL (one line
per span, depth-first, with a ``path`` breadcrumb) and renders as an
ASCII flame summary through :func:`repro.viz.ascii.span_flame_text`.

The disabled counterpart, :data:`NULL_TRACER`, hands out one shared
no-op span so instrumented code pays a single attribute read when
tracing is off — the same zero-overhead contract as
:data:`repro.obs.metrics.NULL_REGISTRY`.

Span *stacks* are thread-local: spans opened by worker threads nest
among themselves and attach to the tracer's root list, never to
another thread's open span.
"""

from __future__ import annotations

import json
import threading
import time
from pathlib import Path
from typing import Iterator

from contextlib import contextmanager

from repro.ckpt.atomic import atomic_write_text

__all__ = ["Tracer", "NULL_TRACER"]


class Span:
    """One timed, attributed node of the span tree."""

    __slots__ = (
        "name",
        "attributes",
        "start_unix",
        "status",
        "error",
        "children",
        "_start",
        "_end",
    )

    def __init__(self, name: str, attributes: dict[str, object]):
        self.name = name
        self.attributes = attributes
        # Absolute epoch time is the point here — spans are correlated
        # with external logs by wall clock, not measured by it (the
        # duration below uses perf_counter).
        self.start_unix = time.time()  # lint: disable=no-wallclock-timing
        self.status = "ok"
        self.error: str | None = None
        self.children: list["Span"] = []
        self._start = time.perf_counter()
        self._end: float | None = None

    @property
    def duration(self) -> float:
        """Seconds between enter and exit (in-flight spans read 'so far')."""
        end = self._end if self._end is not None else time.perf_counter()
        return end - self._start

    @property
    def finished(self) -> bool:
        """Whether the span's ``with`` block has exited."""
        return self._end is not None

    def set_attribute(self, key: str, value: object) -> None:
        """Attach/overwrite one attribute on the span."""
        self.attributes[key] = value

    def to_dict(self) -> dict[str, object]:
        """JSON-ready nested representation (children inlined)."""
        return {
            "name": self.name,
            "start_unix": self.start_unix,
            "duration_s": self.duration,
            "status": self.status,
            "error": self.error,
            "attributes": dict(self.attributes),
            "children": [child.to_dict() for child in self.children],
        }

    def __repr__(self) -> str:
        return (
            f"Span({self.name!r}, {self.duration:.4f}s, "
            f"{len(self.children)} children, {self.status})"
        )


class Tracer:
    """Collects a forest of nested spans."""

    enabled = True

    def __init__(self) -> None:
        self._roots: list[Span] = []
        self._lock = threading.Lock()
        self._local = threading.local()

    def _stack(self) -> list[Span]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    @contextmanager
    def span(self, name: str, **attributes: object) -> Iterator[Span]:
        """Open a child span of the innermost open span (or a new root).

        The span is yielded so callers can attach attributes computed
        inside the block.  An exception exits the span with
        ``status="error"`` and the exception stamped on it, then
        propagates unchanged.
        """
        current = Span(name, dict(attributes))
        stack = self._stack()
        if stack:
            stack[-1].children.append(current)
        else:
            with self._lock:
                self._roots.append(current)
        stack.append(current)
        try:
            yield current
        except BaseException as exc:
            current.status = "error"
            current.error = f"{type(exc).__name__}: {exc}"
            raise
        finally:
            current._end = time.perf_counter()
            stack.pop()

    @property
    def roots(self) -> list[Span]:
        """Top-level spans in creation order."""
        with self._lock:
            return list(self._roots)

    def iter_spans(self) -> Iterator[Span]:
        """Depth-first iteration over every span in the forest."""
        pending = self.roots[::-1]
        while pending:
            span = pending.pop()
            yield span
            pending.extend(span.children[::-1])

    def find(self, name: str) -> Span | None:
        """First span (depth-first) with the given name, or ``None``."""
        for span in self.iter_spans():
            if span.name == name:
                return span
        return None

    def to_dicts(self) -> list[dict[str, object]]:
        """The whole forest as nested JSON-ready dicts."""
        return [root.to_dict() for root in self.roots]

    def write_jsonl(self, path: str | Path) -> Path:
        """Write one JSON object per span, depth-first with a path breadcrumb.

        Each line carries ``name``, the ``/``-joined ancestor ``path``,
        ``depth``, timing, status, and attributes — a flat file any log
        pipeline can ingest without understanding the nesting.  The
        file is written atomically, so an interrupted export never
        leaves a torn JSONL behind.
        """
        path = Path(path)
        lines = []
        stack: list[tuple[Span, tuple[str, ...]]] = [
            (root, ()) for root in self.roots[::-1]
        ]
        while stack:
            span, ancestors = stack.pop()
            breadcrumb = ancestors + (span.name,)
            lines.append(
                json.dumps(
                    {
                        "name": span.name,
                        "path": "/".join(breadcrumb),
                        "depth": len(ancestors),
                        "start_unix": span.start_unix,
                        "duration_s": span.duration,
                        "status": span.status,
                        "error": span.error,
                        "attributes": dict(span.attributes),
                    },
                    sort_keys=True,
                    default=str,
                )
            )
            stack.extend((child, breadcrumb) for child in span.children[::-1])
        return atomic_write_text(
            path, "\n".join(lines) + ("\n" if lines else "")
        )

    def flame_text(self, width: int = 72) -> str:
        """ASCII flame summary of the forest (via :mod:`repro.viz.ascii`)."""
        from repro.viz.ascii import span_flame_text

        return span_flame_text(self.to_dicts(), width=width)

    def reset(self) -> None:
        """Drop every recorded span (open spans keep nesting correctly)."""
        with self._lock:
            self._roots.clear()


class _NullSpan:
    """Shared no-op span: context manager + attribute sink."""

    __slots__ = ()
    name = "null"
    status = "ok"
    children: list = []
    attributes: dict = {}

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, *exc_info: object) -> bool:
        return False

    def set_attribute(self, key: str, value: object) -> None:
        pass

    @property
    def duration(self) -> float:
        return 0.0


_NULL_SPAN = _NullSpan()


class NullTracer:
    """The disabled tracer: every span() is the same no-op span."""

    enabled = False

    def span(self, name: str, **attributes: object) -> _NullSpan:
        return _NULL_SPAN

    @property
    def roots(self) -> list[Span]:
        return []

    def iter_spans(self) -> Iterator[Span]:
        return iter(())

    def find(self, name: str) -> Span | None:
        return None

    def to_dicts(self) -> list[dict[str, object]]:
        return []

    def reset(self) -> None:
        pass


#: Shared disabled tracer — the default everywhere.
NULL_TRACER = NullTracer()
