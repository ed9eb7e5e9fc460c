"""Logging configuration for the library.

The library only ever attaches a :class:`logging.NullHandler` at import
time (standard library etiquette); applications opt into console output
via :func:`configure_logging`, or for one scope via
:func:`log_to_stderr`, which the command line uses.
"""

from __future__ import annotations

import logging
import sys
from contextlib import contextmanager
from typing import Iterator

PACKAGE_LOGGER_NAME = "repro"

_FORMAT = "%(asctime)s %(levelname)-7s %(name)s: %(message)s"
_DATE_FORMAT = "%H:%M:%S"


def get_logger(name: str) -> logging.Logger:
    """Return a logger namespaced under the package logger.

    ``get_logger("core.inf2vec")`` yields the ``repro.core.inf2vec``
    logger, so one call to :func:`configure_logging` controls the whole
    library.
    """
    if name.startswith(PACKAGE_LOGGER_NAME):
        return logging.getLogger(name)
    return logging.getLogger(f"{PACKAGE_LOGGER_NAME}.{name}")


def configure_logging(level: int = logging.INFO) -> logging.Logger:
    """Attach a stderr handler to the package logger (idempotent).

    Returns the package root logger so callers can tweak it further.
    """
    root = logging.getLogger(PACKAGE_LOGGER_NAME)
    root.setLevel(level)
    has_stream_handler = any(
        isinstance(handler, logging.StreamHandler)
        and not isinstance(handler, logging.NullHandler)
        for handler in root.handlers
    )
    if not has_stream_handler:
        handler = logging.StreamHandler(sys.stderr)
        handler.setFormatter(logging.Formatter(_FORMAT, datefmt=_DATE_FORMAT))
        root.addHandler(handler)
    return root


@contextmanager
def log_to_stderr(level: int = logging.WARNING) -> Iterator[None]:
    """Print the package's records at ``level`` and above to stderr, in scope.

    The handler writes to the ``sys.stderr`` of the moment it is
    attached, and is removed on exit, so an in-process caller (a test
    calling the CLI's ``main``) is left with the package logger as it
    found it.
    """
    handler = logging.StreamHandler(sys.stderr)
    handler.setLevel(level)
    handler.setFormatter(logging.Formatter(_FORMAT, datefmt=_DATE_FORMAT))
    root = logging.getLogger(PACKAGE_LOGGER_NAME)
    root.addHandler(handler)
    try:
        yield
    finally:
        root.removeHandler(handler)


def log_epoch_progress(
    log: logging.Logger,
    epoch: int,
    total: int,
    loss: float | None = None,
    elapsed: float | None = None,
    **extras: object,
) -> None:
    """Emit one uniform per-epoch DEBUG progress line.

    All iterative trainers (core model, EM baselines, BPR) report
    through this helper so the epoch cadence reads
    identically across the library::

        epoch 3/10: loss=0.412310 elapsed=1.02s lr=0.0225

    ``loss``/``elapsed`` are optional — EM loops that track a
    convergence delta instead pass it via ``extras``.  The message is
    only assembled when DEBUG is actually enabled.
    """
    if not log.isEnabledFor(logging.DEBUG):
        return
    parts = [f"epoch {epoch + 1}/{total}"]
    if loss is not None:
        parts.append(f"loss={loss:.6f}")
    if elapsed is not None:
        parts.append(f"elapsed={elapsed:.2f}s")
    parts.extend(f"{key}={value}" for key, value in extras.items())
    log.debug("%s: %s", parts[0], " ".join(parts[1:]) or "done")


# Library etiquette: silence "No handlers could be found" warnings.
logging.getLogger(PACKAGE_LOGGER_NAME).addHandler(logging.NullHandler())
