"""Logging helpers shared across the :mod:`repro` package.

The library never configures the root logger; applications opt in by
calling :func:`configure_logging` (the examples and benchmarks do).  All
modules obtain their logger via :func:`get_logger` so that the whole
package lives under the ``repro`` logging namespace.
"""

from __future__ import annotations

import logging
import sys

_PACKAGE_LOGGER_NAME = "repro"

_DEFAULT_FORMAT = "%(asctime)s %(levelname)-7s %(name)s: %(message)s"

#: Format used by multi-threaded processes (the serving tier): the
#: emitting thread name pins each line to a handler / batch worker /
#: watcher thread, which is what makes concurrent logs readable.
THREADED_FORMAT = ("%(asctime)s %(levelname)-7s [%(threadName)s] "
                   "%(name)s: %(message)s")


def get_logger(name: str | None = None) -> logging.Logger:
    """Return a logger below the ``repro`` namespace.

    Parameters
    ----------
    name:
        Dotted suffix below ``repro`` (e.g. ``"corpus.builder"``).  ``None``
        returns the package root logger.
    """

    if not name:
        return logging.getLogger(_PACKAGE_LOGGER_NAME)
    if name.startswith(_PACKAGE_LOGGER_NAME):
        return logging.getLogger(name)
    return logging.getLogger(f"{_PACKAGE_LOGGER_NAME}.{name}")


def configure_logging(level: int | str = logging.INFO,
                      stream=None,
                      fmt: str | None = None, *,
                      include_thread: bool = False) -> logging.Logger:
    """Attach a stream handler to the package logger (idempotent).

    Returns the package root logger.  Calling this twice does not duplicate
    handlers, which keeps repeated example/benchmark runs quiet.
    ``include_thread=True`` selects :data:`THREADED_FORMAT` (used by
    ``repro-classify serve``); an explicit ``fmt`` wins over it.
    """

    if fmt is None:
        fmt = THREADED_FORMAT if include_thread else _DEFAULT_FORMAT
    logger = logging.getLogger(_PACKAGE_LOGGER_NAME)
    logger.setLevel(level)
    if stream is None:
        stream = sys.stderr
    for handler in logger.handlers:
        if (isinstance(handler, logging.StreamHandler)
                and getattr(handler, "stream", None) is stream):
            # Re-configuration updates the format in place (e.g. the
            # serve command switching an already-attached --verbose
            # handler to the thread-aware format) instead of silently
            # keeping the old one.
            handler.setFormatter(logging.Formatter(fmt))
            return logger
    handler = logging.StreamHandler(stream)
    handler.setFormatter(logging.Formatter(fmt))
    logger.addHandler(handler)
    return logger
