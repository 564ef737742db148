"""The library's loggers, with the standard logging module loaded on demand.

The library logs at INFO alone, below the WARNING that the CLI and
logging's last-resort handler show by default, so a run with CHAINOBS_LOG
unset logs nothing; importing logging for it would still cost about
0.56 MB and 1.5 ms. A Logger here forwards each call to
logging.getLogger(name), so names, levels, records and handlers are
logging's own, but only once logging is loaded: by the host program (an
application that configures logging, or pytest's caplog), or for
CHAINOBS_LOG, which loaded() imports it for. Until then a call does
nothing and logging stays out of sys.modules.
"""

from __future__ import annotations

import os
import sys


def loaded():
    """The logging module, once the host has imported it or CHAINOBS_LOG is
    set (then imported here); None otherwise."""
    if "logging" not in sys.modules and "CHAINOBS_LOG" not in os.environ:
        return None
    import logging

    return logging


class Logger:
    """logging.getLogger(name)'s INFO calls, made only once logging is loaded."""

    __slots__ = ("name",)

    def __init__(self, name: str) -> None:
        self.name = name

    def info(self, msg: str, *args: object) -> None:
        logging = loaded()
        if logging is not None:
            # stacklevel 2: the record names the caller's file and line, not this one
            logging.getLogger(self.name).info(msg, *args, stacklevel=2)
