"""Spans around the public functions of every chainobs layer.

The tracer lives outside the program: it wraps each public module-level
function of the layer modules and rebinds the wrapper in every chainobs
namespace that holds the original. ``cli``, ``analysis`` and ``simulate``
import functions by name, so patching only the defining module would miss
their inner calls.

Spans are kept in memory as ``[name index, parent span, start, end]`` and
exported once, after the traced call has returned.
"""

from __future__ import annotations

import functools
import inspect
import os
import sys
import time

LAYERS = ("cli", "builder", "analysis", "lqs", "simulate", "serialize")

# serialize.fmt formats one float and is called millions of times per
# trajectory file; its cost belongs to the writer spans that call it.
UNTRACED = frozenset({"serialize.fmt"})


def _file_bytes(args, result) -> dict:
    return {"bytes": os.path.getsize(args[0])}


def _trajectory_size(args, result) -> dict:
    rows = result.coefficient_rows
    return {"samples": int(rows.shape[0]), "bytes": int(rows.nbytes)}


# Facts recorded after a span closes, outside its timed interval.
_AFTER = {
    "serialize.write_matrix_csv": _file_bytes,
    "serialize.write_trajectory_csv": _file_bytes,
    "serialize.write_spatial_csv": _file_bytes,
    "serialize.write_averages_csv": _file_bytes,
    "serialize.write_report_json": _file_bytes,
    "simulate.coefficient_trajectory": _trajectory_size,
}


class Tracer:
    """Collects one span per call of a wrapped chainobs function."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self.spans: list[list] = []
        self.facts: dict[int, dict] = {}
        self._stack: list[int] = []

    def install(self) -> None:
        """Wrap every public layer function in every namespace that holds it."""
        wrappers = {}
        for layer in LAYERS:
            module = sys.modules[f"chainobs.{layer}"]
            for attr, value in vars(module).items():
                name = f"{layer}.{attr}"
                if (
                    inspect.isfunction(value)
                    and value.__module__ == module.__name__
                    and not attr.startswith("_")
                    and name not in UNTRACED
                ):
                    wrappers[value] = self._wrap(name, value)
        for module_name, module in list(sys.modules.items()):
            if module_name != "chainobs" and not module_name.startswith("chainobs."):
                continue
            for attr, value in list(vars(module).items()):
                if inspect.isfunction(value) and value in wrappers:
                    setattr(module, attr, wrappers[value])

    def _wrap(self, name: str, fn):
        index = len(self.names)
        self.names.append(name)
        spans, stack, facts = self.spans, self._stack, self.facts
        after = _AFTER.get(name)
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            position = len(spans)
            span = [index, stack[-1] if stack else -1, clock(), 0.0]
            spans.append(span)
            stack.append(position)
            try:
                result = fn(*args, **kwargs)
            finally:
                span[3] = clock()
                stack.pop()
            if after is not None:
                facts[position] = after(args, result)
            return result

        return traced

    def export(self) -> dict:
        return {
            "names": self.names,
            "spans": self.spans,
            "facts": {str(k): v for k, v in self.facts.items()},
        }
