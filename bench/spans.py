"""Spans recorded around dqlocus's public functions, from outside the program.

``Patches`` swaps module attributes for wrappers and puts the originals
back on ``restore``; ``Tracer.wrap`` uses it to record a span per call. The pipeline passes call
every traced function through its module (``ingest.load_dataset(...)``)
and ``assess.run_suite`` looks ``run_check`` up as a module global, so a
wrapped attribute sees every call. Spans stay in memory until ``dump``.
"""

from __future__ import annotations

import json
from pathlib import Path
from time import perf_counter
from typing import Any, Callable


class Patches:
    """Module attributes swapped for wrappers, restored in reverse order."""

    def __init__(self) -> None:
        self._saved: list[tuple[Any, str, Any]] = []

    def patch(self, module: Any, attr: str, make: Callable[[Any], Any]) -> None:
        """Replace ``module.attr`` with ``make(original)``."""
        original = getattr(module, attr)
        self._saved.append((module, attr, original))
        setattr(module, attr, make(original))

    def restore(self) -> None:
        while self._saved:
            module, attr, original = self._saved.pop()
            setattr(module, attr, original)


class Tracer(Patches):
    """Span i is ``(name, start, end, parent, pass_id, attr)``; ``parent`` is
    the index of the enclosing span or -1."""

    def __init__(self) -> None:
        super().__init__()
        self.spans: list[tuple[str, float, float, int, int, Any]] = []
        self.pass_id = 0
        self._stack: list[int] = []

    def _open(self, name: str) -> int:
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append((name, perf_counter(), 0.0, parent, self.pass_id, None))
        self._stack.append(index)
        return index

    def _close(self, index: int, end: float, attr: Any = None) -> None:
        name, start, _, parent, pass_id, _ = self.spans[index]
        self.spans[index] = (name, start, end, parent, pass_id, attr)
        self._stack.pop()

    def run_pass(self, fn: Callable[[], Any]) -> Any:
        """Run one pass under a root span named ``pass``."""
        self.pass_id += 1
        index = self._open("pass")
        try:
            return fn()
        finally:
            self._close(index, perf_counter())

    def wrap(self, module: Any, attr: str, name: str,
             label: Callable[..., Any] | None = None) -> None:
        """Record a span named ``name`` around every call of ``module.attr``.
        ``label(result, *args)`` gives the span a per-call attribute; it runs
        after the span's end time is taken, with ``result`` None on a raise."""
        open_, close = self._open, self._close

        def make(original):
            def traced(*args, **kwargs):
                index = open_(name)
                result = None
                try:
                    result = original(*args, **kwargs)
                    return result
                finally:
                    end = perf_counter()
                    close(index, end, label(result, *args) if label else None)
            return traced

        self.patch(module, attr, make)

    def dump(self, path: Path) -> None:
        """Write every span as ``[name, start_us, end_us, parent, pass, attr]``."""
        path.parent.mkdir(parents=True, exist_ok=True)
        t0 = self.spans[0][1] if self.spans else 0.0
        rows = [[n, round((s - t0) * 1e6, 1), round((e - t0) * 1e6, 1), p, k, a]
                for n, s, e, p, k, a in self.spans]
        path.write_text(json.dumps(rows, default=str))


def summarize(spans: list[tuple[str, float, float, int, int, Any]]) -> dict[str, Any]:
    """Total time and call count per span name, self time per layer (the
    span name up to its first dot), and how much of each ``pass`` span its
    direct children cover."""
    total: dict[str, float] = {}
    calls: dict[str, int] = {}
    child_time = [0.0] * len(spans)
    for name, start, end, parent, _, _ in spans:
        total[name] = total.get(name, 0.0) + (end - start)
        calls[name] = calls.get(name, 0) + 1
        if parent >= 0:
            child_time[parent] += end - start
    layer_self: dict[str, float] = {}
    passes = []
    for i, (name, start, end, _, _, _) in enumerate(spans):
        if name == "pass":
            passes.append((end - start, child_time[i]))
            continue
        layer = name.split(".", 1)[0]
        layer_self[layer] = layer_self.get(layer, 0.0) + (end - start) - child_time[i]
    return {"total": total, "calls": calls, "layer_self": layer_self, "passes": passes}
