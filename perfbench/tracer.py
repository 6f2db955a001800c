"""In-memory span recorder for the traced benchmark run.

Spans are recorded by wrapping public entry points of the program's
layers from the benchmark's own files: :func:`patch_function` rebinds a
function in every loaded ``repro`` module that imported it by name, and
:func:`patch_method` replaces a class attribute.  Nothing in ``src/``
changes.  The untraced runs never install a wrapper, so they pay no cost.

Spans stay in memory until :meth:`Tracer.summary` folds them into
per-name self times.  A span's self time is its duration minus the
durations of its direct children; the wrapped workloads are
single-threaded, so children nest strictly inside their parent.
"""

from __future__ import annotations

import sys
import time
from typing import Callable, Dict, List, Optional


class Tracer:
    """Records nested ``(name, parent, start, end)`` spans."""

    def __init__(self):
        self.spans: List[list] = []
        self.counts: Dict[str, int] = {}
        self._stack: List[int] = []
        self._undo: List[Callable[[], None]] = []

    # -- recording -------------------------------------------------------
    def wrap(self, name: str, fn: Callable) -> Callable:
        """``fn`` timed as a span called ``name``."""

        def traced(*args, **kwargs):
            parent = self._stack[-1] if self._stack else None
            index = len(self.spans)
            record = [name, parent, time.perf_counter(), None]
            self.spans.append(record)
            self._stack.append(index)
            try:
                return fn(*args, **kwargs)
            finally:
                self._stack.pop()
                record[3] = time.perf_counter()

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", name)
        return traced

    def count(self, name: str, amount: int) -> None:
        self.counts[name] = self.counts.get(name, 0) + int(amount)

    # -- patching --------------------------------------------------------
    def patch_function(self, name: str, fn: Callable) -> None:
        """Time ``fn`` wherever a ``repro`` module bound it to a global."""
        traced = self.wrap(name, fn)
        for module in list(sys.modules.values()):
            module_name = getattr(module, "__name__", "") or ""
            if not module_name.startswith("repro"):
                continue
            for attr, value in list(vars(module).items()):
                if value is fn:
                    setattr(module, attr, traced)
                    self._undo.append(
                        lambda m=module, a=attr: setattr(m, a, fn)
                    )

    def patch_method(self, name: str, cls: type, attr: str) -> None:
        """Time ``cls.attr`` (a plain function attribute) as ``name``."""
        self.replace(cls, attr, self.wrap(name, cls.__dict__[attr]))

    def replace(self, owner, attr: str, value) -> None:
        """Set ``owner.attr`` until :meth:`unpatch`."""
        original = getattr(owner, attr)
        setattr(owner, attr, value)
        self._undo.append(lambda: setattr(owner, attr, original))

    def unpatch(self) -> None:
        while self._undo:
            self._undo.pop()()

    # -- results ---------------------------------------------------------
    def summary(self, wall: float) -> Dict[str, float]:
        """Per-name self seconds plus ``other`` (wall time outside every
        root span).  Raises if a span is open or a self time is negative,
        which would mean spans overlapped instead of nesting."""
        child_time = [0.0] * len(self.spans)
        roots = 0.0
        for name, parent, start, end in self.spans:
            if end is None:
                raise RuntimeError(f"span {name!r} never closed")
            if parent is None:
                roots += end - start
            else:
                child_time[parent] += end - start
        self_times: Dict[str, float] = {}
        for index, (name, _parent, start, end) in enumerate(self.spans):
            own = (end - start) - child_time[index]
            if own < -1e-6:
                raise RuntimeError(f"span {name!r} has negative self time")
            self_times[name] = self_times.get(name, 0.0) + own
        self_times["other"] = wall - roots
        return self_times


def percentile(values, q: float) -> Optional[float]:
    """Nearest-rank percentile (``q`` in [0, 100]) of ``values``."""
    ordered = sorted(values)
    if not ordered:
        return None
    rank = max(1, int(-(-q * len(ordered) // 100)))
    return ordered[min(rank, len(ordered)) - 1]
