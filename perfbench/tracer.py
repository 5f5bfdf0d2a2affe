"""In-memory spans and counters recorded around calls into a package's functions.

A span holds a name, its wall interval, its thread CPU time and the span
that caused it.  A layer's self time is the span's wall time minus the part
of its interval that its child spans cover; self CPU time is the span's
thread CPU time minus that of its children on the same thread.  A span that
starts on another thread with nothing open there is a child of the span
open at that moment on the thread that installed the tracer (the caller
waiting on a worker pool), so work done in pool threads is still
attributed to the operation that asked for it.

Nothing is written while the run is measured: spans stay in compact arrays
and `dump` writes them out at the end.
"""

from __future__ import annotations

import itertools
import sys
import threading
import time
from array import array
from typing import Callable

import numpy as np


def covered_length(intervals: list[tuple[float, float]], lo: float, hi: float) -> float:
    """Length of the union of `intervals`, clipped to [lo, hi]."""
    total = 0.0
    cur_lo = cur_hi = None
    for a, b in sorted(intervals):
        a, b = max(a, lo), min(b, hi)
        if b <= a:
            continue
        if cur_hi is None or a > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = a, b
        else:
            cur_hi = max(cur_hi, b)
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


class _Open:
    __slots__ = ("sid", "name", "start", "cpu", "thread", "parent", "children", "child_cpu")

    def __init__(self, sid, name, start, cpu, thread, parent):
        self.sid = sid
        self.name = name
        self.start = start
        self.cpu = cpu
        self.thread = thread
        self.parent = parent
        self.children: list[tuple[float, float]] = []
        self.child_cpu = 0.0


COLUMNS = ("sid", "name", "parent", "thread", "op", "start", "end", "self_s", "self_cpu_s")


class Tracer:
    """Records spans per phase; `totals[phase][name]` is [calls, self_s, wall_s, cpu_s, self_cpu_s].

    `wall_s` and `cpu_s` are inclusive and counted only for the outermost
    span of a name on a stack, so recursion is not counted twice.
    """

    def __init__(
        self,
        clock: Callable[[], float] = time.perf_counter,
        cpu_clock: Callable[[], float] = time.thread_time,
    ):
        self._clock = clock
        self._cpu_clock = cpu_clock
        self._local = threading.local()
        self._owner = threading.get_ident()
        self._owner_stack: list[_Open] = []
        self._lock = threading.Lock()
        self._ids = itertools.count()  # next() on it is atomic under the GIL
        self._names: dict[str, int] = {}
        self._threads: dict[int, int] = {}
        self._rows = array("d")  # one row of len(COLUMNS) per finished span
        self._patched: list[tuple[object, str, object, bool]] = []
        self.phase = "setup"
        self.op = -1
        self.totals: dict[str, dict[str, list[float]]] = {}
        self.counts: dict[str, dict[str, float]] = {}

    # -- spans ------------------------------------------------------------

    def _stack(self) -> list[_Open]:
        if threading.get_ident() == self._owner:
            return self._owner_stack
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def begin(self, name: str) -> _Open:
        stack = self._stack()
        if stack:
            parent = stack[-1]
        else:
            owner = self._owner_stack
            parent = owner[-1] if owner else None
        span = _Open(next(self._ids), name, self._clock(), self._cpu_clock(), threading.get_ident(), parent)
        stack.append(span)
        return span

    def end(self, span: _Open) -> tuple[float, float]:
        """Close the innermost span; returns (wall_s, self_s)."""
        end = self._clock()
        cpu = self._cpu_clock() - span.cpu
        stack = self._stack()
        if not stack or stack[-1] is not span:
            raise RuntimeError(f"span {span.name!r} closed out of order")
        stack.pop()
        wall = end - span.start
        self_s = wall - covered_length(span.children, span.start, end) if span.children else wall
        self_cpu = cpu - span.child_cpu
        outermost = not any(s.name == span.name for s in stack)
        parent = span.parent
        if parent is not None:
            parent.children.append((span.start, end))
            if parent.thread == span.thread:
                parent.child_cpu += cpu
        with self._lock:
            row = self.totals.setdefault(self.phase, {}).setdefault(span.name, [0, 0.0, 0.0, 0.0, 0.0])
            row[0] += 1
            row[1] += self_s
            row[4] += self_cpu
            if outermost:
                row[2] += wall
                row[3] += cpu
            self._rows.extend((
                span.sid,
                self._names.setdefault(span.name, len(self._names)),
                -1 if parent is None else parent.sid,
                self._threads.setdefault(span.thread, len(self._threads)),
                self.op, span.start, end, self_s, self_cpu,
            ))
        return wall, self_s

    def count(self, name: str, amount: float = 1) -> None:
        with self._lock:
            row = self.counts.setdefault(self.phase, {})
            row[name] = row.get(name, 0) + amount

    def wrap(
        self,
        func: Callable,
        name: str | Callable[..., str],
        counter: Callable[..., dict] | None = None,
    ) -> Callable:
        """Wrap `func` in a span.

        `name` is a span name, or a function of the call's arguments that
        returns one.  `counter(args, kwargs)` runs after the call returns
        and gives counter increments taken from the arguments.  An
        exception is counted as `<span>.raised.<type>` and re-raised.
        """

        fixed = isinstance(name, str)

        def wrapper(*args, **kwargs):
            span_name = name if fixed else name(*args, **kwargs)
            span = self.begin(span_name)
            try:
                result = func(*args, **kwargs)
            except Exception as exc:
                self.end(span)
                self.count(f"{span_name}.raised.{type(exc).__name__}")
                raise
            self.end(span)
            if counter is not None:
                for key, amount in counter(args, kwargs).items():
                    self.count(key, amount)
            return result

        wrapper.__wrapped__ = func
        wrapper.__name__ = getattr(func, "__name__", "wrapper")
        wrapper.__doc__ = getattr(func, "__doc__", None)
        return wrapper

    # -- installing into a package -------------------------------------------

    def patch(self, package: str, func: Callable, wrapper: Callable, registries: tuple[dict, ...] = ()) -> None:
        """Rebind `func` to `wrapper` in every loaded module of `package` and in `registries`."""
        for mod_name, module in list(sys.modules.items()):
            if module is None or not (mod_name == package or mod_name.startswith(package + ".")):
                continue
            for attr, value in list(vars(module).items()):
                if value is func:
                    setattr(module, attr, wrapper)
                    self._patched.append((module, attr, func, False))
        for registry in registries:
            for key, value in list(registry.items()):
                if value is func:
                    registry[key] = wrapper
                    self._patched.append((registry, key, func, True))

    def unpatch(self) -> None:
        for target, key, func, is_dict in reversed(self._patched):
            if is_dict:
                target[key] = func
            else:
                setattr(target, key, func)
        self._patched.clear()

    # -- output -----------------------------------------------------------

    def _table(self) -> np.ndarray:
        return np.frombuffer(self._rows, dtype=float).reshape(-1, len(COLUMNS))

    def dump(self, path) -> None:
        """Write every finished span to a compressed .npz file, one array per column."""
        table = self._table()
        names = sorted(self._names, key=self._names.get)
        np.savez_compressed(path, names=np.array(names), **{c: table[:, k] for k, c in enumerate(COLUMNS)})

    def op_self_sums(self) -> dict[int, float]:
        """Sum of self times of every span recorded under each operation index."""
        table = self._table()
        ops, selfs = table[:, COLUMNS.index("op")], table[:, COLUMNS.index("self_s")]
        return {int(op): float(np.sum(selfs[ops == op])) for op in np.unique(ops[ops >= 0])}
