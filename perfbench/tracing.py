"""Outside-in tracing: timing wrappers installed around public functions.

Nothing under ``src/`` knows about this module.  :class:`Tracer` replaces a
function or method *where its caller looks the name up* (for example
``repro.core.compressor.partition``, which the compressor imported by
name) with a wrapper that records a span, and puts the original back on
:meth:`Tracer.restore`.  Spans are kept in memory as
``[name, start_ns, end_ns, parent, request]`` and written out once, at the
end of the run.

A *request* is one client operation of the workload (a ``compress``, an
``ingest_many`` batch, a point ``access``...).  The workload opens it with
:meth:`Tracer.request`; every span recorded inside shares its request id.
"""

from __future__ import annotations

import contextlib
import importlib
import inspect
import json
import time
from collections import Counter, defaultdict

__all__ = ["Tracer", "SpanTable", "patch", "resolve", "self_time"]

_now = time.perf_counter_ns


def resolve(target: str):
    """``"pkg.module:Attr.path"`` -> ``(owner object, attribute name)``."""
    module_name, _, attr_path = target.partition(":")
    owner = importlib.import_module(module_name)
    *parents, attr = attr_path.split(".")
    for name in parents:
        owner = getattr(owner, name)
    if not hasattr(owner, attr):
        raise AttributeError(f"{target}: no such attribute to trace")
    return owner, attr


def patch(target: str, make):
    """Replace ``target`` by ``make(original function)``; return the undo.

    Class- and static methods stay class- and static methods.
    """
    owner, attr = resolve(target)
    raw = inspect.getattr_static(owner, attr)
    if isinstance(raw, (classmethod, staticmethod)):
        replacement = type(raw)(make(raw.__func__))
    else:
        replacement = make(raw)
    setattr(owner, attr, replacement)
    return lambda: setattr(owner, attr, raw)


class Tracer:
    """In-memory span recorder plus the patches that feed it.

    Single-threaded by design: the benchmark runs one closed-loop client,
    so one stack of open spans gives every span its parent.
    """

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.counts: Counter = Counter()
        self.roots: dict[int, str] = {}  # request id -> operation name
        self._stack: list[int] = []
        self._request = 0  # id of the open request; 0 outside any
        self._last_request = 0
        self._undo: list = []

    # -- spans ---------------------------------------------------------------

    def _begin(self, name: str) -> int:
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, _now(), 0, parent, self._request])
        self._stack.append(idx)
        return idx

    def _end(self, idx: int) -> None:
        self.spans[idx][2] = _now()
        self._stack.pop()

    @contextlib.contextmanager
    def request(self, op: str):
        """One client operation: a root span named ``op.<op>``."""
        self._last_request += 1
        self._request = self._last_request
        self.roots[self._request] = op
        idx = self._begin(f"op.{op}")
        try:
            yield
        finally:
            self._end(idx)
            self._request = 0

    # -- patching ------------------------------------------------------------

    def _install(self, target: str, make) -> None:
        self._undo.append(patch(target, make))

    def span(self, target: str, name: str, hook=None, pre=None) -> None:
        """Time every call of ``target`` as a span called ``name``.

        ``hook(args, kwargs, result, state)`` may return counters read from
        the call (bytes written, fragments made), where ``state`` is what
        ``pre(args, kwargs)`` returned before the call.  Each counter is
        added both in total and under the current operation's name.
        """
        begin, end = self._begin, self._end

        def make(fn):
            def traced(*args, **kwargs):
                state = pre(args, kwargs) if pre is not None else None
                idx = begin(name)
                try:
                    result = fn(*args, **kwargs)
                finally:
                    end(idx)
                if hook is not None:
                    self.add(hook(args, kwargs, result, state))
                return result

            return traced

        self._install(target, make)

    def add(self, counters: dict) -> None:
        """Add ``counters`` in total and under the current operation."""
        op = self.roots.get(self._request)
        for key, amount in counters.items():
            self.counts[key] += amount
            self.counts[(op, key)] += amount

    def count(self, target: str, name: str) -> None:
        """Count calls of ``target`` without a span (for hot inner loops)."""
        counts = self.counts
        key = f"{name}.calls"

        def make(fn):
            def counted(*args, **kwargs):
                counts[key] += 1
                return fn(*args, **kwargs)

            return counted

        self._install(target, make)

    def restore(self) -> None:
        """Put every patched attribute back, newest first."""
        while self._undo:
            self._undo.pop()()

    def dump(self, path) -> None:
        """Write the spans as JSON lines: name, start, end, parent, request."""
        with open(path, "w", encoding="utf-8") as fh:
            for name, start, end, parent, req in self.spans:
                fh.write(
                    json.dumps(
                        {"name": name, "start_ns": start, "end_ns": end,
                         "parent": parent, "request": req,
                         "op": self.roots.get(req)}
                    )
                    + "\n"
                )


def self_time(start: int, end: int, children) -> int:
    """``end - start`` minus the part of that interval the children cover.

    Children are ``(start, end)`` pairs; overlapping children count once
    and the parts outside the parent's interval not at all.
    """
    covered, reach = 0, start
    for c_start, c_end in sorted(children):
        c_start, c_end = max(c_start, reach), min(c_end, end)
        if c_end > c_start:
            covered += c_end - c_start
            reach = c_end
    return (end - start) - covered


class SpanTable:
    """Per-name queries over a finished trace, optionally by operation."""

    def __init__(self, tracer: Tracer) -> None:
        self.counts = tracer.counts
        self.roots = tracer.roots
        children = defaultdict(list)
        self._names_in: dict[int, set[str]] = defaultdict(set)  # request -> names
        for name, start, end, parent, req in tracer.spans:
            if parent >= 0:
                children[parent].append((start, end))
            self._names_in[req].add(name)
        # name -> list of (op, duration_ns, self_ns)
        self._by_name: dict[str, list[tuple[str | None, int, int]]] = defaultdict(list)
        for idx, (name, start, end, _parent, req) in enumerate(tracer.spans):
            self._by_name[name].append(
                (self.roots.get(req), end - start, self_time(start, end, children[idx]))
            )

    def _rows(self, name: str, ops):
        rows = self._by_name.get(name, [])
        if ops is None:
            return rows
        return [row for row in rows if row[0] in ops]

    def durations(self, name: str, ops=None) -> list[int]:
        """Inclusive span durations (ns) of ``name``."""
        return [row[1] for row in self._rows(name, ops)]

    def self_times(self, name: str, ops=None) -> list[int]:
        """Self times (ns): duration minus time covered by child spans."""
        return [row[2] for row in self._rows(name, ops)]

    def calls(self, name: str, ops=None) -> int:
        return len(self._rows(name, ops))

    def busy(self, name: str, ops=None) -> int:
        """Total inclusive time (ns) spent in ``name``."""
        return sum(self.durations(name, ops))

    def requests(self, op: str) -> int:
        """Number of client operations named ``op``."""
        return sum(1 for name in self.roots.values() if name == op)

    def requests_touching(self, op: str, names) -> int:
        """Operations named ``op`` that recorded a span in ``names``."""
        names = set(names)
        return sum(
            1
            for req, root in self.roots.items()
            if root == op and self._names_in[req] & names
        )
