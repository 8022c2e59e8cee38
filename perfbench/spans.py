"""Span recording for the traced benchmark run, plus the statistics rules.

The traced run wraps public calls into each layer *from the benchmark's
own files*: a wrapper replaces the attribute at the name the caller
looks it up by (a class attribute, or a module global the calling
module imported), records one span per call, and restores the original
on :meth:`Tracer.uninstall`. Nothing in the program changes.

Spans live in memory. Processes the program forks (supervised campaign
workers, service job runners) inherit the wrappers; each one writes its
own spans to ``<trace_dir>/spans-<pid>-<n>.json`` when its entry point
returns, and the benchmark reads every file back when the run ends.

This module imports nothing from the program at import time, so the
statistics helpers can be tested on their own.
"""

from __future__ import annotations

import importlib
import itertools
import json
import math
import os
import statistics
import threading
import time
from collections import defaultdict
from collections.abc import Callable, Iterable, Sequence
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path
from typing import Any

# --------------------------------------------------------------- statistics


def _rank(pct: float, n: int) -> int:
    """1-based nearest rank of the ``pct`` percentile of ``n`` samples
    (rounded first, so 99.9% of 10000 is rank 9990, not 9991)."""
    return max(1, math.ceil(round(pct * n / 100.0, 9)))


def nearest_rank(sorted_values: Sequence[float], pct: float) -> float:
    """The nearest-rank ``pct`` percentile of already sorted values."""
    return sorted_values[_rank(pct, len(sorted_values)) - 1]


#: percentiles a tail may be reported at, highest first
TAIL_LADDER = (99.99, 99.9) + tuple(range(99, 49, -1))


def tail_percentile(n: int, beyond: int = 10) -> float | None:
    """The highest percentile with at least ``beyond`` samples above it.

    With ``n`` samples the nearest-rank ``p`` percentile is sample
    ``ceil(p/100 * n)`` in sorted order, so ``n - ceil(p/100 * n)``
    samples lie beyond it. Returns None when not even the median has
    ``beyond`` samples past it.
    """
    for pct in TAIL_LADDER:
        if n - _rank(pct, n) >= beyond:
            return pct
    return None


@dataclass(frozen=True)
class Summary:
    """Median and tail of one set of timings, with the sample count."""

    n: int
    median: float
    tail_pct: float | None
    tail: float | None


def summarize(values: Iterable[float]) -> Summary:
    ordered = sorted(values)
    if not ordered:
        raise ValueError("no samples to summarize")
    pct = tail_percentile(len(ordered))
    tail = nearest_rank(ordered, pct) if pct is not None else None
    return Summary(len(ordered), statistics.median(ordered), pct, tail)


# --------------------------------------------------------------- span math


@dataclass(frozen=True)
class Span:
    """One timed call: ``parent`` is the enclosing span's id, or None."""

    id: str
    parent: str | None
    name: str
    start: float
    end: float
    tag: str | None = None

    @property
    def duration(self) -> float:
        return self.end - self.start


def union_length(intervals: Iterable[tuple[float, float]]) -> float:
    """Total length covered by possibly overlapping intervals."""
    total = 0.0
    cur_start = cur_end = None
    for start, end in sorted(intervals):
        if end <= start:
            continue
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        else:
            cur_end = max(cur_end, end)
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def covered_within(
    start: float, end: float, intervals: Iterable[tuple[float, float]]
) -> float:
    """How much of ``[start, end]`` the intervals cover (overlaps once)."""
    return union_length(
        (max(s, start), min(e, end)) for s, e in intervals if e > start and s < end
    )


def self_times(spans: Sequence[Span]) -> dict[str, float]:
    """span id -> its duration minus the part its children cover.

    Children may overlap each other (work on several threads or
    processes under one parent); the covered part is their union,
    clipped to the parent's interval, so it is never counted twice and
    a self time is never negative.
    """
    children: dict[str, list[tuple[float, float]]] = defaultdict(list)
    for span in spans:
        if span.parent is not None:
            children[span.parent].append((span.start, span.end))
    return {
        span.id: span.duration
        - covered_within(span.start, span.end, children.get(span.id, ()))
        for span in spans
    }


def outermost(
    spans: Sequence[Span], name: str, excluded: frozenset[str] = frozenset()
) -> list[Span]:
    """Spans called ``name`` with no ancestor of the same name.

    A layer entered twice on one stack (``KernelStatePool.acquire``
    calling ``KernelBase.ensure_setup``) is one unit of that layer's
    work, so counts and busy time use only the outer call. Spans with an
    ancestor named in ``excluded`` are left out too: appends made while
    merging archives are merge work, not cell appends.
    """
    by_id = {s.id: s for s in spans}
    stop = excluded | {name}
    out = []
    for span in spans:
        if span.name != name:
            continue
        parent = by_id.get(span.parent) if span.parent else None
        while parent is not None and parent.name not in stop:
            parent = by_id.get(parent.parent) if parent.parent else None
        if parent is None:
            out.append(span)
    return out


# ----------------------------------------------------------------- tracer


class Tracer:
    """Records spans and counters for wrapped layer calls in this process.

    After a fork the child starts with no spans, counters or open
    stack (``os.register_at_fork``), so each process writes only what
    it recorded itself.
    """

    def __init__(self, out_dir: str | Path) -> None:
        self.out_dir = Path(out_dir)
        self.out_dir.mkdir(parents=True, exist_ok=True)
        self.root_pid = os.getpid()
        self._local = threading.local()
        self._lock = threading.Lock()
        self._ids = itertools.count()
        self._flushes = itertools.count()
        self.spans: list[Span] = []
        self.counters: dict[str, float] = defaultdict(float)
        self.events: list[tuple[str, str, float]] = []
        self._latest: dict[tuple[str, int], dict[str, float]] = {}
        self._saved: list[tuple[Any, str, Any]] = []
        #: while False, wrappers and spans record nothing
        self.active = True
        os.register_at_fork(after_in_child=self._reset_after_fork)

    def _reset_after_fork(self) -> None:
        self._local = threading.local()
        self._lock = threading.Lock()
        self.spans = []
        self.counters = defaultdict(float)
        self.events = []
        self._latest = {}

    # ------------------------------------------------------------ record
    def _stack(self) -> list[tuple[str, str]]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def inside(self, name: str) -> bool:
        """Whether a span called ``name`` is open on this thread."""
        return any(open_name == name for _, open_name in self._stack())

    @contextmanager
    def span(self, name: str, tag: str | None = None):
        if not self.active:
            yield
            return
        stack = self._stack()
        span_id = f"{os.getpid()}:{next(self._ids)}"
        parent = stack[-1][0] if stack else None
        stack.append((span_id, name))
        start = time.perf_counter()
        try:
            yield
        finally:
            end = time.perf_counter()
            stack.pop()
            with self._lock:
                self.spans.append(Span(span_id, parent, name, start, end, tag))

    def count(self, name: str, value: float = 1.0) -> None:
        with self._lock:
            self.counters[name] += value

    def event(self, name: str, tag: str) -> None:
        """A timestamped point event (a job reaching a state, say)."""
        with self._lock:
            self.events.append((name, tag, time.perf_counter()))

    def set_latest(self, group: str, key: int, values: dict[str, float]) -> None:
        """Cumulative statistics of one object (a state pool, say); the
        last values seen per object are summed into ``group.*`` counters
        when the process flushes."""
        with self._lock:
            self._latest[(group, key)] = dict(values)

    def flush(self) -> None:
        """Write this process's spans and counters, then forget them."""
        with self._lock:
            spans, self.spans = self.spans, []
            events, self.events = self.events, []
            for (group, _), values in self._latest.items():
                for key, value in values.items():
                    self.counters[f"{group}.{key}"] += value
            self._latest = {}
            counters, self.counters = dict(self.counters), defaultdict(float)
        if not spans and not counters and not events:
            return
        path = self.out_dir / f"spans-{os.getpid()}-{next(self._flushes)}.json"
        tmp = path.with_suffix(".tmp")
        tmp.write_text(
            json.dumps(
                {
                    "spans": [
                        [s.id, s.parent, s.name, s.start, s.end, s.tag]
                        for s in spans
                    ],
                    "counters": counters,
                    "events": events,
                }
            )
        )
        os.replace(tmp, path)

    def collect(self) -> "TraceData":
        """Everything written by any process, plus our own records."""
        self.flush()
        data = TraceData([], defaultdict(float), [])
        for path in sorted(self.out_dir.glob("spans-*.json")):
            raw = json.loads(path.read_text())
            data.spans.extend(Span(*row) for row in raw["spans"])
            for key, value in raw["counters"].items():
                data.counters[key] += value
            data.events.extend(tuple(e) for e in raw["events"])
        return data

    # ----------------------------------------------------------- wrappers
    def wrap(
        self,
        owner: Any,
        attr: str,
        name: str,
        on_call: Callable[..., None] | None = None,
        flush_after: bool = False,
        tag_fn: Callable[..., str] | None = None,
    ) -> None:
        """Replace ``owner.attr`` with a span-recording wrapper.

        ``on_call(tracer, result, args, kwargs)`` runs after the call
        returns, for counters taken from arguments or results.
        ``tag_fn(args, kwargs)`` names the cell, query or job the call
        serves. ``flush_after`` writes spans out when the call returns in a
        process other than the one that installed the tracer: the
        entry points of forked workers, which end without running any
        exit handlers.
        """
        original = getattr(owner, attr)
        tracer = self

        def wrapper(*args, **kwargs):
            if not tracer.active:
                return original(*args, **kwargs)
            try:
                tag = tag_fn(args, kwargs) if tag_fn is not None else None
                with tracer.span(name, tag):
                    result = original(*args, **kwargs)
                if on_call is not None:
                    on_call(tracer, result, args, kwargs)
                return result
            finally:
                if flush_after and os.getpid() != tracer.root_pid:
                    tracer.flush()

        wrapper.__wrapped__ = original
        self._saved.append((owner, attr, original))
        setattr(owner, attr, wrapper)

    def install(self, table: Sequence["WrapPoint"]) -> None:
        for point in table:
            owner = resolve(point.target)
            self.wrap(
                owner, point.attr, point.name,
                point.on_call, point.flush_after, point.tag_fn,
            )

    def uninstall(self) -> None:
        self.active = False
        for owner, attr, original in reversed(self._saved):
            setattr(owner, attr, original)
        self._saved.clear()


def resolve(target: str) -> Any:
    """``"pkg.module"`` or ``"pkg.module:Class"`` -> the object."""
    module_name, _, attr = target.partition(":")
    obj = importlib.import_module(module_name)
    return getattr(obj, attr) if attr else obj


@dataclass(frozen=True)
class WrapPoint:
    """One call to wrap: ``target`` owns ``attr``; spans are ``name``."""

    target: str
    attr: str
    name: str
    on_call: Callable[..., None] | None = None
    flush_after: bool = False
    tag_fn: Callable[..., str] | None = None


@dataclass
class TraceData:
    """Spans, summed counters and point events gathered from a run."""

    spans: list[Span]
    counters: dict[str, float]
    events: list[tuple[str, str, float]]
