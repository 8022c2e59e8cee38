"""Query plans: the DAG behind :class:`repro.dataframe.LazyFrame`.

A plan is a small immutable tree of nodes (scan / filter / select /
with-column / sort / join / group-agg). :func:`optimize` rewrites it —
fusing adjacent filter masks, pushing predicates into scans, pruning
columns nobody reads — and :func:`execute` runs it fully vectorized
over NumPy columns. There are no row dicts or row loops anywhere in
this module: the join codes its keys through
:func:`~repro.dataframe.groupby.factorize`, the key semantics it shares
with groupby.

The eager :class:`~repro.dataframe.Frame` methods are thin wrappers
that build one-node plans and collect them, so lazy and eager queries
share this single execution path; the golden equivalence tests in
``tests/test_lazy_query.py`` pin the two to bit-identical results.

Two details carry the perf weight:

* Scans can be *cache scans* (``repro.thicket.ingest_cache.ColumnStore``):
  the optimizer tells the scan which columns are referenced and which
  predicate applies, and the store then reads only those columns' binary
  buffers and hands string columns over dictionary-encoded so equality
  runs on ``u4`` codes.
* Arrays borrowed from a scanned Frame are only copied at
  materialization time if they flow through untouched — filtered /
  sorted / joined outputs are already fresh, so nothing is copied twice.
"""

from __future__ import annotations

from collections.abc import Callable, Mapping, Sequence
from typing import Any

import numpy as np

from repro.dataframe.expr import Col, DictColumn, Expr, Lit
from repro.dataframe.frame import Frame, _as_column
from repro.dataframe.groupby import factorize

__all__ = [
    "Filter",
    "GroupAgg",
    "Join",
    "Plan",
    "Scan",
    "ScanCache",
    "Select",
    "Sort",
    "WithColumn",
    "execute",
    "optimize",
    "vectorized_join",
]


class Plan:
    """Base class for plan nodes."""

    def children(self) -> tuple["Plan", ...]:
        return ()

    def label(self) -> str:
        return type(self).__name__

    def explain(self, indent: int = 0) -> str:
        lines = ["  " * indent + self.label()]
        for child in self.children():
            lines.append(child.explain(indent + 1))
        return "\n".join(lines)


class Scan(Plan):
    """Scan an in-memory eager :class:`Frame`."""

    __slots__ = ("frame",)

    def __init__(self, frame: Frame) -> None:
        self.frame = frame

    def label(self) -> str:
        return f"Scan[{self.frame.nrows} rows x {len(self.frame.columns)} cols]"


class ScanCache(Plan):
    """Scan an ingest-cache column store, loading only what is needed.

    ``columns`` (set by the pruning pass) limits which binary buffers
    are read; ``predicate`` (set by the pushdown pass) is evaluated over
    the loaded columns — dictionary-encoded string columns compare codes
    — before any decoding happens.
    """

    __slots__ = ("store", "columns", "predicate")

    def __init__(
        self,
        store: Any,
        columns: frozenset[str] | None = None,
        predicate: Expr | None = None,
    ) -> None:
        self.store = store
        self.columns = columns
        self.predicate = predicate

    def label(self) -> str:
        cols = "*" if self.columns is None else ",".join(sorted(self.columns))
        pred = f" where {self.predicate!r}" if self.predicate is not None else ""
        return f"ScanCache[{cols}]{pred}"


class Filter(Plan):
    __slots__ = ("input", "expr")

    def __init__(self, input: Plan, expr: Expr) -> None:
        self.input = input
        self.expr = expr

    def children(self) -> tuple[Plan, ...]:
        return (self.input,)

    def label(self) -> str:
        return f"Filter[{self.expr!r}]"


class Select(Plan):
    __slots__ = ("input", "names")

    def __init__(self, input: Plan, names: Sequence[str]) -> None:
        self.input = input
        self.names = tuple(str(n) for n in names)

    def children(self) -> tuple[Plan, ...]:
        return (self.input,)

    def label(self) -> str:
        return f"Select[{', '.join(self.names)}]"


class WithColumn(Plan):
    __slots__ = ("input", "name", "expr")

    def __init__(self, input: Plan, name: str, expr: Expr) -> None:
        self.input = input
        self.name = str(name)
        self.expr = expr

    def children(self) -> tuple[Plan, ...]:
        return (self.input,)

    def label(self) -> str:
        return f"WithColumn[{self.name} = {self.expr!r}]"


class Sort(Plan):
    __slots__ = ("input", "names", "descending")

    def __init__(self, input: Plan, names: Sequence[str], descending: bool) -> None:
        self.input = input
        self.names = tuple(str(n) for n in names)
        self.descending = bool(descending)

    def children(self) -> tuple[Plan, ...]:
        return (self.input,)

    def label(self) -> str:
        arrow = "desc" if self.descending else "asc"
        return f"Sort[{', '.join(self.names)} {arrow}]"


class Join(Plan):
    __slots__ = ("left", "right", "on", "how", "suffix")

    def __init__(self, left: Plan, right: Plan, on: str, how: str, suffix: str) -> None:
        self.left = left
        self.right = right
        self.on = str(on)
        self.how = how
        self.suffix = suffix

    def children(self) -> tuple[Plan, ...]:
        return (self.left, self.right)

    def label(self) -> str:
        return f"Join[{self.how} on {self.on}]"


class GroupAgg(Plan):
    """Group by ``keys``; ``spec`` of None means ``size()``."""

    __slots__ = ("input", "keys", "spec")

    def __init__(
        self,
        input: Plan,
        keys: Sequence[str],
        spec: Mapping[str, str | Callable[[np.ndarray], Any]] | None,
    ) -> None:
        self.input = input
        self.keys = tuple(str(k) for k in keys)
        self.spec = dict(spec) if spec is not None else None

    def children(self) -> tuple[Plan, ...]:
        return (self.input,)

    def label(self) -> str:
        what = "size" if self.spec is None else ", ".join(
            f"{c}:{how if isinstance(how, str) else getattr(how, '__name__', 'fn')}"
            for c, how in self.spec.items()
        )
        return f"GroupAgg[{', '.join(self.keys)} -> {what}]"


# ------------------------------------------------------------------ optimizer

def optimize(plan: Plan) -> Plan:
    """Fuse filters, push predicates into scans, prune unused columns."""
    plan = _fuse_filters(plan)
    plan = _pushdown(plan)
    plan = _prune(plan, None)
    return plan


def _is_pushable(expr: Expr) -> bool:
    """Only pure expressions move: a literal holding a precomputed mask
    array is positional (its length is tied to one node's row count)."""
    if isinstance(expr, Lit):
        return not isinstance(expr.value, np.ndarray)
    if isinstance(expr, Col):
        return True
    for slot in getattr(expr, "__slots__", ()):
        value = getattr(expr, slot)
        if isinstance(value, Expr) and not _is_pushable(value):
            return False
    return True


def _fuse_filters(plan: Plan) -> Plan:
    plan = _rewrite_children(plan, _fuse_filters)
    if (
        isinstance(plan, Filter)
        and isinstance(plan.input, Filter)
        and _is_pushable(plan.expr)
        and _is_pushable(plan.input.expr)
    ):
        fused = plan.input.expr & plan.expr
        return Filter(plan.input.input, fused)
    return plan


def _pushdown(plan: Plan) -> Plan:
    plan = _rewrite_children(plan, _pushdown)
    if isinstance(plan, Filter) and _is_pushable(plan.expr):
        child = plan.input
        if isinstance(child, Select):
            # Filter over a projection only sees projected names, so it
            # commutes with the projection.
            return Select(_pushdown(Filter(child.input, plan.expr)), child.names)
        if isinstance(child, ScanCache):
            pred = plan.expr
            if child.predicate is not None:
                pred = child.predicate & pred
            return ScanCache(child.store, child.columns, pred)
    return plan


def _prune(plan: Plan, needed: frozenset[str] | None) -> Plan:
    if isinstance(plan, Filter):
        child_needed = (
            None if needed is None else needed | frozenset(plan.expr.references())
        )
        return Filter(_prune(plan.input, child_needed), plan.expr)
    if isinstance(plan, Select):
        return Select(_prune(plan.input, frozenset(plan.names)), plan.names)
    if isinstance(plan, WithColumn):
        if needed is None:
            child_needed = None
        else:
            child_needed = (needed - {plan.name}) | frozenset(plan.expr.references())
        return WithColumn(_prune(plan.input, child_needed), plan.name, plan.expr)
    if isinstance(plan, Sort):
        child_needed = None if needed is None else needed | frozenset(plan.names)
        return Sort(_prune(plan.input, child_needed), plan.names, plan.descending)
    if isinstance(plan, GroupAgg):
        child_needed = frozenset(plan.keys) | frozenset(plan.spec or ())
        return GroupAgg(_prune(plan.input, child_needed), plan.keys, plan.spec)
    if isinstance(plan, Join):
        # Output names are renamed on collision, so splitting `needed`
        # between the sides is not sound without schema tracking; scan
        # pruning stops at joins.
        return Join(
            _prune(plan.left, None), _prune(plan.right, None),
            plan.on, plan.how, plan.suffix,
        )
    if isinstance(plan, ScanCache):
        return ScanCache(plan.store, needed, plan.predicate)
    return plan


def _rewrite_children(plan: Plan, fn: Callable[[Plan], Plan]) -> Plan:
    if isinstance(plan, Filter):
        return Filter(fn(plan.input), plan.expr)
    if isinstance(plan, Select):
        return Select(fn(plan.input), plan.names)
    if isinstance(plan, WithColumn):
        return WithColumn(fn(plan.input), plan.name, plan.expr)
    if isinstance(plan, Sort):
        return Sort(fn(plan.input), plan.names, plan.descending)
    if isinstance(plan, Join):
        return Join(fn(plan.left), fn(plan.right), plan.on, plan.how, plan.suffix)
    if isinstance(plan, GroupAgg):
        return GroupAgg(fn(plan.input), plan.keys, plan.spec)
    return plan


# ------------------------------------------------------------------- executor

class _Table:
    """Executor intermediate: name -> ndarray | DictColumn, plus row count."""

    __slots__ = ("cols", "nrows")

    def __init__(self, cols: dict[str, Any], nrows: int) -> None:
        self.cols = cols
        self.nrows = nrows

    def get(self, name: str) -> Any:
        try:
            return self.cols[name]
        except KeyError:
            raise KeyError(
                f"no column {name!r}; have {list(self.cols)}"
            ) from None


def execute(plan: Plan) -> Frame:
    """Run an (already optimized) plan and materialize a :class:`Frame`."""
    borrowed: set[int] = set()
    table = _exec(plan, borrowed)
    return _to_frame(table, borrowed, copy_borrowed=True)


def _to_frame(table: _Table, borrowed: set[int], copy_borrowed: bool) -> Frame:
    out = Frame()
    out._nrows = table.nrows
    cols: dict[str, np.ndarray] = {}
    for name, col in table.cols.items():
        if isinstance(col, DictColumn):
            col = col.decode()
        elif copy_borrowed and id(col) in borrowed:
            col = col.copy()
        cols[name] = col
    out._cols = cols
    return out


def _exec(plan: Plan, borrowed: set[int]) -> _Table:
    if isinstance(plan, Scan):
        cols = dict(plan.frame._cols)
        borrowed.update(id(c) for c in cols.values())
        return _Table(cols, plan.frame.nrows)
    if isinstance(plan, ScanCache):
        names = plan.columns
        if names is not None and plan.predicate is not None:
            names = names | frozenset(plan.predicate.references())
        cols, nrows = plan.store.load_columns(names)
        table = _Table(cols, nrows)
        if plan.predicate is not None:
            table = _apply_filter(table, plan.predicate)
        if plan.columns is not None and set(table.cols) != set(plan.columns):
            # Drop columns that were loaded only to evaluate the predicate,
            # preserving the store's column order.
            table = _Table(
                {n: c for n, c in table.cols.items() if n in plan.columns},
                table.nrows,
            )
        return table
    if isinstance(plan, Filter):
        return _apply_filter(_exec(plan.input, borrowed), plan.expr)
    if isinstance(plan, Select):
        table = _exec(plan.input, borrowed)
        return _Table({n: table.get(n) for n in plan.names}, table.nrows)
    if isinstance(plan, WithColumn):
        table = _exec(plan.input, borrowed)
        value = plan.expr.evaluate(table.cols)
        if not isinstance(value, DictColumn):
            value = _as_column(
                value, table.nrows if not isinstance(value, np.ndarray) else None
            )
            if len(value) != table.nrows:
                raise ValueError(
                    f"column {plan.name!r} has length {len(value)}, "
                    f"expected {table.nrows}"
                )
        cols = dict(table.cols)
        cols[plan.name] = value
        return _Table(cols, table.nrows)
    if isinstance(plan, Sort):
        table = _exec(plan.input, borrowed)
        keys = []
        for n in reversed(plan.names):
            col = table.get(n)
            if isinstance(col, DictColumn):
                col = col.decode()
            keys.append(col.astype(str) if col.dtype == object else col)
        order = np.lexsort(keys)
        if plan.descending:
            order = order[::-1]
        return _take(table, order)
    if isinstance(plan, Join):
        left = _to_frame(_exec(plan.left, borrowed), borrowed, copy_borrowed=False)
        right = _to_frame(_exec(plan.right, borrowed), borrowed, copy_borrowed=False)
        joined = vectorized_join(left, right, plan.on, plan.how, plan.suffix)
        cols = dict(joined._cols)
        borrowed.update(id(c) for c in cols.values())
        return _Table(cols, joined.nrows)
    if isinstance(plan, GroupAgg):
        frame = _to_frame(_exec(plan.input, borrowed), borrowed, copy_borrowed=False)
        grouped = frame.groupby(*plan.keys)
        result = grouped.size() if plan.spec is None else grouped.agg(plan.spec)
        return _Table(dict(result._cols), result.nrows)
    raise TypeError(f"unknown plan node: {type(plan).__name__}")


def _apply_filter(table: _Table, expr: Expr) -> _Table:
    mask = expr.evaluate(table.cols)
    mask = np.asarray(mask)
    if mask.ndim == 0:
        mask = np.broadcast_to(np.asarray(bool(mask)), (table.nrows,))
    elif mask.dtype != bool:
        mask = mask.astype(bool)
    if len(mask) != table.nrows:
        raise ValueError(f"mask length {len(mask)} != row count {table.nrows}")
    return _take(table, mask)


def _take(table: _Table, indices: np.ndarray) -> _Table:
    nrows = int(indices.sum()) if indices.dtype == bool else len(indices)
    cols = {
        n: c.take(indices) if isinstance(c, DictColumn) else c[indices]
        for n, c in table.cols.items()
    }
    return _Table(cols, nrows)


# ------------------------------------------------------------ vectorized join

def vectorized_join(
    left: Frame, right: Frame, on: str, how: str = "inner", suffix: str = "_r"
) -> Frame:
    """Hash join on a single key column, vectorized.

    Both key columns are coded together by
    :func:`~repro.dataframe.groupby.factorize`, so keys match exactly as
    they group: dict equality, and a NaN key matches nothing. Output:
    left rows in order, right matches in row order, unmatched left rows
    None-filled (left join), name collisions suffixed.
    """
    if how not in ("inner", "left"):
        raise ValueError(f"how must be 'inner' or 'left', got {how!r}")
    lk, rk = left[on], right[on]
    if lk.dtype.kind != rk.dtype.kind:
        # Numeric promotion could merge keys dict equality keeps apart
        # (2**53 + 1 vs 2.0**53); compare mixed kinds as Python objects.
        lk, rk = lk.astype(object), rk.astype(object)
    codes = factorize(np.concatenate([lk, rk]))
    nl = left.nrows
    lc, rc = codes[:nl], codes[nl:]
    order = np.argsort(rc, kind="stable")
    counts = np.bincount(rc, minlength=int(codes.max(initial=-1)) + 1)
    offsets = np.cumsum(counts) - counts
    cnt_l = counts[lc] if nl else np.zeros(0, dtype=np.intp)
    reps = cnt_l if how == "inner" else np.maximum(cnt_l, 1)
    total = int(reps.sum())
    li = np.repeat(np.arange(nl), reps)
    if total:
        run_starts = np.cumsum(reps) - reps
        pos = np.arange(total) - np.repeat(run_starts, reps)
        base = np.repeat(offsets[lc], reps)
        matched_rep = np.repeat(cnt_l > 0, reps)
        if len(order):
            gather = base + pos
            gather[~matched_rep] = 0
            rr = np.where(matched_rep, order[gather], -1)
        else:
            rr = np.full(total, -1, dtype=np.intp)
    else:
        rr = np.zeros(0, dtype=np.intp)
    data: dict[str, object] = {}
    for n in left.columns:
        data[n] = left[n][li] if total else left[n][:0]
    missing = rr < 0
    ri = np.where(missing, 0, rr)
    for n in right.columns:
        if n == on:
            continue
        name = n if n not in data else n + suffix
        col = right[n][ri] if total else right[n][:0]
        if missing.any():
            col = col.astype(object)
            col[missing] = None
        data[name] = col
    return Frame(data) if data else Frame()
