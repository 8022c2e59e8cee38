"""The :class:`Frame` column-store.

A ``Frame`` is an ordered mapping of column name -> 1-D NumPy array, all of
equal length. It supports the operations Thicket needs (select, filter,
group-by, join, sort, column arithmetic) without pulling in pandas.
"""

from __future__ import annotations

from collections.abc import Callable, Iterable, Iterator, Mapping, Sequence
from typing import Any

import numpy as np


#: elementwise "is a float NaN" over an object column (``Frame.equals``)
_is_nan = np.frompyfunc(
    lambda v: isinstance(v, (float, np.floating)) and v != v, 1, 1
)


def _as_column(values: object, length_hint: int | None = None) -> np.ndarray:
    """Coerce ``values`` to a 1-D column array (object dtype for strings)."""
    if isinstance(values, np.ndarray):
        arr = values
    else:
        seq = list(values) if not np.isscalar(values) else None
        if seq is None:
            if length_hint is None:
                raise ValueError("scalar column requires a length hint")
            arr = np.full(length_hint, values)
        elif seq and (isinstance(seq[0], str) or seq[0] is None):
            # Short-circuit on the first element: string-led and
            # None-led inputs go straight to object dtype.
            arr = np.array(seq, dtype=object)
        else:
            # Let NumPy inspect the rest; a str/unicode result means a
            # stringy or mixed payload whose original values (ints next
            # to strings) must survive, so rebuild as object.
            arr = np.asarray(seq)
            if arr.dtype.kind in "US":
                arr = np.array(seq, dtype=object)
    if arr.ndim != 1:
        raise ValueError(f"columns must be 1-D, got shape {arr.shape}")
    if arr.dtype.kind in "US":
        arr = arr.astype(object)
    return arr


class Frame:
    """An immutable-length, ordered collection of named columns."""

    def __init__(self, data: Mapping[str, object] | None = None) -> None:
        self._cols: dict[str, np.ndarray] = {}
        self._nrows = 0
        if data:
            items = list(data.items())
            first = _as_column(items[0][1])
            self._nrows = len(first)
            self._cols[str(items[0][0])] = first
            for name, values in items[1:]:
                col = _as_column(values, self._nrows)
                if len(col) != self._nrows:
                    raise ValueError(
                        f"column {name!r} has length {len(col)}, expected {self._nrows}"
                    )
                self._cols[str(name)] = col

    # ---------------------------------------------------------------- basic
    @classmethod
    def from_records(cls, records: Iterable[Mapping[str, Any]]) -> "Frame":
        """Build a frame from an iterable of row dicts (union of keys)."""
        rows = list(records)
        if not rows:
            return cls()
        # Ordered-set union of keys: a dict keeps first-seen order without
        # the quadratic `key not in list` scan per row.
        keys: dict[str, None] = {}
        for row in rows:
            keys.update(dict.fromkeys(row))
        data = {key: [row.get(key) for row in rows] for key in keys}
        return cls(data)

    @property
    def columns(self) -> list[str]:
        return list(self._cols)

    @property
    def nrows(self) -> int:
        return self._nrows

    def __len__(self) -> int:
        return self._nrows

    def __contains__(self, name: str) -> bool:
        return name in self._cols

    def __getitem__(self, name: str) -> np.ndarray:
        try:
            return self._cols[name]
        except KeyError:
            raise KeyError(f"no column {name!r}; have {self.columns}") from None

    def __iter__(self) -> Iterator[str]:
        return iter(self._cols)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Frame):
            return NotImplemented
        if self.columns != other.columns or self.nrows != other.nrows:
            return False
        return all(
            np.array_equal(self._cols[c], other._cols[c]) for c in self.columns
        )

    def equals(self, other: "Frame", equal_nan: bool = True) -> bool:
        """Like ``==`` but treating aligned NaNs as equal (the default).

        The NaN rule holds in float and object columns alike; a NaN
        still differs from None and from any other value.

        ``__eq__`` uses strict ``np.array_equal``, under which a column
        containing NaN never equals itself — useless for comparing two
        independently composed ensembles. This is the comparison the
        ingest-equivalence guarantees are stated in.
        """
        if not isinstance(other, Frame):
            return False
        if self.columns != other.columns or self.nrows != other.nrows:
            return False
        for name in self.columns:
            a, b = self._cols[name], other._cols[name]
            if a.dtype != b.dtype:
                return False
            if np.array_equal(a, b):
                continue
            if not equal_nan or a.dtype.kind not in "fO":
                return False
            if a.dtype.kind == "f":
                same = np.array_equal(a, b, equal_nan=True)
            else:
                both_nan = _is_nan(a).astype(bool) & _is_nan(b).astype(bool)
                same = np.array_equal(a[~both_nan], b[~both_nan])
            if not same:
                return False
        return True

    def __repr__(self) -> str:
        return f"Frame({self.nrows} rows x {len(self._cols)} cols: {self.columns})"

    def copy(self) -> "Frame":
        out = Frame()
        out._nrows = self._nrows
        out._cols = {name: col.copy() for name, col in self._cols.items()}
        return out

    # ------------------------------------------------------------- mutation
    def with_column(self, name: str, values: object) -> "Frame":
        """Return a new frame with ``name`` set (added or replaced)."""
        col = _as_column(values, self._nrows)
        if self._cols and len(col) != self._nrows:
            raise ValueError(
                f"column {name!r} has length {len(col)}, expected {self._nrows}"
            )
        out = self.copy()
        if not out._cols:
            out._nrows = len(col)
        out._cols[str(name)] = col
        return out

    def drop(self, *names: str) -> "Frame":
        missing = [n for n in names if n not in self._cols]
        if missing:
            raise KeyError(f"cannot drop missing columns {missing}")
        out = Frame()
        out._nrows = self._nrows
        out._cols = {n: c.copy() for n, c in self._cols.items() if n not in names}
        return out

    def rename(self, mapping: Mapping[str, str]) -> "Frame":
        out = Frame()
        out._nrows = self._nrows
        out._cols = {mapping.get(n, n): c.copy() for n, c in self._cols.items()}
        if len(out._cols) != len(self._cols):
            raise ValueError(f"rename produced duplicate column names: {mapping}")
        return out

    # ------------------------------------------------------------ selection
    def select(self, names: Sequence[str]) -> "Frame":
        return self.lazy().select(names).collect()

    def take(self, indices: object) -> "Frame":
        idx = np.asarray(indices)
        out = Frame()
        out._cols = {n: c[idx] for n, c in self._cols.items()}
        out._nrows = len(idx) if idx.dtype != bool else int(idx.sum())
        if out._cols:
            out._nrows = len(next(iter(out._cols.values())))
        return out

    def filter(self, predicate) -> "Frame":
        """Keep rows where ``predicate`` holds.

        ``predicate`` is a column expression (``col("x") == 1``), a
        boolean mask, or a callable applied to each row mapping (the
        callable form matches Thicket's ``filter_metadata``). Callables
        that turn out to be simple column predicates are vectorized by
        tracing them once against symbolic columns; everything else runs
        row-by-row over a single reusable row view.
        """
        from repro.dataframe.expr import Expr

        if isinstance(predicate, Expr):
            return self.lazy().filter(predicate).collect()
        if callable(predicate):
            expr = _vectorize_predicate(self, predicate)
            if expr is not None:
                return self.lazy().filter(expr).collect()
            view = _RowView(self)
            mask = np.fromiter(
                (bool(predicate(view.at(i))) for i in range(self._nrows)),
                dtype=bool,
                count=self._nrows,
            )
        else:
            mask = np.asarray(predicate, dtype=bool)
            if len(mask) != self._nrows:
                raise ValueError(
                    f"mask length {len(mask)} != row count {self._nrows}"
                )
        return self.take(mask)

    def iter_rows(self) -> Iterator[dict[str, Any]]:
        names = self.columns
        for i in range(self._nrows):
            yield {n: self._cols[n][i] for n in names}

    def row(self, i: int) -> dict[str, Any]:
        if not -self._nrows <= i < self._nrows:
            raise IndexError(f"row {i} out of range for {self._nrows} rows")
        return {n: c[i] for n, c in self._cols.items()}

    def to_records(self) -> list[dict[str, Any]]:
        return list(self.iter_rows())

    # -------------------------------------------------------------- sorting
    def sort_by(self, *names: str, descending: bool = False) -> "Frame":
        """Stable lexicographic sort by the given columns (first is primary)."""
        if not names:
            raise ValueError("sort_by needs at least one column")
        return self.lazy().sort(*names, descending=descending).collect()

    # -------------------------------------------------------------- combine
    def vstack(self, other: "Frame") -> "Frame":
        """Concatenate rows; columns must match exactly (order-insensitive)."""
        if set(self.columns) != set(other.columns):
            raise ValueError(
                f"column mismatch: {self.columns} vs {other.columns}"
            )
        if not self._cols:
            return other.copy()
        out = Frame()
        out._cols = {
            n: np.concatenate([self[n], other[n]]) for n in self.columns
        }
        out._nrows = self._nrows + other._nrows
        return out

    def join(self, other: "Frame", on: str, how: str = "inner", suffix: str = "_r") -> "Frame":
        """Hash join on a single key column (vectorized; see plan module)."""
        from repro.dataframe.plan import vectorized_join

        return vectorized_join(self, other, on, how=how, suffix=suffix)

    # ------------------------------------------------------------- groupby
    def groupby(self, *names: str) -> "GroupBy":
        from repro.dataframe.groupby import GroupBy

        return GroupBy(self, names)

    # ---------------------------------------------------------------- lazy
    def lazy(self) -> "LazyFrame":
        """A deferred-query handle over this frame (see dataframe.lazy)."""
        from repro.dataframe.lazy import LazyFrame

        return LazyFrame.scan(self)

    # ------------------------------------------------------------ numeric
    def numeric_columns(self) -> list[str]:
        return [n for n, c in self._cols.items() if c.dtype.kind in "ifub"]

    def to_matrix(self, names: Sequence[str] | None = None) -> np.ndarray:
        """Stack numeric columns into an (nrows, ncols) float matrix."""
        names = list(names) if names is not None else self.numeric_columns()
        if not names:
            return np.empty((self._nrows, 0))
        return np.column_stack([self[n].astype(float) for n in names])


class _RowView(Mapping):
    """A reusable read-only row mapping over a frame.

    ``Frame.filter``'s row fallback repositions one view per row instead
    of building a dict per row; predicates see the usual Mapping surface
    (``row["col"]``, ``row.get``, iteration over column names).
    """

    __slots__ = ("_cols", "_names", "_i")

    def __init__(self, frame: "Frame") -> None:
        self._cols = frame._cols
        self._names = frame.columns
        self._i = 0

    def at(self, i: int) -> "_RowView":
        self._i = i
        return self

    def __getitem__(self, name: str) -> Any:
        try:
            return self._cols[name][self._i]
        except KeyError:
            raise KeyError(f"no column {name!r}; have {self._names}") from None

    def __iter__(self) -> Iterator[str]:
        return iter(self._names)

    def __len__(self) -> int:
        return len(self._names)


class _TraceRow(Mapping):
    """The symbolic row handed to a candidate filter callable: column
    access returns ``col(name)`` expressions instead of values."""

    __slots__ = ("_names",)

    def __init__(self, names: Sequence[str]) -> None:
        self._names = list(names)

    def __getitem__(self, name: str):
        from repro.dataframe.expr import col

        if name in self._names:
            return col(name)
        raise KeyError(name)

    def get(self, name: str, default: Any = None):
        from repro.dataframe.expr import col, lit

        return col(name) if name in self._names else lit(default)

    def __iter__(self) -> Iterator[str]:
        return iter(self._names)

    def __len__(self) -> int:
        return len(self._names)


def _vectorize_predicate(frame: "Frame", predicate: Callable) -> "object | None":
    """Trace ``predicate`` once against symbolic columns.

    Simple column predicates (``lambda r: r["variant"] == "x"``) come
    back as an expression tree we can evaluate vectorized. Anything the
    trace cannot prove equivalent — ``and``/``or`` chains (truth-testing
    an Expr raises), ``in`` on a column value, identity checks, plain
    bool results — returns None and the caller keeps the row loop.
    """
    from repro.dataframe.expr import Expr

    try:
        result = predicate(_TraceRow(frame.columns))
    except Exception:
        return None
    return result if isinstance(result, Expr) else None
