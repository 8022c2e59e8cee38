"""Group-by machinery for :class:`repro.dataframe.Frame`.

Thicket's workflow groups profile rows by metadata (variant, tuning,
machine) and aggregates metrics across runs; ``GroupBy`` provides exactly
that: iteration over groups and reduction with named aggregators.

Key columns are coded by :func:`factorize`, the one key semantics shared
with the hash join in :mod:`repro.dataframe.plan`. Multiple keys combine
mixed-radix (re-compacted per step so codes never overflow), and group
ids are remapped to deterministic first-occurrence order.
``size()``/``agg()`` then reduce over stable-sorted row segments — no
sub-Frame is materialized per group.
"""

from __future__ import annotations

from collections.abc import Callable, Iterator, Mapping, Sequence
from typing import Any

import numpy as np

from repro.dataframe.frame import Frame

AGGREGATORS: dict[str, Callable[[np.ndarray], float]] = {
    "mean": lambda a: float(np.mean(a)),
    "sum": lambda a: float(np.sum(a)),
    "min": lambda a: float(np.min(a)),
    "max": lambda a: float(np.max(a)),
    "std": lambda a: float(np.std(a)),
    "median": lambda a: float(np.median(a)),
    "count": lambda a: float(len(a)),
    "first": lambda a: a[0],
    "last": lambda a: a[-1],
}


def factorize(col: np.ndarray) -> np.ndarray:
    """Per-row int64 key codes: the key semantics of groupby and join.

    Two rows share a code exactly when a Python dict would treat their
    values as one key (``1 == 1.0 == True``, ``None == None``), except
    that NaN, float or object, matches nothing, not even another NaN.
    Typed columns are coded by ``np.unique``; object columns take one
    dict-coding pass, which is the semantics itself and also cheaper
    than sorting Python objects. Code values carry no order.
    """
    # NaN is the one value unequal to itself; each gets a code of its own.
    nan = col != col if col.dtype.kind in "fcO" else None
    keyed = col[~nan] if nan is not None and nan.any() else col
    if keyed.dtype == object:
        index: dict[Any, int] = {}
        codes = np.fromiter(
            (index.setdefault(v, len(index)) for v in keyed),
            dtype=np.int64, count=len(keyed),
        )
    else:
        codes = np.unique(keyed, return_inverse=True)[1].astype(np.int64)
    if keyed is col:
        return codes
    out = np.empty(len(col), dtype=np.int64)
    out[~nan] = codes
    first_nan_code = int(codes.max(initial=-1)) + 1
    out[nan] = first_nan_code + np.arange(int(nan.sum()), dtype=np.int64)
    return out


class GroupBy:
    """Lazily-evaluated grouping of a frame by one or more key columns."""

    def __init__(self, frame: Frame, keys: Sequence[str]) -> None:
        if not keys:
            raise ValueError("groupby needs at least one key column")
        for key in keys:
            if key not in frame:
                raise KeyError(f"no column {key!r} to group by")
        self.frame = frame
        self.keys = list(keys)
        cols = [frame[k] for k in self.keys]
        nrows = frame.nrows
        codes = factorize(cols[0])
        for col in cols[1:]:
            # Mixed-radix merge, re-compacted each step so the product
            # of cardinalities never overflows int64.
            col_codes = factorize(col)
            codes = codes * (int(col_codes.max(initial=-1)) + 1) + col_codes
            codes = np.unique(codes, return_inverse=True)[1].astype(np.int64)
        ngroups = int(codes.max(initial=-1)) + 1
        # Remap group ids to first-occurrence order: the row index where
        # each group first appears decides its rank.
        first_row = np.full(ngroups, nrows, dtype=np.int64)
        np.minimum.at(first_row, codes, np.arange(nrows, dtype=np.int64))
        rank_order = np.argsort(first_row, kind="stable")
        remap = np.empty(ngroups, dtype=np.int64)
        remap[rank_order] = np.arange(ngroups, dtype=np.int64)
        codes = remap[codes]
        self._order = np.argsort(codes, kind="stable")
        self._counts = np.bincount(codes, minlength=ngroups)
        self._starts = np.cumsum(self._counts) - self._counts
        self._keys_list = [
            tuple(col[r] for col in cols) for r in first_row[rank_order]
        ]
        self._key_to_group: dict[tuple, int] | None = None

    # ------------------------------------------------------------- access
    def _group_rows(self, g: int) -> np.ndarray:
        start = self._starts[g]
        return self._order[start:start + self._counts[g]]

    def __len__(self) -> int:
        return len(self._keys_list)

    def __iter__(self) -> Iterator[tuple[tuple, Frame]]:
        """Yield (key-tuple, sub-frame) pairs in first-seen order."""
        for g, key in enumerate(self._keys_list):
            yield key, self.frame.take(self._group_rows(g))

    def groups(self) -> dict[tuple, Frame]:
        return dict(iter(self))

    def get(self, *key_values: object) -> Frame:
        if self._key_to_group is None:
            self._key_to_group = {
                key: g for g, key in enumerate(self._keys_list)
            }
        key = tuple(key_values)
        if key not in self._key_to_group:
            raise KeyError(f"no group {key!r}; have {self._keys_list}")
        return self.frame.take(self._group_rows(self._key_to_group[key]))

    # --------------------------------------------------------- reductions
    def _key_data(self) -> dict[str, list]:
        # Column-wise key values via the representative (first) row of
        # each group; Frame() applies the same list coercion
        # from_records would, so dtypes match the legacy output exactly.
        return {
            k: [self._keys_list[g][j] for g in range(len(self._keys_list))]
            for j, k in enumerate(self.keys)
        }

    def size(self) -> Frame:
        """One row per group with a ``count`` column."""
        if not self._keys_list:
            return Frame()
        data: dict[str, object] = self._key_data()
        data["count"] = [int(c) for c in self._counts]
        return Frame(data)

    def agg(self, spec: Mapping[str, str | Callable[[np.ndarray], Any]]) -> Frame:
        """Aggregate columns: ``spec`` maps column -> aggregator (name or fn).

        The result has one row per group, the key columns, and one column
        per aggregated metric named ``<column>_<aggname>`` (or ``<column>``
        when a callable is supplied). Each aggregator runs over a slice of
        the stable-sorted column — rows appear in frame order, exactly as
        the per-group index lists used to provide.
        """
        resolved: list[tuple[str, str, Callable[[np.ndarray], Any]]] = []
        for col, how in spec.items():
            if col not in self.frame:
                raise KeyError(f"no column {col!r} to aggregate")
            if callable(how):
                resolved.append((col, col, how))
            else:
                if how not in AGGREGATORS:
                    raise ValueError(
                        f"unknown aggregator {how!r}; have {list(AGGREGATORS)}"
                    )
                resolved.append((col, f"{col}_{how}", AGGREGATORS[how]))
        if not self._keys_list:
            return Frame()
        data: dict[str, object] = self._key_data()
        for col, out_name, fn in resolved:
            sorted_vals = self.frame[col][self._order]
            data[out_name] = [
                fn(sorted_vals[self._starts[g]:self._starts[g] + self._counts[g]])
                for g in range(len(self._keys_list))
            ]
        return Frame(data)

    def apply(self, fn: Callable[[Frame], Mapping[str, Any]]) -> Frame:
        """Apply ``fn`` to each sub-frame; collect returned dicts as rows."""
        records = []
        for key, sub in self:
            rec = dict(zip(self.keys, key))
            rec.update(fn(sub))
            records.append(rec)
        return Frame.from_records(records)
