"""The Thicket class: exploratory data analysis over many profiles.

Mirrors LLNL Thicket's composition model (Brink et al., HPDC'23):

* a **performance dataframe** with one row per (profile, region) carrying
  every collected metric;
* a **metadata table** with one row per profile (the Adiak globals:
  variant, tuning, machine, problem size);
* an **aggregated statsframe** summarizing metrics across profiles.

Implemented on :class:`repro.dataframe.Frame` (no pandas in this
environment).
"""

from __future__ import annotations

from collections.abc import Callable, Iterable, Mapping, Sequence
from pathlib import Path
from typing import Any

import numpy as np

from repro.caliper.records import CaliProfile
from repro.dataframe import Expr, Frame, col, parse_expr
from repro.dataframe.groupby import factorize
from repro.thicket import ingest, ingest_cache

PATH_SEP = "/"


class ProfileLoadWarning(UserWarning):
    """A ``.cali`` source was unreadable and skipped (degraded mode)."""


class Thicket:
    """An ensemble of Caliper profiles with composition and EDA methods."""

    def __init__(self, dataframe: Frame, metadata: Frame) -> None:
        for col in ("profile", "name", "path", "depth"):
            if col not in dataframe:
                raise ValueError(f"dataframe lacks required column {col!r}")
        if "profile" not in metadata:
            raise ValueError("metadata lacks required column 'profile'")
        self.dataframe = dataframe
        self.metadata = metadata
        self.statsframe: Frame | None = None
        #: (source, reason) pairs skipped during a tolerant load.
        self.load_errors: list[tuple[str, str]] = []

    # -------------------------------------------------------- construction
    @classmethod
    def from_caliperreader(
        cls,
        sources: Iterable[CaliProfile | str | Path] | CaliProfile | str | Path,
        on_error: str = "raise",
        workers: int = 1,
        cache: str | Path | None = None,
        where: "Expr | str | None" = None,
        incremental: bool = False,
    ) -> "Thicket":
        """Build a Thicket from profiles, ``.cali`` files, or archives.

        Sources may be in-memory :class:`CaliProfile` objects, loose
        ``.cali`` paths, ``.calipack`` archive paths (every entry), or
        ``<archive>::<name>`` member refs, freely mixed.

        ``on_error`` controls degraded-mode composition: ``"raise"``
        (default) propagates the first unreadable source; ``"warn"``
        emits a :class:`ProfileLoadWarning` per corrupt/missing file and
        analyzes the surviving profiles, recording the casualties in
        ``thicket.load_errors``. A campaign with a few dead cells still
        yields its figures.

        ``workers`` > 1 fans composition out over a multiprocessing
        pool (sources split into index ranges, chunks merged in source
        order — the result is identical to a serial load). ``cache``
        names a directory holding content-addressed composed tables: a
        repeated load of an unchanged source set returns without
        parsing any payload, and any change to any profile changes its
        CRC and misses the cache naturally.

        ``where`` restricts the ensemble to profiles whose metadata
        satisfies a column expression (``col("variant") == "RAJA_CUDA"``
        or the equivalent ``--where`` string). When every source is a
        sealed archive entry the predicate is pushed into the calipack
        index: entries it provably rejects are never read or parsed,
        and the exact filter still runs over the survivors, so the
        result always equals composing everything and filtering after.

        ``incremental`` reuses the longest cached *prefix* of the source
        set when the exact identity misses: appending segments to a
        campaign recomposes only the new entries, splices them onto the
        cached tables (bit-identical to a full recompose), and stores
        the updated composition under the full identity.
        """
        if on_error not in ("raise", "warn"):
            raise ValueError(f"on_error must be 'raise' or 'warn', got {on_error!r}")
        if workers < 1:
            raise ValueError(f"workers must be >= 1, got {workers}")
        where_expr = _resolve_where(where)
        view, expand_errors = ingest.expand_sources(sources)
        units = view.units
        if expand_errors and on_error == "raise":
            src, reason = expand_errors[0]
            raise ValueError(f"{src}: {reason}")
        if not units and not expand_errors:
            raise ValueError("no profiles given")

        identity = view.identity() if cache is not None else None
        if identity is not None and not expand_errors:
            hit = ingest_cache.load(cache, identity)
            if hit is not None:
                return _apply_where(cls(*hit), where_expr)

        if incremental and identity is not None and not expand_errors:
            prefix = ingest_cache.find_prefix(cache, identity)
            if prefix is not None:
                thicket = cls._compose_suffix(
                    units, prefix, workers, on_error, expand_errors,
                    cache, identity,
                )
                return _apply_where(thicket, where_expr)

        compose, indices, pad = units, None, None
        if where_expr is not None:
            plan = ingest.index_pushdown(view, where_expr)
            if plan is not None and len(plan[0]) < len(units):
                compose, indices, meta_cols, metric_cols = plan
                pad = (meta_cols, metric_cols)

        builder, loaded, load_errors = ingest.compose_units(
            compose, workers, on_error, indices=indices
        )
        load_errors = expand_errors + load_errors
        ingest.warn_load_errors(load_errors, ProfileLoadWarning)
        if not loaded:
            raise ValueError(
                "no profiles given"
                if not load_errors
                else f"no readable profiles (skipped {len(load_errors)})"
            )
        frame, metadata = ingest.build_frames(builder)
        if pad is not None:
            frame, metadata = _pad_schema(frame, metadata, *pad)
        thicket = cls(frame, metadata)
        thicket.load_errors = load_errors
        # Only a complete composition is cacheable; a pushdown-reduced
        # one covers a predicate-specific subset of the ensemble.
        if identity is not None and not load_errors and pad is None:
            try:
                ingest_cache.store(cache, identity, frame, metadata)
            except OSError:  # pragma: no cover - read-only cache dir
                pass
        return _apply_where(thicket, where_expr)

    @classmethod
    def _compose_suffix(
        cls, units, prefix, workers, on_error, expand_errors, cache, identity
    ) -> "Thicket":
        """Incremental path: cached prefix tables + a composed suffix.

        The suffix composes with its units' original source indices and
        splices onto the prefix through the composition-semantics
        concat, so the merged tables are bit-identical to recomposing
        every source from scratch.
        """
        n, pre_df, pre_md = prefix
        builder, _, load_errors = ingest.compose_units(
            units[n:], workers, on_error, indices=range(n, len(units))
        )
        load_errors = expand_errors + load_errors
        ingest.warn_load_errors(load_errors, ProfileLoadWarning)
        suf_df, suf_md = ingest.build_frames(builder)
        frame = ingest.coerce_metrics(ingest.concat_composed(pre_df, suf_df))
        metadata = ingest.concat_composed(pre_md, suf_md)
        thicket = cls(frame, metadata)
        thicket.load_errors = load_errors
        if not load_errors:
            try:
                ingest_cache.store(cache, identity, frame, metadata)
            except OSError:  # pragma: no cover - read-only cache dir
                pass
        return thicket

    @classmethod
    def concat_thickets(cls, thickets: Sequence["Thicket"]) -> "Thicket":
        """Compose several thickets into one ensemble (Thicket.concat)."""
        if not thickets:
            raise ValueError("nothing to concatenate")
        df = thickets[0].dataframe
        md = thickets[0].metadata
        for other in thickets[1:]:
            df = _outer_vstack(df, other.dataframe)
            md = _outer_vstack(md, other.metadata)
        return cls(df, md)

    # ------------------------------------------------------------ queries
    @property
    def profiles(self) -> list[Any]:
        return list(dict.fromkeys(self.metadata["profile"].tolist()))

    def metric_columns(self) -> list[str]:
        skip = {"profile", "name", "path", "depth"}
        return [c for c in self.dataframe.columns if c not in skip]

    def filter_metadata(
        self,
        predicate: "Expr | Callable[[Mapping[str, Any]], bool]",
    ) -> "Thicket":
        """Keep profiles whose metadata row satisfies ``predicate``.

        ``predicate`` is a column expression (``col("variant") == "x"``)
        evaluated vectorized, or a row callable (vectorized by tracing
        when it proves to be a simple column predicate). The dataframe
        is cut to the surviving profiles by :func:`_membership_mask`:
        profile ids coded to ints with the groupby/join key semantics,
        then one integer ``np.isin``.
        """
        keep_md = self.metadata.filter(predicate)
        keep_df = self.dataframe.filter(
            _membership_mask(self.dataframe["profile"], keep_md["profile"])
        )
        return Thicket(keep_df, keep_md)

    def filter_regions(self, predicate: Callable[[str], bool]) -> "Thicket":
        """Keep dataframe rows whose region name satisfies ``predicate``."""
        mask = np.fromiter(
            (bool(predicate(str(n))) for n in self.dataframe["name"]),
            dtype=bool,
            count=self.dataframe.nrows,
        )
        return Thicket(self.dataframe.take(mask), self.metadata)

    def query(self, pattern: str) -> "Thicket":
        """Keep dataframe rows whose region *path* matches a glob pattern.

        Thicket's query language addresses call-tree paths; here a path is
        the ``/``-joined region names, matched with ``fnmatch`` semantics:
        ``thicket.query("RAJAPerf/*/Stream_*")`` selects the Stream kernels
        regardless of group nesting.
        """
        import fnmatch

        mask = np.fromiter(
            (fnmatch.fnmatch(str(p), pattern) for p in self.dataframe["path"]),
            dtype=bool,
            count=self.dataframe.nrows,
        )
        return Thicket(self.dataframe.take(mask), self.metadata)

    def metadata_query(self, **equals: Any) -> "Thicket":
        """Keep profiles whose metadata matches all given key=value pairs."""
        unknown = [k for k in equals if k not in self.metadata]
        if unknown:
            raise KeyError(f"no metadata columns {unknown}; have {self.metadata.columns}")
        if equals and all(
            v is None or isinstance(v, (str, int, float, bool))
            for v in equals.values()
        ):
            expr: Expr | None = None
            for k, v in equals.items():
                term = col(k) == v
                expr = term if expr is None else (expr & term)
            return self.filter_metadata(expr)
        # Non-scalar values keep dict-equality semantics via the row path.
        return self.filter_metadata(
            lambda md: all(md.get(k) == v for k, v in equals.items())
        )

    def groupby(self, key: str) -> dict[Any, "Thicket"]:
        """Split the ensemble by a metadata column (Thicket.groupby)."""
        if key not in self.metadata:
            raise KeyError(f"no metadata column {key!r}")
        out: dict[Any, Thicket] = {}
        for value, sub_md in self.metadata.groupby(key):
            sub_df = self.dataframe.filter(
                _membership_mask(self.dataframe["profile"], sub_md["profile"])
            )
            out[value[0]] = Thicket(sub_df, sub_md)
        return out

    def lazy(self, table: str = "metadata"):
        """A deferred-query handle over one of the thicket's tables.

        ``thicket.lazy().filter(col("variant") == "x").select([...])``
        builds a plan and runs it vectorized on ``collect()`` — the
        same expression API ``where=`` pushes into the archive index.
        """
        if table not in ("metadata", "dataframe"):
            raise ValueError(
                f"table must be 'metadata' or 'dataframe', got {table!r}"
            )
        frame = self.metadata if table == "metadata" else self.dataframe
        return frame.lazy()

    def metric_for_profile(self, profile: Any, metric: str) -> dict[str, float]:
        """region name -> metric value for one profile."""
        sub = self.dataframe.filter(
            np.fromiter(
                (p == profile for p in self.dataframe["profile"]),
                dtype=bool,
                count=self.dataframe.nrows,
            )
        )
        return {
            str(name): float(value)
            for name, value in zip(sub["name"], sub[metric])
            if value == value  # skip NaN
        }

    def metric_matrix(
        self, metric: str, region_filter: Callable[[str], bool] | None = None
    ) -> tuple[list[str], list[Any], np.ndarray]:
        """(region names, profile ids, matrix) for one metric.

        Rows are regions, columns profiles; missing entries are NaN.
        """
        if metric not in self.dataframe:
            raise KeyError(f"no metric {metric!r}; have {self.metric_columns()}")
        regions: list[str] = []
        for name in self.dataframe["name"]:
            s = str(name)
            if region_filter is not None and not region_filter(s):
                continue
            if s not in regions:
                regions.append(s)
        profs = self.profiles
        matrix = np.full((len(regions), len(profs)), np.nan)
        region_idx = {r: i for i, r in enumerate(regions)}
        prof_idx = {p: j for j, p in enumerate(profs)}
        values = self.dataframe[metric]
        for row in range(self.dataframe.nrows):
            name = str(self.dataframe["name"][row])
            if name not in region_idx:
                continue
            prof = self.dataframe["profile"][row]
            value = values[row]
            if value == value:
                matrix[region_idx[name], prof_idx[prof]] = float(value)
        return regions, profs, matrix

    # ---------------------------------------------------------- statistics
    def aggregate_stats(
        self, metrics: Sequence[str] | None = None, aggs: Sequence[str] = ("mean", "min", "max", "std")
    ) -> Frame:
        """Per-region statistics across all profiles -> the statsframe.

        Aggregators are NumPy reduction names plus percentile shorthands
        (``"p50"``, ``"p95"``, ...), matching Thicket's stats module.
        """
        metrics = list(metrics) if metrics is not None else self.metric_columns()
        numeric = [
            m for m in metrics if m in self.dataframe and self.dataframe[m].dtype != object
        ]
        records = []
        for (name,), sub in self.dataframe.groupby("name"):
            rec: dict[str, Any] = {"name": name}
            for m in numeric:
                col = sub[m]
                col = col[~np.isnan(col.astype(float))]
                if len(col) == 0:
                    continue
                for agg in aggs:
                    rec[f"{m}_{agg}"] = _aggregate(col, agg)
            records.append(rec)
        self.statsframe = Frame.from_records(records)
        return self.statsframe

    def tree(self, metric: str | None = None, profile: Any | None = None) -> str:
        """Render the region tree of one profile (Thicket.tree())."""
        prof = profile if profile is not None else self.profiles[0]
        lines: list[str] = [f"profile: {prof}"]
        sub_rows = [
            row
            for row in self.dataframe.iter_rows()
            if row["profile"] == prof
        ]
        sub_rows.sort(key=lambda r: str(r["path"]))
        for row in sub_rows:
            indent = "  " * (int(row["depth"]) - 1)
            suffix = ""
            if metric is not None and row.get(metric) == row.get(metric):
                suffix = f"  [{metric}={row[metric]:.6g}]"
            lines.append(f"{indent}{row['name']}{suffix}")
        return "\n".join(lines)

    def __repr__(self) -> str:
        return (
            f"Thicket({len(self.profiles)} profiles, "
            f"{self.dataframe.nrows} rows, {len(self.metric_columns())} metrics)"
        )


def _aggregate(values: np.ndarray, agg: str) -> float:
    """One aggregation: a NumPy reduction name or a pNN percentile."""
    if agg.startswith("p") and agg[1:].isdigit():
        q = int(agg[1:])
        if not 0 <= q <= 100:
            raise ValueError(f"percentile out of range: {agg}")
        return float(np.percentile(values, q))
    fn = getattr(np, agg, None)
    if fn is None:
        raise ValueError(f"unknown aggregator {agg!r}")
    return float(fn(values))


def _profile_id(profile: CaliProfile, index: int) -> str:
    return ingest.profile_id(profile.globals, index)


def _resolve_where(where: "Expr | str | None") -> "Expr | None":
    """Normalize a ``where=`` argument: expression, query string, None."""
    if where is None or isinstance(where, Expr):
        return where
    if isinstance(where, str):
        return parse_expr(where)
    raise TypeError(
        f"where must be a column expression or a query string, "
        f"got {type(where).__name__}"
    )


def _apply_where(thicket: "Thicket", where_expr: "Expr | None") -> "Thicket":
    """The exact metadata filter — always the authority after pushdown."""
    if where_expr is None:
        return thicket
    filtered = thicket.filter_metadata(where_expr)
    filtered.load_errors = thicket.load_errors
    return filtered


def _membership_mask(values: np.ndarray, keep: np.ndarray) -> np.ndarray:
    """Boolean mask of ``values`` rows whose value appears in ``keep``.

    Both sides are coded together by :func:`factorize` — one key
    semantics with groupby and join: dict equality (``1 == 1.0``,
    ``None == None``), and NaN matches nothing — then compared as ints,
    one pass however many ids ``keep`` holds.
    """
    codes = factorize(np.concatenate([keep, values]))
    return np.isin(codes[len(keep):], codes[: len(keep)])


def _pad_schema(
    frame: Frame, metadata: Frame, meta_cols: dict, metric_cols: list
) -> tuple[Frame, Frame]:
    """Pad a pushdown-reduced composition back to the full schema.

    Entries the index filter skipped never composed, so columns only
    they carry are missing; a full compose would have kept those columns
    (``None``-backfilled metadata, NaN-coerced metrics) and the exact
    filter only removes *rows*. Reinstate them — in the full compose's
    first-seen order, reconstructed from the per-entry index schema —
    and widen a metadata column to the dtype the skipped entries would
    have given it (``trial`` is object when some profile lacks it), so
    filtered-with-pushdown equals filtered-after-composing.
    """
    md_cols: dict[str, object] = {}
    for name, dtype in meta_cols.items():
        if name in metadata:
            column = metadata[name]
            if dtype is not None and column.dtype != dtype:
                column = column.astype(dtype)
            md_cols[name] = column
        else:
            md_cols[name] = np.array([None] * metadata.nrows, dtype=object)
    for name in metadata.columns:
        md_cols.setdefault(name, metadata[name])

    df_cols: dict[str, object] = {}
    for name in list(ingest.CORE_COLUMNS) + list(metric_cols):
        if name in frame:
            df_cols[name] = frame[name]
        else:
            df_cols[name] = np.full(frame.nrows, np.nan)
    for name in frame.columns:
        df_cols.setdefault(name, frame[name])
    return Frame(df_cols), Frame(md_cols)


def _outer_vstack(a: Frame, b: Frame) -> Frame:
    """vstack with an outer join on columns (missing cells become NaN/None)."""
    all_cols = list(dict.fromkeys(list(a.columns) + list(b.columns)))

    def pad(frame: Frame) -> Frame:
        out = frame
        for col in all_cols:
            if col not in out:
                template = a[col] if col in a else b[col]
                if template.dtype == object:
                    filler = np.array([None] * out.nrows, dtype=object)
                else:
                    filler = np.full(out.nrows, np.nan)
                out = out.with_column(col, filler)
        return out.select(all_cols)

    return pad(a).vstack(pad(b))
