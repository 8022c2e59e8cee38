"""High-throughput profile ingest: columnar composition + parallel fan-out.

The seed composition path built one dict per (profile, region) row and
handed the pile to ``Frame.from_records``, which re-scanned the key
union and re-probed every row per column — O(rows x columns) twice
over, after materializing a full :class:`RegionRecord` tree per profile
just to walk it once. At paper scale (thousands of profiles) that
assembly, not the kernels, is the wall.

This module replaces it:

* **Sources expand to lightweight refs** (:class:`FileRef` for loose
  ``.cali`` files, :class:`EntryRef` for ``.calipack`` archive entries
  located via the footer index), so work can be split by index ranges.
  The expanded list is an :class:`ArchiveView`, which also keeps what
  queries derive from the index; one whole sealed archive's view is
  memoized next to its parsed index, so repeated queries on an
  unchanged archive decode and derive nothing twice.
* **Record assembly is columnar**: payload JSON is walked *as parsed*
  (no ``RegionRecord`` objects on the hot path) and values append
  directly into growing per-column lists; a column first seen late is
  back-filled with ``None`` once, not re-scanned per row.
* **`workers=N` fans ref chunks out** over a ``multiprocessing`` pool;
  each worker returns its chunk's columns (cheap to pickle — flat
  lists, not object trees) and the supervisor merges chunks in source
  order, so serial and parallel ingest produce identical frames.
"""

from __future__ import annotations

import warnings
from collections import Counter
from collections.abc import Iterable, Mapping, Sequence
from dataclasses import dataclass, field
from itertools import chain
from operator import itemgetter
from pathlib import Path
from types import MappingProxyType
from typing import Any, BinaryIO

import numpy as np

from repro.caliper import calipack
from repro.caliper.cali import parse_cali_payload, sealed_crc32
from repro.caliper.records import CaliProfile
from repro.dataframe import Frame
from repro.util.memo import Derived

PATH_SEP = "/"

#: dataframe columns that are identity, not metrics
CORE_COLUMNS = ("profile", "name", "path", "depth")

#: chunks per worker — small enough to balance, big enough to amortize IPC
_CHUNKS_PER_WORKER = 4


@dataclass(frozen=True)
class FileRef:
    """One loose ``.cali`` file."""

    path: str

    @property
    def label(self) -> str:
        return self.path

    @property
    def cache_name(self) -> str:
        return Path(self.path).name


@dataclass(frozen=True)
class EntryRef:
    """One entry inside a ``.calipack`` archive (located by the index).

    ``attrs``/``metrics`` mirror the sealed index's per-entry schema
    (scalar globals and document-order metric names); None when the
    archive predates them. They feed predicate pushdown — deciding
    entry survival and reconstructing skipped entries' column order
    without reading any payload. Pushdown plans in the parent, so
    they do not travel to pool workers (the read-only index mappings
    would not pickle).
    """

    archive: str
    name: str
    offset: int
    length: int
    crc32: int
    attrs: Mapping[str, Any] | None = field(default=None, compare=False)
    metrics: tuple[str, ...] | None = field(default=None, compare=False)

    @property
    def label(self) -> str:
        return calipack.member_ref(self.archive, self.name)

    @property
    def cache_name(self) -> str:
        return self.name

    def __reduce__(self):
        return EntryRef, (self.archive, self.name, self.offset, self.length,
                          self.crc32)


def profile_id(globals_: dict[str, Any], index: int) -> str:
    """Thicket's profile identity: machine/variant[/tuning][/trialN]."""
    parts = [str(globals_.get("machine", "?")), str(globals_.get("variant", "?"))]
    tuning = globals_.get("tuning")
    if tuning and tuning != "default":
        parts.append(str(tuning))
    trial = globals_.get("trial")
    if trial not in (None, 0):
        parts.append(f"trial{trial}")
    base = "/".join(parts)
    return base if base != "?/?" else f"profile-{index}"


# -------------------------------------------------------- source expansion
class ArchiveView(Sequence):
    """An expanded source list plus what queries derive from its index.

    A sequence of units (:class:`CaliProfile`, :class:`FileRef`,
    :class:`EntryRef`) in source order. The cache identity, the full
    composition's schema, one object column and nonscalar mask per
    predicate attr, and the name map are each built on first use and
    kept. A view of one whole sealed archive is memoized next to that
    archive's parsed index (:func:`archive_view`); any other source
    list gets a fresh view running the same code. Memoized views are
    shared across threads, so they hand out tuples, read-only mappings
    and read-only arrays only.
    """

    __slots__ = ("units", "_derived")

    def __init__(self, units: Iterable[Any]) -> None:
        self.units: tuple[Any, ...] = tuple(units)
        self._derived = Derived()

    def __len__(self) -> int:
        return len(self.units)

    def __getitem__(self, index):
        return self.units[index]

    def identity(self) -> list[tuple[str, str]] | None:
        """The ingest cache's content address (see :func:`source_identity`)."""
        pairs = self._derived.get("identity", lambda: source_identity(self.units))
        return None if pairs is None else list(pairs)

    def find(self, name: str) -> EntryRef | None:
        """The first archive entry named ``name``, or None."""
        by_name = self._derived.get("by_name", lambda: _by_name(self.units))
        return by_name.get(name)

    def schema(self) -> tuple[Mapping[str, Any], tuple[str, ...]] | None:
        """``(meta_columns, metric_columns)`` of the full composition.

        Reconstructed from the per-entry index schema alone (see
        :func:`index_pushdown`); None unless every unit is an archive
        entry with indexed attrs and metrics.
        """
        return self._derived.get("schema", lambda: _index_schema(self.units))

    def column(self, name: str) -> tuple[np.ndarray, np.ndarray]:
        """``(values, nonscalar)`` for attr ``name`` over every unit.

        ``values`` is an object column of the indexed scalars, None
        where the attr is absent or nonscalar (the metadata table pads
        an absent global with None too); ``nonscalar`` marks the
        entries the index cannot judge. Both arrays are read-only.
        Only views with a :meth:`schema` have columns. A column of an
        attr no entry carries is built per call, so what the view keeps
        stays bounded by the index.
        """
        if name not in self.schema()[0]:
            return _attr_column(self.units, name)
        return self._derived.get(
            ("column", name), lambda: _attr_column(self.units, name)
        )


def expand_sources(
    sources,
) -> tuple[ArchiveView, list[tuple[str, str]]]:
    """Normalize sources into (their view, expansion errors).

    Units are :class:`CaliProfile` objects, :class:`FileRef`, or
    :class:`EntryRef` items in source order; ``.calipack`` paths expand
    to one :class:`EntryRef` per index entry, ``archive::name`` member
    refs to exactly one, resolved through the archive's view. A source
    list that is exactly one archive path returns that archive's view
    (:func:`archive_view`). An unreadable archive becomes an expansion
    error (the caller decides raise-vs-warn).
    """
    if isinstance(sources, (CaliProfile, str, Path)):
        sources = [sources]
    sources = list(sources)
    units: list[Any] = []
    errors: list[tuple[str, str]] = []
    whole: ArchiveView | None = None
    for src in sources:
        if isinstance(src, CaliProfile):
            units.append(src)
            continue
        text = str(src)
        member = calipack.split_member_ref(text)
        try:
            if member is not None:
                archive, name = member
                ref = archive_view(archive).find(name)
                if ref is None:
                    raise KeyError(f"{archive}: no archive entry named {name!r}")
                units.append(ref)
            elif calipack.is_archive(text):
                whole = archive_view(text)
                units.extend(whole.units)
            else:
                units.append(FileRef(path=text))
        except (OSError, ValueError, KeyError) as exc:
            errors.append((text, f"{type(exc).__name__}: {exc}"))
    if len(sources) == 1 and whole is not None:
        return whole, errors
    return ArchiveView(units), errors


def archive_view(archive: str) -> ArchiveView:
    """The view of every entry of one archive.

    Sealed: built once per verified index and kept with it, keyed by
    the path as given (refs carry that spelling). Unsealed (a crashed
    segment): the salvage scan's entries, never memoized.
    """
    try:
        index = calipack.sealed_index(archive)
    except calipack.CalipackError:
        entries, _ = calipack.scan_entries(archive)
        return _archive_view(archive, entries)
    return index.derived.get(
        (ArchiveView, archive), lambda: _archive_view(archive, index.entries)
    )


def _archive_view(archive: str, entries) -> ArchiveView:
    return ArchiveView(_entry_ref(archive, entry) for entry in entries)


def _entry_ref(archive: str | Path, entry: calipack.ArchiveEntry) -> EntryRef:
    return EntryRef(
        archive=str(archive),
        name=entry.name,
        offset=entry.offset,
        length=entry.length,
        crc32=entry.crc32,
        attrs=entry.attrs,
        metrics=entry.metrics,
    )


def _by_name(units: tuple[Any, ...]) -> dict[str, EntryRef]:
    by_name: dict[str, EntryRef] = {}
    for unit in units:
        if isinstance(unit, EntryRef):
            by_name.setdefault(unit.name, unit)
    return by_name


def source_identity(units: Sequence[Any]) -> tuple[tuple[str, str], ...] | None:
    """Content address of the source set: ordered (name, crc32) pairs.

    Archive entries carry their CRC in the index (free); loose files
    declare theirs in the seal footer (a tail read, no payload parse).
    In-memory :class:`CaliProfile` sources have no stable content
    address — those ensembles are not cacheable (returns None).
    """
    out: list[tuple[str, str]] = []
    for unit in units:
        if isinstance(unit, EntryRef):
            out.append((unit.cache_name, f"{unit.crc32:08x}"))
        elif isinstance(unit, FileRef):
            try:
                out.append((unit.cache_name, f"{sealed_crc32(unit.path):08x}"))
            except OSError:
                return None
        else:
            return None
    return tuple(out)


# ------------------------------------------------------- columnar builders
class ColumnBuilder:
    """Typed, growing columns: append rows, back-fill gaps once.

    ``append`` pushes one row's (key, value) pairs; a column that first
    appears at row *i* is back-filled with ``None`` for rows ``0..i-1``,
    and a column missing from a row is padded lazily the next time it
    receives a value (or at :meth:`finish`). Total work is O(values +
    gaps), not O(rows x columns).
    """

    __slots__ = ("cols", "n")

    def __init__(self) -> None:
        self.cols: dict[str, list[Any]] = {}
        self.n = 0

    def append(self, items) -> None:
        n = self.n
        cols = self.cols
        for key, value in items:
            col = cols.get(key)
            if col is None:
                cols[key] = col = [None] * n
            elif len(col) < n:
                col.extend([None] * (n - len(col)))
            col.append(value)
        self.n = n + 1

    def merge(self, chunk_cols: dict[str, list[Any]], chunk_n: int) -> None:
        """Splice a chunk's columns after this builder's rows, in order."""
        base = self.n
        for key, col in chunk_cols.items():
            if len(col) < chunk_n:
                col.extend([None] * (chunk_n - len(col)))
            mine = self.cols.get(key)
            if mine is None:
                self.cols[key] = mine = [None] * base
            elif len(mine) < base:
                mine.extend([None] * (base - len(mine)))
            mine.extend(col)
        self.n = base + chunk_n

    def finish(self) -> dict[str, list[Any]]:
        for col in self.cols.values():
            if len(col) < self.n:
                col.extend([None] * (self.n - len(col)))
        return self.cols


class TableBuilder:
    """Columnar accumulator for both Thicket tables (data + metadata)."""

    __slots__ = ("data", "meta")

    def __init__(self) -> None:
        self.data = ColumnBuilder()
        self.meta = ColumnBuilder()

    def add_payload(self, payload: dict[str, Any], index: int) -> None:
        """Compose one parsed ``.cali`` payload dict (no profile objects)."""
        globals_ = payload.get("globals", {})
        pid = profile_id(globals_, index)
        meta_items = [("profile", pid)]
        meta_items.extend(globals_.items())
        self.meta.append(meta_items)
        data = self.data
        stack = [(node, "", 0) for node in reversed(payload.get("records", []))]
        while stack:
            node, parent_path, parent_depth = stack.pop()
            name = node["name"]
            path = parent_path + PATH_SEP + name if parent_path else name
            depth = parent_depth + 1
            row = [("profile", pid), ("name", name), ("path", path),
                   ("depth", depth)]
            row.extend(node["metrics"].items())
            data.append(row)
            children = node.get("children", ())
            for child in reversed(children):
                stack.append((child, path, depth))

    def add_profile(self, profile: CaliProfile, index: int) -> None:
        """Compose one in-memory :class:`CaliProfile` (same row order)."""
        pid = profile_id(profile.globals, index)
        meta_items = [("profile", pid)]
        meta_items.extend(profile.globals.items())
        self.meta.append(meta_items)
        data = self.data
        for node in profile.walk():
            row = [("profile", pid), ("name", node.name),
                   ("path", PATH_SEP.join(node.path)), ("depth", node.depth)]
            row.extend(node.metrics.items())
            data.append(row)

    def merge(self, other_state) -> None:
        data_cols, data_n, meta_cols, meta_n = other_state
        self.data.merge(data_cols, data_n)
        self.meta.merge(meta_cols, meta_n)

    def state(self):
        return (self.data.cols, self.data.n, self.meta.cols, self.meta.n)


def coerce_metrics(frame: Frame) -> Frame:
    """The dataframe's NaN metric coercion: object columns get their
    ``None`` gaps replaced by NaN and become float when every value
    converts. Idempotent — re-coercing an already coerced frame (the
    incremental merge path) changes nothing. The result is built once,
    sharing every column it leaves alone."""
    cols: dict[str, np.ndarray] = {}
    changed = False
    for col in frame.columns:
        arr = frame[col]
        if col not in ("profile", "name", "path") and arr.dtype == object:
            arr = np.array(
                [np.nan if v is None else v for v in arr], dtype=object
            )
            try:
                arr = arr.astype(float)
            except (TypeError, ValueError):
                pass
            changed = True
        cols[col] = arr
    return Frame(cols) if changed else frame


def build_frames(builder: TableBuilder) -> tuple[Frame, Frame]:
    """Builders -> (dataframe, metadata) with the NaN metric coercion."""
    frame = Frame(builder.data.finish()) if builder.data.n else Frame()
    frame = coerce_metrics(frame)
    metadata = Frame(builder.meta.finish()) if builder.meta.n else Frame()
    return frame, metadata


def concat_composed(a: Frame, b: Frame) -> Frame:
    """Outer row-concat with *composition* semantics.

    The incremental path splices a cached prefix table and a freshly
    composed suffix table, and the result must be bit-identical to one
    full composition. Columns present on both sides with the same dtype
    concatenate vectorized; a column missing on one side (or typed
    differently per side) is rebuilt through the same Python-list
    coercion ``ColumnBuilder`` + :class:`Frame` would apply to the full
    value sequence — ``None`` fill and all — so dtypes come out exactly
    as a from-scratch compose would produce them.
    """
    if not a.columns and not a.nrows:
        return b
    if not b.columns and not b.nrows:
        return a
    all_cols = list(dict.fromkeys(list(a.columns) + list(b.columns)))
    cols: dict[str, object] = {}
    for name in all_cols:
        in_a, in_b = name in a, name in b
        if in_a and in_b and a[name].dtype == b[name].dtype:
            cols[name] = np.concatenate([a[name], b[name]])
            continue
        values = list(a[name]) if in_a else [None] * a.nrows
        values.extend(list(b[name]) if in_b else [None] * b.nrows)
        cols[name] = values
    return Frame(cols)


def index_pushdown(
    view: ArchiveView, expr
) -> tuple[list[Any], list[int], Mapping[str, Any], tuple[str, ...]] | None:
    """Plan an index-level predicate pushdown over archive entries.

    Returns ``(kept_units, kept_indices, meta_columns, metric_columns)``
    — the surviving entries with their *original* source indices (so
    fallback profile ids stay stable) plus the full composition's
    metadata and metric column orders (:meth:`ArchiveView.schema`), so
    skipped entries' columns can be padded back in.

    The predicate is evaluated once, over the view's object column per
    referenced attr. Doubt keeps entries: an entry whose referenced
    attr is nonscalar is kept, and an evaluation that raises keeps
    every entry. The exact filter after composition is the authority;
    this only skips parses.

    Returns None — compose everything, filter exactly — whenever the
    skip cannot be proven safe: any non-archive source, any entry
    without indexed schema, a predicate referencing the synthesized
    ``profile`` column, or a predicate rejecting every entry (the empty
    result's dtypes are not reconstructible from the index alone).
    """
    names = expr.references()
    schema = view.schema()
    if schema is None or "profile" in names:
        return None
    n = len(view)
    keep = np.zeros(n, dtype=bool)
    columns: dict[str, np.ndarray] = {}
    for name in names:
        columns[name], nonscalar = view.column(name)
        keep |= nonscalar
    try:
        keep |= np.broadcast_to(
            np.asarray(expr.evaluate(columns)).astype(bool), (n,)
        )
    except Exception:
        keep[:] = True
    kept_indices = np.flatnonzero(keep).tolist()
    if not kept_indices:
        return None
    units = view.units
    return [units[i] for i in kept_indices], kept_indices, *schema


def _index_schema(
    units: tuple[Any, ...],
) -> tuple[Mapping[str, Any], tuple[str, ...]] | None:
    """The full composition's metadata dtypes and metric column order.

    ``meta_columns`` maps each attr to the dtype the full composition
    gives its column, when a subset could type it narrower: an attr an
    entry lacks, or types differently, widens it. None means no subset
    can differ (one type in every entry; ``profile``).
    """
    if not units or not all(
        isinstance(u, EntryRef) and u.attrs is not None and u.metrics is not None
        for u in units
    ):
        return None
    n = len(units)
    attrs = [u.attrs for u in units]
    meta_cols: dict[str, Any] = {"profile": None}
    for name, count in Counter(chain.from_iterable(attrs)).items():
        if count < n:  # an entry without the attr puts None in the column
            meta_cols[name] = np.dtype(object)
            continue
        values = list(map(itemgetter(name), attrs))
        if len(set(map(type, values))) == 1:
            meta_cols[name] = None  # one type: every subset types alike
        elif any(map(calipack.is_nonscalar_attr, values)):
            meta_cols[name] = np.dtype(object)
        else:
            meta_cols[name] = Frame({name: values})[name].dtype
    metric_cols = tuple(dict.fromkeys(chain.from_iterable(u.metrics for u in units)))
    return MappingProxyType(meta_cols), metric_cols


def _attr_column(units: tuple[Any, ...], name: str) -> tuple[np.ndarray, np.ndarray]:
    n = len(units)
    values = [u.attrs.get(name) for u in units]
    nonscalar = np.fromiter(
        map(calipack.is_nonscalar_attr, values), dtype=bool, count=n
    )
    column = np.empty(n, dtype=object)
    column[:] = [None if skip else v for v, skip in zip(values, nonscalar)]
    column.flags.writeable = False
    nonscalar.flags.writeable = False
    return column, nonscalar


# ----------------------------------------------------------- chunk loading
def _read_ref_payload(ref, handles: dict[str, BinaryIO]) -> dict[str, Any]:
    if isinstance(ref, FileRef):
        return parse_cali_payload(Path(ref.path).read_bytes(), ref.path)
    handle = handles.get(ref.archive)
    if handle is None:
        handle = handles[ref.archive] = open(ref.archive, "rb")
    handle.seek(ref.offset)
    data = handle.read(ref.length)
    entry = calipack.ArchiveEntry(
        name=ref.name, offset=ref.offset, length=ref.length, crc32=ref.crc32
    )
    if len(data) != entry.length:
        raise ValueError(f"{ref.label}: truncated archive entry")
    import zlib

    if zlib.crc32(data) & 0xFFFFFFFF != entry.crc32:
        raise ValueError(f"{ref.label}: corrupt archive entry (index CRC mismatch)")
    return parse_cali_payload(data, ref.label)


def _load_chunk(args):
    """Pool task: load+compose one ref chunk, return its columnar state.

    ``on_error='raise'`` lets the exception propagate — the pool
    re-raises it in the parent. ``'warn'`` records (source, reason)
    casualties and composes the survivors; the parent owns warning
    emission so messages stay ordered.
    """
    refs, indices, on_error = args
    builder = TableBuilder()
    errors: list[tuple[str, str]] = []
    handles: dict[str, BinaryIO] = {}
    try:
        for ref, index in zip(refs, indices):
            try:
                payload = _read_ref_payload(ref, handles)
            except (OSError, ValueError, KeyError) as exc:
                if on_error == "raise":
                    raise
                errors.append((ref.label, f"{type(exc).__name__}: {exc}"))
                continue
            builder.add_payload(payload, index)
    finally:
        for handle in handles.values():
            handle.close()
    return builder.state(), builder.meta.n, errors


def compose_units(
    units: list[Any], workers: int, on_error: str,
    indices: Sequence[int] | None = None,
) -> tuple[TableBuilder, int, list[tuple[str, str]]]:
    """Compose all units (serial or fanned out); returns the merged
    builder, the number of profiles composed, and the load errors.

    ``indices`` assigns each unit its profile index (fallback-id seed);
    default is positional. Pushdown and incremental composition pass the
    units' *original* source positions so a partial compose mints the
    same profile ids a full compose would.
    """
    if indices is None:
        indices = range(len(units))
    builder = TableBuilder()
    errors: list[tuple[str, str]] = []
    refs = [u for u in units if not isinstance(u, CaliProfile)]
    if workers > 1 and len(refs) > 1:
        loaded = _compose_parallel(
            units, indices, workers, on_error, builder, errors
        )
    else:
        loaded = _compose_serial(units, indices, on_error, builder, errors)
    return builder, loaded, errors


def _compose_serial(units, indices, on_error, builder, errors) -> int:
    handles: dict[str, BinaryIO] = {}
    loaded = 0
    try:
        for unit, index in zip(units, indices):
            if isinstance(unit, CaliProfile):
                builder.add_profile(unit, index)
                loaded += 1
                continue
            try:
                payload = _read_ref_payload(unit, handles)
            except (OSError, ValueError, KeyError) as exc:
                if on_error == "raise":
                    raise
                errors.append((unit.label, f"{type(exc).__name__}: {exc}"))
                continue
            builder.add_payload(payload, index)
            loaded += 1
    finally:
        for handle in handles.values():
            handle.close()
    return loaded


def _compose_parallel(units, indices, workers, on_error, builder, errors) -> int:
    """Fan ref runs out to a pool; merge chunk columns in source order.

    In-memory profiles (rare in mixed source lists) compose locally in
    their source position, so ordering guarantees hold regardless of
    how sources interleave.
    """
    import multiprocessing

    try:
        ctx = multiprocessing.get_context("fork")
    except ValueError:  # pragma: no cover - non-POSIX platform
        ctx = multiprocessing.get_context("spawn")

    # Partition into runs of local (CaliProfile) and pooled (ref) units,
    # each unit keeping its assigned profile index.
    runs: list[tuple[str, list[Any], list[int]]] = []  # (kind, items, idxs)
    for unit, index in zip(units, indices):
        kind = "local" if isinstance(unit, CaliProfile) else "pool"
        if runs and runs[-1][0] == kind:
            runs[-1][1].append(unit)
            runs[-1][2].append(index)
        else:
            runs.append((kind, [unit], [index]))

    refs_total = sum(len(items) for kind, items, _ in runs if kind == "pool")
    pool_workers = max(1, min(workers, refs_total))
    chunk_size = max(1, -(-refs_total // (pool_workers * _CHUNKS_PER_WORKER)))
    loaded = 0
    with ctx.Pool(pool_workers) as pool:
        for kind, items, idxs in runs:
            if kind == "local":
                for profile, index in zip(items, idxs):
                    builder.add_profile(profile, index)
                    loaded += 1
                continue
            tasks = [
                (items[i : i + chunk_size], idxs[i : i + chunk_size], on_error)
                for i in range(0, len(items), chunk_size)
            ]
            for state, chunk_loaded, chunk_errors in pool.map(
                _load_chunk, tasks
            ):
                builder.merge(state)
                errors.extend(chunk_errors)
                loaded += chunk_loaded
    return loaded


def warn_load_errors(errors, warning_cls, stacklevel: int = 3) -> None:
    for src, reason in errors:
        warnings.warn(
            f"skipping unreadable profile {src} ({reason})",
            warning_cls,
            stacklevel=stacklevel,
        )
