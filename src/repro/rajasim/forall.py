"""``forall``: the core RAJA dispatch primitive.

A kernel body is a callable taking a partition of the iteration space and
performing vectorized work over those indices (reads/writes through
captured arrays or :class:`~repro.rajasim.views.View` objects). ``forall``
partitions the iteration space according to the policy and invokes the
body once per partition:

* sequential / SIMD — one partition covering the whole range (the NumPy
  vectorized execution *is* the SIMD model);
* OpenMP — static contiguous chunks of ~``n/num_threads`` per simulated
  thread, mirroring ``#pragma omp parallel for schedule(static)``;
* GPU backends (CUDA/HIP/SYCL/OMPTarget) — thread blocks of
  ``policy.block_size`` contiguous indices, mirroring a grid launch.

Results are bit-identical across policies for data-parallel bodies
(floating-point reductions are combined in deterministic partition
order).

Dispatch owns partitioning: kernels hand their bodies to ``forall`` (or
:func:`forall_chunks`, or ``kernel_2d``/``kernel_3d``) rather than
looping over :func:`iter_partitions` themselves, so one place decides how
a body is called and :func:`legacy_dispatch` stays the per-partition
reference for all of them.

Zero-copy dispatch
------------------

The campaign hot path runs every kernel once per (variant, tuning,
trial) cell, so per-``forall`` dispatch overhead multiplies across the
whole sweep. Three mechanisms keep it near zero:

* **Partition-plan cache** — the ``(start, stop)`` chunk boundaries for
  a ``(policy, n)`` pair are computed once and LRU-cached
  (:func:`partition_plan`), instead of re-running ``array_split``
  arithmetic on every repetition.
* **Slice fast path** — bodies that only use their index argument for
  *direct* NumPy indexing (``a[i]``) declare it with
  :func:`slice_capable`; contiguous segments then dispatch Python
  ``slice`` partitions. NumPy basic indexing returns views, so the body
  reads and writes the kernel arrays with **zero gather/scatter
  copies** — the Python analogue of the raw-pointer loops RAJAPerf's
  C++ variants compile to.
* **Iota cache** — bodies that do index arithmetic (``y[i + 1]``) keep
  receiving real index arrays, but the ``arange`` behind a contiguous
  segment is LRU-cached (read-only) and partitions are basic-slicing
  views of it, so no per-call allocation remains on that path either.

Fused dispatch
--------------

A body whose results cannot depend on how the range is split declares
itself *partition-invariant*, and dispatch then runs it **once over the
whole contiguous span** while the launch count still comes from the
policy's partition plan. Slice bodies declare it with
``slice_capable(fuse=True)`` and receive ``slice(begin, end)``; bodies
that need index arrays (``View``/``Layout`` arithmetic, ``i + 1``
stencils, gathers through an index table) declare it with
:func:`partition_invariant` and receive the whole cached, read-only
iota. Under a 56-thread OpenMP policy that is one NumPy call per
``forall`` instead of 56, which is what keeps a body with Python loops
(LTIMES' 576 View updates, ADI's line sweeps) from paying its
interpreter cost once per simulated thread.

The invariance rule: every element a call writes is computed from
values that no other partition writes in the same call, and the body
uses no reducer, atomic or ``forall_chunks`` ordinal. Reductions
combined per partition, atomic accumulation, block scans and BLAS
row-block products (whose summation order may follow the block shape)
stay per-partition. Fusion applies to contiguous segments only: an
explicit index array may repeat an index across partitions.

The seed's allocate-and-gather dispatch is preserved verbatim behind
:func:`legacy_dispatch` (or ``REPRO_LEGACY_DISPATCH=1`` for child
processes) so benchmarks and equivalence tests can compare both engines;
it ignores every declaration and calls each body once per partition.
"""

from __future__ import annotations

import os
from collections import OrderedDict
from collections.abc import Callable, Iterator
from contextlib import contextmanager

import numpy as np

from repro.rajasim.policies import Backend, ExecPolicy

#: A body receives either an index array or (when slice-capable and the
#: segment is contiguous) a ``slice`` covering the same indices.
IndexBody = Callable[[np.ndarray], None]

# --------------------------------------------------------------- capability
#: Capability values for the per-body index protocol.
ARRAY_INDEX = "array"
SLICE_INDEX = "slice"
FUSED_INDEX = "fuse"
FUSED_ARRAY_INDEX = "fuse-array"

#: Capabilities whose bodies run once over the whole span.
_FUSED = (FUSED_INDEX, FUSED_ARRAY_INDEX)

_CAPABILITY_ATTR = "__raja_index_capability__"


def slice_capable(body=None, *, fuse: bool = False):
    """Declare that a ``forall`` body accepts ``slice`` partitions.

    A body qualifies when its index argument is only ever used for
    *direct* NumPy basic indexing (``a[i]``, ``a[i] = ...``, ``px[k, i]``)
    — never for index arithmetic (``y[i + 1]``), ``len(i)``, arithmetic
    on the indices themselves, or as stored index *values*. Dispatch
    then hands such bodies contiguous ``slice`` objects, turning every
    gather copy into a view.

    ``fuse=True`` additionally declares the body *partition-invariant*:
    a pure elementwise map with no reducers, atomics, or any other
    cross-iteration interaction, so splitting the range cannot change a
    single result bit. Dispatch then invokes the body once over the
    whole contiguous span — eliminating per-partition interpreter
    overhead under block-decomposed policies — while still reporting the
    policy's launch count from the partition plan. Bodies that combine
    per-partition (reductions, ``atomic_add`` accumulation) must NOT set
    ``fuse``: their combine order is part of the simulated execution
    structure. :func:`partition_invariant` is the index-array
    counterpart.
    """

    def mark(fn):
        setattr(fn, _CAPABILITY_ATTR, FUSED_INDEX if fuse else SLICE_INDEX)
        return fn

    if body is None:
        return mark
    return mark(body)


def partition_invariant(body):
    """Declare an index-array body partition-invariant.

    The array-path counterpart of ``slice_capable(fuse=True)``, for
    bodies that need real indices (``View``/``Layout`` arithmetic,
    ``y[i + 1]``, ``table[i]`` gathers). The body must obey the
    invariance rule: every element a call writes is computed from
    values no other partition writes in the same call, with no reducer,
    atomic or partition ordinal. Over a contiguous segment, ``forall``
    then calls it once with the whole cached, read-only iota, and
    ``kernel_2d``/``kernel_3d`` call it once with the broadcast index
    arrays of the whole space; the launch count is unchanged.
    """
    setattr(body, _CAPABILITY_ATTR, FUSED_ARRAY_INDEX)
    return body


def index_capability(body) -> str:
    """The body's declared index capability (default: index arrays)."""
    return getattr(body, _CAPABILITY_ATTR, ARRAY_INDEX)


# ------------------------------------------------------------ dispatch mode
_LEGACY_ENV = "REPRO_LEGACY_DISPATCH"
_legacy_mode = os.environ.get(_LEGACY_ENV, "") not in ("", "0")


def dispatch_mode() -> str:
    """``"legacy"`` (seed engine) or ``"fast"`` (zero-copy engine)."""
    return "legacy" if _legacy_mode else "fast"


@contextmanager
def legacy_dispatch():
    """Run dispatch through the seed engine: fresh ``arange`` per call,
    ``array_split`` per call, index arrays (gather copies) for every
    body. Exists for benchmarking and equivalence testing. The mode is
    also exported via ``$REPRO_LEGACY_DISPATCH`` so worker processes
    forked/spawned inside the block inherit it.
    """
    global _legacy_mode
    prev, prev_env = _legacy_mode, os.environ.get(_LEGACY_ENV)
    _legacy_mode = True
    os.environ[_LEGACY_ENV] = "1"
    try:
        yield
    finally:
        _legacy_mode = prev
        if prev_env is None:
            os.environ.pop(_LEGACY_ENV, None)
        else:
            os.environ[_LEGACY_ENV] = prev_env


# ---------------------------------------------------------------- segments
def _segment_span(segment: object) -> tuple[int, int] | None:
    """``(begin, end)`` when the segment is a contiguous step-1 range.

    Returns ``None`` for stepped ranges and explicit index arrays (which
    stay on the array path). Validates bounds: iteration counts must be
    non-negative, and ``(begin, end)`` tuples must hold real integers —
    silently truncating floats would iterate a different space than the
    caller wrote.
    """
    if isinstance(segment, bool):
        raise TypeError("segment must not be a bool")
    if isinstance(segment, (int, np.integer)):
        if segment < 0:
            raise ValueError(f"negative iteration count: {segment}")
        return (0, int(segment))
    if isinstance(segment, tuple) and len(segment) == 2:
        begin, end = segment
        for bound in (begin, end):
            if isinstance(bound, bool) or not isinstance(bound, (int, np.integer)):
                raise TypeError(
                    f"segment bounds must be integers, got ({begin!r}, {end!r})"
                )
        if end < begin:
            raise ValueError(f"empty-reversed segment ({begin}, {end})")
        return (int(begin), int(end))
    if isinstance(segment, range) and segment.step == 1:
        return (segment.start, max(segment.start, segment.stop))
    return None


def _normalize_segment(segment: object) -> np.ndarray:
    """Accept an int (range size), a (begin, end) tuple, range, or array.

    Contiguous segments come back as (possibly cached, read-only) iota
    arrays; explicit arrays are passed through as ``intp``.
    """
    span = _segment_span(segment)
    if span is not None:
        begin, end = span
        if _legacy_mode:
            return np.arange(begin, end, dtype=np.intp)
        return _cached_arange(begin, end)
    if isinstance(segment, range):
        return np.arange(segment.start, segment.stop, segment.step, dtype=np.intp)
    arr = np.asarray(segment)
    if arr.ndim != 1:
        raise ValueError(f"index segments must be 1-D, got shape {arr.shape}")
    return arr.astype(np.intp, copy=False)


# ----------------------------------------------------------- plan caching
#: LRU of partition plans keyed by (schedule parameters, n).
_PLAN_CACHE: OrderedDict[tuple, tuple[tuple[int, int], ...]] = OrderedDict()
_PLAN_CACHE_MAX = 128

#: LRU of read-only iota arrays keyed by (begin, end), bounded by bytes.
_ARANGE_CACHE: OrderedDict[tuple[int, int], np.ndarray] = OrderedDict()
_ARANGE_CACHE_BYTES = int(
    os.environ.get("REPRO_INDEX_CACHE_BYTES", 64 * 1024 * 1024)
)
_arange_cache_used = 0


def clear_dispatch_caches() -> None:
    """Drop the partition-plan and iota caches (tests/benchmarks)."""
    global _arange_cache_used
    _PLAN_CACHE.clear()
    _ARANGE_CACHE.clear()
    _arange_cache_used = 0


def _plan_key(policy: ExecPolicy, n: int) -> tuple:
    """Only the parameters that shape the partitioning enter the key."""
    backend = policy.backend
    if backend in (Backend.SEQUENTIAL, Backend.SIMD):
        return ("seq", n)
    if backend is Backend.OPENMP:
        return ("omp", policy.num_threads, n)
    return ("gpu", policy.block_size, n)


def _compute_plan(policy: ExecPolicy, n: int) -> tuple[tuple[int, int], ...]:
    backend = policy.backend
    if backend in (Backend.SEQUENTIAL, Backend.SIMD):
        return ((0, n),)
    if backend is Backend.OPENMP:
        # Static schedule: contiguous chunks of ~n/num_threads. Chunk
        # sizes replicate np.array_split: the first n % k chunks get one
        # extra element.
        nchunks = min(policy.num_threads, n)
        base, extra = divmod(n, nchunks)
        bounds = []
        start = 0
        for chunk in range(nchunks):
            stop = start + base + (1 if chunk < extra else 0)
            bounds.append((start, stop))
            start = stop
        return tuple(bounds)
    # GPU-style: fixed-size thread blocks.
    block = policy.block_size
    return tuple(
        (start, min(start + block, n)) for start in range(0, n, block)
    )


def partition_plan(policy: ExecPolicy, n: int) -> tuple[tuple[int, int], ...]:
    """The policy's ``(start, stop)`` partition boundaries for ``n``
    iterations, computed once per shape and LRU-cached."""
    if n == 0:
        return ()
    key = _plan_key(policy, n)
    plan = _PLAN_CACHE.get(key)
    if plan is not None:
        _PLAN_CACHE.move_to_end(key)
        return plan
    plan = _compute_plan(policy, n)
    _PLAN_CACHE[key] = plan
    while len(_PLAN_CACHE) > _PLAN_CACHE_MAX:
        _PLAN_CACHE.popitem(last=False)
    return plan


def _cached_arange(begin: int, end: int) -> np.ndarray:
    """A read-only ``arange(begin, end)``, shared across calls.

    Read-only so a buggy body cannot corrupt the indices every later
    ``forall`` over the same range would see. Oversized requests bypass
    the cache entirely.
    """
    global _arange_cache_used
    key = (begin, end)
    arr = _ARANGE_CACHE.get(key)
    if arr is not None:
        _ARANGE_CACHE.move_to_end(key)
        return arr
    arr = np.arange(begin, end, dtype=np.intp)
    arr.flags.writeable = False
    if arr.nbytes > _ARANGE_CACHE_BYTES:
        return arr
    _ARANGE_CACHE[key] = arr
    _arange_cache_used += arr.nbytes
    while _arange_cache_used > _ARANGE_CACHE_BYTES and _ARANGE_CACHE:
        _, evicted = _ARANGE_CACHE.popitem(last=False)
        _arange_cache_used -= evicted.nbytes
    return arr


# ------------------------------------------------------------- partitioning
def _iter_partitions_uncached(
    policy: ExecPolicy, indices: np.ndarray
) -> Iterator[np.ndarray]:
    """The seed partitioner, kept verbatim for ``legacy_dispatch``."""
    n = len(indices)
    if n == 0:
        return
    if policy.backend in (Backend.SEQUENTIAL, Backend.SIMD):
        yield indices
        return
    if policy.backend is Backend.OPENMP:
        nchunks = min(policy.num_threads, n)
        for part in np.array_split(indices, nchunks):
            if len(part):
                yield part
        return
    block = policy.block_size
    for start in range(0, n, block):
        yield indices[start : start + block]


def iter_partitions(policy: ExecPolicy, indices: np.ndarray) -> Iterator[np.ndarray]:
    """Yield the index partitions the policy would hand to workers.

    Partitions are basic-slicing *views* of ``indices`` (never copies);
    the fancy-indexing gather, if any, happens inside the body.
    """
    if _legacy_mode:
        yield from _iter_partitions_uncached(policy, indices)
        return
    for start, stop in partition_plan(policy, len(indices)):
        yield indices[start:stop]


# ----------------------------------------------------------------- dispatch
def forall(policy: ExecPolicy, segment: object, body: IndexBody) -> int:
    """Run ``body`` over ``segment`` under ``policy``; return launch count.

    The return value is the number of partitions (GPU blocks / CPU chunks)
    — the simulators use it to attribute launch and scheduling overheads.

    Slice-capable bodies (see :func:`slice_capable`) over contiguous
    segments receive ``slice`` partitions — zero-copy dispatch. All other
    bodies receive index arrays. Partition-invariant bodies
    (``slice_capable(fuse=True)``, :func:`partition_invariant`) over
    contiguous segments are called once with the whole span.
    """
    if _legacy_mode:
        launches = 0
        for part in _iter_partitions_uncached(policy, _normalize_segment(segment)):
            body(part)
            launches += 1
        return launches
    span = _segment_span(segment)
    if span is not None:
        capability = index_capability(body)
        begin, end = span
        if capability in _FUSED:
            # Partition-invariant body: one call over the whole span (a
            # slice, or the cached iota); the launch count still comes
            # from the policy's plan.
            launches = len(partition_plan(policy, end - begin))
            if launches:
                body(slice(begin, end) if capability == FUSED_INDEX
                     else _cached_arange(begin, end))
            return launches
        if capability == SLICE_INDEX:
            launches = 0
            for start, stop in partition_plan(policy, end - begin):
                body(slice(begin + start, begin + stop))
                launches += 1
            return launches
    indices = _normalize_segment(segment)
    launches = 0
    for start, stop in partition_plan(policy, len(indices)):
        body(indices[start:stop])
        launches += 1
    return launches


def forall_chunks(
    policy: ExecPolicy, segment: object, body: Callable[[np.ndarray, int], None]
) -> int:
    """Like :func:`forall` but passes the partition ordinal to the body.

    Needed by kernels that keep per-thread/per-block state, e.g. partial
    reductions written to a block-indexed scratch array. Honors the
    slice capability; fusion never applies, since a body that takes an
    ordinal depends on the partitioning by construction.
    """
    if _legacy_mode:
        launches = 0
        for ordinal, part in enumerate(
            _iter_partitions_uncached(policy, _normalize_segment(segment))
        ):
            body(part, ordinal)
            launches += 1
        return launches
    span = _segment_span(segment)
    if span is not None and index_capability(body) in (SLICE_INDEX, FUSED_INDEX):
        # Chunk bodies need the ordinal per partition, so fusion does not
        # apply here; fused bodies still get the zero-copy slice path.
        begin, end = span
        launches = 0
        for ordinal, (start, stop) in enumerate(partition_plan(policy, end - begin)):
            body(slice(begin + start, begin + stop), ordinal)
            launches += 1
        return launches
    indices = _normalize_segment(segment)
    launches = 0
    for ordinal, (start, stop) in enumerate(partition_plan(policy, len(indices))):
        body(indices[start:stop], ordinal)
        launches += 1
    return launches
