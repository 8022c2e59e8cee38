"""Lazy query engine at paper scale: filtered metadata queries, lazy vs eager.

The paper's EDA loop is interactive: "which profiles match this variant,
and what do their metrics aggregate to?" asked over campaigns of 10k-1M
profiles (pSTL-Bench's framing — measure scalability against input
count, not one size). The eager path answers by decoding *every* column
buffer of *both* cached tables and filtering afterwards; the lazy path
(``scan_cache`` -> plan optimizer) pushes the predicate and the column
selection into the ingest-cache reader, so only the referenced metadata
columns' buffers are read, string equality runs on dictionary codes, and
the half-million-row dataframe table is never touched.

Asserted: lazy and eager produce ``Frame.equals``-identical results at
both campaign sizes, the 100k-profile filtered query completes in <1s
warm, and the pushdown path is >= 10x the eager path.

The point-lookup case measures the other half of the loop: one profile
pulled out of a packed archive with ``where=``. Its answer must equal
the eager compose-then-filter one, and with the archive's parsed index
and view memoized (the warm, interactive case) it must be >= 2x a
lookup that decodes the index and derives its view from scratch.
"""

from __future__ import annotations

import time

import numpy as np
import pytest
from conftest import save_artifact

from repro.caliper import calipack
from repro.caliper.records import CaliProfile, RegionRecord
from repro.dataframe import Frame, col, scan_cache
from repro.thicket import Thicket, ingest_cache

N_SMALL = 10_000
N_LARGE = 100_000
KERNELS = ("Basic_DAXPY", "Stream_TRIAD", "Poly_2MM", "Apps_ENERGY", "Algo_SORT")


def _synth_campaign(n: int) -> tuple[Frame, Frame, list[tuple[str, str]]]:
    """Composed-table shapes a real n-profile campaign would produce."""
    rng = np.random.default_rng(n)
    profile = np.array(
        [f"m{i % 4}/variant{i % 25}/trial{i % 3}" for i in range(n)],
        dtype=object,
    )
    metadata = Frame({
        "profile": profile,
        "machine": np.array([f"m{i % 4}" for i in range(n)], dtype=object),
        "variant": np.array([f"variant{i % 25}" for i in range(n)], dtype=object),
        "tuning": np.array(["default"] * n, dtype=object),
        "trial": np.arange(n, dtype=np.int64) % 3,
        "problem_size": np.full(n, 32_000_000, dtype=np.int64),
    })
    k = len(KERNELS)
    dataframe = Frame({
        "profile": np.repeat(profile, k),
        "name": np.tile(np.array(KERNELS, dtype=object), n),
        "path": np.tile(
            np.array([f"RAJAPerf/{name}" for name in KERNELS], dtype=object), n
        ),
        "depth": np.full(n * k, 2, dtype=np.int64),
        "Avg time/rank": rng.uniform(0.1, 10.0, n * k),
        "Bytes/rep": rng.uniform(1e6, 1e9, n * k),
        "Flops/rep": rng.uniform(1e6, 1e9, n * k),
        "reps": np.full(n * k, 100.0),
    })
    sources = [(f"p{i:06d}.cali", f"{i:08x}") for i in range(n)]
    return dataframe, metadata, sources


@pytest.fixture(scope="module")
def campaigns(tmp_path_factory):
    """size -> (store path, sources, cache dir) with tables cached on disk."""
    out = {}
    for n in (N_SMALL, N_LARGE):
        cache_dir = tmp_path_factory.mktemp(f"qcache_{n}")
        dataframe, metadata, sources = _synth_campaign(n)
        path = ingest_cache.store(cache_dir, sources, dataframe, metadata)
        out[n] = (path, sources, cache_dir)
    return out


SELECT = ["profile", "machine", "trial"]


def _eager_filtered(sources, cache_dir) -> Frame:
    """The pre-lazy answer: decode both full tables, then filter."""
    _, metadata = ingest_cache.load(cache_dir, sources)
    return metadata.filter(col("variant") == "variant7").select(SELECT)


def _lazy_filtered(path) -> Frame:
    return (
        scan_cache(path, table="metadata")
        .filter(col("variant") == "variant7")
        .select(SELECT)
        .collect()
    )


def _eager_agg(sources, cache_dir) -> Frame:
    _, metadata = ingest_cache.load(cache_dir, sources)
    return (
        metadata.filter(col("variant") == "variant7")
        .groupby("machine")
        .agg({"trial": "mean", "problem_size": "max"})
    )


def _lazy_agg(path) -> Frame:
    return (
        scan_cache(path, table="metadata")
        .filter(col("variant") == "variant7")
        .groupby("machine")
        .agg({"trial": "mean", "problem_size": "max"})
        .collect()
    )


def _time_eager(fn, *args) -> tuple[Frame, float]:
    best = float("inf")
    for _ in range(3):
        start = time.perf_counter()
        result = fn(*args)
        best = min(best, time.perf_counter() - start)
    return result, best


def _timed(fn, *args):
    """A zero-arg callable for ``benchmark.pedantic`` that also records
    its own wall times, so timings survive ``--benchmark-disable``."""
    times: list[float] = []

    def run():
        start = time.perf_counter()
        result = fn(*args)
        times.append(time.perf_counter() - start)
        return result

    return run, times


def bench_query_filtered_10k(benchmark, campaigns):
    """Scalability anchor: the same query at a tenth the profile count."""
    path, sources, cache_dir = campaigns[N_SMALL]
    eager, eager_sec = _time_eager(_eager_filtered, sources, cache_dir)
    run, times = _timed(_lazy_filtered, path)
    lazy = benchmark.pedantic(run, rounds=5, iterations=1)
    assert lazy.equals(eager)
    lazy_sec = min(times)
    benchmark.extra_info["speedup"] = round(eager_sec / lazy_sec, 2)
    benchmark.extra_info["lazy_queries_per_sec"] = round(1.0 / lazy_sec, 2)


def bench_query_filtered_100k(benchmark, campaigns, artifact_dir):
    """The acceptance bench: <1s warm at 100k profiles, >= 10x eager."""
    path, sources, cache_dir = campaigns[N_LARGE]
    eager, eager_sec = _time_eager(_eager_filtered, sources, cache_dir)
    run, times = _timed(_lazy_filtered, path)
    lazy = benchmark.pedantic(run, rounds=5, iterations=1)
    assert lazy.equals(eager)
    assert lazy.nrows == N_LARGE // 25

    lazy_sec = min(times)
    speedup = eager_sec / lazy_sec
    benchmark.extra_info["speedup"] = round(speedup, 2)
    benchmark.extra_info["lazy_queries_per_sec"] = round(1.0 / lazy_sec, 2)
    save_artifact(
        artifact_dir,
        "query_speedup",
        f"profiles:            {N_LARGE}\n"
        f"eager filter+select: {eager_sec * 1e3:.1f} ms\n"
        f"lazy pushdown:       {lazy_sec * 1e3:.1f} ms\n"
        f"speedup:             {speedup:.1f}x",
    )
    assert lazy_sec < 1.0, f"warm lazy query took {lazy_sec:.3f}s (must be <1s)"
    assert speedup >= 10.0, (
        f"pushdown only {speedup:.1f}x faster than eager "
        f"({lazy_sec * 1e3:.1f}ms vs {eager_sec * 1e3:.1f}ms)"
    )


def bench_query_groupby_agg_100k(benchmark, campaigns):
    """Filtered groupby-agg: segmented reductions behind the same plan."""
    path, sources, cache_dir = campaigns[N_LARGE]
    eager, eager_sec = _time_eager(_eager_agg, sources, cache_dir)
    run, times = _timed(_lazy_agg, path)
    lazy = benchmark.pedantic(run, rounds=5, iterations=1)
    assert lazy.equals(eager)
    assert lazy.nrows == 4  # one row per machine

    lazy_sec = min(times)
    benchmark.extra_info["speedup"] = round(eager_sec / lazy_sec, 2)
    benchmark.extra_info["lazy_queries_per_sec"] = round(1.0 / lazy_sec, 2)


N_ARCHIVE = 512
POINT_MACHINES = ("SPR-DDR", "SPR-HBM", "P9-V100", "EPYC-MI250X")
POINT_VARIANTS = ("Base_Seq", "RAJA_Seq", "Base_OpenMP", "RAJA_OpenMP",
                  "Base_CUDA", "RAJA_CUDA", "Base_HIP", "RAJA_HIP")


def _archive_profile(i: int) -> CaliProfile:
    """One packed profile with campaign-like globals and regions."""
    profile = CaliProfile(globals={
        "machine": POINT_MACHINES[i % 4],
        "variant": POINT_VARIANTS[(i // 4) % 8],
        "tuning": "block_256" if i % 2 else "default",
        "trial": i // 32,
        "problem_size": 32_000_000,
        "compiler": "clang-17",
        "raja_version": "2024.07.0",
        "omp_max_threads": 56,
        "launchdate": 1_700_000_000 + i,
    })
    root = RegionRecord(name="RAJAPerf", path=("RAJAPerf",), metrics={})
    root.children = [
        RegionRecord(
            name=name, path=("RAJAPerf", name),
            metrics={"Avg time/rank": 0.001 * (i + k + 1), "reps": 100.0},
        )
        for k, name in enumerate(KERNELS)
    ]
    profile.roots = [root]
    return profile


@pytest.fixture(scope="module")
def packed_archive(tmp_path_factory):
    path = tmp_path_factory.mktemp("point_archive") / calipack.ARCHIVE_NAME
    with calipack.CalipackWriter(path) as writer:
        for i in range(N_ARCHIVE):
            writer.append_profile(f"p{i:04d}.cali", _archive_profile(i))
    return str(path)


POINT = (
    (col("machine") == "P9-V100") & (col("variant") == "RAJA_CUDA")
    & (col("tuning") == "default") & (col("trial") == 7)
)


def _point_lookup(archive: str) -> Thicket:
    return Thicket.from_caliperreader(archive, where=POINT)


def _cold_point_lookup(archive: str) -> Thicket:
    calipack.clear_index_memo()
    return _point_lookup(archive)


def bench_query_point_lookup(benchmark, packed_archive):
    """Warm point lookup (memoized index + view) vs a cold-memo one."""
    eager = Thicket.from_caliperreader(packed_archive).filter_metadata(POINT)
    cold, cold_sec = _time_eager(_cold_point_lookup, packed_archive)
    _point_lookup(packed_archive)  # warm the memo
    run, times = _timed(_point_lookup, packed_archive)
    warm = benchmark.pedantic(run, rounds=7, iterations=1)
    for result in (cold, warm):
        assert result.metadata.nrows == 1
        assert result.metadata.equals(eager.metadata)
        assert result.dataframe.equals(eager.dataframe)

    warm_sec = min(times)
    speedup = cold_sec / warm_sec
    benchmark.extra_info["speedup"] = round(speedup, 2)
    benchmark.extra_info["point_lookups_per_sec"] = round(1.0 / warm_sec, 2)
    assert speedup >= 2.0, (
        f"memoized point lookup only {speedup:.1f}x a cold-memo lookup "
        f"({warm_sec * 1e3:.2f}ms vs {cold_sec * 1e3:.2f}ms)"
    )
