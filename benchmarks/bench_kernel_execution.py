"""Real-execution wall-clock benchmarks of representative kernels.

Unlike the model-space benches, these time the actual NumPy execution of
one kernel per group through the RAJA-sim layer — the suite's "does it
actually run fast" guard. Sizes are chosen so a round stays in the
milliseconds.
"""

import pytest

from repro.suite.registry import make_kernel
from repro.suite.variants import get_variant

RAJA_SEQ = get_variant("RAJA_Seq")
BASE_SEQ = get_variant("Base_Seq")

REPRESENTATIVES = [
    ("Stream_TRIAD", 200_000),
    ("Basic_DAXPY", 200_000),
    ("Algorithm_SCAN", 200_000),
    ("Lcals_HYDRO_1D", 200_000),
    ("Apps_ENERGY", 50_000),
    ("Polybench_GEMM", 40_000),
    ("Comm_HALO_EXCHANGE", 30_000),
]


@pytest.mark.parametrize("name,size", REPRESENTATIVES, ids=[r[0] for r in REPRESENTATIVES])
def bench_kernel_raja_seq(benchmark, name, size):
    kernel = make_kernel(name, size)
    kernel.ensure_setup()
    policy = RAJA_SEQ.policy()

    def run():
        kernel.run_raja(policy)

    benchmark(run)
    assert kernel.checksum() == kernel.checksum()  # finite & reproducible


@pytest.mark.parametrize("name,size", [("Stream_TRIAD", 200_000), ("Basic_DAXPY", 200_000)])
def bench_kernel_base_seq(benchmark, name, size):
    """Base-variant wall clock, for RAJA-vs-Base comparison in reports."""
    kernel = make_kernel(name, size)
    kernel.ensure_setup()
    policy = BASE_SEQ.policy()

    def run():
        kernel.run_base(policy)

    benchmark(run)


RAJA_OPENMP = get_variant("RAJA_OpenMP")


@pytest.mark.parametrize("name", ["Apps_LTIMES", "Polybench_ADI"])
def bench_kernel_raja_openmp_fused(benchmark, name):
    """RAJA_OpenMP at the executed sweep's size 8000, where fused
    dispatch calls each body once per forall instead of once per
    simulated thread. Recorded in the benchmark JSON; not gated (no
    baseline entry)."""
    kernel = make_kernel(name, 8000)
    kernel.ensure_setup()
    policy = RAJA_OPENMP.policy()

    def run():
        kernel.run_raja(policy)

    benchmark(run)


def bench_gpu_style_dispatch_overhead(benchmark):
    """The block-partitioned CUDA-style dispatch of the RAJA-sim layer."""
    kernel = make_kernel("Stream_TRIAD", 200_000)
    kernel.ensure_setup()
    policy = get_variant("RAJA_CUDA").policy().with_block_size(1024)

    def run():
        kernel.run_raja(policy)

    benchmark(run)


# --------------------------------------------------------------------------
# Execution-engine sweep: legacy (seed) dispatch vs the zero-copy engine.
#
# These benches run a representative campaign sweep twice — once through
# ``legacy_dispatch()`` with the kernel-state pool disabled (the seed
# engine, preserved verbatim for exactly this comparison), once through
# the zero-copy engine (slice/fused dispatch + partition-plan cache +
# KernelStatePool) — and assert both the checksum equality of every
# executed cell and the engine speedup the PR claims. The measured
# cells/sec and speedup land in the pytest-benchmark JSON via
# ``extra_info`` where ``tools/check_bench_regression.py`` gates them.

import json
import time

from conftest import save_artifact

from repro.rajasim.forall import clear_dispatch_caches, legacy_dispatch
from repro.suite.executor import SuiteExecutor
from repro.suite.run_params import RunParams

#: Kernels with enough real work for the engine difference to dominate
#: the per-record session bookkeeping, mixing fused elementwise bodies,
#: per-partition reducers, and an atomic-histogram body.
SWEEP_KERNELS = (
    "Algorithm_REDUCE_SUM",
    "Algorithm_HISTOGRAM",
    "Basic_ARRAY_OF_PTRS",
    "Lcals_INT_PREDICT",
    "Algorithm_MEMCPY",
    "Basic_DAXPY",
    "Stream_DOT",
    "Lcals_DIFF_PREDICT",
    "Basic_MULADDSUB",
    "Stream_ADD",
    "Basic_COPY8",
    "Lcals_PLANCKIAN",
)

#: The speedup floor both sweep benches assert (and the regression gate
#: re-checks against the committed baseline).
MIN_ENGINE_SPEEDUP = 2.0

_SWEEP_REPS = 3  # min-of-N full-sweep repetitions per engine


def _sweep_params(workers: int, trials: int, state_pool: bool) -> RunParams:
    return RunParams(
        problem_size=400_000,
        execution_size_cap=400_000,
        execute=True,
        trials=trials,
        workers=workers,
        machines=("SPR-DDR", "P9-V100"),
        variants=("RAJA_Seq", "RAJA_OpenMP", "RAJA_CUDA"),
        kernels=SWEEP_KERNELS,
        state_pool=state_pool,
        noise_sigma=0.0,
        output_dir="benchmarks/_artifacts",
    )


def _sweep_checksums(result) -> dict[tuple, float]:
    """Every executed cell's checksums, keyed independently of profile
    order (supervised runs complete cells out of submission order)."""
    sums: dict[tuple, float] = {}
    for prof in result.profiles:
        g = prof.globals
        base = (g["machine"], g["variant"], g["tuning"], g["trial"])
        for node in prof.walk():
            value = getattr(node, "metrics", {}).get("checksum")
            if value is not None:
                sums[base + (node.path,)] = value
    return sums


def _run_sweep(workers: int, trials: int, legacy: bool):
    """One full sweep through the chosen engine: (elapsed_s, checksums)."""
    clear_dispatch_caches()
    params = _sweep_params(workers, trials, state_pool=not legacy)
    ex = SuiteExecutor(params)
    start = time.perf_counter()
    if legacy:
        with legacy_dispatch():
            result = ex.run(write_files=False)
    else:
        result = ex.run(write_files=False)
    return time.perf_counter() - start, result, ex


def _bench_engine_sweep(benchmark, artifact_dir, workers: int, trials: int):
    old_times, new_times = [], []
    old_sums = new_sums = None
    cells = None
    for _ in range(_SWEEP_REPS):
        elapsed, result, ex = _run_sweep(workers, trials, legacy=True)
        old_times.append(elapsed)
        old_sums = _sweep_checksums(result)
        if cells is None:
            cells = len(ex.build_cells())

    def run_new():
        nonlocal new_sums
        elapsed, result, _ = _run_sweep(workers, trials, legacy=False)
        new_times.append(elapsed)
        new_sums = _sweep_checksums(result)

    benchmark.pedantic(run_new, rounds=_SWEEP_REPS, iterations=1)

    # Bit-identical numerics: the zero-copy engine must not change a
    # single checksum anywhere in the sweep.
    assert new_sums == old_sums, "engine changed executed checksums"
    assert old_sums, "sweep produced no executed checksums"

    old_t, new_t = min(old_times), min(new_times)
    speedup = old_t / new_t
    stats = {
        "workers": workers,
        "trials": trials,
        "cells": cells,
        "checksums": len(old_sums),
        "legacy_s": round(old_t, 4),
        "engine_s": round(new_t, 4),
        "legacy_cells_per_sec": round(cells / old_t, 2),
        "engine_cells_per_sec": round(cells / new_t, 2),
        "speedup": round(speedup, 3),
    }
    benchmark.extra_info.update(stats)
    save_artifact(
        artifact_dir,
        f"engine_sweep_workers{workers}",
        json.dumps(stats, indent=2, sort_keys=True),
    )
    assert speedup >= MIN_ENGINE_SPEEDUP, (
        f"zero-copy engine speedup {speedup:.2f}x below the "
        f"{MIN_ENGINE_SPEEDUP}x floor: {stats}"
    )


def bench_execution_engine_sweep_serial(benchmark, artifact_dir):
    """Full executed sweep, serial executor: legacy vs zero-copy engine."""
    _bench_engine_sweep(benchmark, artifact_dir, workers=1, trials=6)


def bench_execution_engine_sweep_workers2(benchmark, artifact_dir):
    """Full executed sweep under the supervised 2-worker pool."""
    _bench_engine_sweep(benchmark, artifact_dir, workers=2, trials=8)
