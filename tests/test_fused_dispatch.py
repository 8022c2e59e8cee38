"""Fused dispatch of partition-invariant bodies.

A body declared partition-invariant (``slice_capable(fuse=True)`` for
slice bodies, ``partition_invariant`` for index-array bodies) runs once
over the whole contiguous span, under every policy, while ``forall``
still reports the policy's launch count. ``legacy_dispatch()`` ignores
the declaration and calls the body once per partition, so it is the
reference these tests compare against: same launch counts, same output
bits.
"""

import sys

import numpy as np
import pytest

from repro.rajasim import (
    cuda_exec,
    forall,
    kernel_2d,
    kernel_3d,
    omp_parallel_for_exec,
    partition_invariant,
    seq_exec,
)
from repro.rajasim.forall import (
    clear_dispatch_caches,
    legacy_dispatch,
    partition_plan,
)
from repro.suite.registry import make_kernel
from repro.suite.variants import get_variant

POLICIES = {
    "Sequential": seq_exec,
    "OpenMP": omp_parallel_for_exec,
    "CUDA": cuda_exec,
}

#: Kernels whose RAJA bodies this engine fuses (array or slice bodies,
#: through forall, kernel_2d or kernel_3d).
FUSED_KERNELS = (
    "Apps_LTIMES",
    "Apps_LTIMES_NOVIEW",
    "Polybench_ADI",
    "Polybench_FLOYD_WARSHALL",
    "Lcals_HYDRO_2D",
    "Apps_DIFFUSION3DPA",
    "Apps_CONVECTION3DPA",
    "Apps_MASS3DPA",
    "Apps_MASS3DEA",
    "Apps_EDGE3D",
    "Apps_DEL_DOT_VEC_2D",
    "Apps_MATVEC_3D_STENCIL",
    "Apps_VOL3D",
    "Apps_FIR",
    "Apps_ZONAL_ACCUMUL_3D",
    "Polybench_FDTD_2D",
    "Polybench_JACOBI_1D",
    "Polybench_JACOBI_2D",
    "Polybench_HEAT_3D",
    "Polybench_GEMVER",
    "Basic_NESTED_INIT",
    "Basic_INDEXLIST_3LOOP",
    "Lcals_EOS",
    "Lcals_HYDRO_1D",
    "Lcals_GEN_LIN_RECUR",
)

#: Kernels whose hand-written partition loops moved into forall /
#: forall_chunks without fusing (block scans, per-partition counts,
#: BLAS row-block products).
PER_PARTITION_KERNELS = (
    "Algorithm_SCAN",
    "Basic_INDEXLIST",
    "Basic_MAT_MAT_SHARED",
    "Polybench_ATAX",
    "Polybench_GEMM",
    "Polybench_GESUMMV",
    "Polybench_MVT",
    "Polybench_2MM",
    "Polybench_3MM",
)

RAJA_VARIANTS = ("RAJA_Seq", "RAJA_OpenMP", "RAJA_CUDA", "RAJA_HIP")


@pytest.fixture(autouse=True)
def _fresh_caches():
    clear_dispatch_caches()
    yield
    clear_dispatch_caches()


def _recording(calls):
    """A partition-invariant body recording each index array it gets."""

    @partition_invariant
    def body(i):
        calls.append(i)

    return body


class TestForallArrayFusion:
    @pytest.mark.parametrize("policy_name", list(POLICIES))
    @pytest.mark.parametrize("segment", [1000, (3, 1006), 1, 257])
    def test_one_call_with_the_whole_read_only_iota(self, policy_name, segment):
        policy = POLICIES[policy_name]
        begin, end = (0, segment) if isinstance(segment, int) else segment
        calls = []
        launches = forall(policy, segment, _recording(calls))

        legacy_calls = []
        with legacy_dispatch():
            legacy_launches = forall(policy, segment, _recording(legacy_calls))

        assert len(calls) == 1
        np.testing.assert_array_equal(calls[0], np.arange(begin, end))
        assert not calls[0].flags.writeable
        assert launches == legacy_launches == len(legacy_calls)
        assert launches == len(partition_plan(policy, end - begin))
        np.testing.assert_array_equal(np.concatenate(legacy_calls), calls[0])

    @pytest.mark.parametrize("policy_name", list(POLICIES))
    def test_stencil_output_matches_legacy(self, policy_name):
        policy = POLICIES[policy_name]
        n = 1003
        src = np.linspace(0.0, 1.0, n + 2) ** 2

        def run():
            dst = np.zeros(n + 2)

            @partition_invariant
            def body(i):
                dst[i] = (src[i - 1] + src[i] + src[i + 1]) / 3.0

            return forall(policy, (1, n + 1), body), dst

        launches, fused = run()
        with legacy_dispatch():
            legacy_launches, legacy = run()
        assert launches == legacy_launches
        assert fused.tobytes() == legacy.tobytes()

    def test_empty_segment_makes_no_call(self):
        calls = []
        assert forall(omp_parallel_for_exec, 0, _recording(calls)) == 0
        assert calls == []

    def test_explicit_index_arrays_stay_per_partition(self):
        """An index array may repeat an index across partitions, so
        fusion applies to contiguous segments only."""
        calls = []
        indices = np.array([4, 4, 2, 2, 0, 0])
        launches = forall(omp_parallel_for_exec, indices, _recording(calls))
        assert launches == len(calls) == 6


class TestKernelNdFusion:
    @pytest.mark.parametrize("policy_name", list(POLICIES))
    def test_kernel_2d_one_call_over_the_whole_space(self, policy_name):
        policy = POLICIES[policy_name]
        segments = ((1, 300), (2, 9))

        def run():
            calls, out = [], np.zeros((301, 10))

            @partition_invariant
            def body(i, j):
                calls.append(len(i))
                out[i, j] = 10.0 * i + j

            return kernel_2d(policy, segments, body), calls, out

        launches, calls, out = run()
        with legacy_dispatch():
            legacy_launches, legacy_calls, legacy = run()
        assert calls == [299 * 7]
        assert launches == legacy_launches == len(legacy_calls)
        assert launches == len(partition_plan(policy, 299))
        assert out.tobytes() == legacy.tobytes()

    @pytest.mark.parametrize("policy_name", list(POLICIES))
    def test_kernel_3d_one_call_over_the_whole_space(self, policy_name):
        policy = POLICIES[policy_name]
        segments = (70, (1, 5), 3)

        def run():
            calls, out = [], np.zeros((70, 5, 3))

            @partition_invariant
            def body(i, j, k):
                calls.append(len(i))
                out[i, j, k] = 100.0 * i + 10.0 * j + k

            return kernel_3d(policy, segments, body), calls, out

        launches, calls, out = run()
        with legacy_dispatch():
            legacy_launches, legacy_calls, legacy = run()
        assert calls == [70 * 4 * 3]
        assert launches == legacy_launches == len(legacy_calls)
        assert launches == len(partition_plan(policy, 70))
        assert out.tobytes() == legacy.tobytes()

    def test_undeclared_nd_body_still_runs_per_partition(self):
        calls = []
        launches = kernel_2d(
            omp_parallel_for_exec, (300, 4), lambda i, j: calls.append(len(i))
        )
        assert launches == len(calls) == 56
        assert sum(calls) == 300 * 4


class TestKernelEquivalenceAtExecutionSize:
    """Exact ``repr`` checksum equality, fast engine vs legacy, at the
    benchmark's execution size and an odd size."""

    @pytest.mark.parametrize("size", (8000, 1003))
    @pytest.mark.parametrize("name", FUSED_KERNELS + PER_PARTITION_KERNELS)
    def test_fast_engine_matches_legacy(self, name, size):
        kernel = make_kernel(name, size)
        variants = [v for v in kernel.variants() if v.name in RAJA_VARIANTS]
        assert {"RAJA_Seq", "RAJA_OpenMP", "RAJA_CUDA"} <= {v.name for v in variants}
        for variant in variants:
            clear_dispatch_caches()
            fast = make_kernel(name, size).run_variant(variant)
            with legacy_dispatch():
                legacy = make_kernel(name, size).run_variant(variant)
            assert repr(fast) == repr(legacy), (name, variant.name, size)


def _count_calls(kernel, names):
    """Run ``kernel``'s RAJA_OpenMP variant; count calls of the functions
    named ``names`` defined in the kernel's module."""
    filename = sys.modules[type(kernel).__module__].__file__
    counts = dict.fromkeys(names, 0)

    def profile(frame, event, arg):
        code = frame.f_code
        if event == "call" and code.co_filename == filename and code.co_name in counts:
            counts[code.co_name] += 1

    kernel.ensure_setup()
    sys.setprofile(profile)
    try:
        kernel.run_variant_prepared(get_variant("RAJA_OpenMP"))
    finally:
        sys.setprofile(None)
    return counts


class TestBodyCallGuard:
    """A structural guard that needs no timer: at the execution size,
    RAJA_OpenMP calls each fused body once per forall / kernel_2d (ADI:
    once per sweep), where per-partition dispatch calls it once per
    simulated thread."""

    CASES = {
        "Apps_LTIMES": ("body",),
        "Polybench_ADI": ("_column_sweep", "_row_sweep"),
        "Lcals_HYDRO_2D": ("_pass1", "_pass2", "_pass3"),
    }

    @pytest.mark.parametrize("name", list(CASES))
    def test_one_body_call_per_dispatch(self, name):
        names = self.CASES[name]
        fast = _count_calls(make_kernel(name, 8000), names)
        assert fast == dict.fromkeys(names, 1)

        with legacy_dispatch():
            legacy = _count_calls(make_kernel(name, 8000), names)
        # The reference engine makes one call per OpenMP chunk: 56 here.
        assert legacy == dict.fromkeys(names, omp_parallel_for_exec.num_threads)
