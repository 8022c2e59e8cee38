"""A RAJA-like performance-portability layer in Python.

RAJAPerf's kernels come in *Base* variants (written directly against a
programming model) and *RAJA* variants (written once against RAJA's
``forall``/``kernel``/``View``/reducer abstractions and dispatched to a
backend). This package reproduces that split: kernels written against
:func:`forall`, :class:`View`, :class:`ReduceSum`, etc. are dispatched to a
backend selected by an execution *policy* (sequential, SIMD, OpenMP-style
chunked, CUDA/HIP/SYCL-style block-decomposed). All backends compute the
same result — which the suite verifies with checksums — while exercising
genuinely different execution structure (chunking, block decomposition,
per-thread partial reductions) that the simulators account for.
"""

from repro.rajasim.policies import (
    Backend,
    ExecPolicy,
    cuda_exec,
    hip_exec,
    omp_parallel_for_exec,
    omp_target_exec,
    seq_exec,
    simd_exec,
    sycl_exec,
)
from repro.rajasim.forall import (
    dispatch_mode,
    forall,
    forall_chunks,
    legacy_dispatch,
    partition_invariant,
    slice_capable,
)
from repro.rajasim.kernel import kernel_2d, kernel_3d
from repro.rajasim.views import Layout, View, make_permuted_layout
from repro.rajasim.reducers import (
    ReduceMax,
    ReduceMaxLoc,
    ReduceMin,
    ReduceMinLoc,
    ReduceSum,
    MultiReduceSum,
)
from repro.rajasim.scan import exclusive_scan, inclusive_scan, exclusive_scan_inplace
from repro.rajasim.sort import sort as raja_sort, sort_pairs
from repro.rajasim.atomic import atomic_add, atomic_max, atomic_min
from repro.rajasim.resources import Resource, device_memcpy, device_memset

__all__ = [
    "Backend",
    "ExecPolicy",
    "seq_exec",
    "simd_exec",
    "omp_parallel_for_exec",
    "omp_target_exec",
    "cuda_exec",
    "hip_exec",
    "sycl_exec",
    "forall",
    "forall_chunks",
    "slice_capable",
    "partition_invariant",
    "legacy_dispatch",
    "dispatch_mode",
    "kernel_2d",
    "kernel_3d",
    "Layout",
    "View",
    "make_permuted_layout",
    "ReduceSum",
    "ReduceMin",
    "ReduceMax",
    "ReduceMinLoc",
    "ReduceMaxLoc",
    "MultiReduceSum",
    "inclusive_scan",
    "exclusive_scan",
    "exclusive_scan_inplace",
    "raja_sort",
    "sort_pairs",
    "atomic_add",
    "atomic_min",
    "atomic_max",
    "Resource",
    "device_memcpy",
    "device_memset",
]
