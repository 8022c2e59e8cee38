"""Polybench_ATAX: ``y = A^T (A x)``.

Two matrix-vector products, the second against the transpose. At the
paper's per-rank size the matrix is cache-resident on the CPUs (low
memory-bound, Section III-A), while the transposed reduction phase maps
poorly onto GPUs — ATAX appears in the no-GPU-speedup list for both the
V100 and the MI250X.
"""

from __future__ import annotations

import numpy as np

from repro.perfmodel.traits import KernelTraits
from repro.rajasim import forall
from repro.rajasim.policies import ExecPolicy
from repro.suite.checksum import checksum_array
from repro.suite.features import Feature
from repro.suite.groups import Group
from repro.suite.kernel_base import KernelBase
from repro.suite.registry import register_kernel
from repro.suite.trait_presets import CORE, derive


@register_kernel
class PolybenchAtax(KernelBase):
    NAME = "ATAX"
    GROUP = Group.POLYBENCH
    FEATURES = frozenset({Feature.KERNEL})
    INSTR_PER_ITER = 8.0

    def __init__(self, problem_size: int | None = None, seed: int = 4793) -> None:
        super().__init__(problem_size, seed)
        self.n = max(2, int(round(self.problem_size**0.5)))

    def iterations(self) -> float:
        return float(self.n * self.n)

    def setup(self) -> None:
        n = self.n
        self.a = self.rng.random((n, n))
        self.x = self.rng.random(n)
        self.y = np.zeros(n)
        self.tmp = np.zeros(n)

    def bytes_read(self) -> float:
        return 2.0 * 8.0 * self.iterations()  # A streamed twice

    def bytes_written(self) -> float:
        return 8.0 * 2.0 * self.n

    def flops(self) -> float:
        return 4.0 * self.iterations()

    def launches_per_rep(self) -> float:
        return 2.0

    def traits(self) -> KernelTraits:
        return derive(
            CORE,
            cpu_compute_eff=0.055,
            simd_eff=0.6,
            cache_resident=0.92,
            gpu_cache_resident=0.2,
            gpu_compute_eff=0.12,
            gpu_serial_fraction=0.04,
            streaming_eff=0.6,
        )

    def run_base(self, policy: ExecPolicy) -> None:
        np.matmul(self.a, self.x, out=self.tmp)
        np.matmul(self.a.T, self.tmp, out=self.y)

    def run_raja(self, policy: ExecPolicy) -> None:
        a, x, y, tmp = self.a, self.x, self.y, self.tmp
        n = self.n
        y[:] = 0.0

        def row_products(rows: np.ndarray) -> None:
            tmp[rows] = a[rows] @ x

        forall(policy, n, row_products)

        # Transposed accumulation phase: partial sums combined in
        # deterministic partition order.
        def accumulate(rows: np.ndarray) -> None:
            y[:] += tmp[rows] @ a[rows]

        forall(policy, n, accumulate)

    def checksum(self) -> float:
        return checksum_array(self.y)
