"""Polybench_MVT: ``x1 += A y1; x2 += A^T y2``.

Matrix-vector and transposed matrix-vector; cache-resident on the CPUs at
the paper's per-rank size, and in the no-GPU-speedup list on both GPUs.
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
class PolybenchMvt(KernelBase):
    NAME = "MVT"
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
        self.x1 = np.zeros(n)
        self.x2 = np.zeros(n)
        self.y1 = self.rng.random(n)
        self.y2 = self.rng.random(n)

    def bytes_read(self) -> float:
        return 2.0 * 8.0 * self.iterations()

    def bytes_written(self) -> float:
        return 16.0 * self.n

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
        self.x1 += self.a @ self.y1
        self.x2 += self.a.T @ self.y2

    def run_raja(self, policy: ExecPolicy) -> None:
        a, x1, x2, y1, y2 = self.a, self.x1, self.x2, self.y1, self.y2
        n = self.n

        def row_products(rows: np.ndarray) -> None:
            x1[rows] += a[rows] @ y1

        def accumulate(rows: np.ndarray) -> None:
            x2[:] += y2[rows] @ a[rows]

        forall(policy, n, row_products)
        forall(policy, n, accumulate)

    def checksum(self) -> float:
        return checksum_array(self.x1) + checksum_array(self.x2)
