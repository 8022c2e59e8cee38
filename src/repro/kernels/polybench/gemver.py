"""Polybench_GEMVER: rank-2 update + two matrix-vector products.

``A += u1 v1^T + u2 v2^T; x = beta A^T y + z; w = alpha A x``

In the no-GPU-speedup list on both GPUs; core/retiring bound on the CPUs
at the paper's cache-resident per-rank size.
"""

from __future__ import annotations

import numpy as np

from repro.perfmodel.traits import KernelTraits
from repro.rajasim import forall, partition_invariant
from repro.rajasim.policies import ExecPolicy
from repro.suite.checksum import checksum_array
from repro.suite.features import Feature
from repro.suite.groups import Group
from repro.suite.kernel_base import KernelBase
from repro.suite.registry import register_kernel
from repro.suite.trait_presets import CORE, derive


@register_kernel
class PolybenchGemver(KernelBase):
    NAME = "GEMVER"
    GROUP = Group.POLYBENCH
    FEATURES = frozenset({Feature.KERNEL})
    INSTR_PER_ITER = 12.0

    ALPHA, BETA = 1.5, 1.2

    def __init__(self, problem_size: int | None = None, seed: int = 4793) -> None:
        super().__init__(problem_size, seed)
        self.n = max(2, int(round(self.problem_size**0.5)))

    def iterations(self) -> float:
        return float(self.n * self.n)

    def setup(self) -> None:
        n = self.n
        self.a = self.rng.random((n, n))
        self.u1 = self.rng.random(n)
        self.v1 = self.rng.random(n)
        self.u2 = self.rng.random(n)
        self.v2 = self.rng.random(n)
        self.y = self.rng.random(n)
        self.z = self.rng.random(n)
        self.x = np.zeros(n)
        self.w = np.zeros(n)

    def bytes_read(self) -> float:
        return 3.0 * 8.0 * self.iterations()  # A streamed three times

    def bytes_written(self) -> float:
        return 8.0 * self.iterations()  # the rank-2 update rewrites A

    def flops(self) -> float:
        return 10.0 * self.iterations()

    def launches_per_rep(self) -> float:
        return 3.0

    def traits(self) -> KernelTraits:
        return derive(
            CORE,
            cpu_compute_eff=0.06,
            simd_eff=0.6,
            cache_resident=0.9,
            gpu_cache_resident=0.2,
            gpu_compute_eff=0.15,
            gpu_serial_fraction=0.04,
            streaming_eff=0.6,
        )

    def run_base(self, policy: ExecPolicy) -> None:
        self.a += np.outer(self.u1, self.v1) + np.outer(self.u2, self.v2)
        self.x[:] = self.BETA * (self.a.T @ self.y) + self.z
        self.w[:] = self.ALPHA * (self.a @ self.x)

    def run_raja(self, policy: ExecPolicy) -> None:
        a, x, w = self.a, self.x, self.w
        u1, v1, u2, v2 = self.u1, self.v1, self.u2, self.v2
        n = self.n

        # Fused: a row's rank-2 update reads only that row of u1 and u2.
        @partition_invariant
        def rank2_update(rows: np.ndarray) -> None:
            a[rows] += np.outer(u1[rows], v1) + np.outer(u2[rows], v2)

        forall(policy, n, rank2_update)
        xacc = np.zeros(n)

        def accumulate(rows: np.ndarray) -> None:
            xacc[:] += self.y[rows] @ a[rows]

        forall(policy, n, accumulate)
        x[:] = self.BETA * xacc + self.z

        def row_products(rows: np.ndarray) -> None:
            w[rows] = self.ALPHA * (a[rows] @ x)

        forall(policy, n, row_products)

    def checksum(self) -> float:
        return checksum_array(self.w) + checksum_array(self.x)
