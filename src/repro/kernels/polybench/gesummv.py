"""Polybench_GESUMMV: ``y = alpha A x + beta B x``.

Two matrices streamed per iteration make it substantially memory bound on
SPR-DDR (Section III-A's example); HBM relieves it slightly (Section V-C),
but the transposed/gather access pattern keeps it from speeding up on
either GPU.
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
from repro.suite.trait_presets import BALANCED, derive


@register_kernel
class PolybenchGesummv(KernelBase):
    NAME = "GESUMMV"
    GROUP = Group.POLYBENCH
    FEATURES = frozenset({Feature.KERNEL})
    INSTR_PER_ITER = 10.0

    ALPHA, BETA = 1.5, 1.2

    def __init__(self, problem_size: int | None = None, seed: int = 4793) -> None:
        super().__init__(problem_size, seed)
        self.n = max(2, int(round(self.problem_size**0.5)))

    def iterations(self) -> float:
        return float(self.n * self.n)

    def setup(self) -> None:
        n = self.n
        self.a = self.rng.random((n, n))
        self.b = self.rng.random((n, n))
        self.x = self.rng.random(n)
        self.y = np.zeros(n)

    def bytes_read(self) -> float:
        return 2.0 * 8.0 * self.iterations()  # both matrices streamed

    def bytes_written(self) -> float:
        return 8.0 * self.n

    def flops(self) -> float:
        return 4.0 * self.iterations() + 3.0 * self.n

    def traits(self) -> KernelTraits:
        # Two full matrices exceed the per-rank cache: memory bound on DDR.
        return derive(
            BALANCED,
            streaming_eff=0.55,
            simd_eff=0.5,
            cache_resident=0.3,
            cpu_compute_eff=0.08,
            gpu_compute_eff=0.15,
            gpu_serial_fraction=0.04,
            gpu_cache_resident=0.1,
        )

    def run_base(self, policy: ExecPolicy) -> None:
        self.y[:] = self.ALPHA * (self.a @ self.x) + self.BETA * (self.b @ self.x)

    def run_raja(self, policy: ExecPolicy) -> None:
        a, b, x, y = self.a, self.b, self.x, self.y
        alpha, beta = self.ALPHA, self.BETA

        def row_products(rows: np.ndarray) -> None:
            y[rows] = alpha * (a[rows] @ x) + beta * (b[rows] @ x)

        forall(policy, self.n, row_products)

    def checksum(self) -> float:
        return checksum_array(self.y)
