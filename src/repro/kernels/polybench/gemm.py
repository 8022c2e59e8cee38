"""Polybench_GEMM: ``C = alpha A B + beta C`` (untiled polyhedral form).

O(n^(3/2)) in matrix storage; excluded from the similarity analysis, and
one of the Section V-B kernels that gains on GPUs but not on SPR-HBM.
"""

from __future__ import annotations

import numpy as np

from repro.perfmodel.traits import KernelTraits
from repro.rajasim import forall
from repro.rajasim.policies import ExecPolicy
from repro.suite.checksum import checksum_array
from repro.suite.features import Complexity, Feature
from repro.suite.groups import Group
from repro.suite.kernel_base import KernelBase
from repro.suite.registry import register_kernel
from repro.suite.trait_presets import CORE, derive


@register_kernel
class PolybenchGemm(KernelBase):
    NAME = "GEMM"
    GROUP = Group.POLYBENCH
    COMPLEXITY = Complexity.N_3_2
    FEATURES = frozenset({Feature.KERNEL})
    INSTR_PER_ITER = 0.0

    ALPHA, BETA = 1.5, 1.2

    def __init__(self, problem_size: int | None = None, seed: int = 4793) -> None:
        super().__init__(problem_size, seed)
        self.n_mat = max(2, int(round(self.problem_size**0.5)))

    def iterations(self) -> float:
        return float(self.n_mat * self.n_mat)

    def setup(self) -> None:
        n = self.n_mat
        self.a = self.rng.random((n, n))
        self.b = self.rng.random((n, n))
        self.c = self.rng.random((n, n))

    def bytes_read(self) -> float:
        return 3.0 * 8.0 * self.iterations()

    def bytes_written(self) -> float:
        return 8.0 * self.iterations()

    def flops(self) -> float:
        return 2.0 * float(self.n_mat) ** 3 + 2.0 * self.iterations()

    def work_profile(self, reps: int = 1):
        from dataclasses import replace

        profile = super().work_profile(reps)
        return replace(profile, instructions=0.6 * profile.flops)

    def traits(self) -> KernelTraits:
        return derive(
            CORE,
            cpu_compute_eff=0.05,
            simd_eff=0.7,
            cache_resident=0.9,
            gpu_cache_resident=0.5,
            gpu_compute_eff=0.4,
            streaming_eff=0.7,
        )

    def run_base(self, policy: ExecPolicy) -> None:
        self.c *= self.BETA
        self.c += self.ALPHA * (self.a @ self.b)

    def run_raja(self, policy: ExecPolicy) -> None:
        a, b, c = self.a, self.b, self.c
        alpha, beta = self.ALPHA, self.BETA

        def row_block(rows: np.ndarray) -> None:
            block = slice(rows[0], rows[-1] + 1)
            c[block] = beta * c[block] + alpha * (a[block] @ b)

        forall(policy, self.n_mat, row_block)

    def checksum(self) -> float:
        return checksum_array(self.c.ravel())
