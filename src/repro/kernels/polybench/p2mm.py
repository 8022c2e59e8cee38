"""Polybench_2MM: two chained matrix multiplies ``D = alpha*A*B*C + beta*D``.

O(n^(3/2)) in matrix storage, so excluded from the similarity analysis;
one of the kernels that gains on GPUs but not on SPR-HBM (core/retiring
bound on CPUs, Section V-B).
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
class Polybench2mm(KernelBase):
    NAME = "2MM"
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
        self.d = self.rng.random((n, n))
        self.tmp = np.zeros((n, n))

    def bytes_read(self) -> float:
        return 5.0 * 8.0 * self.iterations()

    def bytes_written(self) -> float:
        return 2.0 * 8.0 * self.iterations()

    def flops(self) -> float:
        return 4.0 * float(self.n_mat) ** 3

    def work_profile(self, reps: int = 1):
        from dataclasses import replace

        profile = super().work_profile(reps)
        return replace(profile, instructions=0.6 * profile.flops)

    def launches_per_rep(self) -> float:
        return 2.0

    def traits(self) -> KernelTraits:
        # Untiled polyhedral code: far from the MAT_MAT_SHARED anchor.
        return derive(
            CORE,
            cpu_compute_eff=0.045,
            simd_eff=0.7,
            cache_resident=0.9,
            gpu_cache_resident=0.5,
            gpu_compute_eff=0.35,
            streaming_eff=0.7,
        )

    def run_base(self, policy: ExecPolicy) -> None:
        np.matmul(self.a, self.b, out=self.tmp)
        self.tmp *= self.ALPHA
        self.d *= self.BETA
        self.d += self.tmp @ self.c

    def run_raja(self, policy: ExecPolicy) -> None:
        a, b, c, d, tmp = self.a, self.b, self.c, self.d, self.tmp
        n = self.n_mat

        def first_product(rows: np.ndarray) -> None:
            block = slice(rows[0], rows[-1] + 1)
            tmp[block] = self.ALPHA * (a[block] @ b)

        def second_product(rows: np.ndarray) -> None:
            block = slice(rows[0], rows[-1] + 1)
            d[block] = self.BETA * d[block] + tmp[block] @ c

        forall(policy, n, first_product)
        forall(policy, n, second_product)

    def checksum(self) -> float:
        return checksum_array(self.d.ravel())
