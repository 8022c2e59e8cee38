"""Polybench_3MM: three chained matrix multiplies ``G = (A*B) * (C*D)``.

O(n^(3/2)) in matrix storage; excluded from the similarity analysis.
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
class Polybench3mm(KernelBase):
    NAME = "3MM"
    GROUP = Group.POLYBENCH
    COMPLEXITY = Complexity.N_3_2
    FEATURES = frozenset({Feature.KERNEL})
    INSTR_PER_ITER = 0.0

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
        self.e = np.zeros((n, n))
        self.f = np.zeros((n, n))
        self.g = np.zeros((n, n))

    def bytes_read(self) -> float:
        return 6.0 * 8.0 * self.iterations()

    def bytes_written(self) -> float:
        return 3.0 * 8.0 * self.iterations()

    def flops(self) -> float:
        return 6.0 * float(self.n_mat) ** 3

    def work_profile(self, reps: int = 1):
        from dataclasses import replace

        profile = super().work_profile(reps)
        return replace(profile, instructions=0.6 * profile.flops)

    def launches_per_rep(self) -> float:
        return 3.0

    def traits(self) -> KernelTraits:
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
        np.matmul(self.a, self.b, out=self.e)
        np.matmul(self.c, self.d, out=self.f)
        np.matmul(self.e, self.f, out=self.g)

    def run_raja(self, policy: ExecPolicy) -> None:
        n = self.n_mat
        for target, lhs, rhs in (
            (self.e, self.a, self.b),
            (self.f, self.c, self.d),
            (self.g, self.e, self.f),
        ):
            def row_block(rows: np.ndarray) -> None:
                block = slice(rows[0], rows[-1] + 1)
                target[block] = lhs[block] @ rhs

            forall(policy, n, row_block)

    def checksum(self) -> float:
        return checksum_array(self.g.ravel())
