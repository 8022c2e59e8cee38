"""Basic_NESTED_INIT: ``array(i,j,k) = i*j*k`` over a 3-D nested loop.

Exercises RAJA::kernel nested-loop dispatch; the deep nest's loop
overhead makes it retiring/frontend bound on CPUs (Section V-B).
"""

from __future__ import annotations

import numpy as np

from repro.perfmodel.traits import KernelTraits
from repro.rajasim import kernel_3d, partition_invariant
from repro.rajasim.policies import ExecPolicy
from repro.suite.checksum import checksum_array
from repro.suite.features import Feature
from repro.suite.groups import Group
from repro.suite.kernel_base import KernelBase
from repro.suite.registry import register_kernel
from repro.suite.trait_presets import RETIRING, derive


@register_kernel
class BasicNestedInit(KernelBase):
    NAME = "NESTED_INIT"
    GROUP = Group.BASIC
    FEATURES = frozenset({Feature.KERNEL})
    HAS_KOKKOS = True
    INSTR_PER_ITER = 6.0

    def __init__(self, problem_size: int | None = None, seed: int = 4793) -> None:
        super().__init__(problem_size, seed)
        # A near-cubic domain with ni*nj*nk <= problem_size.
        edge = max(1, round(self.problem_size ** (1.0 / 3.0)))
        self.ni = self.nj = self.nk = edge

    def iterations(self) -> float:
        return float(self.ni * self.nj * self.nk)

    def setup(self) -> None:
        self.array = np.zeros(self.ni * self.nj * self.nk)

    def bytes_read(self) -> float:
        return 0.0

    def bytes_written(self) -> float:
        return 8.0 * self.iterations()

    def flops(self) -> float:
        return 2.0 * self.iterations()

    def traits(self) -> KernelTraits:
        return derive(RETIRING, simd_eff=0.3, frontend_factor=0.22, cache_resident=0.9)

    def run_base(self, policy: ExecPolicy) -> None:
        ni, nj, nk = self.ni, self.nj, self.nk
        kk, jj, ii = np.meshgrid(
            np.arange(nk, dtype=np.float64),
            np.arange(nj, dtype=np.float64),
            np.arange(ni, dtype=np.float64),
            indexing="ij",
        )
        self.array[:] = (ii * jj * kk).ravel()

    def run_raja(self, policy: ExecPolicy) -> None:
        array, ni, nj = self.array, self.ni, self.nj

        # Fused: each point stores a value computed from its own indices.
        @partition_invariant
        def body(k: np.ndarray, j: np.ndarray, i: np.ndarray) -> None:
            array[i + ni * (j + nj * k)] = (
                i.astype(np.float64) * j.astype(np.float64) * k.astype(np.float64)
            )

        kernel_3d(policy, (self.nk, self.nj, self.ni), body)

    def checksum(self) -> float:
        return checksum_array(self.array)
