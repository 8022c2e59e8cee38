"""Apps_LTIMES_NOVIEW: LTIMES with raw index arithmetic instead of Views.

The LTIMES / LTIMES_NOVIEW pair measures the abstraction cost of RAJA's
View/Layout machinery; both carry the same analytic metrics.
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
from repro.suite.trait_presets import RETIRING, derive

NUM_D = 24
NUM_G = 4
NUM_M = 6


@register_kernel
class AppsLtimesNoview(KernelBase):
    NAME = "LTIMES_NOVIEW"
    GROUP = Group.APPS
    FEATURES = frozenset({Feature.KERNEL})
    INSTR_PER_ITER = 28.0

    def __init__(self, problem_size: int | None = None, seed: int = 4793) -> None:
        super().__init__(problem_size, seed)
        self.num_z = max(1, self.problem_size // (NUM_G * NUM_M))

    def iterations(self) -> float:
        return float(self.num_z * NUM_G * NUM_M)

    def setup(self) -> None:
        self.ell = self.rng.random(NUM_M * NUM_D)
        self.psi = self.rng.random(NUM_D * NUM_G * self.num_z)
        self.phi = np.zeros(NUM_M * NUM_G * self.num_z)

    def bytes_read(self) -> float:
        return 8.0 * 2.0 * self.iterations()

    def bytes_written(self) -> float:
        return 8.0 * self.iterations()

    def flops(self) -> float:
        return 2.0 * NUM_D * self.iterations()

    def traits(self) -> KernelTraits:
        return derive(
            RETIRING,
            simd_eff=0.38,  # slightly better than the View variant
            frontend_factor=0.16,
            cache_resident=0.88,
            cpu_compute_eff=0.2,
            gpu_compute_eff=0.7,
        )

    def run_base(self, policy: ExecPolicy) -> None:
        ell = self.ell.reshape(NUM_M, NUM_D)
        psi = self.psi.reshape(NUM_D, NUM_G * self.num_z)
        phi = self.phi.reshape(NUM_M, NUM_G * self.num_z)
        for d in range(NUM_D):
            phi += np.outer(ell[:, d], psi[d])

    def run_raja(self, policy: ExecPolicy) -> None:
        ell, psi, phi = self.ell, self.psi, self.phi
        num_z = self.num_z

        # Fused: a z writes only phi's (m, g, z) slots, from ell and psi.
        @partition_invariant
        def body(z: np.ndarray) -> None:
            for m in range(NUM_M):
                for g in range(NUM_G):
                    phi_idx = m * (NUM_G * num_z) + g * num_z + z
                    for d in range(NUM_D):
                        phi[phi_idx] += ell[m * NUM_D + d] * psi[
                            d * (NUM_G * num_z) + g * num_z + z
                        ]

        forall(policy, num_z, body)

    def checksum(self) -> float:
        return checksum_array(self.phi)
