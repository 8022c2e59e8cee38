"""Apps_LTIMES: discrete-ordinates transport moment accumulation.

``phi(m,g,z) += ell(m,d) * psi(d,g,z)`` summed over directions d, written
through permuted RAJA Views. The small ell matrix and the blocked psi
planes stay cache-resident on CPUs: retiring bound there (Section V-B),
FLOP-heavy on the Fig. 10 scatter.
"""

from __future__ import annotations

import numpy as np

from repro.perfmodel.traits import KernelTraits
from repro.rajasim import Layout, View, forall, partition_invariant
from repro.rajasim.policies import ExecPolicy
from repro.suite.checksum import checksum_array
from repro.suite.features import Feature
from repro.suite.groups import Group
from repro.suite.kernel_base import KernelBase
from repro.suite.registry import register_kernel
from repro.suite.trait_presets import RETIRING, derive

NUM_D = 24  # directions
NUM_G = 4  # energy groups
NUM_M = 6  # moments


@register_kernel
class AppsLtimes(KernelBase):
    NAME = "LTIMES"
    GROUP = Group.APPS
    FEATURES = frozenset({Feature.KERNEL, Feature.VIEW})
    INSTR_PER_ITER = 30.0

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
        # psi and phi are each touched once per (g,z) slice; ell cached.
        return 8.0 * 2.0 * self.iterations()

    def bytes_written(self) -> float:
        return 8.0 * self.iterations()

    def flops(self) -> float:
        return 2.0 * NUM_D * self.iterations()

    def traits(self) -> KernelTraits:
        return derive(
            RETIRING,
            simd_eff=0.35,
            frontend_factor=0.18,
            cache_resident=0.88,
            cpu_compute_eff=0.2,
            gpu_compute_eff=0.7,
        )

    def _views(self):
        ell = View(self.ell, Layout((NUM_M, NUM_D)))
        psi = View(self.psi, Layout((NUM_D, NUM_G, self.num_z)))
        phi = View(self.phi, Layout((NUM_M, NUM_G, self.num_z)))
        return ell, psi, phi

    def run_base(self, policy: ExecPolicy) -> None:
        ell = self.ell.reshape(NUM_M, NUM_D)
        psi = self.psi.reshape(NUM_D, NUM_G * self.num_z)
        phi = self.phi.reshape(NUM_M, NUM_G * self.num_z)
        # Accumulate direction-by-direction to match the loop nest's order.
        for d in range(NUM_D):
            phi += np.outer(ell[:, d], psi[d])

    def run_raja(self, policy: ExecPolicy) -> None:
        ell, psi, phi = self._views()
        num_z = self.num_z

        # Fused: a z writes only phi[:, :, z], from ell and psi.
        @partition_invariant
        def body(z: np.ndarray) -> None:
            for m in range(NUM_M):
                for g in range(NUM_G):
                    for d in range(NUM_D):
                        phi[m, g, z] = phi[m, g, z] + ell[m, d] * psi[d, g, z]

        forall(policy, num_z, body)

    def checksum(self) -> float:
        return checksum_array(self.phi)
