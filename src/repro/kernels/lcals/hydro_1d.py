"""Lcals_HYDRO_1D: Livermore Loop 1 — hydrodynamics fragment.

``x[i] = q + y[i] * (r * z[i+10] + t * z[i+11])``
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
from repro.suite.trait_presets import STREAMING, derive


@register_kernel
class LcalsHydro1d(KernelBase):
    NAME = "HYDRO_1D"
    GROUP = Group.LCALS
    FEATURES = frozenset({Feature.FORALL})
    HAS_KOKKOS = True
    INSTR_PER_ITER = 8.0

    Q, R, T = 0.5, 0.25, 0.125

    def setup(self) -> None:
        n = self.problem_size
        self.x = np.zeros(n)
        self.y = self.rng.random(n)
        self.z = self.rng.random(n + 12)

    def bytes_read(self) -> float:
        return 16.0 * self.problem_size  # y + z streamed

    def bytes_written(self) -> float:
        return 8.0 * self.problem_size

    def flops(self) -> float:
        return 5.0 * self.problem_size

    def traits(self) -> KernelTraits:
        return derive(STREAMING, streaming_eff=0.95, simd_eff=0.9)

    def run_base(self, policy: ExecPolicy) -> None:
        q, r, t = self.Q, self.R, self.T
        self.x[:] = q + self.y * (r * self.z[10:-2] + t * self.z[11:-1])

    def run_raja(self, policy: ExecPolicy) -> None:
        x, y, z = self.x, self.y, self.z
        q, r, t = self.Q, self.R, self.T

        # Fused: writes x from y and z, which it never writes.
        @partition_invariant
        def body(i: np.ndarray) -> None:
            x[i] = q + y[i] * (r * z[i + 10] + t * z[i + 11])

        forall(policy, self.problem_size, body)

    def checksum(self) -> float:
        return checksum_array(self.x)
