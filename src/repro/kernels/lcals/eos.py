"""Lcals_EOS: Livermore Loop 7 — equation-of-state fragment.

``x[i] = u[i] + r*(z[i] + r*y[i]) + t*(u[i+3] + r*(u[i+2] + r*u[i+1]) +
t*(u[i+6] + q*(u[i+5] + q*u[i+4])))``
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
class LcalsEos(KernelBase):
    NAME = "EOS"
    GROUP = Group.LCALS
    FEATURES = frozenset({Feature.FORALL})
    INSTR_PER_ITER = 22.0

    Q, R, T = 0.5, 0.25, 0.125

    def setup(self) -> None:
        n = self.problem_size
        self.x = np.zeros(n)
        self.y = self.rng.random(n)
        self.z = self.rng.random(n)
        self.u = self.rng.random(n + 7)

    def bytes_read(self) -> float:
        # y, z, and the u window (~4 distinct cache lines' worth amortized).
        return 8.0 * 4.0 * self.problem_size

    def bytes_written(self) -> float:
        return 8.0 * self.problem_size

    def flops(self) -> float:
        return 16.0 * self.problem_size

    def traits(self) -> KernelTraits:
        return derive(STREAMING, streaming_eff=0.9, simd_eff=0.85, cpu_compute_eff=0.45)

    def _compute(self, i: object) -> None:
        x, y, z, u = self.x, self.y, self.z, self.u
        q, r, t = self.Q, self.R, self.T
        idx = np.asarray(i) if not isinstance(i, slice) else np.arange(self.problem_size)
        x[idx] = (
            u[idx]
            + r * (z[idx] + r * y[idx])
            + t
            * (
                u[idx + 3]
                + r * (u[idx + 2] + r * u[idx + 1])
                + t * (u[idx + 6] + q * (u[idx + 5] + q * u[idx + 4]))
            )
        )

    def run_base(self, policy: ExecPolicy) -> None:
        self._compute(slice(None))

    def run_raja(self, policy: ExecPolicy) -> None:
        compute = self._compute

        # Fused: writes x from u, y and z, which it never writes.
        @partition_invariant
        def body(i: np.ndarray) -> None:
            compute(i)

        forall(policy, self.problem_size, body)

    def checksum(self) -> float:
        return checksum_array(self.x)
