"""Polybench_JACOBI_1D: 1-D Jacobi smoothing, ping-pong buffers."""

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

ONE_THIRD = 1.0 / 3.0


@register_kernel
class PolybenchJacobi1d(KernelBase):
    NAME = "JACOBI_1D"
    GROUP = Group.POLYBENCH
    FEATURES = frozenset({Feature.FORALL})
    INSTR_PER_ITER = 8.0

    def setup(self) -> None:
        n = self.problem_size
        self.a = self.rng.random(n)
        self.b = self.a.copy()

    def iterations(self) -> float:
        return float(max(self.problem_size - 2, 0))

    def bytes_read(self) -> float:
        return 2.0 * 8.0 * self.iterations()  # each sweep streams one array

    def bytes_written(self) -> float:
        return 2.0 * 8.0 * self.iterations()

    def flops(self) -> float:
        return 2.0 * 3.0 * self.iterations()

    def launches_per_rep(self) -> float:
        return 2.0

    def traits(self) -> KernelTraits:
        return derive(STREAMING, streaming_eff=0.95, simd_eff=0.9)

    def run_base(self, policy: ExecPolicy) -> None:
        a, b = self.a, self.b
        b[1:-1] = ONE_THIRD * (a[:-2] + a[1:-1] + a[2:])
        a[1:-1] = ONE_THIRD * (b[:-2] + b[1:-1] + b[2:])

    def run_raja(self, policy: ExecPolicy) -> None:
        a, b = self.a, self.b
        n = self.problem_size

        # Fused: writes b from a, a different array.
        @partition_invariant
        def sweep_ab(i: np.ndarray) -> None:
            b[i] = ONE_THIRD * (a[i - 1] + a[i] + a[i + 1])

        forall(policy, (1, n - 1), sweep_ab)

        # Fused: writes a from b, a different array.
        @partition_invariant
        def sweep_ba(i: np.ndarray) -> None:
            a[i] = ONE_THIRD * (b[i - 1] + b[i] + b[i + 1])

        forall(policy, (1, n - 1), sweep_ba)

    def checksum(self) -> float:
        return checksum_array(self.a)
