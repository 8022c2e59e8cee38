"""Polybench_FDTD_2D: 2-D finite-difference time-domain kernel.

Three streaming stencil updates (ey, ex, hz) per step; firmly in the
memory-bound cluster.
"""

from __future__ import annotations

import numpy as np

from repro.perfmodel.traits import KernelTraits
from repro.rajasim import forall, kernel_2d, partition_invariant
from repro.rajasim.policies import ExecPolicy
from repro.suite.checksum import checksum_array
from repro.suite.features import Feature
from repro.suite.groups import Group
from repro.suite.kernel_base import KernelBase
from repro.suite.registry import register_kernel
from repro.suite.trait_presets import STREAMING, derive


@register_kernel
class PolybenchFdtd2d(KernelBase):
    NAME = "FDTD_2D"
    GROUP = Group.POLYBENCH
    FEATURES = frozenset({Feature.FORALL, Feature.KERNEL})
    INSTR_PER_ITER = 20.0

    def __init__(self, problem_size: int | None = None, seed: int = 4793) -> None:
        super().__init__(problem_size, seed)
        self.n = max(4, int(round(self.problem_size**0.5)))
        self.t = 0

    def iterations(self) -> float:
        return float(self.n * self.n)

    def setup(self) -> None:
        n = self.n
        self.ex = self.rng.random((n, n))
        self.ey = self.rng.random((n, n))
        self.hz = self.rng.random((n, n))
        self.fict = self.rng.random(n)
        self.t = 0

    def bytes_read(self) -> float:
        return 6.0 * 8.0 * self.iterations()

    def bytes_written(self) -> float:
        return 3.0 * 8.0 * self.iterations()

    def flops(self) -> float:
        return 11.0 * self.iterations()

    def launches_per_rep(self) -> float:
        return 4.0

    def traits(self) -> KernelTraits:
        return derive(STREAMING, streaming_eff=0.85, simd_eff=0.8)

    def run_base(self, policy: ExecPolicy) -> None:
        ex, ey, hz, fict = self.ex, self.ey, self.hz, self.fict
        t = self.t
        ey[0, :] = fict[t]
        ey[1:, :] -= 0.5 * (hz[1:, :] - hz[:-1, :])
        ex[:, 1:] -= 0.5 * (hz[:, 1:] - hz[:, :-1])
        hz[:-1, :-1] -= 0.7 * (
            ex[:-1, 1:] - ex[:-1, :-1] + ey[1:, :-1] - ey[:-1, :-1]
        )

    def run_raja(self, policy: ExecPolicy) -> None:
        ex, ey, hz, fict = self.ex, self.ey, self.hz, self.fict
        n, t = self.n, self.t

        # Fused: a constant store to ey's first row.
        @partition_invariant
        def set_fict(j: np.ndarray) -> None:
            ey[0, j] = fict[t]

        forall(policy, n, set_fict)

        # Fused: ey updated pointwise from itself and hz, read-only here.
        @partition_invariant
        def update_ey(i: np.ndarray, j: np.ndarray) -> None:
            ey[i, j] = ey[i, j] - 0.5 * (hz[i, j] - hz[i - 1, j])

        kernel_2d(policy, ((1, n), (0, n)), update_ey)

        # Fused: ex updated pointwise from itself and hz, read-only here.
        @partition_invariant
        def update_ex(i: np.ndarray, j: np.ndarray) -> None:
            ex[i, j] = ex[i, j] - 0.5 * (hz[i, j] - hz[i, j - 1])

        kernel_2d(policy, ((0, n), (1, n)), update_ex)

        # Fused: hz updated pointwise from itself, ex and ey, read-only here.
        @partition_invariant
        def update_hz(i: np.ndarray, j: np.ndarray) -> None:
            hz[i, j] = hz[i, j] - 0.7 * (
                ex[i, j + 1] - ex[i, j] + ey[i + 1, j] - ey[i, j]
            )

        kernel_2d(policy, ((0, n - 1), (0, n - 1)), update_hz)

    def checksum(self) -> float:
        return (
            checksum_array(self.ex.ravel())
            + checksum_array(self.ey.ravel())
            + checksum_array(self.hz.ravel())
        )
