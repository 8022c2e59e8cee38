"""Polybench_JACOBI_2D: 2-D 5-point Jacobi smoothing, ping-pong buffers.

At the paper's per-rank CPU size the grid is cache-resident, so unlike
JACOBI_1D it reads as retiring-bound on the SPR systems.
"""

from __future__ import annotations

import numpy as np

from repro.perfmodel.traits import KernelTraits
from repro.rajasim import kernel_2d, partition_invariant
from repro.rajasim.policies import ExecPolicy
from repro.suite.checksum import checksum_array
from repro.suite.features import Feature
from repro.suite.groups import Group
from repro.suite.kernel_base import KernelBase
from repro.suite.registry import register_kernel
from repro.suite.trait_presets import RETIRING, derive


@register_kernel
class PolybenchJacobi2d(KernelBase):
    NAME = "JACOBI_2D"
    GROUP = Group.POLYBENCH
    FEATURES = frozenset({Feature.KERNEL})
    INSTR_PER_ITER = 14.0

    def __init__(self, problem_size: int | None = None, seed: int = 4793) -> None:
        super().__init__(problem_size, seed)
        self.n = max(4, int(round(self.problem_size**0.5)))

    def iterations(self) -> float:
        return float((self.n - 2) ** 2)

    def setup(self) -> None:
        n = self.n
        self.a = self.rng.random((n, n))
        self.b = self.a.copy()

    def bytes_read(self) -> float:
        return 2.0 * 2.0 * 8.0 * self.iterations()

    def bytes_written(self) -> float:
        return 2.0 * 8.0 * self.iterations()

    def flops(self) -> float:
        return 2.0 * 5.0 * self.iterations()

    def launches_per_rep(self) -> float:
        return 2.0

    def traits(self) -> KernelTraits:
        return derive(
            RETIRING,
            simd_eff=0.3,
            frontend_factor=0.15,
            cache_resident=0.88,
            streaming_eff=0.85,
        )

    @staticmethod
    def _sweep(dst: np.ndarray, src: np.ndarray) -> None:
        c = slice(1, -1)
        dst[c, c] = 0.2 * (
            src[c, c] + src[c, :-2] + src[c, 2:] + src[2:, c] + src[:-2, c]
        )

    def run_base(self, policy: ExecPolicy) -> None:
        self._sweep(self.b, self.a)
        self._sweep(self.a, self.b)

    def run_raja(self, policy: ExecPolicy) -> None:
        n = self.n

        def make_body(dst: np.ndarray, src: np.ndarray):
            # Fused: writes dst from src, a different array.
            @partition_invariant
            def body(i: np.ndarray, j: np.ndarray) -> None:
                dst[i, j] = 0.2 * (
                    src[i, j] + src[i, j - 1] + src[i, j + 1] + src[i + 1, j] + src[i - 1, j]
                )

            return body

        segments = ((1, n - 1), (1, n - 1))
        kernel_2d(policy, segments, make_body(self.b, self.a))
        kernel_2d(policy, segments, make_body(self.a, self.b))

    def checksum(self) -> float:
        return checksum_array(self.a.ravel())
