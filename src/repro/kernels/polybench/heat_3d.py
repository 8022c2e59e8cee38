"""Polybench_HEAT_3D: 3-D heat equation, 7-point stencil, ping-pong buffers."""

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
from repro.suite.trait_presets import BALANCED, derive


@register_kernel
class PolybenchHeat3d(KernelBase):
    NAME = "HEAT_3D"
    GROUP = Group.POLYBENCH
    FEATURES = frozenset({Feature.KERNEL})
    INSTR_PER_ITER = 30.0

    def __init__(self, problem_size: int | None = None, seed: int = 4793) -> None:
        super().__init__(problem_size, seed)
        self.n = max(4, int(round(self.problem_size ** (1.0 / 3.0))))

    def iterations(self) -> float:
        return float((self.n - 2) ** 3)

    def setup(self) -> None:
        n = self.n
        self.a = self.rng.random((n, n, n))
        self.b = self.a.copy()

    def bytes_read(self) -> float:
        # Two stencil sweeps; neighbor loads mostly hit cache lines.
        return 2.0 * 2.0 * 8.0 * self.iterations()

    def bytes_written(self) -> float:
        return 2.0 * 8.0 * self.iterations()

    def flops(self) -> float:
        return 2.0 * 15.0 * self.iterations()

    def launches_per_rep(self) -> float:
        return 2.0

    def traits(self) -> KernelTraits:
        return derive(
            BALANCED,
            streaming_eff=0.7,
            simd_eff=0.6,
            cache_resident=0.35,
            cpu_compute_eff=0.15,
        )

    @staticmethod
    def _stencil(dst: np.ndarray, src: np.ndarray) -> None:
        c = slice(1, -1)
        dst[c, c, c] = (
            0.125 * (src[2:, c, c] - 2.0 * src[c, c, c] + src[:-2, c, c])
            + 0.125 * (src[c, 2:, c] - 2.0 * src[c, c, c] + src[c, :-2, c])
            + 0.125 * (src[c, c, 2:] - 2.0 * src[c, c, c] + src[c, c, :-2])
            + src[c, c, c]
        )

    def run_base(self, policy: ExecPolicy) -> None:
        self._stencil(self.b, self.a)
        self._stencil(self.a, self.b)

    def run_raja(self, policy: ExecPolicy) -> None:
        n = self.n

        def make_body(dst: np.ndarray, src: np.ndarray):
            # Fused: writes dst from src, a different array.
            @partition_invariant
            def body(i: np.ndarray, j: np.ndarray, k: np.ndarray) -> None:
                dst[i, j, k] = (
                    0.125 * (src[i + 1, j, k] - 2.0 * src[i, j, k] + src[i - 1, j, k])
                    + 0.125 * (src[i, j + 1, k] - 2.0 * src[i, j, k] + src[i, j - 1, k])
                    + 0.125 * (src[i, j, k + 1] - 2.0 * src[i, j, k] + src[i, j, k - 1])
                    + src[i, j, k]
                )

            return body

        segments = ((1, n - 1), (1, n - 1), (1, n - 1))
        kernel_3d(policy, segments, make_body(self.b, self.a))
        kernel_3d(policy, segments, make_body(self.a, self.b))

    def checksum(self) -> float:
        return checksum_array(self.a.ravel())
