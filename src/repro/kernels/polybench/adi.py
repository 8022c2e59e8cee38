"""Polybench_ADI: alternating-direction-implicit integration.

Line sweeps carry true loop dependences along one direction, so only the
orthogonal direction parallelizes — on GPUs a fraction of the work
serializes, which is why the paper finds ADI speeds up (slightly) on
SPR-HBM but on *neither* GPU (Sections V-B/V-C).
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
from repro.suite.trait_presets import BALANCED, derive


@register_kernel
class PolybenchAdi(KernelBase):
    NAME = "ADI"
    GROUP = Group.POLYBENCH
    FEATURES = frozenset({Feature.KERNEL})
    INSTR_PER_ITER = 30.0

    def __init__(self, problem_size: int | None = None, seed: int = 4793) -> None:
        super().__init__(problem_size, seed)
        self.n = max(4, int(round(self.problem_size**0.5)))

    def iterations(self) -> float:
        return float(self.n * self.n)

    def setup(self) -> None:
        n = self.n
        self.u = self.rng.random((n, n))
        self.v = np.zeros((n, n))
        self.p = np.zeros((n, n))
        self.q = np.zeros((n, n))
        # Tridiagonal sweep coefficients.
        dx = 1.0 / n
        dt = 0.1 * dx
        b1 = 2.0
        mul1 = b1 * dt / (dx * dx)
        self.a_c = -mul1 / 2.0
        self.b_c = 1.0 + mul1
        self.c_c = self.a_c

    def bytes_read(self) -> float:
        # Two sweeps each streaming u/v/p/q.
        return 2.0 * 32.0 * self.iterations()

    def bytes_written(self) -> float:
        return 2.0 * 24.0 * self.iterations()

    def flops(self) -> float:
        return 30.0 * self.iterations()

    def launches_per_rep(self) -> float:
        return 2.0

    def traits(self) -> KernelTraits:
        return derive(
            BALANCED,
            streaming_eff=0.55,
            simd_eff=0.45,
            cache_resident=0.15,
            cpu_compute_eff=0.1,
            # The recurrence along each line serializes on GPUs.
            gpu_serial_fraction=0.10,
            gpu_compute_eff=0.3,
        )

    # Fused: each column's recurrence runs down that column alone.
    @partition_invariant
    def _column_sweep(self, cols: np.ndarray) -> None:
        """Forward substitution + back substitution along each column."""
        n = self.n
        u, v, p, q = self.u, self.v, self.p, self.q
        a, b, c = self.a_c, self.b_c, self.c_c
        v[0, cols] = 1.0
        p[0, cols] = 0.0
        q[0, cols] = v[0, cols]
        for i in range(1, n - 1):
            denom = a * p[i - 1, cols] + b
            p[i, cols] = -c / denom
            q[i, cols] = (u[i, cols] - a * q[i - 1, cols]) / denom
        v[n - 1, cols] = 1.0
        for i in range(n - 2, 0, -1):
            v[i, cols] = p[i, cols] * v[i + 1, cols] + q[i, cols]

    # Fused: each row's recurrence runs along that row alone.
    @partition_invariant
    def _row_sweep(self, rows: np.ndarray) -> None:
        n = self.n
        u, v, p, q = self.u, self.v, self.p, self.q
        a, b, c = self.a_c, self.b_c, self.c_c
        u[rows, 0] = 1.0
        p[rows, 0] = 0.0
        q[rows, 0] = u[rows, 0]
        for j in range(1, n - 1):
            denom = a * p[rows, j - 1] + b
            p[rows, j] = -c / denom
            q[rows, j] = (v[rows, j] - a * q[rows, j - 1]) / denom
        u[rows, n - 1] = 1.0
        for j in range(n - 2, 0, -1):
            u[rows, j] = p[rows, j] * u[rows, j + 1] + q[rows, j]

    def run_base(self, policy: ExecPolicy) -> None:
        all_lines = np.arange(self.n)
        self._column_sweep(all_lines)
        self._row_sweep(all_lines)

    def run_raja(self, policy: ExecPolicy) -> None:
        forall(policy, self.n, self._column_sweep)
        forall(policy, self.n, self._row_sweep)

    def checksum(self) -> float:
        return checksum_array(self.u.ravel()) + checksum_array(self.v.ravel())
