"""Basic_MAT_MAT_SHARED: tiled dense matrix multiply (shared-memory blocked).

The suite's FLOP-rate anchor: Table II's achieved FLOPS are measured with
this kernel on every machine. Its traits come from the calibration module
so the kernel and the model anchors agree by construction. Complexity is
O(n^(3/2)) in the matrix *storage* size, which excludes it from the
similarity analysis (Section IV).
"""

from __future__ import annotations

import numpy as np

from repro.perfmodel.calibration import matmat_traits
from repro.perfmodel.traits import KernelTraits
from repro.rajasim import forall
from repro.rajasim.policies import ExecPolicy
from repro.suite.checksum import checksum_array
from repro.suite.features import Complexity, Feature
from repro.suite.groups import Group
from repro.suite.kernel_base import KernelBase
from repro.suite.registry import register_kernel

TILE = 16


@register_kernel
class BasicMatMatShared(KernelBase):
    NAME = "MAT_MAT_SHARED"
    GROUP = Group.BASIC
    COMPLEXITY = Complexity.N_3_2
    FEATURES = frozenset({Feature.LAUNCH})
    DEFAULT_PROBLEM_SIZE = 1_000_000  # matrix elements (N^2)
    INSTR_PER_ITER = 0.0  # instructions declared via flops below

    def __init__(self, problem_size: int | None = None, seed: int = 4793) -> None:
        super().__init__(problem_size, seed)
        self.n_mat = max(1, int(round(self.problem_size**0.5)))

    def iterations(self) -> float:
        return float(self.n_mat * self.n_mat)

    def setup(self) -> None:
        n = self.n_mat
        self.a = self.rng.random((n, n))
        self.b = self.rng.random((n, n))
        self.c = np.zeros((n, n))

    def bytes_read(self) -> float:
        return 2.0 * 8.0 * self.iterations()

    def bytes_written(self) -> float:
        return 8.0 * self.iterations()

    def flops(self) -> float:
        return 2.0 * float(self.n_mat) ** 3

    def work_profile(self, reps: int = 1):
        # FMA-dense code retires ~0.3 instructions per FLOP (see the
        # calibration module); the default heuristic would overcount.
        profile = super().work_profile(reps)
        from dataclasses import replace

        return replace(profile, instructions=0.3 * profile.flops)

    def traits(self) -> KernelTraits:
        return matmat_traits()

    def run_base(self, policy: ExecPolicy) -> None:
        np.matmul(self.a, self.b, out=self.c)

    def run_raja(self, policy: ExecPolicy) -> None:
        a, b, c = self.a, self.b, self.c
        n = self.n_mat
        c[:] = 0.0
        # Tiled multiply: row-tiles are the launch dimension, the K loop
        # stages TILE-wide panels exactly as the shared-memory kernel does.
        def row_tile(rows: np.ndarray) -> None:
            row_block = slice(rows[0], rows[-1] + 1)
            for k0 in range(0, n, TILE):
                k_block = slice(k0, min(k0 + TILE, n))
                c[row_block] += a[row_block, k_block] @ b[k_block]

        forall(policy, n, row_tile)

    def checksum(self) -> float:
        return checksum_array(self.c.ravel())
