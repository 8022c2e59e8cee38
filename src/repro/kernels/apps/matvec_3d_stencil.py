"""Apps_MATVEC_3D_STENCIL: 27-point stencil matrix-vector product.

``b[z] = sum over 27 neighbors of matrix(z, s) * x[neighbor(z, s)]``.
Neighbor loads hit cache lines repeatedly, so despite the large nominal
byte count it is *not* memory bound on the SPR systems (Section III-A).
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

STENCIL = 27


@register_kernel
class AppsMatvec3dStencil(KernelBase):
    NAME = "MATVEC_3D_STENCIL"
    GROUP = Group.APPS
    FEATURES = frozenset({Feature.FORALL})
    INSTR_PER_ITER = 100.0

    def __init__(self, problem_size: int | None = None, seed: int = 4793) -> None:
        super().__init__(problem_size, seed)
        self.m = max(3, int(round(self.problem_size ** (1.0 / 3.0))))

    def iterations(self) -> float:
        return float((self.m - 2) ** 3)

    def setup(self) -> None:
        m = self.m
        n_total = m * m * m
        self.x = self.rng.random(n_total)
        self.b = np.zeros(n_total)
        self.matrix = self.rng.random((STENCIL, n_total))
        # Interior zone ids and the 27 neighbor offsets.
        k, j, i = np.meshgrid(
            np.arange(1, m - 1), np.arange(1, m - 1), np.arange(1, m - 1),
            indexing="ij",
        )
        self.interior = (i + m * (j + m * k)).ravel()
        dk, dj, di = np.meshgrid([-1, 0, 1], [-1, 0, 1], [-1, 0, 1], indexing="ij")
        self.offsets = (di + m * (dj + m * dk)).ravel()

    def bytes_read(self) -> float:
        # matrix streamed (27 doubles/zone) + x mostly cached.
        return 8.0 * (STENCIL + 2) * self.iterations()

    def bytes_written(self) -> float:
        return 8.0 * self.iterations()

    def flops(self) -> float:
        return 2.0 * STENCIL * self.iterations()

    def traits(self) -> KernelTraits:
        return derive(
            RETIRING,
            simd_eff=0.35,
            frontend_factor=0.16,
            cache_resident=0.85,
            cpu_compute_eff=0.2,
            gpu_compute_eff=0.7,
            streaming_eff=0.8,
        )

    def _compute(self, rows: np.ndarray) -> np.ndarray:
        zones = self.interior[rows]
        acc = np.zeros(len(zones))
        for s, off in enumerate(self.offsets):
            acc += self.matrix[s, zones] * self.x[zones + off]
        return acc

    def run_base(self, policy: ExecPolicy) -> None:
        self.b[self.interior] = self._compute(np.arange(len(self.interior)))

    def run_raja(self, policy: ExecPolicy) -> None:
        b, interior, compute = self.b, self.interior, self._compute

        # Fused: distinct interior rows of b, each from matrix and x.
        @partition_invariant
        def body(r: np.ndarray) -> None:
            b[interior[r]] = compute(r)

        forall(policy, len(self.interior), body)

    def checksum(self) -> float:
        return checksum_array(self.b)
