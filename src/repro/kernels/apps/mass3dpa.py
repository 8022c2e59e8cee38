"""Apps_MASS3DPA: partially-assembled mass-matrix action (MFEM-style).

``Y_e = B^T (D_e o (B X_e))`` per element with sum-factorized tensor
contractions. FLOP-dense (one of Fig. 10's 17 FLOP-heavy kernels) with a
mixed memory profile (cluster 0).
"""

from __future__ import annotations

import numpy as np

from repro.kernels.apps._fem import basis_matrices, interp_3d, interp_flops, interp_t_3d
from repro.perfmodel.traits import KernelTraits
from repro.rajasim import forall, slice_capable
from repro.rajasim.policies import ExecPolicy
from repro.suite.checksum import checksum_array
from repro.suite.features import Feature
from repro.suite.groups import Group
from repro.rajasim.policies import Backend
from repro.suite.kernel_base import KernelBase
from repro.suite.variants import ALL_BACKENDS
from repro.suite.registry import register_kernel
from repro.suite.trait_presets import BALANCED, derive

D1D = 4
Q1D = 5


@register_kernel
class AppsMass3dpa(KernelBase):
    NAME = "MASS3DPA"
    GROUP = Group.APPS
    FEATURES = frozenset({Feature.LAUNCH})
    INSTR_PER_ITER = 0.0
    # RAJA::launch kernels have no OpenMP-target backend (Table I).
    BACKENDS = tuple(
        b for b in ALL_BACKENDS if b is not Backend.OPENMP_TARGET
    )

    def __init__(self, problem_size: int | None = None, seed: int = 4793) -> None:
        super().__init__(problem_size, seed)
        self.ne = max(1, self.problem_size // (D1D**3))

    def iterations(self) -> float:
        return float(self.ne * D1D**3)

    def setup(self) -> None:
        self.b, _ = basis_matrices(D1D, Q1D, self.rng)
        self.x = self.rng.random((self.ne, D1D, D1D, D1D))
        self.d = self.rng.random((self.ne, Q1D, Q1D, Q1D)) + 0.5
        self.y = np.zeros_like(self.x)

    def bytes_read(self) -> float:
        # X, the quadrature data D (Q^3 per element), B cached.
        return 8.0 * (self.iterations() + self.ne * Q1D**3)

    def bytes_written(self) -> float:
        return 8.0 * self.iterations()

    def flops(self) -> float:
        return 2.0 * interp_flops(self.ne, D1D, Q1D) + self.ne * Q1D**3

    def work_profile(self, reps: int = 1):
        from dataclasses import replace

        profile = super().work_profile(reps)
        return replace(profile, instructions=0.3 * profile.flops)

    def traits(self) -> KernelTraits:
        return derive(
            BALANCED,
            streaming_eff=0.7,
            simd_eff=0.6,
            cache_resident=0.5,
            cpu_compute_eff=0.12,
            gpu_compute_eff=1.0,
            gpu_cache_resident=0.4,
        )

    # Fused: an element's y comes from its own x and d.
    @slice_capable(fuse=True)
    def _apply(self, elems: slice | np.ndarray) -> None:
        xq = interp_3d(self.b, self.x[elems])
        xq *= self.d[elems]
        self.y[elems] = interp_t_3d(self.b, xq)

    def run_base(self, policy: ExecPolicy) -> None:
        self._apply(slice(None))

    def run_raja(self, policy: ExecPolicy) -> None:
        forall(policy, self.ne, self._apply)

    def checksum(self) -> float:
        return checksum_array(self.y.ravel())
