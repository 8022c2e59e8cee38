"""Apps_CONVECTION3DPA: partially-assembled convection action.

Interpolate to quadrature, apply a velocity-weighted directional
derivative, and test against the basis — between MASS3DPA and
DIFFUSION3DPA in FLOP density. Deep sum-factorized loop nests make it
frontend/retiring heavy on CPUs (cluster 1).
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
from repro.suite.trait_presets import RETIRING, derive

D1D = 4
Q1D = 5


@register_kernel
class AppsConvection3dpa(KernelBase):
    NAME = "CONVECTION3DPA"
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
        self.b, self.g = basis_matrices(D1D, Q1D, self.rng)
        self.x = self.rng.random((self.ne, D1D, D1D, D1D))
        # Velocity-weighted quadrature data, one coefficient per direction.
        self.u = self.rng.random((3, self.ne, Q1D, Q1D, Q1D))
        self.y = np.zeros_like(self.x)

    def bytes_read(self) -> float:
        return 8.0 * (self.iterations() + 3.0 * self.ne * Q1D**3)

    def bytes_written(self) -> float:
        return 8.0 * self.iterations()

    def flops(self) -> float:
        return 4.0 * interp_flops(self.ne, D1D, Q1D) + 3.0 * self.ne * Q1D**3

    def work_profile(self, reps: int = 1):
        from dataclasses import replace

        profile = super().work_profile(reps)
        return replace(profile, instructions=0.3 * profile.flops)

    def traits(self) -> KernelTraits:
        return derive(
            RETIRING,
            simd_eff=0.35,
            frontend_factor=0.2,
            cache_resident=0.85,
            cpu_compute_eff=0.2,
            gpu_compute_eff=0.9,
            streaming_eff=0.75,
        )

    # Fused: an element's y comes from its own x and velocity; elements share nothing.
    @slice_capable(fuse=True)
    def _apply(self, elems: slice | np.ndarray) -> None:
        b, g = self.b, self.g
        x = self.x[elems]
        combos = ((g, b, b), (b, g, b), (b, b, g))
        acc = None
        for direction, mats in enumerate(combos):
            m0, m1, m2 = mats
            t1 = np.einsum("qi,eijk->eqjk", m0, x)
            t2 = np.einsum("rj,eqjk->eqrk", m1, t1)
            dq = np.einsum("sk,eqrk->eqrs", m2, t2)
            dq = dq * self.u[direction][elems]
            acc = dq if acc is None else acc + dq
        self.y[elems] = interp_t_3d(b, acc)

    def run_base(self, policy: ExecPolicy) -> None:
        self._apply(slice(None))

    def run_raja(self, policy: ExecPolicy) -> None:
        forall(policy, self.ne, self._apply)

    def checksum(self) -> float:
        return checksum_array(self.y.ravel())
