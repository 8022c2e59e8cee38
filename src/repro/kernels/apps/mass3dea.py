"""Apps_MASS3DEA: mass-matrix *element assembly*.

Assembles the full dense (D^3 x D^3) element mass matrix for every
element: ``M_e[i,j] = sum_q B[q,i] B[q,j] w_e[q]``. The output volume per
iteration depends on the element decomposition, which is why the
similarity analysis excludes it.
"""

from __future__ import annotations

import numpy as np

from repro.kernels.apps._fem import basis_matrices
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

D1D = 2
Q1D = 3


@register_kernel
class AppsMass3dea(KernelBase):
    NAME = "MASS3DEA"
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
        self.dofs = D1D**3
        self.quads = Q1D**3

    def iterations(self) -> float:
        return float(self.ne * self.dofs)

    def setup(self) -> None:
        b1, _ = basis_matrices(D1D, Q1D, self.rng)
        # Full 3-D basis: (Q^3, D^3) tensor product of the 1-D basis.
        b3 = np.einsum("qi,rj,sk->qrsijk", b1, b1, b1).reshape(self.quads, self.dofs)
        self.basis = b3
        self.w = self.rng.random((self.ne, self.quads)) + 0.5
        self.m = np.zeros((self.ne, self.dofs, self.dofs))

    def bytes_read(self) -> float:
        return 8.0 * self.ne * self.quads

    def bytes_written(self) -> float:
        return 8.0 * self.ne * self.dofs * self.dofs

    def flops(self) -> float:
        return 3.0 * self.ne * self.quads * self.dofs * self.dofs

    def work_profile(self, reps: int = 1):
        from dataclasses import replace

        profile = super().work_profile(reps)
        return replace(profile, instructions=0.8 * profile.flops)

    def traits(self) -> KernelTraits:
        return derive(
            BALANCED,
            streaming_eff=0.7,
            simd_eff=0.6,
            cache_resident=0.6,
            cpu_compute_eff=0.1,
            gpu_compute_eff=0.8,
        )

    # Fused: an element's matrix comes from its own quadrature weights.
    @slice_capable(fuse=True)
    def _assemble(self, elems: slice | np.ndarray) -> None:
        self.m[elems] = np.einsum(
            "qi,qj,eq->eij", self.basis, self.basis, self.w[elems]
        )

    def run_base(self, policy: ExecPolicy) -> None:
        self._assemble(slice(None))

    def run_raja(self, policy: ExecPolicy) -> None:
        forall(policy, self.ne, self._assemble)

    def checksum(self) -> float:
        return checksum_array(self.m.ravel())
