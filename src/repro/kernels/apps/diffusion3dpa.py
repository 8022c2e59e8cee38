"""Apps_DIFFUSION3DPA: partially-assembled diffusion (stiffness) action.

Per element: interpolate the three reference gradients to quadrature,
contract with the symmetric 6-component diffusion coefficient tensor
(the real MFEM data layout), and apply the transposes — roughly 3x
MASS3DPA's FLOPs plus the tensor contraction. Among the FLOP-heaviest
kernels in the suite: Fig. 10d reports 14.97 TFLOPS on the MI250X.
"""

from __future__ import annotations

import numpy as np

from repro.kernels.apps._fem import basis_matrices, interp_flops
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
# Symmetric-tensor component indices: D[i][j] -> packed slot.
_SYM = ((0, 1, 2), (1, 3, 4), (2, 4, 5))


@register_kernel
class AppsDiffusion3dpa(KernelBase):
    NAME = "DIFFUSION3DPA"
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
        # Symmetric 6-component coefficient per quadrature point, with a
        # dominant diagonal so the operator stays positive-ish.
        self.d = self.rng.random((self.ne, 6, Q1D, Q1D, Q1D)) * 0.2
        self.d[:, (0, 3, 5)] += 1.0
        self.y = np.zeros_like(self.x)

    def bytes_read(self) -> float:
        return 8.0 * (self.iterations() + 6.0 * self.ne * Q1D**3)

    def bytes_written(self) -> float:
        return 8.0 * self.iterations()

    def flops(self) -> float:
        # 3 gradient interpolations + 3 transposes + the 3x3 symmetric
        # tensor contraction at each quadrature point.
        return 6.0 * interp_flops(self.ne, D1D, Q1D) + 18.0 * self.ne * Q1D**3

    def work_profile(self, reps: int = 1):
        from dataclasses import replace

        profile = super().work_profile(reps)
        return replace(profile, instructions=0.3 * profile.flops)

    def traits(self) -> KernelTraits:
        return derive(
            BALANCED,
            streaming_eff=0.7,
            simd_eff=0.65,
            cache_resident=0.55,
            cpu_compute_eff=0.13,
            gpu_compute_eff=1.0,
            gpu_eff_overrides={"EPYC-MI250X": 14.974 * 1.06 / 16.852},
            gpu_cache_resident=0.4,
        )

    def _grad(self, mats: tuple, x: np.ndarray) -> np.ndarray:
        m0, m1, m2 = mats
        t1 = np.einsum("qi,eijk->eqjk", m0, x)
        t2 = np.einsum("rj,eqjk->eqrk", m1, t1)
        return np.einsum("sk,eqrk->eqrs", m2, t2)

    def _grad_t(self, mats: tuple, xq: np.ndarray) -> np.ndarray:
        m0, m1, m2 = mats
        t1 = np.einsum("qi,eqrs->eirs", m0, xq)
        t2 = np.einsum("rj,eirs->eijs", m1, t1)
        return np.einsum("sk,eijs->eijk", m2, t2)

    # Fused: an element's y comes from its own x and coefficients.
    @slice_capable(fuse=True)
    def _apply(self, elems: slice | np.ndarray) -> None:
        b, g = self.b, self.g
        x = self.x[elems]
        d = self.d[elems]
        combos = ((g, b, b), (b, g, b), (b, b, g))
        # Reference gradients at quadrature points.
        grads = [self._grad(mats, x) for mats in combos]
        # Flux: contract with the symmetric coefficient tensor.
        y = None
        for i, mats in enumerate(combos):
            flux = sum(d[:, _SYM[i][j]] * grads[j] for j in range(3))
            contrib = self._grad_t(mats, flux)
            y = contrib if y is None else y + contrib
        self.y[elems] = y

    def run_base(self, policy: ExecPolicy) -> None:
        self._apply(slice(None))

    def run_raja(self, policy: ExecPolicy) -> None:
        forall(policy, self.ne, self._apply)

    def checksum(self) -> float:
        return checksum_array(self.y.ravel())
