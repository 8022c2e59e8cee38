"""Apps_EDGE3D: edge-basis (Nedelec) curl-curl element operator.

Per element: read the per-quadrature-point Jacobians, form the metric
factors (3x3 determinants), and apply a dense 12-edge curl-curl operator
— the FLOP-densest kernel in the suite. Its scalar gather/geometry code
vectorizes terribly on CPUs but maps superbly onto GPUs: the paper
annotates its EPYC-MI250X speedup at 118.6x (Fig. 9) and measures 84.1
TFLOPS there (Fig. 10d). Its outlier profile excludes it from the
similarity clustering.
"""

from __future__ import annotations

import numpy as np

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

EDGES = 12  # edge dofs per hexahedron
QUADS = 8  # quadrature points


@register_kernel
class AppsEdge3d(KernelBase):
    NAME = "EDGE3D"
    GROUP = Group.APPS
    FEATURES = frozenset({Feature.FORALL})
    INSTR_PER_ITER = 0.0
    # RAJA::launch kernels have no OpenMP-target backend (Table I).
    BACKENDS = tuple(
        b for b in ALL_BACKENDS if b is not Backend.OPENMP_TARGET
    )

    def __init__(self, problem_size: int | None = None, seed: int = 4793) -> None:
        super().__init__(problem_size, seed)
        self.ne = max(1, self.problem_size // EDGES)

    def iterations(self) -> float:
        return float(self.ne * EDGES)

    def setup(self) -> None:
        self.x = self.rng.random((self.ne, EDGES))
        self.y = np.zeros((self.ne, EDGES))
        # Per-quadrature-point curl basis (fixed) and per-element Jacobians.
        self.curl = self.rng.random((QUADS, 3, EDGES)) - 0.5
        self.jac = self.rng.random((self.ne, QUADS, 3, 3)) + np.eye(3)

    def bytes_read(self) -> float:
        # Edge dofs + the full Jacobian field (9 doubles per quad point).
        return 8.0 * (EDGES + 9 * QUADS) * self.ne

    def bytes_written(self) -> float:
        return 8.0 * EDGES * self.ne

    def flops(self) -> float:
        # Per element: QUADS x (det 14 + curl apply 2*3*E + scale 3 +
        # test 2*3*E).
        return self.ne * QUADS * (4.0 * 3.0 * EDGES + 17.0)

    def work_profile(self, reps: int = 1):
        from dataclasses import replace

        profile = super().work_profile(reps)
        # FMA-dense operator application.
        return replace(profile, instructions=0.25 * profile.flops)

    def traits(self) -> KernelTraits:
        return derive(
            BALANCED,
            streaming_eff=0.55,
            simd_eff=0.1,
            cache_resident=0.3,
            frontend_factor=0.1,
            # Scalar geometry code on CPUs; near-ideal on GPUs. The MI250X
            # efficiency is pinned to Fig. 10d's 84.1 TFLOPS.
            cpu_compute_eff=0.02,
            gpu_compute_eff=1.2,
            gpu_eff_overrides={"EPYC-MI250X": 84.113 * 1.12 / 16.852},
            gpu_cache_resident=0.95,
        )

    # Fused: an element's y comes from its own x and Jacobians.
    @slice_capable(fuse=True)
    def _apply(self, elems: slice | np.ndarray) -> None:
        x = self.x[elems]
        metric = np.linalg.det(self.jac[elems])  # (n_e, QUADS)
        # curl_q = C_q x  (per quadrature point, 3-vector)
        cq = np.einsum("qce,ne->nqc", self.curl, x)
        cq *= metric[:, :, None]
        # y += C_q^T curl_q
        self.y[elems] = np.einsum("qce,nqc->ne", self.curl, cq)

    def run_base(self, policy: ExecPolicy) -> None:
        self._apply(slice(None))

    def run_raja(self, policy: ExecPolicy) -> None:
        forall(policy, self.ne, self._apply)

    def checksum(self) -> float:
        return checksum_array(self.y.ravel())
