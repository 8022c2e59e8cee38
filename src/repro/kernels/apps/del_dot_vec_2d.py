"""Apps_DEL_DOT_VEC_2D: divergence of a 2-D vector field on a quad mesh.

Per-zone gather of 4 corner node values for each of x/y coordinates and
velocities, plus ~50 FLOPs of geometric work — a FLOP-heavy kernel that
remains partly memory bound (cluster 0).
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

PTINY = 1.0e-80
HALF = 0.5


@register_kernel
class AppsDelDotVec2d(KernelBase):
    NAME = "DEL_DOT_VEC_2D"
    GROUP = Group.APPS
    FEATURES = frozenset({Feature.FORALL})
    INSTR_PER_ITER = 60.0

    def __init__(self, problem_size: int | None = None, seed: int = 4793) -> None:
        super().__init__(problem_size, seed)
        edge = max(2, int(round(self.problem_size**0.5)))
        self.nx = self.ny = edge

    def iterations(self) -> float:
        return float(self.nx * self.ny)

    def setup(self) -> None:
        npx, npy = self.nx + 1, self.ny + 1
        num_nodes = npx * npy
        j, i = np.meshgrid(np.arange(self.ny), np.arange(self.nx), indexing="ij")
        base = (i + npx * j).ravel()
        self.c0 = base
        self.c1 = base + 1
        self.c2 = base + 1 + npx
        self.c3 = base + npx
        jj, ii = np.meshgrid(
            np.arange(npy, dtype=np.float64),
            np.arange(npx, dtype=np.float64),
            indexing="ij",
        )
        self.x = ii.ravel() + 0.1 * (self.rng.random(num_nodes) - 0.5)
        self.y = jj.ravel() + 0.1 * (self.rng.random(num_nodes) - 0.5)
        self.xdot = self.rng.random(num_nodes)
        self.ydot = self.rng.random(num_nodes)
        self.div = np.zeros(self.nx * self.ny)

    def bytes_read(self) -> float:
        # 4 corners x (x, y, xdot, ydot), but neighbors share corners so
        # each node value is charged once (analytic bytes touched).
        return 8.0 * 5.0 * self.iterations()

    def bytes_written(self) -> float:
        return 8.0 * self.iterations()

    def flops(self) -> float:
        return 54.0 * self.iterations()  # > bytes: one of Fig. 10's FLOP-heavy set

    def traits(self) -> KernelTraits:
        return derive(
            BALANCED,
            streaming_eff=0.65,
            simd_eff=0.5,
            cache_resident=0.45,
            cpu_compute_eff=0.15,
            gpu_compute_eff=0.9,
        )

    def _compute(self, zones: np.ndarray) -> np.ndarray:
        x, y, xd, yd = self.x, self.y, self.xdot, self.ydot
        c0, c1, c2, c3 = self.c0[zones], self.c1[zones], self.c2[zones], self.c3[zones]
        xi = HALF * ((x[c1] + x[c2]) - (x[c0] + x[c3]))
        xj = HALF * ((x[c3] + x[c2]) - (x[c0] + x[c1]))
        yi = HALF * ((y[c1] + y[c2]) - (y[c0] + y[c3]))
        yj = HALF * ((y[c3] + y[c2]) - (y[c0] + y[c1]))
        fx = xi * xi + xj * xj
        fy = yi * yi + yj * yj
        rarea = 1.0 / (xi * yj - xj * yi + PTINY)
        dxdxdot = HALF * ((xd[c1] + xd[c2]) - (xd[c0] + xd[c3]))
        dydxdot = HALF * ((xd[c3] + xd[c2]) - (xd[c0] + xd[c1]))
        dxdydot = HALF * ((yd[c1] + yd[c2]) - (yd[c0] + yd[c3]))
        dydydot = HALF * ((yd[c3] + yd[c2]) - (yd[c0] + yd[c1]))
        return rarea * (
            dxdxdot * yj - dydxdot * yi - dxdydot * xj + dydydot * xi
        ) + 0.0 * (fx + fy)  # metric terms kept live for the FLOP count

    def run_base(self, policy: ExecPolicy) -> None:
        self.div[:] = self._compute(np.arange(self.nx * self.ny))

    def run_raja(self, policy: ExecPolicy) -> None:
        div, compute = self.div, self._compute

        # Fused: div[i] is gathered from node arrays the body never writes.
        @partition_invariant
        def body(i: np.ndarray) -> None:
            div[i] = compute(i)

        forall(policy, self.nx * self.ny, body)

    def checksum(self) -> float:
        return checksum_array(self.div)
