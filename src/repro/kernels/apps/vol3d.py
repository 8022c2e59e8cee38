"""Apps_VOL3D: hexahedral zone volumes from nodal coordinates.

The exact hex-volume formula (three scalar triple products over corner
diagonals, as in LULESH's ``CalcElemVolume``). Gathering 24 coordinates
that are heavily reused across neighboring zones keeps it cache-friendly
— retiring bound on CPUs (Section V-B) — while the ~70 FLOPs per zone put
it among the FLOP-heavy kernels, reaching 11.3 TFLOPS on the MI250X
(Fig. 10d).
"""

from __future__ import annotations

import numpy as np

from repro.kernels.apps._mesh import BoxMesh
from repro.perfmodel.traits import KernelTraits
from repro.rajasim import forall, partition_invariant
from repro.rajasim.policies import ExecPolicy
from repro.suite.checksum import checksum_array
from repro.suite.features import Feature
from repro.suite.groups import Group
from repro.suite.kernel_base import KernelBase
from repro.suite.registry import register_kernel
from repro.suite.trait_presets import RETIRING, derive


def _triple(ax, ay, az, bx, by, bz, cx, cy, cz):
    """Scalar triple product a . (b x c)."""
    return ax * (by * cz - bz * cy) + ay * (bz * cx - bx * cz) + az * (bx * cy - by * cx)


@register_kernel
class AppsVol3d(KernelBase):
    NAME = "VOL3D"
    GROUP = Group.APPS
    FEATURES = frozenset({Feature.FORALL})
    INSTR_PER_ITER = 90.0

    def __init__(self, problem_size: int | None = None, seed: int = 4793) -> None:
        super().__init__(problem_size, seed)
        self.mesh = BoxMesh.cube_for_zones(self.problem_size)

    def iterations(self) -> float:
        return float(self.mesh.num_zones)

    def setup(self) -> None:
        self.x, self.y, self.z = self.mesh.node_coordinates(
            jitter=0.2, rng=self.rng
        )
        self.vol = np.zeros(self.mesh.num_zones)
        self.corners = self.mesh.zone_corner_nodes()

    def bytes_read(self) -> float:
        # 8 corners x 3 coords, ~75% reused from cache lines of neighbors.
        return 8.0 * 6.0 * self.iterations()

    def bytes_written(self) -> float:
        return 8.0 * self.iterations()

    def flops(self) -> float:
        return 72.0 * self.iterations()

    def traits(self) -> KernelTraits:
        return derive(
            RETIRING,
            simd_eff=0.3,
            frontend_factor=0.2,
            cache_resident=0.8,
            cpu_compute_eff=0.25,
            gpu_compute_eff=1.0,
            gpu_eff_overrides={"EPYC-MI250X": 11.259 * 1.14 / 16.852},
        )

    def _volumes(self, zones: np.ndarray) -> np.ndarray:
        c = self.corners[zones]
        px = self.x[c]  # (nz, 8)
        py = self.y[c]
        pz = self.z[c]

        def d(a: int, b: int):
            return px[:, a] - px[:, b], py[:, a] - py[:, b], pz[:, a] - pz[:, b]

        d31, d72, d63, d20 = d(3, 1), d(7, 2), d(6, 3), d(2, 0)
        d43, d57, d64, d70 = d(4, 3), d(5, 7), d(6, 4), d(7, 0)
        d14, d25, d61, d50 = d(1, 4), d(2, 5), d(6, 1), d(5, 0)

        t1 = _triple(
            d31[0] + d72[0], d31[1] + d72[1], d31[2] + d72[2], *d63, *d20
        )
        t2 = _triple(
            d43[0] + d57[0], d43[1] + d57[1], d43[2] + d57[2], *d64, *d70
        )
        t3 = _triple(
            d14[0] + d25[0], d14[1] + d25[1], d14[2] + d25[2], *d61, *d50
        )
        return (t1 + t2 + t3) / 12.0

    def run_base(self, policy: ExecPolicy) -> None:
        self.vol[:] = self._volumes(self.mesh.zone_ids())

    def run_raja(self, policy: ExecPolicy) -> None:
        vol, volumes = self.vol, self._volumes

        # Fused: a zone's volume comes from node coordinates alone.
        @partition_invariant
        def body(i: np.ndarray) -> None:
            vol[i] = volumes(i)

        forall(policy, self.mesh.num_zones, body)

    def checksum(self) -> float:
        return checksum_array(self.vol)
