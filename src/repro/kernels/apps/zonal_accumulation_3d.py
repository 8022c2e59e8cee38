"""Apps_ZONAL_ACCUMUL_3D: gather 8 corner node values into each zone.

The gather dual of NODAL_ACCUMULATION_3D — no atomics needed, since each
zone writes only its own slot.
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
from repro.suite.trait_presets import BALANCED, derive


@register_kernel
class AppsZonalAccumulation3d(KernelBase):
    NAME = "ZONAL_ACCUMUL_3D"
    GROUP = Group.APPS
    FEATURES = frozenset({Feature.FORALL})
    INSTR_PER_ITER = 24.0

    def __init__(self, problem_size: int | None = None, seed: int = 4793) -> None:
        super().__init__(problem_size, seed)
        self.mesh = BoxMesh.cube_for_zones(self.problem_size)

    def iterations(self) -> float:
        return float(self.mesh.num_zones)

    def setup(self) -> None:
        self.node_vals = self.rng.random(self.mesh.num_nodes)
        self.zone_vals = np.zeros(self.mesh.num_zones)
        self.corners = self.mesh.zone_corner_nodes()

    def bytes_read(self) -> float:
        return 8.0 * 4.0 * self.iterations()  # 8 gathers, ~half cached

    def bytes_written(self) -> float:
        return 8.0 * self.iterations()

    def flops(self) -> float:
        return 8.0 * self.iterations()

    def traits(self) -> KernelTraits:
        return derive(
            BALANCED,
            streaming_eff=0.65,
            simd_eff=0.4,
            cache_resident=0.4,
            cpu_compute_eff=0.12,
        )

    def _gather(self, z: np.ndarray) -> np.ndarray:
        c = self.corners[z]
        vals = self.node_vals
        acc = vals[c[:, 0]].copy()
        for corner in range(1, 8):
            acc += vals[c[:, corner]]
        return 0.125 * acc

    def run_base(self, policy: ExecPolicy) -> None:
        self.zone_vals[:] = self._gather(self.mesh.zone_ids())

    def run_raja(self, policy: ExecPolicy) -> None:
        zone_vals, gather = self.zone_vals, self._gather

        # Fused: a zone gathers its 8 nodes, which the body never writes.
        @partition_invariant
        def body(z: np.ndarray) -> None:
            zone_vals[z] = gather(z)

        forall(policy, self.mesh.num_zones, body)

    def checksum(self) -> float:
        return checksum_array(self.zone_vals)
