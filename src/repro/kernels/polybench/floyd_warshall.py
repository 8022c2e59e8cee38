"""Polybench_FLOYD_WARSHALL: all-pairs shortest paths.

O(n^(3/2)) in matrix storage (N^3 work on an N^2 matrix), so excluded
from the similarity analysis. Primarily memory bound (Section V-D): each
of the N outer iterations re-streams the whole path matrix, which is why
it is the one FLOP-heavy kernel that does better on SPR-HBM than on the
V100.
"""

from __future__ import annotations

import numpy as np

from repro.perfmodel.traits import KernelTraits
from repro.rajasim import forall, partition_invariant
from repro.rajasim.policies import ExecPolicy
from repro.suite.checksum import checksum_array
from repro.suite.features import Complexity, Feature
from repro.suite.groups import Group
from repro.suite.kernel_base import KernelBase
from repro.suite.registry import register_kernel
from repro.suite.trait_presets import BALANCED, derive


@register_kernel
class PolybenchFloydWarshall(KernelBase):
    NAME = "FLOYD_WARSHALL"
    GROUP = Group.POLYBENCH
    COMPLEXITY = Complexity.N_3_2
    FEATURES = frozenset({Feature.KERNEL})
    INSTR_PER_ITER = 0.0
    DEFAULT_PROBLEM_SIZE = 40_000  # N^2 path-matrix entries

    def __init__(self, problem_size: int | None = None, seed: int = 4793) -> None:
        super().__init__(problem_size, seed)
        self.n = max(2, int(round(self.problem_size**0.5)))

    def iterations(self) -> float:
        return float(self.n * self.n)

    def setup(self) -> None:
        n = self.n
        paths = self.rng.random((n, n)) * 10.0
        np.fill_diagonal(paths, 0.0)
        self.paths = paths

    def bytes_read(self) -> float:
        # Analytic metric: the path matrix touched once (RAJAPerf counts
        # data touched, not per-k-pass traffic), which is what puts
        # FLOYD_WARSHALL above Fig. 10's diagonal despite being memory
        # bound in practice.
        return 8.0 * self.iterations()

    def bytes_written(self) -> float:
        return 8.0 * self.iterations()

    def flops(self) -> float:
        return 2.0 * self.iterations() * self.n  # add + compare per (i,j,k)

    def work_profile(self, reps: int = 1):
        from dataclasses import replace

        profile = super().work_profile(reps)
        return replace(profile, instructions=6.0 * self.iterations() * self.n * reps)

    def traits(self) -> KernelTraits:
        return derive(
            BALANCED,
            streaming_eff=0.5,
            simd_eff=0.6,
            cache_resident=0.3,
            cpu_compute_eff=0.08,
            gpu_compute_eff=0.25,
            gpu_eff_overrides={"P9-V100": 0.1},
            branch_misp_per_iter=0.01,
        )

    def run_base(self, policy: ExecPolicy) -> None:
        paths = self.paths
        for k in range(self.n):
            through_k = paths[:, k : k + 1] + paths[k : k + 1, :]
            np.minimum(paths, through_k, out=paths)

    def run_raja(self, policy: ExecPolicy) -> None:
        paths = self.paths
        for k in range(self.n):
            col_k = paths[:, k].copy()
            row_k = paths[k].copy()

            # Fused: a row relaxes against copies of row and column k.
            @partition_invariant
            def relax(rows: np.ndarray) -> None:
                paths[rows] = np.minimum(
                    paths[rows], col_k[rows][:, None] + row_k[None, :]
                )

            forall(policy, self.n, relax)

    def checksum(self) -> float:
        return checksum_array(self.paths.ravel())
