"""Basic_INDEXLIST_3LOOP: three-pass stream compaction.

Pass 1 flags elements, pass 2 exclusive-scans the flags, pass 3 scatters
indices — the data-parallel formulation of INDEXLIST that avoids the
serialized counter, at the price of 3x the memory traffic.
"""

from __future__ import annotations

import numpy as np

from repro.perfmodel.traits import KernelTraits
from repro.rajasim import exclusive_scan, forall, partition_invariant
from repro.rajasim.policies import ExecPolicy
from repro.suite.checksum import checksum_array
from repro.suite.features import Feature
from repro.suite.groups import Group
from repro.suite.kernel_base import KernelBase
from repro.suite.registry import register_kernel
from repro.suite.trait_presets import BALANCED, derive


@register_kernel
class BasicIndexlist3Loop(KernelBase):
    NAME = "INDEXLIST_3LOOP"
    GROUP = Group.BASIC
    FEATURES = frozenset({Feature.FORALL, Feature.SCAN})
    INSTR_PER_ITER = 12.0

    def setup(self) -> None:
        n = self.problem_size
        self.x = self.rng.random(n) - 0.5
        self.flags = np.zeros(n + 1, dtype=np.int64)
        self.indices = np.zeros(n, dtype=np.int64)
        self.count = 0

    def bytes_read(self) -> float:
        # x once (flag pass), flags twice (scan, scatter).
        return (8.0 + 2 * 8.0) * self.problem_size

    def bytes_written(self) -> float:
        # flags twice (flag pass, scan), indices once for passing elements.
        return (2 * 8.0 + 4.0) * self.problem_size

    def flops(self) -> float:
        # Index arithmetic counted as ops (like the int reductions).
        return 1.0 * self.problem_size

    def launches_per_rep(self) -> float:
        return 3.0

    def traits(self) -> KernelTraits:
        return derive(BALANCED, streaming_eff=0.75, simd_eff=0.55, cache_resident=0.2)

    def run_base(self, policy: ExecPolicy) -> None:
        flags = self.flags
        flags[:-1] = self.x < 0.0
        flags[-1] = 0
        scanned = np.concatenate(([0], np.cumsum(flags[:-1])))
        hits = np.flatnonzero(self.x < 0.0)
        self.indices[:] = 0
        self.indices[scanned[hits]] = hits
        self.count = int(scanned[-1])

    def run_raja(self, policy: ExecPolicy) -> None:
        x, flags, indices = self.x, self.flags, self.indices
        n = self.problem_size
        indices[:] = 0

        # Fused: flags[i] from x[i].
        @partition_invariant
        def flag_body(i: np.ndarray) -> None:
            flags[i] = x[i] < 0.0

        forall(policy, n, flag_body)
        flags[n] = 0
        positions = exclusive_scan(flags[: n + 1])
        self.count = int(positions[n])

        # Fused: each hit stores to its own scanned position.
        @partition_invariant
        def scatter_body(i: np.ndarray) -> None:
            hits = i[flags[i] == 1]
            indices[positions[hits]] = hits

        forall(policy, n, scatter_body)

    def checksum(self) -> float:
        return checksum_array(self.indices.astype(np.float64)) + self.count
