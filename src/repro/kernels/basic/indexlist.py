"""Basic_INDEXLIST: single-pass stream compaction.

Builds the list of indices whose elements satisfy a predicate. The
single-pass formulation carries a loop-dependent insertion counter, which
serializes naively on GPUs — one of the kernels the similarity analysis
excludes for decomposition-dependent behaviour.
"""

from __future__ import annotations

import numpy as np

from repro.perfmodel.traits import KernelTraits
from repro.rajasim import exclusive_scan, forall, forall_chunks
from repro.rajasim.policies import ExecPolicy
from repro.suite.checksum import checksum_array
from repro.suite.features import Feature
from repro.suite.groups import Group
from repro.suite.kernel_base import KernelBase
from repro.suite.registry import register_kernel
from repro.suite.trait_presets import RETIRING, derive


@register_kernel
class BasicIndexlist(KernelBase):
    NAME = "INDEXLIST"
    GROUP = Group.BASIC
    FEATURES = frozenset({Feature.FORALL, Feature.SCAN})
    INSTR_PER_ITER = 9.0

    def setup(self) -> None:
        n = self.problem_size
        self.x = self.rng.random(n) - 0.5
        self.indices = np.zeros(n, dtype=np.int64)
        self.count = 0

    def bytes_read(self) -> float:
        return 8.0 * self.problem_size

    def bytes_written(self) -> float:
        return 4.0 * self.problem_size  # ~half the elements pass

    def flops(self) -> float:
        return 0.0

    def traits(self) -> KernelTraits:
        return derive(
            RETIRING,
            simd_eff=0.2,
            branch_misp_per_iter=0.05,
            cache_resident=0.5,
            gpu_serial_fraction=0.15,
        )

    def run_base(self, policy: ExecPolicy) -> None:
        hits = np.flatnonzero(self.x < 0.0)
        self.count = len(hits)
        self.indices[: self.count] = hits
        self.indices[self.count :] = 0

    def run_raja(self, policy: ExecPolicy) -> None:
        x, indices = self.x, self.indices
        indices[:] = 0
        # Two-phase per-partition compaction with an exclusive scan of
        # partition counts, as the RAJA scan-based implementation does.
        tallies: list[int] = []
        forall(
            policy, self.problem_size,
            lambda part: tallies.append(int(np.count_nonzero(x[part] < 0.0))),
        )
        counts = np.array(tallies, dtype=np.int64)
        offsets = exclusive_scan(counts)
        total = int(counts.sum())

        def body(part: np.ndarray, ordinal: int) -> None:
            hits = part[x[part] < 0.0]
            start = offsets[ordinal]
            indices[start : start + len(hits)] = hits

        forall_chunks(policy, self.problem_size, body)
        self.count = total

    def checksum(self) -> float:
        return checksum_array(self.indices.astype(np.float64)) + self.count
