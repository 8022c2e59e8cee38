"""Algorithm_SCAN: exclusive prefix sum.

Section III-A's example of a kernel whose DDR memory-bandwidth bottleneck
is clearly alleviated by HBM: the multi-pass scan streams the array
through memory more than once.
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
from repro.suite.trait_presets import BALANCED, derive


@register_kernel
class AlgorithmScan(KernelBase):
    NAME = "SCAN"
    GROUP = Group.ALGORITHM
    FEATURES = frozenset({Feature.SCAN})
    INSTR_PER_ITER = 8.0

    def setup(self) -> None:
        n = self.problem_size
        self.x = self.rng.random(n)
        self.y = np.zeros(n)

    def bytes_read(self) -> float:
        # Device scans read the input twice (reduce pass + scan pass).
        return 2.0 * 8.0 * self.problem_size

    def bytes_written(self) -> float:
        return 8.0 * self.problem_size

    def flops(self) -> float:
        return 1.0 * self.problem_size

    def launches_per_rep(self) -> float:
        return 2.0

    def traits(self) -> KernelTraits:
        return derive(
            BALANCED,
            streaming_eff=0.85,
            simd_eff=0.5,
            cache_resident=0.1,
            frontend_factor=0.05,
        )

    def run_base(self, policy: ExecPolicy) -> None:
        exclusive_scan(self.x, out=self.y)

    def run_raja(self, policy: ExecPolicy) -> None:
        x, y = self.x, self.y
        # Two-pass block-scan as GPU implementations do: per-partition sums,
        # scan of the sums, then local scans seeded by the block offsets.
        n = self.problem_size
        block_sums: list[float] = []
        forall(policy, n, lambda part: block_sums.append(float(np.sum(x[part]))))
        offsets = exclusive_scan(np.array(block_sums))

        def local_scan(part: np.ndarray, ordinal: int) -> None:
            local = np.cumsum(x[part])
            y[part[0]] = offsets[ordinal]
            if len(part) > 1:
                y[part[1:]] = offsets[ordinal] + local[:-1]

        forall_chunks(policy, n, local_scan)

    def checksum(self) -> float:
        return checksum_array(self.y)
