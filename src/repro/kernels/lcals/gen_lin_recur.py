"""Lcals_GEN_LIN_RECUR: Livermore Loop 6 — general linear recurrence.

The RAJAPerf formulation runs two banded sweeps expressed as data-parallel
loops over the band; traffic dominates at scale.
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
from repro.suite.trait_presets import STREAMING, derive


@register_kernel
class LcalsGenLinRecur(KernelBase):
    NAME = "GEN_LIN_RECUR"
    GROUP = Group.LCALS
    FEATURES = frozenset({Feature.FORALL})
    INSTR_PER_ITER = 14.0

    def setup(self) -> None:
        n = self.problem_size
        self.b5 = np.zeros(n)
        self.sa = self.rng.random(n)
        self.sb = self.rng.random(n)
        self.stb5 = self.rng.random(n)
        self.kb5i = 0

    def bytes_read(self) -> float:
        # Two sweeps, each reading sa/sb/stb5.
        return 2.0 * 24.0 * self.problem_size

    def bytes_written(self) -> float:
        return 2.0 * 16.0 * self.problem_size

    def flops(self) -> float:
        return 2.0 * 3.0 * self.problem_size

    def launches_per_rep(self) -> float:
        return 2.0

    def traits(self) -> KernelTraits:
        return derive(STREAMING, streaming_eff=0.88, simd_eff=0.8)

    def run_base(self, policy: ExecPolicy) -> None:
        n, kb5i = self.problem_size, self.kb5i
        b5, sa, sb, stb5 = self.b5, self.sa, self.sb, self.stb5
        k = np.arange(n)
        b5[k + kb5i] = sa[k] + stb5[k] * sb[k]
        stb5[k] = b5[k + kb5i] - stb5[k]
        i = np.arange(1, n + 1)
        k2 = n - i
        b5[k2 + kb5i] = sa[k2] + stb5[k2] * sb[k2]
        stb5[k2] = b5[k2 + kb5i] - stb5[k2]

    def run_raja(self, policy: ExecPolicy) -> None:
        n, kb5i = self.problem_size, self.kb5i
        b5, sa, sb, stb5 = self.b5, self.sa, self.sb, self.stb5

        # Fused: each k reads and writes only its own b5/stb5 slots.
        @partition_invariant
        def sweep1(k: np.ndarray) -> None:
            b5[k + kb5i] = sa[k] + stb5[k] * sb[k]
            stb5[k] = b5[k + kb5i] - stb5[k]

        forall(policy, n, sweep1)

        # Fused: each i reads and writes only its own b5/stb5 slots.
        @partition_invariant
        def sweep2(i: np.ndarray) -> None:
            k = n - (i + 1)
            b5[k + kb5i] = sa[k] + stb5[k] * sb[k]
            stb5[k] = b5[k + kb5i] - stb5[k]

        forall(policy, n, sweep2)

    def checksum(self) -> float:
        return checksum_array(self.b5) + checksum_array(self.stb5)
