"""Apps_FIR: 16-tap finite impulse response filter.

``out[i] = sum_j coeff[j] * in[i+j]``. The input window stays in cache, so
on CPUs it is retiring bound (Section V-B: speeds up on the V100 but not
on SPR-HBM); the tap loop gives it a high FLOP:byte ratio (one of the 17
FLOP-heavy kernels of Fig. 10).
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
from repro.suite.trait_presets import RETIRING, derive

TAPS = 16
COEFFS = np.array(
    [3.0, -1.0, -1.0, -1.0, -1.0, 3.0, -1.0, -1.0,
     -1.0, -1.0, 3.0, -1.0, -1.0, -1.0, -1.0, 3.0]
)


@register_kernel
class AppsFir(KernelBase):
    NAME = "FIR"
    GROUP = Group.APPS
    FEATURES = frozenset({Feature.FORALL})
    INSTR_PER_ITER = 40.0

    def setup(self) -> None:
        n = self.problem_size
        self.signal = self.rng.random(n + TAPS)
        self.out = np.zeros(n)

    def bytes_read(self) -> float:
        return 8.0 * self.problem_size  # window reuse: ~1 new element/iter

    def bytes_written(self) -> float:
        return 8.0 * self.problem_size

    def flops(self) -> float:
        return 2.0 * TAPS * self.problem_size

    def traits(self) -> KernelTraits:
        return derive(
            RETIRING,
            simd_eff=0.35,
            frontend_factor=0.15,
            cache_resident=0.9,
            cpu_compute_eff=0.25,
            gpu_compute_eff=0.8,
        )

    def run_base(self, policy: ExecPolicy) -> None:
        out, signal = self.out, self.signal
        out[:] = 0.0
        n = self.problem_size
        for j, c in enumerate(COEFFS):
            out += c * signal[j : j + n]

    def run_raja(self, policy: ExecPolicy) -> None:
        out, signal = self.out, self.signal

        # Fused: out[i] is a dot of fixed coefficients with signal.
        @partition_invariant
        def body(i: np.ndarray) -> None:
            acc = np.zeros(len(i))
            for j, c in enumerate(COEFFS):
                acc += c * signal[i + j]
            out[i] = acc

        forall(policy, self.problem_size, body)

    def checksum(self) -> float:
        return checksum_array(self.out)
