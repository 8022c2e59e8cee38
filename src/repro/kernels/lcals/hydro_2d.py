"""Lcals_HYDRO_2D: Livermore Loop 18 — 2-D explicit hydrodynamics.

Three stencil passes over five 2-D arrays; the heaviest LCALS streamer.
"""

from __future__ import annotations

import numpy as np

from repro.perfmodel.traits import KernelTraits
from repro.rajasim import kernel_2d, partition_invariant
from repro.rajasim.policies import ExecPolicy
from repro.suite.checksum import checksum_array
from repro.suite.features import Feature, Complexity
from repro.suite.groups import Group
from repro.suite.kernel_base import KernelBase
from repro.suite.registry import register_kernel
from repro.suite.trait_presets import STREAMING, derive


@register_kernel
class LcalsHydro2d(KernelBase):
    NAME = "HYDRO_2D"
    GROUP = Group.LCALS
    COMPLEXITY = Complexity.N
    FEATURES = frozenset({Feature.KERNEL})
    INSTR_PER_ITER = 50.0

    S, T = 0.0041, 0.0037

    def __init__(self, problem_size: int | None = None, seed: int = 4793) -> None:
        super().__init__(problem_size, seed)
        edge = max(4, int(round(self.problem_size**0.5)))
        self.jn = self.kn = edge

    def iterations(self) -> float:
        return float((self.jn - 2) * (self.kn - 2))

    def setup(self) -> None:
        shape = (self.kn, self.jn)
        self.za = np.zeros(shape)
        self.zb = np.zeros(shape)
        self.zm = self.rng.random(shape)
        self.zp = self.rng.random(shape)
        self.zq = self.rng.random(shape)
        self.zr = self.rng.random(shape)
        self.zu = np.zeros(shape)
        self.zv = np.zeros(shape)
        self.zz = self.rng.random(shape)

    def bytes_read(self) -> float:
        return 7.0 * 8.0 * self.iterations()

    def bytes_written(self) -> float:
        return 4.0 * 8.0 * self.iterations()

    def flops(self) -> float:
        return 44.0 * self.iterations()

    def launches_per_rep(self) -> float:
        return 3.0

    def traits(self) -> KernelTraits:
        return derive(STREAMING, streaming_eff=0.85, simd_eff=0.8, cpu_compute_eff=0.45)

    # Fused: writes za/zb from zp, zq, zr and zm, which it never writes.
    @partition_invariant
    def _pass1(self, k: object, j: object) -> None:
        za, zb = self.za, self.zb
        zp, zq, zr, zm = self.zp, self.zq, self.zr, self.zm
        za[k, j] = (zp[_p(k), _m(j)] + zq[_p(k), _m(j)] - zp[_m2(k), _m(j)] - zq[_m2(k), _m(j)]) * (
            zr[k, j] + zr[_m2(k), j]
        ) / (zm[_m2(k), j] + zm[_m2(k), _m(j)])
        zb[k, j] = (zp[_m2(k), _m(j)] + zq[_m2(k), _m(j)] - zp[_m2(k), j] - zq[_m2(k), j]) * (
            zr[k, j] + zr[k, _m(j)]
        ) / (zm[k, j] + zm[_m2(k), j])

    # Fused: writes zu/zv pointwise from za, zb, zz and zr, read-only here.
    @partition_invariant
    def _pass2(self, k: object, j: object) -> None:
        zu, zv = self.zu, self.zv
        za, zb, zz, zr = self.za, self.zb, self.zz, self.zr
        zu[k, j] = zu[k, j] + self.S * (
            za[k, j] * (zz[k, j] - zz[k, _p(j)])
            - za[k, _m(j)] * (zz[k, j] - zz[k, _m(j)])
            - zb[k, j] * (zz[k, j] - zz[_m2(k), j])
            + zb[_p(k), j] * (zz[k, j] - zz[_p(k), j])
        )
        zv[k, j] = zv[k, j] + self.S * (
            za[k, j] * (zr[k, j] - zr[k, _p(j)])
            - za[k, _m(j)] * (zr[k, j] - zr[k, _m(j)])
            - zb[k, j] * (zr[k, j] - zr[_m2(k), j])
            + zb[_p(k), j] * (zr[k, j] - zr[_p(k), j])
        )

    # Fused: updates zr/zz pointwise from themselves and zu/zv.
    @partition_invariant
    def _pass3(self, k: object, j: object) -> None:
        self.zr[k, j] = self.zr[k, j] + self.T * self.zu[k, j]
        self.zz[k, j] = self.zz[k, j] + self.T * self.zv[k, j]

    def run_base(self, policy: ExecPolicy) -> None:
        interior_k = slice(1, self.kn - 1)
        interior_j = slice(1, self.jn - 1)
        self._pass1(interior_k, interior_j)
        self._pass2(interior_k, interior_j)
        self._pass3(interior_k, interior_j)

    def run_raja(self, policy: ExecPolicy) -> None:
        segments = ((1, self.kn - 1), (1, self.jn - 1))
        kernel_2d(policy, segments, self._pass1)
        kernel_2d(policy, segments, self._pass2)
        kernel_2d(policy, segments, self._pass3)

    def checksum(self) -> float:
        return (
            checksum_array(self.zr.ravel())
            + checksum_array(self.zz.ravel())
            + checksum_array(self.zu.ravel())
            + checksum_array(self.zv.ravel())
        )


def _p(idx: object) -> object:
    """Index shifted +1 (works for slices and arrays)."""
    if isinstance(idx, slice):
        return slice(idx.start + 1, idx.stop + 1)
    return idx + 1


def _m(idx: object) -> object:
    """Index shifted -1."""
    if isinstance(idx, slice):
        return slice(idx.start - 1, idx.stop - 1)
    return idx - 1


def _m2(idx: object) -> object:
    """Alias of :func:`_m` kept for readability of the loop body."""
    return _m(idx)
