"""Simulated GPU device: launch-geometry bookkeeping.

Wraps a :class:`~repro.machines.GpuSpec` with the grid/block arithmetic a
CUDA/HIP runtime performs, so GPU-variant kernels can reason about blocks,
warps, and occupancy-driven launch counts. The executor uses it to turn a
policy's block size into warp and launch counts for the counter model.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from repro.machines.model import GpuSpec, MachineModel


@dataclass(frozen=True)
class LaunchGeometry:
    """Grid geometry for one kernel launch."""

    threads: int
    block_size: int
    grid_size: int
    warps_per_block: int
    total_warps: int

    def __post_init__(self) -> None:
        if self.block_size <= 0:
            raise ValueError(f"block_size must be > 0, got {self.block_size}")


class Device:
    """A simulated GPU device (one compute unit of a GPU machine)."""

    def __init__(self, machine: MachineModel) -> None:
        if machine.gpu is None:
            raise ValueError(f"{machine.shorthand} has no GPU spec")
        self.machine = machine
        self.spec: GpuSpec = machine.gpu

    @property
    def warp_size(self) -> int:
        return self.spec.warp_size

    def launch_geometry(self, threads: int, block_size: int) -> LaunchGeometry:
        """Grid geometry for launching ``threads`` work items."""
        if threads < 0:
            raise ValueError(f"negative thread count: {threads}")
        grid = math.ceil(threads / block_size) if threads else 0
        warps_per_block = math.ceil(block_size / self.warp_size)
        return LaunchGeometry(
            threads=threads,
            block_size=block_size,
            grid_size=grid,
            warps_per_block=warps_per_block,
            total_warps=grid * warps_per_block,
        )

    def occupancy(self, block_size: int, max_blocks_per_sm: int = 32) -> float:
        """Fraction of the SM's warp slots occupied for a block size.

        A simple occupancy model: 64 warp slots per SM, blocks limited by
        ``max_blocks_per_sm``. Used by the tuning sweep example.
        """
        warps_per_block = math.ceil(block_size / self.warp_size)
        blocks = min(max_blocks_per_sm, 64 // max(warps_per_block, 1))
        return min(1.0, blocks * warps_per_block / 64.0)
