"""Halo-exchange geometry for the Comm kernel group.

The Comm kernels model ghost-cell exchange on a 3-D structured grid: each
rank packs face/edge/corner data for its 26 neighbors, exchanges
messages, and unpacks. The byte volume scales with the subdomain surface
— O(n^(2/3)) in the per-rank problem size, Table I's complexity for the
HALO kernels.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class HaloGeometry:
    """Halo geometry for one rank's cubic subdomain."""

    local_elements: int
    halo_width: int = 1
    num_vars: int = 3  # variables exchanged per grid point (RAJAPerf default)

    def __post_init__(self) -> None:
        if self.local_elements <= 0:
            raise ValueError(f"local_elements must be > 0, got {self.local_elements}")
        if self.halo_width <= 0:
            raise ValueError(f"halo_width must be > 0, got {self.halo_width}")
        if self.num_vars <= 0:
            raise ValueError(f"num_vars must be > 0, got {self.num_vars}")

    @property
    def edge(self) -> int:
        """Subdomain edge length (elements)."""
        return max(1, round(self.local_elements ** (1.0 / 3.0)))

    @property
    def neighbors(self) -> int:
        """26 neighbors in a full 3-D stencil exchange."""
        return 26

    @property
    def face_elements(self) -> int:
        return self.edge * self.edge * self.halo_width

    @property
    def edge_elements(self) -> int:
        return self.edge * self.halo_width * self.halo_width

    @property
    def corner_elements(self) -> int:
        return self.halo_width**3

    @property
    def exchange_elements(self) -> int:
        """Total grid points exchanged per variable: 6 faces + 12 edges +
        8 corners of the halo shell."""
        return (
            6 * self.face_elements
            + 12 * self.edge_elements
            + 8 * self.corner_elements
        )

    @property
    def exchange_bytes(self) -> int:
        """Total bytes sent per exchange (doubles, all variables)."""
        return self.exchange_elements * self.num_vars * 8

    @property
    def messages(self) -> int:
        """Messages per exchange (send to each neighbor)."""
        return self.neighbors


def halo_surface_elements(total_elements: int, ranks: int, halo_width: int = 1) -> float:
    """Node-level halo elements: ranks x per-rank surface.

    This is the O(n^(2/3))-per-rank quantity that makes halo work
    decomposition-dependent: more ranks = more total surface.
    """
    if ranks <= 0:
        raise ValueError(f"ranks must be > 0, got {ranks}")
    per_rank = total_elements / ranks
    edge = per_rank ** (1.0 / 3.0)
    return ranks * 6.0 * edge * edge * halo_width
