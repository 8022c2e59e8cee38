"""Nested-loop dispatch (``RAJA::kernel`` equivalent).

``kernel_2d``/``kernel_3d`` execute a body over the cross product of index
ranges. The body receives one index array per dimension (already
broadcast), so NumPy fancy indexing through :class:`~repro.rajasim.views.View`
objects does the multi-dimensional work in vectorized form. Partitioning
follows the *outermost* range, matching RAJA's common
``kernel<For<0, ...>>`` structure where outer iterations map to
threads/blocks.

Both are thin layers over :func:`~repro.rajasim.forall.forall`: the
outer range is the ``forall`` segment and each outer partition is
broadcast against the inner ranges. So the launch count is ``forall``'s,
``legacy_dispatch()`` runs the body once per outer partition, and a body
declared with :func:`~repro.rajasim.forall.partition_invariant` (its
writes at ``(i, j[, k])`` read nothing another outer partition writes in
the same call — stencils reading a source array and writing a separate
destination, or updating each point from itself) is called once with the
broadcast indices of the whole space.
"""

from __future__ import annotations

from collections.abc import Callable

import numpy as np

from repro.rajasim.forall import (
    FUSED_ARRAY_INDEX,
    _normalize_segment,
    forall,
    index_capability,
    partition_invariant,
)
from repro.rajasim.policies import ExecPolicy


def _outer(body: Callable, broadcast: Callable) -> Callable:
    """The ``forall`` body over outer partitions, carrying ``body``'s
    fusion declaration."""
    if index_capability(body) == FUSED_ARRAY_INDEX:
        return partition_invariant(broadcast)
    return broadcast


def kernel_2d(
    policy: ExecPolicy,
    segments: tuple[object, object],
    body: Callable[[np.ndarray, np.ndarray], None],
) -> int:
    """Run ``body(i, j)`` over ``segments[0] x segments[1]``."""
    inner = _normalize_segment(segments[1])

    def rows(part: np.ndarray) -> None:
        body(np.repeat(part, len(inner)), np.tile(inner, len(part)))

    return forall(policy, segments[0], _outer(body, rows))


def kernel_3d(
    policy: ExecPolicy,
    segments: tuple[object, object, object],
    body: Callable[[np.ndarray, np.ndarray, np.ndarray], None],
) -> int:
    """Run ``body(i, j, k)`` over the 3-D cross product of segments."""
    mid = _normalize_segment(segments[1])
    inner = _normalize_segment(segments[2])
    n_mid, n_inner = len(mid), len(inner)

    def planes(part: np.ndarray) -> None:
        body(
            np.repeat(part, n_mid * n_inner),
            np.tile(np.repeat(mid, n_inner), len(part)),
            np.tile(inner, len(part) * n_mid),
        )

    return forall(policy, segments[0], _outer(body, planes))
