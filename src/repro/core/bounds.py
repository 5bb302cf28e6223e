"""Batched Euclidean lower-bound kernel for Phase 3's neighbour graph.

Phase 3 tests every flow pair against the Euclidean lower bound (ELB,
Section III-C3) before paying for a network search.  The scalar form is
:func:`~repro.core.refinement.euclidean_lower_bound`; this module
evaluates it for the rows of the flows from ``start`` on against all
``n`` flows at once, over flat endpoint arrays, and returns a
``bytearray`` mask where ``mask[(j - start) * n + i] == 1`` means pair
``(i, j)`` is provably farther than ``eps`` and safe to prune
(``start=0``: the full symmetric ``n x n`` mask).

Two implementations, selected by the resolved backend
(:func:`repro.vec.resolve_vector_backend`: numpy when importable and not
disabled by ``REPRO_NO_NUMPY``):

* ``python`` — the scalar function in a loop; the reference behaviour.
* ``numpy`` — vectorized, but **decision-identical** by construction:
  it compares *squared* distances (no per-element ``sqrt``) against
  ``eps**2`` outside a relative guard band of :data:`GUARD_BAND`; only
  pairs landing inside the band — where ``hypot``-vs-``sqrt(x*x + y*y)``
  rounding could flip a comparison — are re-checked with the exact
  scalar expression.  Rounding error of either form is ~1e-16 relative;
  the band is seven orders of magnitude wider.

Either way the mask equals the scalar decisions bit-for-bit, so
clusters *and* the Figure-7 counters match with or without numpy.
"""

from __future__ import annotations

from typing import Sequence

from ..roadnet.network import RoadNetwork
from ..vec import get_numpy

#: Relative half-width of the squared-distance window around ``eps**2``
#: inside which the numpy ELB defers to the exact scalar expression.
GUARD_BAND = 1e-9


def _endpoint_coordinates(
    network: RoadNetwork, flow_list: Sequence
) -> tuple[list[float], list[float], list[float], list[float]]:
    """Flat per-flow endpoint coordinates ``(x1, y1, x2, y2)``."""
    x1: list[float] = []
    y1: list[float] = []
    x2: list[float] = []
    y2: list[float] = []
    for flow in flow_list:
        e1, e2 = flow.endpoints
        p1 = network.node_point(e1)
        p2 = network.node_point(e2)
        x1.append(p1.x)
        y1.append(p1.y)
        x2.append(p2.x)
        y2.append(p2.y)
    return x1, y1, x2, y2


def elb_far_mask(
    network: RoadNetwork,
    flow_list: Sequence,
    eps: float,
    backend: str = "python",
    start: int = 0,
) -> bytearray:
    """Mask of the pairs of flows ``start..n-1`` the Euclidean lower bound prunes.

    Row ``j - start`` covers flow ``j`` against every flow:
    ``mask[(j - start) * n + i] == 1`` iff
    ``euclidean_lower_bound(network, flow_list[i], flow_list[j]) > eps``
    — bit-for-bit the scalar decision, whichever backend runs.  Flow
    ``j``'s own entry is always 0, and the rows are the corresponding
    rows of the full ``start=0`` mask.  Each unordered pair is decided
    once.
    """
    from .refinement import euclidean_lower_bound

    n = len(flow_list)
    mask = bytearray((n - start) * n)
    if n == start:
        return mask
    numpy = get_numpy() if backend == "numpy" else None
    if numpy is None:
        for j in range(start, n):
            row = (j - start) * n
            for i in range(j):
                if euclidean_lower_bound(network, flow_list[i], flow_list[j]) > eps:
                    mask[row + i] = 1
                    if i >= start:
                        mask[(i - start) * n + j] = 1
        return mask

    np = numpy
    x1, y1, x2, y2 = _endpoint_coordinates(network, flow_list)
    ax = np.array([x1, x2], dtype=np.float64)  # (2, n): endpoint, flow
    ay = np.array([y1, y2], dtype=np.float64)

    # Squared distance between endpoint p of new flow j and endpoint q
    # of flow i, minimized over the four (p, q) combinations — the
    # squared form of the scalar min-of-four hypot.
    dx = ax[:, None, start:, None] - ax[None, :, None, :]  # (2, 2, n - start, n)
    dy = ay[:, None, start:, None] - ay[None, :, None, :]
    min_sq = np.min(dx * dx + dy * dy, axis=(0, 1))       # (n - start, n)

    eps_sq = eps * eps
    far = min_sq > eps_sq * (1.0 + GUARD_BAND)
    uncertain = ~far & (min_sq > eps_sq * (1.0 - GUARD_BAND))
    rows = np.arange(start, n)
    own = (rows - start, rows)
    far[own] = False
    uncertain[own] = False
    # In-band: settle each pair (i, j), i < j, with the exact scalar
    # expression; a pair of two new flows sits in both their rows.
    below = np.arange(n)[None, :] < rows[:, None]
    for r, i in zip(*np.nonzero(uncertain & below)):
        i, j = int(i), start + int(r)
        exact_far = euclidean_lower_bound(network, flow_list[i], flow_list[j]) > eps
        far[r, i] = exact_far
        if i >= start:
            far[i - start, j] = exact_far
    return bytearray(far.astype(np.uint8).tobytes())
