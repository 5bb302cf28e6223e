"""Batched Euclidean lower-bound kernel for Phase 3 region queries.

Phase 3's region queries test every flow pair against the Euclidean
lower bound (ELB, Section III-C3) before paying for a network search.
The scalar form is
:func:`~repro.core.refinement.euclidean_lower_bound`; this module
evaluates it for *all* ``n x n`` flow pairs at once over flat endpoint
arrays and returns a symmetric ``bytearray`` mask where
``mask[i * n + j] == 1`` means pair ``(i, j)`` is provably farther than
``eps`` and safe to prune.

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
) -> bytearray:
    """Symmetric mask of flow pairs the Euclidean lower bound prunes.

    ``mask[i * n + j] == 1`` iff
    ``euclidean_lower_bound(network, flow_list[i], flow_list[j]) > eps``
    — bit-for-bit the scalar decision, whichever backend runs.  The
    diagonal is always 0.
    """
    from .refinement import euclidean_lower_bound

    n = len(flow_list)
    mask = bytearray(n * n)
    if n == 0:
        return mask
    numpy = get_numpy() if backend == "numpy" else None
    if numpy is None:
        for i in range(n):
            row = i * n
            for j in range(i + 1, n):
                if euclidean_lower_bound(network, flow_list[i], flow_list[j]) > eps:
                    mask[row + j] = 1
                    mask[j * n + i] = 1
        return mask

    np = numpy
    x1, y1, x2, y2 = _endpoint_coordinates(network, flow_list)
    ax = np.array([x1, x2], dtype=np.float64)  # (2, n): endpoint, flow
    ay = np.array([y1, y2], dtype=np.float64)

    # Squared distance between endpoint p of flow i and endpoint q of
    # flow j, minimized over the four (p, q) combinations — the squared
    # form of the scalar min-of-four hypot.
    dx = ax[:, None, :, None] - ax[None, :, None, :]  # (2, 2, n, n)
    dy = ay[:, None, :, None] - ay[None, :, None, :]
    min_sq = np.min(dx * dx + dy * dy, axis=(0, 1))   # (n, n)

    eps_sq = eps * eps
    far = min_sq > eps_sq * (1.0 + GUARD_BAND)
    uncertain = ~far & (min_sq > eps_sq * (1.0 - GUARD_BAND))
    np.fill_diagonal(far, False)
    np.fill_diagonal(uncertain, False)
    for i, j in zip(*np.nonzero(np.triu(uncertain))):
        # In-band: settle with the exact scalar expression.
        exact_far = (
            euclidean_lower_bound(network, flow_list[int(i)], flow_list[int(j)])
            > eps
        )
        far[i, j] = far[j, i] = exact_far
    return bytearray(far.astype(np.uint8).tobytes())
