"""Core geometric primitives for closed polygonal chains with fixed side lengths.

Conventions (used throughout the package, all indices 0-based):

* A chain of ``n`` sides is a closed polygon with vertices
  ``vertices[0] .. vertices[n-1]``; the vertex preceding ``vertices[0]``
  is ``vertices[n-1]`` (the polygon closes on itself, it is never stored
  twice).
* The canonical frame puts ``vertices[n-1]`` at the origin and
  ``vertices[0]`` at ``(lengths[0], 0)`` on the positive x-axis.
* Edge ``i`` runs from ``vertices[i-1]`` to ``vertices[i]`` and has length
  ``lengths[i]``; edge 0 runs from ``vertices[n-1]``.
* The turn angle at vertex ``i`` is the signed angle from edge ``i`` to
  edge ``i+1``, normalized to ``(-pi, pi]``.  Positive = left turn.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from functools import lru_cache

import numpy as np

TAU = 2.0 * math.pi

# Absolute tolerance for geometric equalities on unit-scale data.
GEOM_TOL = 1e-9

# Relative tolerance for tangency detection in circle intersections.
TANGENT_RTOL = 1e-9

# Relative epsilon for sign-of-area orientation tests.
ORIENT_EPS = 1e-12


def normalize_angle(theta: float) -> float:
    """Reduce an angle to the half-open interval (-pi, pi].

    A numerically exact fold of -pi is mapped to +pi so a fold-back turn
    has a single representation.
    """
    r = math.remainder(theta, TAU)
    if r <= -math.pi:
        r += TAU
    return r


@dataclass(frozen=True, eq=False)
class SideLengths:
    """Ordered positive edge lengths of a closed linkage."""

    lengths: np.ndarray

    def __post_init__(self):
        arr = np.atleast_1d(np.asarray(self.lengths, dtype=float))
        if arr.ndim != 1 or arr.size < 3:
            raise ValueError("a linkage needs at least 3 side lengths")
        if not np.all(arr > 0.0):
            raise ValueError("side lengths must be strictly positive")
        object.__setattr__(self, "lengths", arr)

    @property
    def n(self) -> int:
        return int(self.lengths.size)

    @property
    def perimeter(self) -> float:
        return float(self.lengths.sum())

    def __iter__(self):
        return iter(self.lengths)


@dataclass(frozen=True, eq=False)
class TurnAngles:
    """Signed turn angles in radians, one per vertex, each in (-pi, pi]."""

    angles: np.ndarray

    def __post_init__(self):
        arr = np.atleast_1d(np.asarray(self.angles, dtype=float))
        if arr.ndim != 1 or arr.size < 3:
            raise ValueError("need at least 3 turn angles")
        if np.any(arr <= -math.pi - 1e-15) or np.any(arr > math.pi + 1e-15):
            raise ValueError("turn angles must lie in (-pi, pi]")
        object.__setattr__(self, "angles", arr)

    @property
    def n(self) -> int:
        return int(self.angles.size)

    @property
    def winding(self) -> float:
        """Total turning; an integer multiple of 2*pi for a closed polygon."""
        return float(self.angles.sum())

    def __iter__(self):
        return iter(self.angles)


@dataclass(frozen=True, eq=False)
class PolygonChain:
    """Closed polygon given by its vertex cycle.

    ``vertices`` has shape (n, 2).  The polygon is traversed in index
    order; the edge into ``vertices[0]`` comes from ``vertices[n-1]``.
    """

    vertices: np.ndarray

    def __post_init__(self):
        arr = np.asarray(self.vertices, dtype=float)
        if arr.ndim != 2 or arr.shape[1] != 2 or arr.shape[0] < 3:
            raise ValueError("vertices must be an (n, 2) array with n >= 3")
        object.__setattr__(self, "vertices", arr)

    @property
    def n(self) -> int:
        return int(self.vertices.shape[0])

    def edges(self) -> np.ndarray:
        """Edge vectors; row i is edge i (into vertex i)."""
        return self.vertices - _cyclic_prev(self.vertices)

    def edge_lengths(self) -> np.ndarray:
        return np.hypot(*self.edges().T)

    def side_lengths(self) -> SideLengths:
        return SideLengths(self.edge_lengths())

    @property
    def perimeter(self) -> float:
        return float(self.edge_lengths().sum())

    def is_canonical(self, tol: float = 1e-12) -> bool:
        """True when the last vertex sits at the origin and the first on the
        nonnegative x-axis."""
        last = self.vertices[-1]
        first = self.vertices[0]
        scale = max(1.0, float(np.abs(self.vertices).max()))
        return (
            math.hypot(last[0], last[1]) <= tol * scale
            and abs(first[1]) <= tol * scale
            and first[0] >= -tol * scale
        )

    def realizes(self, lengths: SideLengths, tol: float = GEOM_TOL) -> bool:
        """True when every edge length matches ``lengths`` within ``tol``."""
        if lengths.n != self.n:
            return False
        return bool(np.max(np.abs(self.edge_lengths() - lengths.lengths)) < tol)


def chain_vertices(ell: np.ndarray, turns) -> np.ndarray:
    """Vertices of open chains that start at the origin heading along +x.

    ``turns`` has shape ``(..., k)``: the turn angles at the first ``k``
    vertices reached; ``ell`` holds the ``k + 1`` edge lengths.  The
    heading of edge ``j`` is the sum of the first ``j`` turns.  Returns the
    endpoint of every edge, shape ``(..., k + 1, 2)``; the origin itself
    is not included.
    """
    turns = np.asarray(turns, dtype=float)
    headings = np.concatenate(
        (np.zeros(turns.shape[:-1] + (1,)), np.cumsum(turns, axis=-1)), axis=-1
    )
    steps = ell[:, None] * np.stack((np.cos(headings), np.sin(headings)), axis=-1)
    return np.cumsum(steps, axis=-2)


def vertices_from_turn_angles(
    lengths: SideLengths, angles: TurnAngles | np.ndarray
) -> tuple[PolygonChain, float]:
    """Rebuild the vertex cycle from side lengths and turn angles.

    The first vertex is placed at ``(lengths[0], 0)`` and each subsequent
    vertex follows by accumulating turn angles into edge headings.  Closure
    is not required: the returned defect is the distance from the final
    vertex to the origin, which is zero exactly when the data describe a
    closed polygon.
    """
    theta = angles.angles if isinstance(angles, TurnAngles) else np.asarray(angles, float)
    ell = lengths.lengths
    if theta.size != ell.size:
        raise ValueError(
            f"length/angle count mismatch: {ell.size} sides vs {theta.size} angles"
        )
    verts = chain_vertices(ell, theta[:-1])
    defect = float(math.hypot(verts[-1, 0], verts[-1, 1]))
    return PolygonChain(verts), defect


def _cyclic_prev(a: np.ndarray) -> np.ndarray:
    """Rows of ``(..., n, 2)`` shifted one step down the cycle: row i of
    the result is row i-1 (row 0 gets row n-1)."""
    return np.concatenate((a[..., -1:, :], a[..., :-1, :]), axis=-2)


def _edge_products(verts: np.ndarray):
    """Edge vectors of closed chains ``(..., n, 2)``, with the cross and dot
    product of each edge and the edge after it, shape ``(..., n)``."""
    e = verts - _cyclic_prev(verts)
    nxt = np.concatenate((e[..., 1:, :], e[..., :1, :]), axis=-2)  # edge leaving vertex i
    return (e, *_cross_dot(e[..., 0], e[..., 1], nxt[..., 0], nxt[..., 1]))


def _cross_dot(ex, ey, nx, ny):
    return ex * ny - ey * nx, ex * nx + ey * ny


def _turn_angles(cross: np.ndarray, dot: np.ndarray) -> np.ndarray:
    theta = np.arctan2(cross, dot)
    # arctan2 returns values in [-pi, pi]; fold -pi onto +pi
    return np.where(theta <= -math.pi, math.pi, theta)


def edge_turn_angles(e, nxt) -> np.ndarray:
    """Signed turn angles from edge vectors ``e`` to edge vectors ``nxt``.

    Each is an ``(x, y)`` pair of same-shape arrays, or an array of shape
    ``(2, ...)``.  This is the formula of :func:`turn_angle_array`, so the
    same edge vectors give the same bits.
    """
    return _turn_angles(*_cross_dot(*e, *nxt))


def turn_angle_array(verts: np.ndarray):
    """Signed turn angles of closed chains, ``(..., n, 2) -> (..., n)``.

    The formula of :func:`turn_angles_from_vertices`, for a stack of
    chains.  Returns ``(theta, degenerate)``: ``degenerate`` says, per
    chain, whether it has an edge of length at most ``1e-14`` times its
    longest edge (the chains :func:`turn_angles_from_vertices` rejects).
    """
    e, cross, dot = _edge_products(verts)
    theta = _turn_angles(cross, dot)
    lens = np.hypot(e[..., 0], e[..., 1])
    scale = np.maximum(lens.max(axis=-1), 1e-300)
    return theta, (lens <= 1e-14 * scale[..., None]).any(axis=-1)


def turn_angles_from_vertices(chain: PolygonChain) -> TurnAngles:
    """Signed turn angle at each vertex of a closed chain.

    Raises on zero-length edges, whose direction is undefined.
    """
    theta, degenerate = turn_angle_array(chain.vertices)
    if degenerate:
        raise ValueError("zero-length edge: turn angle undefined")
    return TurnAngles(theta)


def canonicalize(chain: PolygonChain) -> PolygonChain:
    """Rigidly move a closed chain into the canonical frame.

    The last vertex goes to the origin and the first to the positive
    x-axis.  Turn angles and all pairwise distances are unchanged.
    """
    verts = chain.vertices - chain.vertices[-1]
    first = verts[0]
    r = math.hypot(first[0], first[1])
    if r <= 0.0:
        raise ValueError("first edge has zero length; cannot fix the frame")
    c, s = first[0] / r, first[1] / r
    rot = np.array([[c, s], [-s, c]])
    out = verts @ rot.T
    out[-1] = (0.0, 0.0)
    out[0, 1] = 0.0
    return PolygonChain(out)


def circle_circle_intersection(
    center1, r1: float, center2, r2: float
) -> list[tuple[float, float]]:
    """Intersection points of two circles.

    Returns zero, one (tangency), or two points.  With two points, the one
    on the left of the directed center line ``center1 -> center2`` comes
    first.  Tangency is detected with relative tolerance ``TANGENT_RTOL``
    against ``r1 + r2``.
    """
    if r1 <= 0.0 or r2 <= 0.0:
        raise ValueError("circle radii must be positive")
    c1 = np.asarray(center1, dtype=float)
    c2 = np.asarray(center2, dtype=float)
    dx, dy = c2 - c1
    d = math.hypot(dx, dy)
    tol = TANGENT_RTOL * (r1 + r2)
    if d <= tol:
        raise ValueError("coincident circle centers: intersection degenerate")
    if d > r1 + r2 + tol or d < abs(r1 - r2) - tol:
        return []
    a = (d * d + r1 * r1 - r2 * r2) / (2.0 * d)
    h_sq = r1 * r1 - a * a
    ux, uy = dx / d, dy / d
    fx, fy = c1[0] + a * ux, c1[1] + a * uy
    tangent = abs(d - (r1 + r2)) <= tol or abs(d - abs(r1 - r2)) <= tol
    if tangent or h_sq <= 0.0:
        return [(fx, fy)]
    h = math.sqrt(h_sq)
    # left normal of the center line
    nx, ny = -uy, ux
    return [(fx + h * nx, fy + h * ny), (fx - h * nx, fy - h * ny)]


class SegmentRelation(Enum):
    """How two closed segments meet."""

    DISJOINT = "disjoint"
    PROPER_CROSSING = "proper_crossing"
    ENDPOINT_TOUCH = "endpoint_touch"
    OVERLAP = "overlap"


def _orient(ax, ay, bx, by, cx, cy, eps: float) -> int:
    """Sign of the area of triangle abc, zero within eps."""
    v = (bx - ax) * (cy - ay) - (by - ay) * (cx - ax)
    if abs(v) <= eps:
        return 0
    return 1 if v > 0.0 else -1


def segment_intersection(seg1, seg2, eps: float | None = None) -> SegmentRelation:
    """Classify how two segments intersect.

    ``seg1`` and ``seg2`` are point pairs.  ``PROPER_CROSSING`` means the
    open interiors cross in a single point; ``OVERLAP`` means the segments
    are collinear and share a sub-segment of positive length; any other
    single-point contact is an ``ENDPOINT_TOUCH``.  The orientation
    epsilon defaults to ``ORIENT_EPS`` times the squared bounding-box
    scale of the four endpoints.
    """
    (p1, p2), (q1, q2) = seg1, seg2
    p1 = np.asarray(p1, float)
    p2 = np.asarray(p2, float)
    q1 = np.asarray(q1, float)
    q2 = np.asarray(q2, float)
    pts = np.array([p1, p2, q1, q2])
    scale = float(np.abs(pts).max())
    if math.hypot(*(p2 - p1)) <= 1e-14 * max(scale, 1e-300) or math.hypot(
        *(q2 - q1)
    ) <= 1e-14 * max(scale, 1e-300):
        raise ValueError("degenerate (zero-length) segment")
    if eps is None:
        eps = ORIENT_EPS * scale * scale

    o1 = _orient(*p1, *p2, *q1, eps)
    o2 = _orient(*p1, *p2, *q2, eps)
    o3 = _orient(*q1, *q2, *p1, eps)
    o4 = _orient(*q1, *q2, *p2, eps)

    if o1 * o2 < 0 and o3 * o4 < 0:
        return SegmentRelation.PROPER_CROSSING

    if o1 == 0 and o2 == 0:
        # collinear: compare 1D extents along the dominant axis
        axis = 0 if abs(p2[0] - p1[0]) >= abs(p2[1] - p1[1]) else 1
        a0, a1 = sorted((p1[axis], p2[axis]))
        b0, b1 = sorted((q1[axis], q2[axis]))
        lo, hi = max(a0, b0), min(a1, b1)
        gap_tol = ORIENT_EPS * max(scale, 1e-300)
        if hi - lo > gap_tol:
            return SegmentRelation.OVERLAP
        if hi - lo >= -gap_tol:
            return SegmentRelation.ENDPOINT_TOUCH
        return SegmentRelation.DISJOINT

    touching = (
        (o1 == 0 and _between(p1, p2, q1))
        or (o2 == 0 and _between(p1, p2, q2))
        or (o3 == 0 and _between(q1, q2, p1))
        or (o4 == 0 and _between(q1, q2, p2))
    )
    if touching:
        return SegmentRelation.ENDPOINT_TOUCH
    return SegmentRelation.DISJOINT


def _between(a, b, c) -> bool:
    """True when c lies within the axis-aligned box of segment ab (c is
    assumed collinear with ab)."""
    pad = ORIENT_EPS * max(1.0, float(np.abs(np.array([a, b, c])).max()))
    return (
        min(a[0], b[0]) - pad <= c[0] <= max(a[0], b[0]) + pad
        and min(a[1], b[1]) - pad <= c[1] <= max(a[1], b[1]) + pad
    )


@lru_cache(maxsize=64)
def _edge_pairs(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Index arrays (i, j) of the non-adjacent edge pairs of an n-cycle."""
    i, j = np.triu_indices(n, k=2)
    keep = ~((i == 0) & (j == n - 1))
    return i[keep], j[keep]


def embedded_mask(verts: np.ndarray) -> np.ndarray:
    """Embeddedness of each closed chain in an ``(M, n, 2)`` batch.

    A chain is embedded when no two non-adjacent edges meet at all
    (crossing, touching or overlapping) and no vertex folds its two edges
    back onto each other.  The tolerance is set per chain, not per edge
    pair: with ``s`` the chain's longest edge (its largest coordinate
    difference), orientation signs within ``ORIENT_EPS * s**2`` count as
    zero and the on-segment box tests are padded by ``ORIENT_EPS * s``.
    Chains built from the same turn angles therefore get the same answer
    in a batch of one (:func:`~polylink.config_space.classify`) and in a
    grid sweep, and ``s`` does not change under translation, cyclic
    relabelling, mirroring or power-of-two rescaling.
    """
    e, cross, dot = _edge_products(verts)
    scale = np.maximum(np.abs(e).max(axis=(1, 2)), 1e-300)[:, None]
    eps = ORIENT_EPS * scale * scale
    pad = (ORIENT_EPS * scale)[..., None]
    # adjacent fold-back: collinear with opposite direction
    fold = ((np.abs(cross) <= eps) & (dot < 0.0)).any(axis=1)
    del e, cross, dot  # free the edge arrays before the larger pair arrays
    i, j = _edge_pairs(verts.shape[1])
    prev = _cyclic_prev(verts)
    a, b = np.take(prev, i, axis=1), np.take(verts, i, axis=1)
    c, d = np.take(prev, j, axis=1), np.take(verts, j, axis=1)

    def orient(p, q, r):
        v = (q[..., 0] - p[..., 0]) * (r[..., 1] - p[..., 1]) - (
            q[..., 1] - p[..., 1]
        ) * (r[..., 0] - p[..., 0])
        return np.where(np.abs(v) <= eps, 0.0, np.sign(v))

    def on_seg(p, q, r):
        return (
            (np.minimum(p, q) - pad <= r) & (r <= np.maximum(p, q) + pad)
        ).all(axis=-1)

    o1, o2 = orient(a, b, c), orient(a, b, d)
    o3, o4 = orient(c, d, a), orient(c, d, b)
    contact = (o1 * o2 < 0) & (o3 * o4 < 0)
    contact |= (o1 == 0) & on_seg(a, b, c)
    contact |= (o2 == 0) & on_seg(a, b, d)
    contact |= (o3 == 0) & on_seg(c, d, a)
    contact |= (o4 == 0) & on_seg(c, d, b)
    return ~contact.any(axis=1) & ~fold


def reflect_x(chain: PolygonChain) -> PolygonChain:
    """Mirror a chain across the x-axis (reverses orientation)."""
    out = chain.vertices.copy()
    out[:, 1] = -out[:, 1]
    return PolygonChain(out)
