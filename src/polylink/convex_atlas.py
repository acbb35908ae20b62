"""Turn-angle atlas of the convex configurations of a generic linkage.

For a fixed prefix of turn angles ``alpha = (theta_0, ..., theta_{K-2})``
realized by some convex configuration, the next angle ``theta_{K-1}``
ranges over a closed interval ``[nu, mu]``.  Both endpoints are attained
by explicit "stretched" configurations:

* the minimum either is 0 (some convex completion has a flat vertex
  there), or is realized by a configuration whose entire tail past the
  next vertex is pulled into a straight segment ending at the origin;
* the maximum is realized by straightening a run of edges leaving the
  prefix and flattening every vertex after the run's far end, leaving at
  most two consecutive non-flat vertices in the tail.

Both constructions come down to a single circle-circle intersection, and
iterating them carves the whole set of convex prefixes out of angle space
as a tower of intervals between continuous graphs.  All indices are
0-based: ``alpha[i]`` is the turn angle at vertex ``i``, and level ``K``
(one plus the prefix length) counts the pinned edges.

The constructions run as one numpy kernel over a block of prefixes of
the same level (``_min_block``, ``_max_block``): ``sample_atlas`` calls
it once per level, the single-prefix functions on a block of one.

Also here: the expansive quadrilateral move (the elementary step that
deforms one convex polygon into another through convex states), prefix
membership testing, and grid sampling of the atlas.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .chain_geometry import (
    TANGENT_RTOL,
    TAU,
    PolygonChain,
    SideLengths,
    chain_vertices,
    circle_circle_intersection,
    turn_angle_array,
    turn_angles_from_vertices,
)
from .config_space import is_generic

ANGLE_SLACK = 1e-9  # tolerance below 0 / above pi for convexity checks
FLAT_TOL = 1e-7  # |turn| below this counts as a flat vertex in witnesses
TIE_TOL = 1e-9
PREFIX_TOL = 1e-9  # slack of contains_prefix at each interval end
BLOCK = 2048  # prefixes per kernel call; bounds the (P, C, n, 2) candidate arrays

MINIMAL_CASE_A = "minimal_case_a"
MINIMAL_CASE_B = "minimal_case_b"
MAXIMAL = "maximal"


class PrefixError(ValueError):
    """Prefix admits no convex completion (or construction failed)."""


@dataclass(frozen=True, eq=False)
class AnglePrefix:
    """A convex turn-angle prefix; entries in [0, pi), partial sums <= 2*pi."""

    alpha: np.ndarray

    def __post_init__(self):
        arr = np.atleast_1d(np.asarray(self.alpha, dtype=float)).reshape(-1)
        if arr.size and (arr.min() < 0.0 or arr.max() >= math.pi):
            raise ValueError("prefix angles must lie in [0, pi)")
        if arr.size and np.cumsum(arr).max() > TAU + 1e-9:
            raise ValueError("prefix angles must not turn past 2*pi in total")
        object.__setattr__(self, "alpha", arr)

    def __len__(self) -> int:
        return int(self.alpha.size)


@dataclass(frozen=True, eq=False)
class StretchedWitness:
    """Terminal configuration attaining an atlas interval endpoint.

    ``kind`` records which construction produced it.  For ``maximal``
    witnesses, ``j`` counts the edges from the frame corner through the
    end of the straight run leaving the prefix: the run covers edges
    ``K..j-1`` and its terminal vertex is ``chain.vertices[j-1]``.
    ``tie`` flags borderline cases where several candidates attained the
    endpoint within tolerance.
    """

    kind: str
    chain: PolygonChain
    theta_k: float
    j: int | None = None
    tie: bool = False


def _as_prefix(alpha) -> np.ndarray:
    if isinstance(alpha, AnglePrefix):
        return alpha.alpha
    arr = np.asarray(alpha, dtype=float).reshape(-1)
    # tolerate construction noise at the convex boundary
    if arr.size and arr.min() >= -ANGLE_SLACK:
        arr = np.maximum(arr, 0.0)
    return AnglePrefix(arr).alpha


def _as_prefix_rows(alphas: np.ndarray) -> tuple[np.ndarray, list]:
    """:func:`_as_prefix` of every row of a ``(P, m)`` block.

    Returns the clamped rows and, per row, the ``ValueError`` that
    :func:`_as_prefix` raises on it (``None`` when the row is valid).
    """
    errors: list = [None] * alphas.shape[0]
    if not alphas.shape[1]:
        return alphas, errors
    noise = (alphas.min(axis=1) >= -ANGLE_SLACK)[:, None]
    rows = np.where(noise, np.maximum(alphas, 0.0), alphas)
    bad = (rows.min(axis=1) < 0.0) | (rows.max(axis=1) >= math.pi)
    bad |= np.cumsum(rows, axis=1).max(axis=1) > TAU + 1e-9
    for r in np.flatnonzero(bad):
        try:
            _as_prefix(alphas[r])
        except ValueError as exc:
            errors[r] = exc
    return rows, errors


def _convex(theta: np.ndarray) -> np.ndarray:
    """Turn angles in [0, pi) within slack, elementwise (NaN passes, as
    in a scalar ``not (t < lo or t >= hi)`` test)."""
    return ~((theta < -ANGLE_SLACK) | (theta >= math.pi - ANGLE_SLACK))


def _require_generic(lengths: SideLengths):
    if not is_generic(lengths):
        raise ValueError(
            "stretched constructions require generic lengths "
            "(no straight-line configuration)"
        )


def _level_bounds(lengths: SideLengths, k_level: int):
    n = lengths.n
    if not 1 <= k_level <= max(1, n - 3):
        raise ValueError(
            f"level must lie in 1..{max(1, n - 3)} for n = {n} sides"
        )


def _hypot(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """``math.hypot`` elementwise; ``np.hypot`` rounds differently on a
    small share of inputs, and the constructions keep the scalar rounding
    of :func:`~polylink.chain_geometry.circle_circle_intersection`."""
    out = map(math.hypot, x.ravel().tolist(), y.ravel().tolist())
    return np.fromiter(out, float, x.size).reshape(x.shape)


def _circle_points(c1: np.ndarray, r1, c2: np.ndarray, r2):
    """:func:`~polylink.chain_geometry.circle_circle_intersection` for
    many circle pairs at once, with the same rounding.

    Centers ``c1``, ``c2`` are ``(..., 2)`` and radii ``r1``, ``r2``
    ``(...)``, all broadcast together.  Returns the points, ``(..., 2,
    2)`` with the left branch first, and how many of them the scalar
    function returns: 0 when it finds none or raises on coincident
    centers, 1 at a tangency, else 2.
    """
    dx = c2[..., 0] - c1[..., 0]
    dy = c2[..., 1] - c1[..., 1]
    d = _hypot(dx, dy)
    tol = TANGENT_RTOL * (r1 + r2)
    meet = ~((d <= tol) | (d > r1 + r2 + tol) | (d < np.abs(r1 - r2) - tol))
    d = np.where(meet, d, 1.0)  # pairs without points: keep the arithmetic finite
    a = (d * d + r1 * r1 - r2 * r2) / (2.0 * d)
    h_sq = r1 * r1 - a * a
    ux, uy = dx / d, dy / d
    fx, fy = c1[..., 0] + a * ux, c1[..., 1] + a * uy
    tangent = (np.abs(d - (r1 + r2)) <= tol) | (np.abs(d - np.abs(r1 - r2)) <= tol)
    single = tangent | (h_sq <= 0.0)
    h = np.sqrt(np.where(single | ~meet, 0.0, h_sq))
    hx, hy = h * -uy, h * ux  # h times the left normal of the center line
    points = np.empty(d.shape + (2, 2))
    points[..., 0, 0] = np.where(single, fx, fx + hx)
    points[..., 0, 1] = np.where(single, fy, fy + hy)
    points[..., 1, 0] = fx - hx
    points[..., 1, 1] = fy - hy
    return points, np.where(meet, np.where(single, 1, 2), 0)


def _pick(theta_k: np.ndarray, ok: np.ndarray, maximize: bool, runs=None):
    """Best candidate per row by a scan over the candidate axis.

    A later candidate replaces the best only when it is better by more
    than ``TIE_TOL``; one within ``TIE_TOL`` of the best sets ``tie``
    (for the maximum only when its straight run ``runs[c]`` differs from
    the best one's).  Returns the best value, its candidate index (-1
    when no candidate is ``ok``) and the tie flags.
    """
    P, C = theta_k.shape
    best = np.zeros(P)
    arg = np.full(P, -1)
    tie = np.zeros(P, dtype=bool)
    for c in range(C):
        t, has = theta_k[:, c], arg >= 0
        beats = t > best + TIE_TOL if maximize else t < best - TIE_TOL
        better = ok[:, c] & (~has | beats)
        near = ok[:, c] & has & ~better & (np.abs(t - best) <= TIE_TOL)
        if runs is not None:
            near &= runs[c] != runs[np.maximum(arg, 0)]
        tie |= near
        best = np.where(better, t, best)
        arg = np.where(better, c, arg)
    return best, arg, tie


def _no_tail(P: int) -> list:
    return [PrefixError("no free tail left to stretch at this level")] * P


def _min_block(ell: np.ndarray, alphas: np.ndarray, witnesses: bool):
    """Minimum turn angle at the first free vertex for a ``(P, K-1)``
    block of valid same-level prefixes.

    The candidates pull the tail past the free vertex straight into the
    origin, one per branch of the circle intersection.  Rows whose best
    candidate is negative, or that have none, are case (a): the minimum
    is zero, witnessed by the same kernel one level deeper with the angle
    pinned to zero.  Returns the minima, the witnesses (``None`` entries
    unless ``witnesses``) and, per row, the exception the scalar
    construction raises, or ``None``.
    """
    P, n, K = alphas.shape[0], ell.size, alphas.shape[1] + 1
    nu = np.zeros(P)
    found: list = [None] * P
    if K > n - 2:
        return nu, found, _no_tail(P)
    errors: list = [None] * P
    front = chain_vertices(ell[:K], alphas)  # vertices 0..K-1 of each prefix
    pk = front[:, -1]
    r1 = float(ell[K])
    tail = float(ell[K + 1 :].sum())
    d = _hypot(pk[:, 0], pk[:, 1])
    tol = 1e-9 * (r1 + tail)
    for r in np.flatnonzero(d > r1 + tail + tol):
        errors[r] = PrefixError(
            "prefix endpoint cannot reach closure even with a straight tail"
        )
    points, count = _circle_points(pk, r1, np.zeros(2), tail)
    count[d < tail - r1 - tol] = 0  # tail too long: no candidate
    span = _hypot(points[..., 0], points[..., 1])
    built = (np.arange(2) < count[:, None]) & ~(span <= 0.0)
    u = -points / np.where(built, span, 1.0)[..., None]
    run = np.cumsum(ell[K + 1 : n - 1])

    verts = np.empty((P, 2, n, 2))
    verts[:, :, :K] = front[:, None]
    verts[:, :, K] = points
    verts[:, :, K + 1 : n - 1] = points[:, :, None] + run[:, None] * u[:, :, None]
    verts[:, :, n - 1] = 0.0
    theta, degenerate = turn_angle_array(verts)
    theta_k = theta[..., K - 1]
    convex = _convex(theta)
    convex[..., K - 1] = ~(theta_k >= math.pi - ANGLE_SLACK)  # may be negative
    ok = built & convex.all(axis=-1)
    best, arg, tie = _pick(theta_k, ok, maximize=False)

    for r in np.flatnonzero((built & degenerate).any(axis=1)):
        if errors[r] is None:
            errors[r] = ValueError("zero-length edge: turn angle undefined")
    # a tiny negative minimum is construction noise on an exact zero
    case_b = (arg >= 0) & (best >= -ANGLE_SLACK)
    for r in np.flatnonzero(case_b):
        nu[r] = max(float(best[r]), 0.0)
        if witnesses:
            found[r] = StretchedWitness(
                kind=MINIMAL_CASE_B,
                chain=PolygonChain(verts[r, arg[r]].copy()),
                theta_k=float(best[r]),
                tie=bool(tie[r]),
            )

    # case (a): some convex completion is flat here; witness by pinning 0
    flat = [r for r in np.flatnonzero(~case_b) if errors[r] is None]
    if flat:
        pinned = np.column_stack((alphas[flat], np.zeros(len(flat))))
        _, deeper, failed = _min_block(ell, pinned, witnesses)
        for r, w, exc in zip(flat, deeper, failed):
            if isinstance(exc, PrefixError):
                errors[r] = PrefixError(
                    "prefix admits no convex completion (flat-pin failed)"
                )
                errors[r].__cause__ = exc
            elif exc is not None:
                errors[r] = exc
            elif witnesses:
                found[r] = StretchedWitness(
                    kind=MINIMAL_CASE_A, chain=w.chain, theta_k=0.0
                )
    return nu, found, errors


def _max_block(ell: np.ndarray, alphas: np.ndarray, witnesses: bool):
    """Maximum turn angle at the first free vertex for a ``(P, K-1)``
    block of valid same-level prefixes.

    Candidate pair ``(J, branch)`` straightens the edges ``K..J-1`` into
    one run from the prefix endpoint and lays every edge after ``J`` flat
    along the x-axis into the origin; the run's end is one circle
    intersection.  Returns as :func:`_min_block` does.
    """
    P, n, K = alphas.shape[0], ell.size, alphas.shape[1] + 1
    mu = np.zeros(P)
    found: list = [None] * P
    if K > n - 2:
        return mu, found, _no_tail(P)
    errors: list = [None] * P
    front = chain_vertices(ell[:K], alphas)  # vertices 0..K-1 of each prefix
    pk = front[:, -1]
    ends = range(K + 1, n)  # J: the run covers edges K..J-1
    run_len = np.array([float(ell[K:J].sum()) for J in ends])
    t_len = np.array([float(ell[J + 1 :].sum()) for J in ends])
    centers = np.zeros((len(ends), 2))
    centers[:-1, 0] = -t_len[:-1]  # the last run ends at the origin's circle
    points, count = _circle_points(pk[:, None], run_len, centers, ell[K + 1 :])
    u = (points - pk[:, None, None]) / run_len[:, None, None]
    runs = np.repeat(ends, 2)  # J of each candidate
    built = (np.arange(2) < count[..., None]).reshape(P, -1)
    verts = np.empty((P, runs.size, n, 2))
    verts[:, :, :K] = front[:, None]
    verts[:, :, n - 1] = 0.0
    for c, J in enumerate(ends):
        block = verts[:, 2 * c : 2 * c + 2]
        run = np.cumsum(ell[K : J - 1])
        block[:, :, K : J - 1] = pk[:, None, None] + run[:, None] * u[:, c, :, None]
        block[:, :, J - 1] = points[:, c]
        if J <= n - 2:
            block[:, :, J] = centers[c]
            block[:, :, J + 1 : n - 1, 0] = -t_len[c] + np.cumsum(ell[J + 1 : n - 1])
            block[:, :, J + 1 : n - 1, 1] = 0.0
    theta, degenerate = turn_angle_array(verts)
    ok = built & _convex(theta).all(axis=-1)
    best, arg, tie = _pick(theta[..., K - 1], ok, maximize=True, runs=runs)

    zero_edge = (built & degenerate).any(axis=1)
    for r in range(P):
        if zero_edge[r]:
            errors[r] = ValueError("zero-length edge: turn angle undefined")
        elif arg[r] < 0:
            errors[r] = PrefixError(
                "no valid maximally stretched candidate: prefix lies on the "
                "boundary of feasibility"
            )
        else:
            mu[r] = max(float(best[r]), 0.0)
            if witnesses:
                found[r] = StretchedWitness(
                    kind=MAXIMAL,
                    chain=PolygonChain(verts[r, arg[r]].copy()),
                    theta_k=float(best[r]),
                    j=int(runs[arg[r]]),
                    tie=bool(tie[r]),
                )
    return mu, found, errors


def _intervals(lengths: SideLengths, alphas: np.ndarray, witnesses: bool):
    """Level intervals ``[nu, mu]`` of a ``(P, K-1)`` block of prefixes.

    Returns ``(nu, witness_min, mu, witness_max)`` for the block, or
    raises what the scalar constructions would raise on its first failing
    row: a bad prefix first, then the minimum's error, then the maximum's.
    """
    ell = lengths.lengths
    rows, bad = _as_prefix_rows(alphas)
    nu, wmin, err_min = _min_block(ell, rows, witnesses)
    mu, wmax, err_max = _max_block(ell, rows, witnesses)
    for errors in zip(bad, err_min, err_max):
        for exc in errors:
            if exc is not None:
                raise exc
    return nu, wmin, mu, wmax


def _one(block, lengths: SideLengths, alpha):
    """Run a block kernel on a single prefix, raising its error."""
    alpha = _as_prefix(alpha)
    _require_generic(lengths)
    _level_bounds(lengths, alpha.size + 1)
    value, found, errors = block(lengths.lengths, alpha[None], True)
    if errors[0] is not None:
        raise errors[0]
    return float(value[0]), found[0]


def min_turn_angle(lengths: SideLengths, alpha) -> tuple[float, StretchedWitness]:
    """Smallest turn angle at the first free vertex over convex
    completions of the prefix.

    Builds the straight-tail candidate; a negative (or impossible) result
    there means the true minimum is zero, witnessed by re-running one
    level deeper with the angle pinned to zero.
    """
    return _one(_min_block, lengths, alpha)


def max_turn_angle(lengths: SideLengths, alpha) -> tuple[float, StretchedWitness]:
    """Largest turn angle at the first free vertex over convex
    completions of the prefix.

    Enumerates the terminal shapes: a straight run of edges from the
    prefix endpoint to some vertex j, with every vertex after j+1 flat
    (so the far tail lies on the x-axis into the origin).  Each shape is
    one circle intersection; invalid candidates are discarded and the
    best surviving turn angle wins.
    """
    return _one(_max_block, lengths, alpha)


def contains_prefix(lengths: SideLengths, alpha) -> bool:
    """Whether every entry of the prefix sits inside its level interval."""
    alpha = _as_prefix(alpha)
    _require_generic(lengths)
    for m in range(alpha.size):
        try:
            nu, _, mu, _ = _intervals(lengths, alpha[None, :m], False)
        except PrefixError:
            return False
        if not (nu[0] - PREFIX_TOL <= alpha[m] <= mu[0] + PREFIX_TOL):
            return False
    return True


def quadrilateral_expansive_step(quad, delta: float) -> np.ndarray:
    """Expansive move on a strictly convex quadrilateral.

    Moves the third vertex away from the first along their diagonal by
    ``delta`` and re-closes the sides by circle intersection, keeping each
    off-diagonal vertex on its side.  Turn angles grow at the diagonal's
    endpoints and shrink at the other two vertices; side lengths are
    preserved to machine precision.  Raises when the requested motion
    would push a turn angle past 0 (the blocking flat state).
    """
    quad = np.asarray(quad, dtype=float)
    if quad.shape != (4, 2):
        raise ValueError("expected four planar vertices")
    if delta < 0.0:
        raise ValueError("delta must be nonnegative")
    theta = turn_angles_from_vertices(PolygonChain(quad)).angles
    if theta.min() <= 0.0 or theta.max() >= math.pi:
        raise ValueError("input must be a strictly convex CCW quadrilateral")
    if delta == 0.0:
        return quad.copy()

    v1, v2, v3, v4 = quad
    a = float(np.linalg.norm(v2 - v1))
    b = float(np.linalg.norm(v3 - v2))
    c = float(np.linalg.norm(v4 - v3))
    d = float(np.linalg.norm(v1 - v4))
    diag = float(np.linalg.norm(v3 - v1))
    new_diag = diag + delta
    if new_diag > min(a + b, c + d) + 1e-12:
        raise ValueError(
            "motion blocked: a turn angle would pass 0 before delta is used up"
        )
    u = (v3 - v1) / diag
    v3n = v1 + new_diag * u

    def cross2(p, q):
        return p[0] * q[1] - p[1] * q[0]

    def reposition(v, r_near, r_far):
        side = np.sign(cross2(v3 - v1, v - v1))
        points = circle_circle_intersection(v1, r_near, v3n, r_far)
        if not points:
            raise ValueError("motion blocked: sides cannot re-close")
        for pt in points:
            pt = np.asarray(pt)
            s = np.sign(cross2(v3n - v1, pt - v1))
            if s == side or s == 0.0:
                return pt
        return np.asarray(points[0])

    v2n = reposition(v2, a, b)
    v4n = reposition(v4, d, c)
    return np.vstack((v1, v2n, v3n, v4n))


@dataclass(frozen=True, eq=False)
class AtlasRow:
    """One sampled prefix with its interval and endpoint witnesses."""

    prefix: np.ndarray
    nu: float
    mu: float
    witness_min: StretchedWitness
    witness_max: StretchedWitness


@dataclass(eq=False)
class AtlasSample:
    """Grid sample of the level-k atlas of convex prefixes."""

    lengths: SideLengths
    k: int
    grid: int
    rows: list[AtlasRow]

    def __len__(self) -> int:
        return len(self.rows)


def _grid_rows(block: np.ndarray, nu: np.ndarray, mu: np.ndarray, grid: int):
    """Each row of ``block`` extended by every value of
    ``np.linspace(nu, mu, grid)`` of that row, in row order, with the
    rounding of the scalar ``np.linspace``."""
    delta = mu - nu
    step = delta / (grid - 1)
    i = np.arange(grid, dtype=float)
    t = np.where(
        (step == 0)[:, None], i / (grid - 1) * delta[:, None], i * step[:, None]
    )
    t += nu[:, None]
    t[:, -1] = mu
    return np.column_stack((np.repeat(block, grid, axis=0), t.ravel()))


def sample_atlas(lengths: SideLengths, k: int, grid: int) -> AtlasSample:
    """Sample the interval tower of convex prefixes up to level ``k``.

    Level 1 is a single interval; each deeper level grids the interval of
    every node and recurses, so the result has ``grid**(k-1)`` rows, each
    holding the interval and witnesses of one sampled prefix.  Node order
    is depth-first (deterministic).  Each level runs the stretched
    constructions on its prefixes ``BLOCK`` at a time.
    """
    _require_generic(lengths)
    _level_bounds(lengths, k)
    if grid < 2 and k > 1:
        raise ValueError("grid must be >= 2 to sample intermediate levels")

    def blocks(prefixes):
        return (prefixes[s : s + BLOCK] for s in range(0, len(prefixes), BLOCK))

    prefixes = np.zeros((1, 0))
    for _ in range(1, k):
        extended = []
        for block in blocks(prefixes):
            nu, _, mu, _ = _intervals(lengths, block, False)
            extended.append(_grid_rows(block, nu, mu, grid))
        prefixes = np.concatenate(extended)

    rows = []
    for block in blocks(prefixes):
        nu, wmin, mu, wmax = _intervals(lengths, block, True)
        rows += [
            AtlasRow(prefix=alpha, nu=float(a), mu=float(b), witness_min=w0, witness_max=w1)
            for alpha, a, b, w0, w1 in zip(block, nu, mu, wmin, wmax)
        ]
    return AtlasSample(lengths=lengths, k=k, grid=grid, rows=rows)
