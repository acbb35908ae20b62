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
from .config_space import CONVEX_ANGLE_SLACK, is_generic

TIE_TOL = 1e-9
PREFIX_TOL = 1e-9  # slack of contains_prefix at each interval end
BLOCK = 2048  # prefixes per kernel call; bounds the (P, C, n, 2) candidate arrays

MINIMAL_CASE_A = "minimal_case_a"
MINIMAL_CASE_B = "minimal_case_b"
MAXIMAL = "maximal"


class PrefixError(ValueError):
    """Prefix admits no convex completion (or construction failed)."""


# per-row failure codes of the prefix check and the block kernels; each
# indexes FAILURES, and 0 is a row that did not fail
OUTSIDE, PAST_TAU, NO_TAIL, NO_REACH, ZERO_EDGE, FLAT_PIN, NO_MAX = range(1, 8)
FAILURES = (
    None,
    (ValueError, "prefix angles must lie in [0, pi)"),
    (ValueError, "prefix angles must not turn past 2*pi in total"),
    (PrefixError, "no free tail left to stretch at this level"),
    (PrefixError, "prefix endpoint cannot reach closure even with a straight tail"),
    (ValueError, "zero-length edge: turn angle undefined"),
    (PrefixError, "prefix admits no convex completion (flat-pin failed)"),
    (PrefixError, "no valid maximally stretched candidate: prefix lies on the "
     "boundary of feasibility"),
)


def _raise_first(codes: np.ndarray):
    """Raise the failure of the first nonzero code, row by row for a 2-d
    block of codes."""
    failed = codes[codes != 0]
    if failed.size:
        cls, message = FAILURES[failed[0]]
        raise cls(message)


@dataclass(frozen=True, eq=False)
class AnglePrefix:
    """A convex turn-angle prefix; entries in [0, pi), partial sums <= 2*pi."""

    alpha: np.ndarray

    def __post_init__(self):
        rows, bad = _as_prefix_rows(np.asarray(self.alpha, dtype=float).reshape(1, -1))
        _raise_first(bad)
        object.__setattr__(self, "alpha", rows[0])

    def __len__(self) -> int:
        return int(self.alpha.size)


@dataclass(frozen=True, eq=False)
class StretchedWitness:
    """Terminal configuration attaining an atlas interval endpoint.

    ``kind`` records which construction produced it.  For ``maximal``
    witnesses, ``j`` counts the edges from the frame corner through the
    end of the straight run leaving the prefix: the run covers edges
    ``K..j-1`` and its terminal vertex is ``chain.vertices[j-1]``.
    """

    kind: str
    chain: PolygonChain
    theta_k: float
    j: int | None = None


def _as_prefix_rows(alphas: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Every row of a ``(P, m)`` block as a prefix: rows with no angle
    below ``-CONVEX_ANGLE_SLACK`` have their construction noise clamped to
    0.  Returns the rows and, per row, the failure code of a prefix with
    an angle outside [0, pi) (NaN is outside) or turning past 2*pi in
    total, else 0."""
    codes = np.zeros(alphas.shape[0], np.int8)
    if alphas.shape[1]:
        noise = (alphas.min(axis=1) >= -CONVEX_ANGLE_SLACK)[:, None]
        alphas = np.where(noise, np.maximum(alphas, 0.0), alphas)
        past = np.cumsum(alphas, axis=1).max(axis=1) > TAU + CONVEX_ANGLE_SLACK
        codes[past] = PAST_TAU
        codes[~((alphas >= 0.0) & (alphas < math.pi)).all(axis=1)] = OUTSIDE
    return alphas, codes


def _as_prefix(alpha) -> np.ndarray:
    """The angles of one prefix as :class:`AnglePrefix` stores them."""
    return (alpha if isinstance(alpha, AnglePrefix) else AnglePrefix(alpha)).alpha


def _convex(theta: np.ndarray) -> np.ndarray:
    """Turn angles in [0, pi) within slack, elementwise (NaN passes, as
    in a scalar ``not (t < lo or t >= hi)`` test)."""
    return ~((theta < -CONVEX_ANGLE_SLACK) | (theta >= math.pi - CONVEX_ANGLE_SLACK))


def _require_generic(lengths: SideLengths):
    if not is_generic(lengths):
        raise ValueError(
            "stretched constructions require generic lengths "
            "(no straight-line configuration)"
        )


def max_level(n: int) -> int:
    """The deepest atlas level of an n-gon: its dimension n - 3, and 1
    for a triangle."""
    return max(1, n - 3)


def _level_bounds(lengths: SideLengths, k_level: int):
    top = max_level(lengths.n)
    if not 1 <= k_level <= top:
        raise ValueError(f"level must lie in 1..{top} for n = {lengths.n} sides")


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
    2)`` with the left branch first, how many of them the scalar function
    returns (0 when it finds none or raises on coincident centers, 1 at a
    tangency, else 2) and the distance between the centers, ``(...)``.
    """
    dx = c2[..., 0] - c1[..., 0]
    dy = c2[..., 1] - c1[..., 1]
    d = _hypot(dx, dy)
    tol = TANGENT_RTOL * (r1 + r2)
    meet = ~((d <= tol) | (d > r1 + r2 + tol) | (d < np.abs(r1 - r2) - tol))
    reach = d
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
    return points, np.where(meet, np.where(single, 1, 2), 0), reach


def _pick(theta_k: np.ndarray, ok: np.ndarray, maximize: bool):
    """Best candidate per row by a scan over the candidate axis.

    A later candidate replaces the best only when it is better by more
    than ``TIE_TOL``, so of candidates within ``TIE_TOL`` of each other
    the first wins.  Returns the best value and its candidate index (-1
    when no candidate is ``ok``).
    """
    P, C = theta_k.shape
    best = np.zeros(P)
    arg = np.full(P, -1)
    for c in range(C):
        t = theta_k[:, c]
        beats = t > best + TIE_TOL if maximize else t < best - TIE_TOL
        better = ok[:, c] & ((arg < 0) | beats)
        best = np.where(better, t, best)
        arg = np.where(better, c, arg)
    return best, arg


def _no_tail(P: int, n: int):
    """A kernel's outcome for a block of prefixes with no free tail."""
    code = np.full(P, NO_TAIL, np.int8)
    return np.zeros(P), np.zeros((P, n, 2)), np.zeros(P, int), code


def _min_block(ell: np.ndarray, alphas: np.ndarray):
    """Minimum turn angle at the first free vertex for a ``(P, K-1)``
    block of valid same-level prefixes.

    The candidates pull the tail past the free vertex straight into the
    origin, one per branch of the circle intersection.  Rows whose best
    candidate is negative, or that have none, are case (a): the minimum
    is zero, witnessed by the same kernel one level deeper with the angle
    pinned to zero.  Returns, per row, the witness's turn angle at the
    free vertex (0 in case (a)), its vertices ``(P, n, 2)``, whether it is
    case (b), and the failure code of the scalar construction (0 when the
    row succeeds).
    """
    P, n, K = alphas.shape[0], ell.size, alphas.shape[1] + 1
    if K > n - 2:
        return _no_tail(P, n)
    front = chain_vertices(ell[:K], alphas)  # vertices 0..K-1 of each prefix
    pk = front[:, -1]
    r1 = float(ell[K])
    tail = float(ell[K + 1 :].sum())
    points, count, d = _circle_points(pk, r1, np.zeros(2), tail)
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
    convex[..., K - 1] = ~(theta_k >= math.pi - CONVEX_ANGLE_SLACK)  # may be negative
    ok = built & convex.all(axis=-1)
    best, arg = _pick(theta_k, ok, maximize=False)

    code = np.zeros(P, np.int8)
    code[(built & degenerate).any(axis=1)] = ZERO_EDGE
    code[d > r1 + tail + TANGENT_RTOL * (r1 + tail)] = NO_REACH
    # a tiny negative minimum is construction noise on an exact zero
    case_b = (arg >= 0) & (best >= -CONVEX_ANGLE_SLACK)
    verts = verts[np.arange(P), arg]

    # case (a): some convex completion is flat here; witness by pinning 0
    flat = np.flatnonzero(~case_b & (code == 0))
    if flat.size:
        pinned = np.column_stack((alphas[flat], np.zeros(flat.size)))
        _, verts[flat], _, deeper = _min_block(ell, pinned)
        # a deeper PrefixError means the pin failed; a zero-length edge stays
        code[flat] = np.where((deeper > 0) & (deeper != ZERO_EDGE), FLAT_PIN, deeper)
    return np.where(case_b, best, 0.0), verts, case_b, code


def _max_block(ell: np.ndarray, alphas: np.ndarray):
    """Maximum turn angle at the first free vertex for a ``(P, K-1)``
    block of valid same-level prefixes.

    Candidate pair ``(J, branch)`` straightens the edges ``K..J-1`` into
    one run from the prefix endpoint and lays every edge after ``J`` flat
    along the x-axis into the origin; the run's end is one circle
    intersection.  Returns as :func:`_min_block` does, with the witness's
    ``j`` (see :class:`StretchedWitness`) in place of the case.
    """
    P, n, K = alphas.shape[0], ell.size, alphas.shape[1] + 1
    if K > n - 2:
        return _no_tail(P, n)
    front = chain_vertices(ell[:K], alphas)  # vertices 0..K-1 of each prefix
    pk = front[:, -1]
    ends = range(K + 1, n)  # J: the run covers edges K..J-1
    run_len = np.array([float(ell[K:J].sum()) for J in ends])
    t_len = np.array([float(ell[J + 1 :].sum()) for J in ends])
    centers = np.zeros((len(ends), 2))
    centers[:-1, 0] = -t_len[:-1]  # the last run ends at the origin's circle
    points, count, _ = _circle_points(pk[:, None], run_len, centers, ell[K + 1 :])
    u = (points - pk[:, None, None]) / run_len[:, None, None]
    built = (np.arange(2) < count[..., None]).reshape(P, -1)
    verts = np.empty((P, 2 * len(ends), n, 2))
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
    best, arg = _pick(theta[..., K - 1], ok, maximize=True)

    code = np.where(arg < 0, NO_MAX, 0).astype(np.int8)
    code[(built & degenerate).any(axis=1)] = ZERO_EDGE
    # two branches per run end; rows with an error are never read
    return best, verts[np.arange(P), arg], K + 1 + arg // 2, code


def _unit_scale(lengths: SideLengths) -> tuple[np.ndarray, int]:
    """The lengths times the power of two ``2**-e`` that brings the
    largest into [1, 2), and ``e``.

    The constructions square lengths, so they run at this scale, where
    nothing overflows or underflows, and :func:`_witness` takes their
    vertices back; ``ldexp`` is exact both ways, so angles and
    witnesses come out as at any scale a power of two away.
    """
    e = math.frexp(float(lengths.lengths.max()))[1] - 1
    return np.ldexp(lengths.lengths, -e), e


def _witness(kind: str, vertices: np.ndarray, theta_k, e: int, j=None):
    """A witness built at scale 1, with its vertices times ``2**e``."""
    chain = PolygonChain(np.ldexp(vertices, e))
    return StretchedWitness(kind, chain, float(theta_k), None if j is None else int(j))


def _intervals(lengths: SideLengths, alphas: np.ndarray):
    """Level intervals ``[nu, mu]`` of a ``(P, K-1)`` block of prefixes.

    Returns ``nu``, ``mu`` and a function that builds row ``r``'s
    ``(witness_min, witness_max)``, or raises what the scalar
    constructions would raise on the block's first failing row: a bad
    prefix first, then the minimum's error, then the maximum's.
    """
    ell, e = _unit_scale(lengths)
    rows, bad = _as_prefix_rows(alphas)
    t_min, v_min, case_b, min_code = _min_block(ell, rows)
    t_max, v_max, j, max_code = _max_block(ell, rows)
    _raise_first(np.column_stack((bad, min_code, max_code)))

    def witnesses(r: int):
        kind = MINIMAL_CASE_B if case_b[r] else MINIMAL_CASE_A
        return (
            _witness(kind, v_min[r], t_min[r], e),
            _witness(MAXIMAL, v_max[r], t_max[r], e, j[r]),
        )

    # a tiny negative end is construction noise on an exact zero
    nu, mu = (np.where(t < 0.0, 0.0, t) for t in (t_min, t_max))
    return nu, mu, witnesses


def _one(block, lengths: SideLengths, alpha):
    """Run a block kernel on a single prefix, raising its error.  Returns
    the row's outcome and the scale exponent of :func:`_witness`."""
    alpha = _as_prefix(alpha)
    _require_generic(lengths)
    _level_bounds(lengths, alpha.size + 1)
    ell, e = _unit_scale(lengths)
    theta, verts, tag, code = block(ell, alpha[None])
    _raise_first(code)
    return theta[0], verts[0], tag[0], e


def min_turn_angle(lengths: SideLengths, alpha) -> tuple[float, StretchedWitness]:
    """Smallest turn angle at the first free vertex over convex
    completions of the prefix.

    Builds the straight-tail candidate; a negative (or impossible) result
    there means the true minimum is zero, witnessed by re-running one
    level deeper with the angle pinned to zero.
    """
    theta, verts, case_b, e = _one(_min_block, lengths, alpha)
    kind = MINIMAL_CASE_B if case_b else MINIMAL_CASE_A
    return float(max(theta, 0.0)), _witness(kind, verts, theta, e)


def max_turn_angle(lengths: SideLengths, alpha) -> tuple[float, StretchedWitness]:
    """Largest turn angle at the first free vertex over convex
    completions of the prefix.

    Enumerates the terminal shapes: a straight run of edges from the
    prefix endpoint to some vertex j, with every vertex after j+1 flat
    (so the far tail lies on the x-axis into the origin).  Each shape is
    one circle intersection; invalid candidates are discarded and the
    best surviving turn angle wins.
    """
    theta, verts, j, e = _one(_max_block, lengths, alpha)
    return float(max(theta, 0.0)), _witness(MAXIMAL, verts, theta, e, j)


def contains_prefix(lengths: SideLengths, alpha) -> bool:
    """Whether every entry of the prefix sits inside its level interval."""
    alpha = _as_prefix(alpha)
    _require_generic(lengths)
    for m in range(alpha.size):
        try:
            nu, mu, _ = _intervals(lengths, alpha[None, :m])
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
    if not delta >= 0.0:
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
    if new_diag > min(a + b, c + d) * (1.0 + 1e-12):
        raise ValueError(
            "motion blocked: a turn angle would pass 0 before delta is used up"
        )
    u = (v3 - v1) / diag
    v3n = v1 + new_diag * u

    def reposition(v, r_near, r_far):
        points = circle_circle_intersection(v1, r_near, v3n, r_far)
        if not points:
            raise ValueError("motion blocked: sides cannot re-close")
        # v1 -> v3n points along v1 -> v3, so the left branch (listed first)
        # is the side of a vertex left of the old diagonal
        e, w = v3 - v1, v - v1
        left = e[0] * w[1] - e[1] * w[0] > 0.0
        return np.asarray(points[0] if left else points[-1])

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
    if grid < 2:
        raise ValueError("grid must be >= 2")

    def blocks(prefixes):
        return (prefixes[s : s + BLOCK] for s in range(0, len(prefixes), BLOCK))

    prefixes = np.zeros((1, 0))
    for _ in range(1, k):
        extended = []
        for block in blocks(prefixes):
            nu, mu, _ = _intervals(lengths, block)
            extended.append(_grid_rows(block, nu, mu, grid))
        prefixes = np.concatenate(extended)

    rows = []
    for block in blocks(prefixes):
        nu, mu, witnesses = _intervals(lengths, block)
        rows += [
            AtlasRow(alpha, float(a), float(b), *witnesses(r))
            for r, (alpha, a, b) in enumerate(zip(block, nu, mu))
        ]
    return AtlasSample(lengths=lengths, rows=rows)
