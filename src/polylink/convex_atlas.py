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

Also here: the expansive quadrilateral move (the elementary step that
deforms one convex polygon into another through convex states), prefix
membership testing, and grid sampling of the atlas.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .chain_geometry import (
    TAU,
    PolygonChain,
    SideLengths,
    chain_vertices,
    circle_circle_intersection,
    turn_angles_from_vertices,
)
from .config_space import is_generic

ANGLE_SLACK = 1e-9  # tolerance below 0 / above pi for convexity checks
FLAT_TOL = 1e-7  # |turn| below this counts as a flat vertex in witnesses
TIE_TOL = 1e-9

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


def _angles_ok(theta: np.ndarray, skip: int | None = None) -> bool:
    """All turn angles convex (in [0, pi) within slack), optionally not
    judging the angle at index ``skip``."""
    for i, t in enumerate(theta):
        if i == skip:
            continue
        if t < -ANGLE_SLACK or t >= math.pi - ANGLE_SLACK:
            return False
    return True


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


def _min_candidates(ell: np.ndarray, alpha: np.ndarray) -> list[PolygonChain]:
    """Chains with the tail past the free vertex pulled straight.

    May be empty: a tail too long to straighten from anywhere on the
    reachable circle leaves no candidate, which forces the minimum turn
    angle to zero (handled by the caller's case split).
    """
    n = ell.size
    K = alpha.size + 1
    P = chain_vertices(ell[:K], alpha)  # vertices 0..K-1 of the pinned prefix
    pk = P[-1]
    r1 = float(ell[K])
    tail = float(ell[K + 1 :].sum())
    d = math.hypot(pk[0], pk[1])
    tol = 1e-9 * (r1 + tail)
    if d > r1 + tail + tol:
        raise PrefixError(
            "prefix endpoint cannot reach closure even with a straight tail"
        )
    if d < tail - r1 - tol:
        return []
    try:
        points = circle_circle_intersection(pk, r1, (0.0, 0.0), tail)
    except ValueError:
        return []
    chains = []
    for pt in points:
        pt = np.asarray(pt)
        span = math.hypot(pt[0], pt[1])
        if span <= 0.0:
            continue
        u = -pt / span
        run = np.cumsum(ell[K + 1 : n - 1]) if K + 1 < n - 1 else np.zeros(0)
        tail_verts = pt[None, :] + run[:, None] * u[None, :]
        verts = np.vstack((P, pt, tail_verts, (0.0, 0.0)))
        chains.append(PolygonChain(verts))
    return chains


def min_turn_angle(
    lengths: SideLengths, alpha, _internal: bool = False
) -> tuple[float, StretchedWitness]:
    """Smallest turn angle at the first free vertex over convex
    completions of the prefix.

    Builds the straight-tail candidate; a negative (or impossible) result
    there means the true minimum is zero, witnessed by re-running one
    level deeper with the angle pinned to zero.
    """
    alpha = _as_prefix(alpha)
    n = lengths.n
    K = alpha.size + 1
    if not _internal:
        _require_generic(lengths)
        _level_bounds(lengths, K)
    if K > n - 2:
        raise PrefixError("no free tail left to stretch at this level")
    ell = lengths.lengths

    best: tuple[float, PolygonChain] | None = None
    tie = False
    for chain in _min_candidates(ell, alpha):
        theta = turn_angles_from_vertices(chain).angles
        if not _angles_ok(theta, skip=K - 1):
            continue
        t_k = float(theta[K - 1])
        if t_k >= math.pi - ANGLE_SLACK:
            continue
        if best is None or t_k < best[0] - TIE_TOL:
            best = (t_k, chain)
        elif abs(t_k - best[0]) <= TIE_TOL:
            tie = True

    if best is not None and best[0] >= -ANGLE_SLACK:
        # the minimum over convex completions is nonnegative by definition;
        # a tiny negative here is construction noise on an exact zero
        return max(best[0], 0.0), StretchedWitness(
            kind=MINIMAL_CASE_B, chain=best[1], theta_k=best[0], tie=tie
        )

    # case (a): some convex completion is flat here; witness by pinning 0
    zero_prefix = np.append(alpha, 0.0)
    try:
        _, deeper = min_turn_angle(lengths, zero_prefix, _internal=True)
    except PrefixError as exc:
        raise PrefixError(
            "prefix admits no convex completion (flat-pin failed)"
        ) from exc
    return 0.0, StretchedWitness(
        kind=MINIMAL_CASE_A, chain=deeper.chain, theta_k=0.0
    )


def max_turn_angle(
    lengths: SideLengths, alpha, _internal: bool = False
) -> tuple[float, StretchedWitness]:
    """Largest turn angle at the first free vertex over convex
    completions of the prefix.

    Enumerates the terminal shapes: a straight run of edges from the
    prefix endpoint to some vertex j, with every vertex after j+1 flat
    (so the far tail lies on the x-axis into the origin).  Each shape is
    one circle intersection; invalid candidates are discarded and the
    best surviving turn angle wins.
    """
    alpha = _as_prefix(alpha)
    n = lengths.n
    K = alpha.size + 1
    if not _internal:
        _require_generic(lengths)
        _level_bounds(lengths, K)
    if K > n - 2:
        raise PrefixError("no free tail left to stretch at this level")
    ell = lengths.lengths
    P = chain_vertices(ell[:K], alpha)  # vertices 0..K-1 of the pinned prefix
    pk = P[-1]

    best: tuple[float, int, PolygonChain] | None = None
    tie = False
    for J in range(K + 1, n):
        run_len = float(ell[K:J].sum())
        if J <= n - 2:
            t_len = float(ell[J + 1 :].sum())
            center2 = np.array([-t_len, 0.0])
            r2 = float(ell[J])
        else:
            t_len = 0.0
            center2 = np.zeros(2)
            r2 = float(ell[n - 1])
        try:
            points = circle_circle_intersection(pk, run_len, center2, r2)
        except ValueError:
            continue
        for pt in points:
            pt = np.asarray(pt)
            u = (pt - pk) / run_len
            run = np.cumsum(ell[K : J - 1]) if K < J - 1 else np.zeros(0)
            run_verts = pk[None, :] + run[:, None] * u[None, :]
            if J <= n - 2:
                flat = (
                    np.cumsum(ell[J + 1 : n - 1])
                    if J + 1 < n - 1
                    else np.zeros(0)
                )
                tail_verts = np.column_stack(
                    (-t_len + flat, np.zeros(flat.size))
                )
                verts = np.vstack(
                    (P, run_verts, pt, center2, tail_verts, (0.0, 0.0))
                )
            else:
                verts = np.vstack((P, run_verts, pt, (0.0, 0.0)))
            chain = PolygonChain(verts)
            theta = turn_angles_from_vertices(chain).angles
            if not _angles_ok(theta):
                continue
            t_k = float(theta[K - 1])
            if best is None or t_k > best[0] + TIE_TOL:
                best = (t_k, J, chain)
            elif abs(t_k - best[0]) <= TIE_TOL and J != best[1]:
                tie = True

    if best is None:
        raise PrefixError(
            "no valid maximally stretched candidate: prefix lies on the "
            "boundary of feasibility"
        )
    return max(best[0], 0.0), StretchedWitness(
        kind=MAXIMAL, chain=best[2], theta_k=best[0], j=best[1], tie=tie
    )


def contains_prefix(lengths: SideLengths, alpha, tol: float = 1e-9) -> bool:
    """Whether every entry of the prefix sits inside its level interval."""
    alpha = _as_prefix(alpha)
    _require_generic(lengths)
    for m in range(alpha.size):
        head = alpha[:m]
        try:
            nu, _ = min_turn_angle(lengths, head, _internal=True)
            mu, _ = max_turn_angle(lengths, head, _internal=True)
        except PrefixError:
            return False
        if not (nu - tol <= alpha[m] <= mu + tol):
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


def sample_atlas(lengths: SideLengths, k: int, grid: int) -> AtlasSample:
    """Sample the interval tower of convex prefixes up to level ``k``.

    Level 1 is a single interval; each deeper level grids the interval of
    every node and recurses, so the result has ``grid**(k-1)`` rows, each
    holding the interval and witnesses of one sampled prefix.  Node order
    is depth-first (deterministic).
    """
    _require_generic(lengths)
    _level_bounds(lengths, k)
    if grid < 2 and k > 1:
        raise ValueError("grid must be >= 2 to sample intermediate levels")

    prefixes: list[np.ndarray] = [np.zeros(0)]
    for _ in range(1, k):
        extended: list[np.ndarray] = []
        for alpha in prefixes:
            nu, _ = min_turn_angle(lengths, alpha, _internal=True)
            mu, _ = max_turn_angle(lengths, alpha, _internal=True)
            for t in np.linspace(nu, mu, grid):
                extended.append(np.append(alpha, t))
        prefixes = extended

    rows = []
    for alpha in prefixes:
        nu, wmin = min_turn_angle(lengths, alpha, _internal=True)
        mu, wmax = max_turn_angle(lengths, alpha, _internal=True)
        rows.append(
            AtlasRow(prefix=alpha, nu=nu, mu=mu, witness_min=wmin, witness_max=wmax)
        )
    return AtlasSample(lengths=lengths, k=k, grid=grid, rows=rows)
