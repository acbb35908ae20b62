"""Predicates and enumeration over the configuration space of a linkage.

The configuration space of side lengths ``l`` is the set of all closed
planar chains realizing those lengths in the canonical frame.  This module
classifies configurations (embedded / winding / convex), detects
straight-line configurations exactly, rebuilds configurations from partial
turn-angle data, and provides the desk-scale brute-force enumeration oracle
that the constructive machinery is validated against.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .chain_geometry import (
    TANGENT_RTOL,
    TAU,
    PolygonChain,
    SideLengths,
    TurnAngles,
    chain_vertices,
    circle_circle_intersection,
    edge_turn_angles,
    embedded_mask,
    segment_intersection,  # noqa: F401  re-exported: perfbench/tracer.py counts calls here
    turn_angles_from_vertices,
    vertices_from_turn_angles,
)

WINDING_TOL = 1e-6
CONVEX_ANGLE_SLACK = 1e-9


class ClosureError(ValueError):
    """Partial angle data admits no closed configuration."""


@dataclass(frozen=True)
class ConfigClass:
    """Classification of a single configuration."""

    embedded: bool
    winding: float
    convex_ccw: bool


@dataclass(frozen=True)
class StraightLineReport:
    """Sign vectors epsilon in {+1,-1}^n with sum(eps_i * l_i) = 0.

    Only the representative with ``eps[0] == +1`` of each ``{eps, -eps}``
    pair is listed.  ``exact`` is True when membership was decided in exact
    rational arithmetic.
    """

    sign_vectors: tuple[tuple[int, ...], ...]
    exact: bool

    def __len__(self) -> int:
        return len(self.sign_vectors)


def classify(chain: PolygonChain) -> ConfigClass:
    """Classify a closed chain: embeddedness, winding, convexity.

    A chain is embedded when no two non-adjacent edges touch at all and no
    adjacent pair folds back onto itself (collinear overlap).  This is
    :func:`~polylink.chain_geometry.embedded_mask` on a batch of one, so
    the tolerance is per chain: orientation signs within ``ORIENT_EPS``
    times the squared largest absolute coordinate count as zero, exactly
    as in :func:`enumerate_configurations`.  Convexity additionally
    requires counterclockwise winding and no negative turn angle beyond a
    small slack.
    """
    angles = turn_angles_from_vertices(chain)
    embedded = bool(embedded_mask(chain.vertices[None])[0])
    winding = angles.winding
    convex = (
        embedded
        and abs(winding - TAU) <= WINDING_TOL
        and float(angles.angles.min()) >= -CONVEX_ANGLE_SLACK
    )
    return ConfigClass(embedded=embedded, winding=winding, convex_ccw=convex)


def is_feasible(lengths: SideLengths) -> bool:
    """True when some closed configuration exists (strict polygon
    inequality; equality admits only the straight configuration)."""
    ell = lengths.lengths
    return bool(ell.max() < ell.sum() - ell.max())


# Straight lines are found by meet-in-the-middle: each half of the lengths
# holds at most 2**22 signed sums, so n <= 45.
MAX_SIGN_HALF = 22
MAX_SIGN_N = 2 * MAX_SIGN_HALF + 1
MAX_LISTED = 1 << 20  # sign vectors one report may list
_SIGN_BATCH = 1 << 16  # sums searched, and candidates expanded, at once


def _signed_sums(ell: np.ndarray, first: float = 0.0) -> np.ndarray:
    """Every sum ``first + sum(eps_i * ell_i)``, in lexicographic order of
    the signs with -1 before +1, ``ell[0]`` most significant.  Each sum is
    added up one term at a time."""
    sums = np.empty(1 << ell.size)
    sums[0] = first
    size = 1
    for length in ell[::-1]:  # the last length doubles first: least significant
        np.add(sums[:size], length, out=sums[size : 2 * size])
        sums[:size] -= length
        size *= 2
    return sums


def _straight_lines(lengths: SideLengths, tolerance: float | None):
    """Yield ``(index, sign vector)`` for every ``eps`` with ``eps[0] = +1``
    and ``|sum(eps_i * l_i)| <= tolerance``, confirmed exactly.

    ``index`` is the rank of ``eps[1:]`` in lexicographic order (-1
    before +1); the vectors come in no particular order.
    """
    n = lengths.n
    if n > MAX_SIGN_N:
        raise ValueError(
            f"sign enumeration is limited to n <= {MAX_SIGN_N} "
            f"(2**{MAX_SIGN_HALF} signed sums per half)"
        )
    ell = lengths.lengths
    if tolerance is None:
        tolerance = 1e-9 * lengths.perimeter
    if tolerance < 0:
        raise ValueError("tolerance must be nonnegative")

    # Half A is lengths 0..h-1 with eps[0] = +1, half B the rest; a sign
    # vector's index is (index in A) * 2**(n-h) + (index in B).
    h = (n + 1) // 2
    a_sums = _signed_sums(ell[1:h], first=float(ell[0]))
    a_order = np.argsort(a_sums)
    a_sorted = a_sums[a_order]
    del a_sums
    b_sums = _signed_sums(ell[h:])
    # search in decreasing b, so the window ends -b -+ T increase: sorted
    # search keys let searchsorted reuse the previous position
    b_order = np.argsort(b_sums)[::-1]
    b_sums = b_sums[b_order]
    # Float window.  Each half sum adds at most n terms one at a time, so
    # with u = eps/2 its error is at most 1.01 * n * u times the sum of
    # its lengths, and the two errors together at most 1.01 * n * u * S,
    # S the perimeter (the float perimeter is within the same factor of
    # the exact one).  The window ends -b -+ T, with T = tolerance +
    # margin, each round by at most u * (S + T).  A pair with
    # |a + b| <= tolerance in exact arithmetic therefore lies inside the
    # float window whenever margin >= (n + 4) * u * (S + tolerance),
    # which 16 * n * eps * (S + tolerance) exceeds over thirteen times.
    margin = 16 * np.finfo(float).eps * n * (lengths.perimeter + tolerance)
    window = tolerance + margin

    # exact confirmation: every double is an integer over a power of two
    ratios = [float(x).as_integer_ratio() for x in ell]
    den = max(q for _, q in ratios)
    nums = [p * (den // q) for p, q in ratios]
    tol_p, tol_q = float(tolerance).as_integer_ratio()
    shift = n - h
    powers = np.arange(n - 2, -1, -1)

    for start in range(0, b_sums.size, _SIGN_BATCH):
        b = b_sums[start : start + _SIGN_BATCH]
        lo = np.searchsorted(a_sorted, -b - window, side="left")
        count = np.searchsorted(a_sorted, -b + window, side="right") - lo
        for rows, pos in _expand(lo, count):
            index = (a_order[pos] << shift) | b_order[start + rows]
            bits = (index[:, None] >> powers) & 1
            for idx, row in zip(index.tolist(), bits.tolist()):
                vec = (1, *(2 * bit - 1 for bit in row))
                total = sum(v if s > 0 else -v for v, s in zip(nums, vec))
                if abs(total) * tol_q <= tol_p * den:
                    yield idx, vec


def _expand(lo: np.ndarray, count: np.ndarray):
    """Pairs ``(i, lo[i] + j)`` for ``j < count[i]``, as two arrays, at
    most ``_SIGN_BATCH`` pairs at a time."""
    total = int(count.sum())
    if not total:
        return
    if total <= _SIGN_BATCH:
        rows = np.repeat(np.arange(count.size), count)
        first = np.cumsum(count) - count
        yield rows, np.arange(total) - np.repeat(first - lo, count)
        return
    for i in np.flatnonzero(count):  # wide windows: many equal sums
        for s in range(0, int(count[i]), _SIGN_BATCH):
            pos = lo[i] + np.arange(s, min(s + _SIGN_BATCH, int(count[i])))
            yield np.full(pos.size, i), pos


def straight_line_sign_vectors(
    lengths: SideLengths, tolerance: float | None = None
) -> StraightLineReport:
    """All sign vectors with ``|sum(eps_i * l_i)| <= tolerance``.

    Meet in the middle (Horowitz and Sahni, J. ACM 21(2), 1974): the
    signed sums of each half of the lengths are listed, one half sorted,
    and each sum of the other half looks up the partners that bring the
    total within the tolerance plus a float error margin.  Candidates are
    then confirmed in exact rational arithmetic (every finite double is a
    ratio of integers), so the default report is exact.  Time and memory
    grow as ``2**(n/2)``; ``n`` is limited to ``MAX_SIGN_N`` = 45, and a
    report lists at most ``MAX_LISTED`` vectors (equal lengths can have
    exponentially many).  The vectors are listed in lexicographic order of
    ``eps`` (-1 before +1).  The default tolerance is ``1e-9`` of the
    perimeter.
    """
    found = []
    for item in _straight_lines(lengths, tolerance):
        found.append(item)
        if len(found) > MAX_LISTED:
            raise ValueError(
                f"more than {MAX_LISTED} straight-line sign vectors to list"
            )
    found.sort()
    return StraightLineReport(sign_vectors=tuple(v for _, v in found), exact=True)


def is_generic(lengths: SideLengths, tolerance: float | None = None) -> bool:
    """True when no straight-line configuration exists, in which case the
    configuration space is a smooth manifold of dimension n - 3.  Stops at
    the first straight line found."""
    return next(_straight_lines(lengths, tolerance), None) is None


def closures_for_free_angles(
    lengths: SideLengths, free_angles
) -> list[PolygonChain]:
    """Closed chains realizing the given first ``n - 3`` turn angles.

    The last two vertices form an elbow solved by circle intersection;
    both elbow branches (0 or 1 of which may exist) are returned in
    deterministic order (left-of-line branch first).
    """
    ell = lengths.lengths
    n = lengths.n
    free = np.asarray(free_angles, dtype=float)
    if free.size != n - 3:
        raise ValueError(f"expected {n - 3} free angles, got {free.size}")
    front = chain_vertices(ell[: n - 2], free)  # vertices 0 .. n-3
    anchor = front[-1]
    if math.hypot(*anchor) <= TANGENT_RTOL * (ell[n - 2] + ell[n - 1]):
        return []  # elbow circles concentric: degenerate, no discrete branch
    points = circle_circle_intersection(anchor, ell[n - 2], (0.0, 0.0), ell[n - 1])
    chains = []
    for pt in points:
        verts = np.vstack((front, pt, (0.0, 0.0)))
        chains.append(PolygonChain(verts))
    return chains


@dataclass(frozen=True)
class ConfigRecord:
    """One sampled configuration, fully materialized."""

    free_values: np.ndarray
    branch: int
    angles: TurnAngles
    chain: PolygonChain
    config_class: ConfigClass


@dataclass(eq=False)
class ConfigSampleSet:
    """Brute-force sample of the configuration space on a free-angle grid.

    Stored column-wise for memory economy at fine grids; use
    :meth:`config` to materialize one sample (vertices are rebuilt from
    the stored turn angles).  Samples appear in grid-major, branch-minor
    order.  ``free_indices``, ``branch``, ``angles``, ``winding`` and
    ``convex_ccw`` are computed by :func:`enumerate_configurations`,
    which allocates each column once at its final size and fills it pass
    by pass: turn angles ``0 .. n-5`` once per prefix of the first
    ``n - 4`` free angles, angle ``n - 4`` once per grid point, angles
    ``n-3 .. n-1``, winding and convexity per row.  The sweep's memory
    is this result plus 16 bytes per grid point.  ``embedded`` is
    computed from the stored angles when first read, in passes of
    ``pass_rows`` chains, and then kept.  Each pass holds about 170 bytes
    per (chain, non-adjacent edge pair) in temporaries: about 22 MB at
    the default ``chunk`` of :func:`enumerate_configurations`.
    """

    lengths: SideLengths
    grid_per_angle: int
    free_indices: np.ndarray  # (M, n-3) int32, grid index per free angle
    branch: np.ndarray  # (M,) int8
    angles: np.ndarray  # (M, n) float
    winding: np.ndarray  # (M,)
    convex_ccw: np.ndarray  # (M,) bool
    pass_rows: int  # chains per embeddedness pass

    def __len__(self) -> int:
        return int(self.branch.size)

    @cached_property
    def embedded(self) -> np.ndarray:
        """(M,) bool: embeddedness of every stored configuration."""
        return _embedded_rows(self.lengths.lengths, self.angles, self.pass_rows)

    def free_values(self, i: int) -> np.ndarray:
        n3 = self.free_indices.shape[1]
        return self.angles[i, :n3].copy()

    def chain(self, i: int) -> PolygonChain:
        chain, _ = vertices_from_turn_angles(self.lengths, self.angles[i])
        return chain

    def config(self, i: int) -> ConfigRecord:
        if "embedded" in self.__dict__:
            embedded = bool(self.embedded[i])
        else:  # one row: the tolerance is per chain, so the answer is the same
            row = _embedded_rows(self.lengths.lengths, self.angles[[i]], 1)
            embedded = bool(row[0])
        return ConfigRecord(
            free_values=self.free_values(i),
            branch=int(self.branch[i]),
            angles=TurnAngles(self.angles[i].copy()),
            chain=self.chain(i),
            config_class=ConfigClass(
                embedded=embedded,
                winding=float(self.winding[i]),
                convex_ccw=bool(self.convex_ccw[i]),
            ),
        )


def _embedded_rows(
    ell: np.ndarray, angles: np.ndarray, pass_rows: int
) -> np.ndarray:
    """:func:`~polylink.chain_geometry.embedded_mask` of the chains rebuilt
    from ``angles`` (the chains :meth:`ConfigSampleSet.chain` returns),
    ``pass_rows`` chains at a time."""
    out = np.empty(len(angles), dtype=bool)
    for s in range(0, len(angles), pass_rows):
        part = angles[s : s + pass_rows, : ell.size - 1]
        out[s : s + pass_rows] = embedded_mask(chain_vertices(ell, part))
    return out


def _prefixes(ell: np.ndarray, grids: list[np.ndarray]):
    """Per-prefix work of the sweep.

    A prefix fixes the first ``n - 4`` free angles (none for n <= 4), one
    value from each of ``grids``; prefixes are ranked in lexicographic
    order of their grid indices.  Returns, for each prefix, vertex
    ``n - 4`` (the origin for n = 3), the heading of edge ``n - 3``
    before the last free angle turns it, the edges ``0 .. n-4`` and the
    turn angles ``0 .. n-5``, with shapes ``(2, P)``, ``(P,)``,
    ``(2, P, n-3)`` and ``(P, n-4)``; n = 3 has no prefix edges or turn
    angles.  The vertices are those of
    :func:`~polylink.chain_geometry.chain_vertices`, the heading is the
    sum ``np.cumsum`` forms there, and edges and turn angles are the
    subtractions and formula of
    :func:`~polylink.chain_geometry.turn_angle_array`, so every value has
    the bits the full chain would give it.
    """
    n = ell.size
    rank = np.arange(math.prod(g.size for g in grids))
    free = np.empty((rank.size, len(grids)))
    for a in range(len(grids) - 1, -1, -1):
        free[:, a] = grids[a][rank % grids[a].size]
        rank //= grids[a].size
    # the origin (vertex n - 1, where the chain closes), then vertices 0 .. n-4
    chain = np.concatenate(
        (np.zeros((len(free), 1, 2)), chain_vertices(ell[: n - 3], free)), axis=1
    )
    chain = np.moveaxis(chain, -1, 0)  # (2, P, n-2): x and y
    heading = np.full(len(free), -0.0)  # -0.0 + x is x, bit for bit
    for a in range(len(grids)):
        heading += free[:, a]
    edges = np.diff(chain, axis=-1)
    turns = edge_turn_angles(edges[..., :-1], edges[..., 1:])
    return chain[..., -1], heading, edges, turns


def _closable(anchor: np.ndarray, r1: float, r2: float, tol: float):
    """Grid points whose elbow circles meet: their positions in
    ``anchor`` (vertex ``n - 3``, shape ``(2, m)``), their distance from
    the origin and whether the circles are tangent."""
    d = np.hypot(anchor[0], anchor[1])
    fi = np.nonzero((d > tol) & (d <= r1 + r2 + tol) & (d >= abs(r1 - r2) - tol))[0]
    d = d[fi]
    tangent = (np.abs(d - (r1 + r2)) <= tol) | (np.abs(d - abs(r1 - r2)) <= tol)
    return fi, d, tangent


def _elbows(vertex: np.ndarray, d: np.ndarray, tangent: np.ndarray, r1, r2):
    """Rows of the closable grid points: each one's position in
    ``vertex`` (vertex ``n - 3``, shape ``(2, m)``, at distance ``d``
    from the origin), its elbow branch, and the elbow vertex ``n - 2``,
    shape ``(2, rows)``.  Branch 1 is dropped at a tangency (branch 0
    already emits it), so rows come out grid-major, branch-minor."""
    a_par = (d * d + r1 * r1 - r2 * r2) / (2.0 * d)
    h_sq = np.maximum(r1 * r1 - a_par * a_par, 0.0)
    h = np.where(tangent, 0.0, np.sqrt(h_sq))
    u = -vertex / d
    foot = vertex + a_par * u
    normal = np.stack((-u[1], u[0]))
    keep = np.column_stack((np.ones(d.size, dtype=bool), ~tangent))
    point, branch_id = np.nonzero(keep)
    elbow = np.stack((foot + h * normal, foot - h * normal), axis=-1)
    elbow = elbow.reshape(2, -1).compress(keep.ravel(), axis=1)
    return point, branch_id.astype(np.int8), elbow


def enumerate_configurations(
    lengths: SideLengths,
    grid_per_angle: int,
    chunk: int = 1 << 17,
    windows: list[tuple[float, float] | None] | None = None,
) -> ConfigSampleSet:
    """Sweep a uniform grid over the free turn angles and close each chain.

    By default the first ``n - 3`` turn angles range over a grid of
    ``grid_per_angle`` values in ``(-pi, pi]`` (the endpoint ``pi`` is
    included exactly so fold configurations are hit).  ``windows`` may
    restrict individual angles to closed intervals, sampled inclusively
    at the same count; entries of ``None`` keep the full circle.  Each
    grid point contributes one closed configuration per elbow branch
    whose closing circles intersect; a tangency contributes a single
    configuration.  Supported for ``3 <= n <= 6`` by design: this is the
    desk-scale oracle.

    The sweep computes the grid indices, branches, turn angles, winding
    and ``convex_ccw``.  Each piece of work is done where its inputs
    vary:

    * per prefix (the first ``n - 4`` free angles): vertices ``0 ..
      n-4``, their heading sum and turn angles ``0 .. n-5``;
    * per grid point (a prefix and the last free angle): vertex
      ``n - 3``, one addition past the prefix, whether and how the elbow
      closes, and turn angle ``n - 4``;
    * per row (grid point and elbow branch): the elbow vertex and turn
      angles ``n-3 .. n-1``, from the edges around it.

    The values are the bits that rebuilding each row's full chain and
    calling :func:`~polylink.chain_geometry.turn_angle_array` would give.
    A counting pass stores vertex ``n - 3`` of every grid point and sizes
    the columns; a second pass fills them.  Besides the result, memory
    holds those 16 bytes per grid point, a few numbers per prefix and one
    pass's temporaries, which ``chunk`` bounds.

    Convexity is decided by the turn-angle test (winding ``2 pi``, no
    negative angle beyond a slack) first, and only the rows that pass it
    are tested for embeddedness; the ``embedded`` column of the result is
    computed when first read.  Either way a configuration is classified
    on the chain rebuilt from its stored turn angles, the chain
    :meth:`ConfigSampleSet.chain` returns, so it agrees with
    :func:`classify` of that chain.
    """
    n = lengths.n
    if not 3 <= n <= 6:
        raise ValueError("the enumeration oracle supports 3 <= n <= 6")
    if grid_per_angle < 1:
        raise ValueError("grid_per_angle must be >= 1")
    ell = lengths.lengths
    n3 = n - 3
    full = -math.pi + TAU * np.arange(1, grid_per_angle + 1) / grid_per_angle
    if windows is None:
        grids = [full] * n3
    else:
        if len(windows) != n3:
            raise ValueError(f"windows must list {n3} entries")
        grids = [
            full
            if w is None
            else np.linspace(float(w[0]), float(w[1]), grid_per_angle)
            for w in windows
        ]

    total = grid_per_angle**n3
    r1, r2 = float(ell[n - 2]), float(ell[n - 1])
    tol = TANGENT_RTOL * (r1 + r2)
    slack = -CONVEX_ANGLE_SLACK
    # pass sizes: an embeddedness pass tests ``step`` chains, so its
    # temporaries hold one entry per (chain, non-adjacent edge pair), at
    # most ``chunk`` of them, at about 170 bytes each (22 MB per pass at
    # the default chunk, n = 5); a sweep pass closes ``sweep`` grid points,
    # and its temporaries hold at most about 32 numbers per grid point
    step = max(chunk // max(n * (n - 3) // 2, 1), 1)
    sweep = max(chunk // 32, 1)
    passes = [(s, min(s + sweep, total)) for s in range(0, total, sweep)]

    # a grid point is a prefix and a last free angle; for n = 3 the one
    # grid point has no free angle, and edge 0 heads along +x
    base, heading, edges, turns = _prefixes(ell, grids[:-1])
    last = grids[-1] if n3 else np.zeros(1)
    anchors = np.empty((2, total))  # vertex n - 3 of every grid point

    def count(start, stop):
        """Store vertex n - 3 of grid points start .. stop - 1; count
        their rows."""
        pre, j = np.divmod(np.arange(start, stop), last.size)
        h = heading.take(pre) + last.take(j)
        anchor = anchors[:, start:stop]
        np.multiply(ell[n - 3], (np.cos(h), np.sin(h)), out=anchor)
        anchor += base.take(pre, axis=1)  # as np.cumsum adds in chain_vertices
        fi, _, tangent = _closable(anchor, r1, r2, tol)
        return fi.size + int(np.count_nonzero(~tangent))

    def fill(start, stop, end):
        """Fill the rows of grid points start .. stop - 1, from row end
        on; returns the row after them."""
        anchor = anchors[:, start:stop]
        fi, dl, tangent = _closable(anchor, r1, r2, tol)
        vertex = anchor.take(fi, axis=1)  # vertex n - 3 where the elbow closes
        point, branch_id, elbow = _elbows(vertex, dl, tangent, r1, r2)
        out = slice(end, end + point.size)
        branch[out] = branch_id
        cell = start + fi.take(point)
        for a in range(n3 - 1, -1, -1):
            free_indices[out, a] = cell % grid_per_angle
            cell //= grid_per_angle

        # per grid point: edge n - 3 and turn angles 0 .. n-4, the
        # prefix's and the one where edge n - 3 leaves it (none for n = 3)
        pre = (start + fi) // last.size
        mid = vertex - base.take(pre, axis=1)
        joint = edge_turn_angles(edges[..., -1:].take(pre, axis=1), mid[..., None])
        front = np.concatenate((turns.take(pre, axis=0), joint), axis=1)
        ang = angles[out]
        ang[:, :n3] = front.take(point, axis=0)
        ok = (front >= slack).all(axis=1).take(point)
        # edge 0 closes the cycle; for n = 3 it is edge n - 3 itself
        wrap = edges[..., 0].take(pre, axis=1) if n > 3 else mid

        # per row: the edges into and out of the elbow, and turn angles
        # n-3 .. n-1
        into = elbow - vertex.take(point, axis=1)
        close = np.subtract(0.0, elbow, out=elbow)  # edge n - 1, into the origin
        pairs = (
            (mid.take(point, axis=1), into),
            (into, close),
            (close, wrap.take(point, axis=1)),
        )
        for col, (e, nxt) in enumerate(pairs, n3):
            ang[:, col] = edge_turn_angles(e, nxt)
            ok &= ang[:, col] >= slack

        winding[out] = ang.sum(axis=1)
        ok &= np.abs(winding[out] - TAU) <= WINDING_TOL
        cand = np.nonzero(ok)[0]
        convex[out][cand] = _embedded_rows(ell, ang[cand], step)
        return out.stop

    size = sum(count(start, stop) for start, stop in passes)
    free_indices = np.empty((size, n3), dtype=np.int32)
    branch = np.empty(size, dtype=np.int8)
    angles = np.empty((size, n))
    winding = np.empty(size)
    convex = np.zeros(size, dtype=bool)
    end = 0
    for start, stop in passes:
        end = fill(start, stop, end)

    return ConfigSampleSet(
        lengths=lengths,
        grid_per_angle=grid_per_angle,
        free_indices=free_indices,
        branch=branch,
        angles=angles,
        winding=winding,
        convex_ccw=convex,
        pass_rows=step,
    )


def choose_qrs(angles: TurnAngles) -> tuple[int, int, int]:
    """Pick three omitted indices for partial-angle reconstruction.

    Takes the three largest-magnitude turn angles (well-separated angles
    make the circle intersection robust) and returns them in increasing
    index order.  All three must be nonzero.
    """
    mags = np.abs(angles.angles)
    order = np.argsort(-mags, kind="stable")[:3]
    q, r, s = sorted(int(i) for i in order)
    if mags[[q, r, s]].min() <= 1e-12:
        raise ValueError("need three nonzero turn angles to drop")
    return q, r, s


def _rotated(points: np.ndarray, phi: float) -> np.ndarray:
    """Rows of ``(k, 2)`` points rotated counterclockwise by ``phi``."""
    c, si = math.cos(phi), math.sin(phi)
    return points @ np.array([[c, si], [-si, c]])


def reconstruct_from_partial_angles(
    lengths: SideLengths,
    partial: dict[int, float],
    q: int,
    r: int,
    s: int,
    orientation: int,
) -> PolygonChain:
    """Assemble a closed chain from all turn angles except three.

    ``partial`` maps vertex index -> turn angle for every vertex except
    ``q < r < s`` (0-based).  The three known-rigid subchains between the
    omitted vertices are rebuilt, the subchain through the frame edge is
    pinned to the canonical frame, and the remaining junction vertex ``r``
    is placed by circle intersection on the side selected by
    ``orientation`` (the sign of the triple ``(v_q, v_r, v_s)``).
    """
    n = lengths.n
    ell = lengths.lengths
    if not 0 <= q < r < s < n:
        raise ValueError("need 0 <= q < r < s < n")
    if orientation not in (-1, 1):
        raise ValueError("orientation must be +1 or -1")
    expected = set(range(n)) - {q, r, s}
    if set(partial) != expected:
        raise ValueError(
            f"partial angles must cover exactly the indices {sorted(expected)}"
        )

    pos = np.full((n, 2), np.nan)
    pos[n - 1] = (0.0, 0.0)
    # forward along the frame subchain: vertices 0..q
    pos[: q + 1] = chain_vertices(ell[: q + 1], [partial[i] for i in range(q)])
    # backward from the origin corner: vertices n-2..s, laid out as the
    # reversed subchain and turned onto the heading of its first edge
    if s < n - 1:
        back = chain_vertices(
            ell[n - 1 : s : -1], [-partial[i] for i in range(n - 2, s, -1)]
        )
        pos[s : n - 1] = _rotated(back, math.pi - partial[n - 1])[::-1]

    # the two middle subchains, each laid out from its first vertex
    mid1 = chain_vertices(ell[q + 1 : r + 1], [partial[i] for i in range(q + 1, r)])
    mid2 = chain_vertices(ell[r + 1 : s + 1], [partial[i] for i in range(r + 1, s)])
    d_qr = float(math.hypot(*mid1[-1]))
    d_rs = float(math.hypot(*mid2[-1]))

    points = circle_circle_intersection(pos[q], d_qr, pos[s], d_rs)
    if not points:
        raise ClosureError("the partial angles admit no closed configuration")
    if len(points) == 1:
        # tangent junction: the triple is collinear, no orientation picks a side
        raise ClosureError("ambiguous tangency: junction orientation undefined")
    chosen = None
    for pt in points:
        # cross(v_r - v_q, v_s - v_q): positive for a counterclockwise triple
        cr = (pt[0] - pos[q][0]) * (pos[s][1] - pos[q][1]) - (
            pt[1] - pos[q][1]
        ) * (pos[s][0] - pos[q][0])
        sign = 1 if cr > 0 else (-1 if cr < 0 else 0)
        if sign == orientation:
            chosen = np.asarray(pt)
            break
    if chosen is None:
        raise ClosureError("no junction placement matches the requested orientation")
    pos[r] = chosen

    for (a, b, local) in ((q, r, mid1), (r, s, mid2)):
        chord = pos[b] - pos[a]
        phi = math.atan2(chord[1], chord[0]) - math.atan2(
            local[-1][1], local[-1][0]
        )
        pos[a + 1 : b] = pos[a] + _rotated(local[:-1], phi)

    return PolygonChain(pos)
