import math

import numpy as np
import pytest

import polylink as pl

from conftest import random_convex_quadrilateral, random_generic_lengths

TAU = 2.0 * math.pi


class TestMinTurnAngle:
    def test_rigid_triangle(self):
        nu, w = pl.min_turn_angle(pl.SideLengths([1, 1, 1]), [])
        assert abs(nu - TAU / 3) < 1e-12
        assert w.kind == "minimal_case_b"

    def test_right_triangle(self):
        nu, _ = pl.min_turn_angle(pl.SideLengths([3, 4, 5]), [])
        assert abs(nu - math.pi / 2) < 1e-12

    def test_2221_law_of_cosines(self):
        nu, w = pl.min_turn_angle(pl.SideLengths([2, 2, 2, 1]), [])
        assert abs(nu - (math.pi - math.acos(-1 / 8))) < 1e-9
        # the straight-tail witness has a flat interior tail vertex
        theta = pl.turn_angles_from_vertices(w.chain).angles
        assert abs(theta[2]) < 1e-7
        assert pl.classify(w.chain).convex_ccw

    def test_pentagon_case_a(self):
        nu, w = pl.min_turn_angle(pl.SideLengths([1, 1, 1, 1, 1]), [])
        assert nu == 0.0
        assert w.kind == "minimal_case_a"
        assert pl.classify(w.chain).convex_ccw
        theta = pl.turn_angles_from_vertices(w.chain).angles
        assert abs(theta[0]) < 1e-9

    def test_nongeneric_rejected(self):
        with pytest.raises(ValueError, match="generic"):
            pl.min_turn_angle(pl.SideLengths([6, 4, 2, 4]), [])


class TestMaxTurnAngle:
    def test_rigid_triangle_equals_min(self):
        mu, _ = pl.max_turn_angle(pl.SideLengths([1, 1, 1]), [])
        assert abs(mu - TAU / 3) < 1e-12

    def test_2221_hand_circle_intersection(self):
        mu, w = pl.max_turn_angle(pl.SideLengths([2, 2, 2, 1]), [])
        assert abs(mu - math.atan2(math.sqrt(1.75), -1.5)) < 1e-9
        assert w.j == 2
        assert np.allclose(w.chain.vertices[2], (-1.0, 0.0), atol=1e-12)
        assert np.allclose(
            w.chain.vertices[1], (0.5, math.sqrt(1.75)), atol=1e-12
        )
        assert pl.classify(w.chain).convex_ccw

    def test_2221_interval_nondegenerate(self):
        lengths = pl.SideLengths([2, 2, 2, 1])
        nu, _ = pl.min_turn_angle(lengths, [])
        mu, _ = pl.max_turn_angle(lengths, [])
        assert abs((mu - nu) - 0.9733899101495464) < 1e-9

    def test_maximal_witness_tail_structure(self):
        # at most two consecutive non-flat vertices past the prefix
        mu, w = pl.max_turn_angle(pl.SideLengths([1, 1, 1, 1, 1]), [])
        theta = pl.turn_angles_from_vertices(w.chain).angles
        nonflat = [i for i in range(1, 5) if abs(theta[i]) > 1e-7]
        assert len(nonflat) <= 2
        if len(nonflat) == 2:
            assert nonflat[1] - nonflat[0] == 1


class TestContainsPrefix:
    def test_2221_examples(self):
        lengths = pl.SideLengths([2, 2, 2, 1])
        assert pl.contains_prefix(lengths, [1.8])
        assert not pl.contains_prefix(lengths, [0.5])

    def test_triangle_examples(self):
        lengths = pl.SideLengths([1, 1, 1])
        assert pl.contains_prefix(lengths, [TAU / 3])
        assert not pl.contains_prefix(lengths, [2.0])


def _diagonal_sides(quad):
    """Signs of cross(v3 - v1, v - v1) for v = v2 and v4."""
    v1, v2, v3, v4 = quad
    e = v3 - v1
    return [int(np.sign(e[0] * (v[1] - v1[1]) - e[1] * (v[0] - v1[0]))) for v in (v2, v4)]


class TestQuadrilateralExpansiveStep:
    square = np.array([[0.0, 0], [1, 0], [1, 1], [0, 1]])

    def test_hand_computed_square_step(self):
        out = pl.quadrilateral_expansive_step(self.square, 1.5 - math.sqrt(2))
        assert np.allclose(out[2], (1.5 / math.sqrt(2),) * 2, atol=1e-12)
        h = math.sqrt(1 - 0.5625)
        f = 0.75 / math.sqrt(2)
        expected_v2 = (f + h / math.sqrt(2), f - h / math.sqrt(2))
        assert np.allclose(out[1], expected_v2, atol=1e-12)
        assert np.allclose(out[3], expected_v2[::-1], atol=1e-12)
        # interior angle at the fixed vertex shrinks to arccos(1/8 * 2)
        v2, v4 = out[1], out[3]
        cosang = float(np.dot(v2, v4))
        assert abs(cosang - 0.125) < 1e-12

    def test_identity_at_zero(self):
        out = pl.quadrilateral_expansive_step(self.square, 0.0)
        assert np.array_equal(out, self.square)

    def test_blocked(self):
        with pytest.raises(ValueError, match="blocked"):
            pl.quadrilateral_expansive_step(self.square, 1.0)

    @pytest.mark.parametrize("delta", [-0.1, math.nan])
    def test_negative_or_nan_delta_rejected(self, delta):
        with pytest.raises(ValueError, match="delta must be nonnegative"):
            pl.quadrilateral_expansive_step(self.square, delta)

    @pytest.mark.parametrize("scale", [1e-6, 1.0])
    def test_blocked_just_past_the_flat_limit_at_any_scale(self, scale):
        # the diagonal would grow to 1 + 5e-7 times its flat-state length 2
        delta = (2.0 * (1.0 + 5e-7) - math.sqrt(2.0)) * scale
        with pytest.raises(ValueError, match="a turn angle would pass 0"):
            pl.quadrilateral_expansive_step(self.square * scale, delta)

    def test_monotone_turn_angles_along_substeps(self):
        rng = np.random.default_rng(21)
        for _ in range(5):
            quad = random_convex_quadrilateral(rng)
            v1, v2, v3, v4 = quad
            a = np.linalg.norm(v2 - v1)
            b = np.linalg.norm(v3 - v2)
            c = np.linalg.norm(v4 - v3)
            d = np.linalg.norm(v1 - v4)
            diag = np.linalg.norm(v3 - v1)
            room = min(a + b, c + d) - diag
            step = 0.9 * room / 100
            cur = quad
            prev = pl.turn_angles_from_vertices(pl.PolygonChain(cur)).angles
            first = prev.copy()
            sides0 = pl.PolygonChain(cur).edge_lengths()
            sides = _diagonal_sides(cur)
            assert sides == [-1, 1]  # a CCW quad has v2 right of v1 -> v3
            for _ in range(100):
                cur = pl.quadrilateral_expansive_step(cur, step)
                # v2 and v4 stay on their own sides of the diagonal v1 -> v3
                assert _diagonal_sides(cur) == sides
                theta = pl.turn_angles_from_vertices(pl.PolygonChain(cur)).angles
                assert theta[0] >= prev[0] - 1e-12
                assert theta[2] >= prev[2] - 1e-12
                assert theta[1] <= prev[1] + 1e-12
                assert theta[3] <= prev[3] + 1e-12
                assert np.max(np.abs(
                    pl.PolygonChain(cur).edge_lengths() - sides0)) < 1e-12
                prev = theta
            assert prev[0] > first[0] and prev[2] > first[2]
            assert prev[1] < first[1] and prev[3] < first[3]

    def test_nonconvex_rejected(self):
        dart = np.array([[0.0, 0], [2, 0], [0.5, 0.5], [0, 2]])
        with pytest.raises(ValueError, match="convex"):
            pl.quadrilateral_expansive_step(dart, 0.1)


class TestSampleAtlas:
    def test_2221_level1_single_row(self):
        atlas = pl.sample_atlas(pl.SideLengths([2, 2, 2, 1]), 1, 100)
        assert len(atlas.rows) == 1
        row = atlas.rows[0]
        assert abs(row.nu - 1.4454684956268313) < 1e-9
        assert abs(row.mu - 2.4188584057763776) < 1e-9

    def test_triangle_degenerate_point(self):
        atlas = pl.sample_atlas(pl.SideLengths([1, 1, 1]), 1, 10)
        row = atlas.rows[0]
        assert abs(row.nu - row.mu) < 1e-12

    def test_pentagon_level2_consistency(self):
        lengths = pl.SideLengths([1, 1, 1, 1, 1])
        atlas = pl.sample_atlas(lengths, 2, 20)
        assert len(atlas.rows) == 20
        for row in atlas.rows:
            assert row.nu <= row.mu + 1e-12
            assert pl.contains_prefix(lengths, row.prefix)
            assert pl.contains_prefix(lengths, np.append(row.prefix, row.nu))
            assert pl.contains_prefix(lengths, np.append(row.prefix, row.mu))
            for w in (row.witness_min, row.witness_max):
                assert pl.classify(w.chain).convex_ccw
                theta = pl.turn_angles_from_vertices(w.chain).angles
                k = row.prefix.size
                if k:
                    assert np.max(np.abs(theta[:k] - row.prefix)) < 1e-9

    @pytest.mark.parametrize("exp", [-1, 1, -300, 600])
    def test_power_of_two_scale_bit_identical(self, exp):
        # the constructions run with the largest length in [1, 2), so a
        # power-of-two rescale gives the same rows, with witness vertices
        # scaled exactly (at 2**600 squaring a length overflows)
        rng = np.random.default_rng(17)
        for n in (5, 6, 7):
            lengths = random_generic_lengths(n, rng)
            want = pl.sample_atlas(lengths, n - 3, 3).rows
            scaled = pl.SideLengths(np.ldexp(lengths.lengths, exp))
            got = pl.sample_atlas(scaled, n - 3, 3).rows
            assert len(got) == len(want)
            for a, b in zip(got, want):
                assert a.prefix.tobytes() == b.prefix.tobytes()
                assert (a.nu, a.mu) == (b.nu, b.mu)
                for u, v in ((a.witness_min, b.witness_min), (a.witness_max, b.witness_max)):
                    assert (u.kind, u.j, u.theta_k) == (v.kind, v.j, v.theta_k)
                    back = np.ldexp(u.chain.vertices, -exp)
                    assert back.tobytes() == v.chain.vertices.tobytes()

    def test_level_out_of_range(self):
        with pytest.raises(ValueError, match="level"):
            pl.sample_atlas(pl.SideLengths([2, 2, 2, 1]), 2, 10)

    @pytest.mark.parametrize("grid", [1, 0, -3])
    def test_level1_grid_below_2_rejected(self, grid):
        with pytest.raises(ValueError, match="grid must be >= 2"):
            pl.sample_atlas(pl.SideLengths([1.0] * 5), 1, grid)


def test_lemma3_interior_widths_positive():
    lengths = pl.SideLengths([1, 1, 1, 1, 1])
    atlas = pl.sample_atlas(lengths, 2, 40)
    widths = np.array([row.mu - row.nu for row in atlas.rows])
    assert np.all(widths[4:-4] > 0)


def test_oracle_equivalence_small():
    rng = np.random.default_rng(31)
    lengths = random_generic_lengths(4, rng)
    grid = 1500
    cell = TAU / grid
    sweep = pl.enumerate_configurations(lengths, grid)
    conv = sweep.angles[sweep.convex_ccw]
    nu, _ = pl.min_turn_angle(lengths, [])
    mu, _ = pl.max_turn_angle(lengths, [])
    assert abs(conv[:, 0].min() - nu) <= 2 * cell
    assert abs(conv[:, 0].max() - mu) <= 2 * cell
    # the feasible set of first angles is one contiguous run of grid cells
    idx = np.unique(sweep.free_indices[sweep.convex_ccw, 0])
    assert idx.max() - idx.min() + 1 == idx.size


def test_interval_membership_matches_oracle():
    rng = np.random.default_rng(32)
    lengths = random_generic_lengths(4, rng)
    nu, _ = pl.min_turn_angle(lengths, [])
    mu, _ = pl.max_turn_angle(lengths, [])
    for t in np.linspace(nu + 1e-6, mu - 1e-6, 7):
        assert pl.contains_prefix(lengths, [t])
    assert not pl.contains_prefix(lengths, [mu + 0.05])
    if nu > 0.05:
        assert not pl.contains_prefix(lengths, [nu - 0.05])


def test_continuity_smoke_level2():
    # empirical Lipschitz-style regression bound (not a proof): interval
    # endpoints move at most C times the prefix step along a fine path
    C = 20.0
    lengths = pl.SideLengths([1, 1, 1, 1, 1])
    nu1, _ = pl.min_turn_angle(lengths, [])
    mu1, _ = pl.max_turn_angle(lengths, [])
    path = np.linspace(nu1 + 1e-6, mu1 - 1e-6, 300)
    step = path[1] - path[0]
    nus, mus = [], []
    for a in path:
        nus.append(pl.min_turn_angle(lengths, [a])[0])
        mus.append(pl.max_turn_angle(lengths, [a])[0])
    assert np.max(np.abs(np.diff(np.array(nus)))) < C * step
    assert np.max(np.abs(np.diff(np.array(mus)))) < C * step


def test_prefix_validation():
    with pytest.raises(ValueError, match=r"\[0, pi\)"):
        pl.AnglePrefix(np.array([-0.5]))
    with pytest.raises(ValueError, match=r"\[0, pi\)"):
        pl.AnglePrefix(np.array([math.pi]))
    p = pl.AnglePrefix(np.array([0.3, 1.1]))
    assert len(p) == 2


# --- scalar reference for the batched stretched constructions -------------
#
# The per-prefix, per-candidate constructions the batched kernel replaced,
# kept as a test-only reference: one PolygonChain per candidate, one
# turn_angles_from_vertices call each, and a scalar scan.  The kernel must
# agree with them bit for bit.

from polylink.chain_geometry import chain_vertices, circle_circle_intersection
from polylink.config_space import CONVEX_ANGLE_SLACK
from polylink.convex_atlas import (
    MAXIMAL,
    MINIMAL_CASE_A,
    MINIMAL_CASE_B,
    TIE_TOL,
    PrefixError,
    _as_prefix,
    _intervals,
    _pick,
)


def _ref_angles_ok(theta, skip=None):
    for i, t in enumerate(theta):
        if i == skip:
            continue
        if t < -CONVEX_ANGLE_SLACK or t >= math.pi - CONVEX_ANGLE_SLACK:
            return False
    return True


def _ref_min_candidates(ell, alpha):
    n = ell.size
    K = alpha.size + 1
    P = chain_vertices(ell[:K], alpha)
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
        chains.append(pl.PolygonChain(verts))
    return chains


def ref_min_turn_angle(lengths, alpha):
    alpha = _as_prefix(alpha)
    K = alpha.size + 1
    if K > lengths.n - 2:
        raise PrefixError("no free tail left to stretch at this level")
    best = None
    for chain in _ref_min_candidates(lengths.lengths, alpha):
        theta = pl.turn_angles_from_vertices(chain).angles
        if not _ref_angles_ok(theta, skip=K - 1):
            continue
        t_k = float(theta[K - 1])
        if t_k >= math.pi - CONVEX_ANGLE_SLACK:
            continue
        if best is None or t_k < best[0] - TIE_TOL:
            best = (t_k, chain)
    if best is not None and best[0] >= -CONVEX_ANGLE_SLACK:
        return max(best[0], 0.0), pl.StretchedWitness(
            kind=MINIMAL_CASE_B, chain=best[1], theta_k=best[0]
        )
    try:
        _, deeper = ref_min_turn_angle(lengths, np.append(alpha, 0.0))
    except PrefixError as exc:
        raise PrefixError(
            "prefix admits no convex completion (flat-pin failed)"
        ) from exc
    return 0.0, pl.StretchedWitness(
        kind=MINIMAL_CASE_A, chain=deeper.chain, theta_k=0.0
    )


def ref_max_turn_angle(lengths, alpha):
    alpha = _as_prefix(alpha)
    n = lengths.n
    K = alpha.size + 1
    if K > n - 2:
        raise PrefixError("no free tail left to stretch at this level")
    ell = lengths.lengths
    P = chain_vertices(ell[:K], alpha)
    pk = P[-1]
    best = None
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
                    np.cumsum(ell[J + 1 : n - 1]) if J + 1 < n - 1 else np.zeros(0)
                )
                tail_verts = np.column_stack((-t_len + flat, np.zeros(flat.size)))
                verts = np.vstack((P, run_verts, pt, center2, tail_verts, (0.0, 0.0)))
            else:
                verts = np.vstack((P, run_verts, pt, (0.0, 0.0)))
            chain = pl.PolygonChain(verts)
            theta = pl.turn_angles_from_vertices(chain).angles
            if not _ref_angles_ok(theta):
                continue
            t_k = float(theta[K - 1])
            if best is None or t_k > best[0] + TIE_TOL:
                best = (t_k, J, chain)
    if best is None:
        raise PrefixError(
            "no valid maximally stretched candidate: prefix lies on the "
            "boundary of feasibility"
        )
    return max(best[0], 0.0), pl.StretchedWitness(
        kind=MAXIMAL, chain=best[2], theta_k=best[0], j=best[1]
    )


def _outcome(fn, *args):
    """(value, witness) or the raised exception's type and message."""
    try:
        return fn(*args)
    except ValueError as exc:
        return type(exc), str(exc)


def _bits(x) -> bytes:
    return np.asarray(x, dtype=float).tobytes()


def assert_same_endpoint(got, want):
    if isinstance(want[0], type):  # both raised
        assert got == want
        return
    assert not isinstance(got[0], type), got
    (v1, w1), (v2, w2) = got, want
    assert _bits(v1) == _bits(v2)
    assert (w1.kind, w1.j) == (w2.kind, w2.j)
    assert _bits(w1.theta_k) == _bits(w2.theta_k)
    assert _bits(w1.chain.vertices) == _bits(w2.chain.vertices)


def _level_prefixes(lengths, per_level=5):
    """Prefixes of every level: at each level, ``per_level`` values from
    nu to mu (both endpoints pinned) under up to three parents: the
    previous level's nu-pinned, middle and mu-pinned prefixes."""
    parents = [np.zeros(0)]
    levels = [[np.zeros(0)]]
    for _ in range(1, lengths.n - 3):
        level, nexts = [], []
        for alpha in parents:
            try:
                nu, _ = ref_min_turn_angle(lengths, alpha)
                mu, _ = ref_max_turn_angle(lengths, alpha)
            except PrefixError:
                continue
            grid = [np.append(alpha, t) for t in np.linspace(nu, mu, per_level)]
            level += grid
            nexts += [grid[0], grid[per_level // 2], grid[-1]]
        levels.append(level)
        parents = nexts[:3]
    return levels


@pytest.mark.parametrize("n", range(4, 10))
@pytest.mark.parametrize("seed", [0, 1])
def test_kernel_matches_scalar_reference(n, seed):
    lengths = random_generic_lengths(n, np.random.default_rng(900 + 10 * n + seed))
    for level in _level_prefixes(lengths):
        block = np.array(level)
        batch = _outcome(_intervals, lengths, block)
        for r, alpha in enumerate(level):
            want_min = _outcome(ref_min_turn_angle, lengths, alpha)
            want_max = _outcome(ref_max_turn_angle, lengths, alpha)
            assert_same_endpoint(_outcome(pl.min_turn_angle, lengths, alpha), want_min)
            assert_same_endpoint(_outcome(pl.max_turn_angle, lengths, alpha), want_max)
            if isinstance(batch[0], type):
                continue  # a row of this block failed; the rows alone are checked above
            nu, mu, witnesses = batch
            wmin, wmax = witnesses(r)
            assert_same_endpoint((nu[r], wmin), want_min)
            assert_same_endpoint((mu[r], wmax), want_max)


def test_walk_reaches_both_minimum_cases():
    # the pinned endpoints of the reference walk reach case (a) and case
    # (b) of the minimum; otherwise the comparison above is thin
    kinds = set()
    for n in range(5, 10):
        lengths = random_generic_lengths(n, np.random.default_rng(900 + 10 * n))
        for level in _level_prefixes(lengths):
            for alpha in level:
                got = _outcome(pl.min_turn_angle, lengths, alpha)
                if not isinstance(got[0], type):
                    kinds.add(got[1].kind)
    assert kinds == {MINIMAL_CASE_A, MINIMAL_CASE_B}


def _ref_scan(values, ok, maximize):
    """The scalar selection loop of the reference constructions."""
    best = None
    for c, (t, good) in enumerate(zip(values, ok)):
        if not good:
            continue
        if best is None or (t > best[0] + TIE_TOL if maximize else t < best[0] - TIE_TOL):
            best = (t, c)
    return best


@pytest.mark.parametrize("maximize", [False, True])
def test_pick_matches_scalar_scan(maximize):
    # values a fraction of TIE_TOL apart: the first candidate must win
    # unless a later one beats it by more than TIE_TOL
    rng = np.random.default_rng(5)
    C = 6
    values = 1.0 + rng.integers(0, 5, (4000, C)) * 0.6 * TIE_TOL
    ok = rng.random((4000, C)) < 0.7
    best, arg = _pick(values, ok, maximize)
    kept = 0  # rows where a later candidate within TIE_TOL was better
    for r in range(len(values)):
        want = _ref_scan(values[r], ok[r], maximize)
        if want is None:
            assert arg[r] == -1
            continue
        assert (best[r], arg[r]) == want
        top = values[r][ok[r]].max() if maximize else values[r][ok[r]].min()
        kept += top != want[0]
    assert kept > 100


def test_out_of_interval_prefix_same_error():
    lengths = random_generic_lengths(6, np.random.default_rng(77))
    _, w = pl.max_turn_angle(lengths, [])
    mu = w.theta_k
    for alpha in ([mu + 0.05], [mu + 0.05, 0.3]):
        want = _outcome(ref_max_turn_angle, lengths, alpha)
        assert want[0] is PrefixError
        assert _outcome(pl.max_turn_angle, lengths, alpha) == want
        assert _outcome(pl.min_turn_angle, lengths, alpha) == _outcome(
            ref_min_turn_angle, lengths, alpha
        )
        with pytest.raises(PrefixError) as got:
            _intervals(lengths, np.array([alpha]))
        first = _outcome(ref_min_turn_angle, lengths, alpha)
        if not isinstance(first[0], type):
            first = want
        assert (type(got.value), str(got.value)) == first
    assert not pl.contains_prefix(lengths, [mu + 0.05])


def _block_outcome(lengths, block):
    """The error of ``_intervals`` on a block, or the bits of its nu and mu."""
    got = _outcome(_intervals, lengths, np.array(block))
    if isinstance(got[0], type):
        return got
    nu, mu, _ = got
    return _bits(nu), _bits(mu)


def test_first_failing_row_across_kernels():
    # a block whose rows fail in different kernels raises the error of its
    # first failing row, whichever kernel that row fails in
    lengths = random_generic_lengths(8, np.random.default_rng(980))
    rng = np.random.default_rng(3)
    rows = {}  # (minimum fails, maximum fails) -> (prefix, its first error)
    for _ in range(2000):
        alpha = rng.uniform(0.0, 2.0, 4)
        want_min = _outcome(ref_min_turn_angle, lengths, alpha)
        want_max = _outcome(ref_max_turn_angle, lengths, alpha)
        fails = (isinstance(want_min[0], type), isinstance(want_max[0], type))
        rows.setdefault(fails, (alpha, want_min if fails[0] else want_max))
        if {(False, False), (True, False), (False, True)} <= rows.keys():
            break
    good = rows[False, False][0]
    in_min, in_max = rows[True, False], rows[False, True]
    for first, later in ((in_min, in_max), (in_max, in_min)):
        block = [good, first[0], good, later[0]]
        assert _block_outcome(lengths, block) == first[1]
        assert _block_outcome(lengths, block[2:]) == later[1]


@pytest.mark.parametrize(
    "alpha, message",
    [
        ([0.4, 0.3, -2 * CONVEX_ANGLE_SLACK], "prefix angles must lie in [0, pi)"),
        ([0.4, math.pi, 0.3], "prefix angles must lie in [0, pi)"),
        ([3.1, 3.1, 0.2], "prefix angles must not turn past 2*pi in total"),
        ([0.4, 0.3, -0.5 * CONVEX_ANGLE_SLACK], None),  # noise within the slack
        ([0.4, math.nan, 0.3], "prefix angles must lie in [0, pi)"),
    ],
)
def test_bad_prefix_same_message_everywhere(alpha, message):
    lengths = pl.SideLengths([1.0] * 7)
    good = pl.sample_atlas(lengths, 4, 2).rows[0].prefix
    if message is None:  # accepted as its clamped value, alone or in a block
        clamped = np.maximum(alpha, 0.0)
        assert _bits(_as_prefix(alpha)) == _bits(clamped)
        assert _bits(pl.AnglePrefix(alpha).alpha) == _bits(clamped)
        assert _block_outcome(lengths, [good, alpha]) == _block_outcome(
            lengths, [good, clamped]
        )
        return
    want = (ValueError, message)
    assert _outcome(pl.AnglePrefix, alpha) == want
    assert _outcome(_as_prefix, alpha) == want
    # the first failing row raises, not a later one that fails otherwise
    other = [3.1, 3.1, 0.2] if "[0, pi)" in message else [0.4, -1.0, 0.3]
    assert _block_outcome(lengths, [good, alpha, other]) == want


@pytest.mark.parametrize("n, k, grid", [(5, 2, 7), (6, 3, 5), (7, 3, 6), (7, 4, 3)])
def test_sample_atlas_rows_match_reference(n, k, grid):
    lengths = random_generic_lengths(n, np.random.default_rng(500 + n), margin=0.05)
    prefixes = [np.zeros(0)]
    for _ in range(1, k):
        extended = []
        for alpha in prefixes:
            nu, _ = ref_min_turn_angle(lengths, alpha)
            mu, _ = ref_max_turn_angle(lengths, alpha)
            extended += [np.append(alpha, t) for t in np.linspace(nu, mu, grid)]
        prefixes = extended
    rows = pl.sample_atlas(lengths, k, grid).rows
    assert len(rows) == len(prefixes)
    for row, alpha in zip(rows, prefixes):
        assert _bits(row.prefix) == _bits(alpha)
        assert_same_endpoint((row.nu, row.witness_min), ref_min_turn_angle(lengths, alpha))
        assert_same_endpoint((row.mu, row.witness_max), ref_max_turn_angle(lengths, alpha))
