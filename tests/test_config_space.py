import math
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

import polylink as pl
from polylink import config_space
from polylink.chain_geometry import (
    TANGENT_RTOL,
    chain_vertices,
    embedded_mask,
    turn_angle_array,
)

from conftest import random_embedded_ccw, random_generic_lengths, star_polygon

TAU = 2.0 * math.pi


class TestClassify:
    def test_square_convex(self):
        sq = pl.PolygonChain(np.array([[1.0, 0], [1, 1], [0, 1], [0, 0]]))
        cls = pl.classify(sq)
        assert cls.embedded and cls.convex_ccw
        assert abs(cls.winding - TAU) < 1e-12

    def test_bowtie_crossing(self):
        bow = pl.PolygonChain(np.array([[0.0, 0], [2, 2], [2, 0], [0, 2]]))
        cls = pl.classify(bow)
        assert not cls.embedded and not cls.convex_ccw

    def test_folded_line_overlap(self):
        fold, _ = pl.vertices_from_turn_angles(
            pl.SideLengths([6, 4, 2, 4]), np.array([math.pi] * 4)
        )
        assert not pl.classify(fold).embedded

    def test_reflection_negates_winding(self):
        rng = np.random.default_rng(10)
        for n in (4, 5, 6):
            chain = random_embedded_ccw(n, rng)
            a = pl.classify(chain)
            b = pl.classify(pl.reflect_x(chain))
            assert a.embedded == b.embedded
            assert abs(a.winding + b.winding) < 1e-9


class TestStraightLineSignVectors:
    def test_6424_contains_alternating(self):
        rep = pl.straight_line_sign_vectors(pl.SideLengths([6, 4, 2, 4]))
        assert (1, -1, 1, -1) in rep.sign_vectors
        assert rep.exact

    def test_2221_empty(self):
        rep = pl.straight_line_sign_vectors(pl.SideLengths([2, 2, 2, 1]))
        assert len(rep) == 0

    def test_1111_all_three(self):
        rep = pl.straight_line_sign_vectors(pl.SideLengths([1, 1, 1, 1]))
        assert set(rep.sign_vectors) == {
            (1, -1, 1, -1),
            (1, 1, -1, -1),
            (1, -1, -1, 1),
        }

    def test_representatives_start_positive(self):
        rep = pl.straight_line_sign_vectors(pl.SideLengths([1, 1, 1, 1]))
        assert all(v[0] == 1 for v in rep.sign_vectors)

    def test_cyclic_rotation_invariance(self):
        base = np.array([3.0, 1.0, 2.0, 1.0, 1.0])
        count0 = len(pl.straight_line_sign_vectors(pl.SideLengths(base)))
        assert count0 > 0
        for shift in range(1, 5):
            rep = pl.straight_line_sign_vectors(
                pl.SideLengths(np.roll(base, shift))
            )
            assert len(rep) == count0

    def test_tolerance_window(self):
        lengths = pl.SideLengths([1.0, 1.0, 2.0 + 1e-12])
        assert len(pl.straight_line_sign_vectors(lengths, tolerance=0.0)) == 0
        assert len(pl.straight_line_sign_vectors(lengths, tolerance=1e-9)) == 1

    def test_n_limit(self):
        # at n = 45 each half of the meet-in-the-middle search holds 2**22
        # signed sums; an odd number of equal lengths has no straight line
        with pytest.raises(ValueError, match="n <= 45"):
            pl.straight_line_sign_vectors(pl.SideLengths(np.ones(46)))
        assert pl.is_generic(pl.SideLengths(np.ones(45)))


class TestGenericFeasible:
    def test_is_generic(self):
        assert pl.is_generic(pl.SideLengths([2, 2, 2, 1]))
        assert not pl.is_generic(pl.SideLengths([6, 4, 2, 4]))
        assert pl.is_generic(pl.SideLengths([1, 1, 1]))

    def test_is_feasible(self):
        assert not pl.is_feasible(pl.SideLengths([10, 1, 1, 1]))
        assert pl.is_feasible(pl.SideLengths([2, 2, 2, 1]))
        assert not pl.is_feasible(pl.SideLengths([1, 1, 2]))


class TestReconstructFromPartialAngles:
    def test_square_round_trip(self):
        rec = pl.reconstruct_from_partial_angles(
            pl.SideLengths([1, 1, 1, 1]), {0: math.pi / 2}, 1, 2, 3, +1
        )
        assert np.allclose(
            rec.vertices, [(1, 0), (1, 1), (0, 1), (0, 0)], atol=1e-12
        )

    def test_regular_pentagon_round_trip(self):
        lengths = pl.SideLengths([1, 1, 1, 1, 1])
        rec = pl.reconstruct_from_partial_angles(
            lengths, {1: TAU / 5, 3: TAU / 5}, 0, 2, 4, +1
        )
        ref, _ = pl.vertices_from_turn_angles(lengths, np.array([TAU / 5] * 5))
        assert np.max(np.abs(rec.vertices - ref.vertices)) < 1e-9

    def test_large_angle_still_closes(self):
        # a kite with a 3.0 rad turn at the frame corner closes fine:
        # the junction circles of a unit rhombus intersect for every angle
        rec = pl.reconstruct_from_partial_angles(
            pl.SideLengths([1, 1, 1, 1]), {0: 3.0}, 1, 2, 3, +1
        )
        assert rec.realizes(pl.SideLengths([1, 1, 1, 1]))
        theta = pl.turn_angles_from_vertices(rec).angles
        assert abs(theta[0] - 3.0) < 1e-12

    def test_no_closure(self):
        with pytest.raises(pl.ClosureError, match="no closed"):
            pl.reconstruct_from_partial_angles(
                pl.SideLengths([1.5, 1.0, 0.3, 0.5]), {0: 0.0}, 1, 2, 3, +1
            )

    def test_ambiguous_tangency(self):
        # turn chosen so the junction circles are exactly tangent: the
        # placed vertex is collinear with its neighbors, orientation
        # undefined
        with pytest.raises(pl.ClosureError, match="tangency"):
            pl.reconstruct_from_partial_angles(
                pl.SideLengths([1.5, 1.0, 0.3, 0.7]),
                {0: math.acos(-0.75)},
                1,
                2,
                3,
                +1,
            )

    def test_partial_index_validation(self):
        # index 3 is one of the dropped vertices; index 0 is missing
        with pytest.raises(ValueError, match="exactly"):
            pl.reconstruct_from_partial_angles(
                pl.SideLengths([1, 1, 1, 1]), {3: 0.5}, 1, 2, 3, +1
            )

    def test_random_round_trips(self):
        rng = np.random.default_rng(5)
        worst = 0.0
        for _ in range(500):
            n = int(rng.integers(4, 9))
            chain = random_embedded_ccw(n, rng)
            theta = pl.turn_angles_from_vertices(chain)
            q, r, s = pl.choose_qrs(theta)
            v = chain.vertices
            cr = (v[r, 0] - v[q, 0]) * (v[s, 1] - v[q, 1]) - (
                v[r, 1] - v[q, 1]
            ) * (v[s, 0] - v[q, 0])
            partial = {
                i: float(theta.angles[i]) for i in range(n) if i not in (q, r, s)
            }
            rec = pl.reconstruct_from_partial_angles(
                chain.side_lengths(), partial, q, r, s, 1 if cr > 0 else -1
            )
            worst = max(worst, float(np.max(np.abs(rec.vertices - v))))
        assert worst < 1e-9


def test_choose_qrs_picks_largest_angles():
    theta = pl.TurnAngles(np.array([0.1, 2.0, -1.5, 0.05, 1.0]))
    assert pl.choose_qrs(theta) == (1, 2, 4)


class TestEnumerateConfigurations:
    def test_triangle_exactly_two(self):
        s = pl.enumerate_configurations(pl.SideLengths([1, 1, 1]), 100)
        assert len(s) == 2
        assert sorted(np.sign(s.winding)) == [-1, 1]

    def test_2221_regression_counts(self):
        s = pl.enumerate_configurations(pl.SideLengths([2, 2, 2, 1]), 3600)
        ccw = int(np.sum(np.abs(s.winding - TAU) <= 1e-6))
        cw = int(np.sum(np.abs(s.winding + TAU) <= 1e-6))
        flat = int(np.sum(np.abs(s.winding) <= 1e-6))
        assert (len(s), ccw, cw, flat) == (2728, 898, 898, 932)
        assert int(s.embedded.sum()) == 1796
        # every nonzero-winding sample is embedded and vice versa
        assert not np.any((np.abs(np.abs(s.winding) - TAU) <= 1e-6) & ~s.embedded)
        assert not np.any(s.embedded & (np.abs(np.abs(s.winding) - TAU) > 1e-6))

    def test_6424_single_fold(self):
        s = pl.enumerate_configurations(pl.SideLengths([6, 4, 2, 4]), 3600)
        bad = np.nonzero(~s.embedded)[0]
        assert bad.size == 1
        assert np.max(np.abs(np.abs(s.angles[bad[0]]) - math.pi)) < 1e-9
        ccw = np.nonzero(s.embedded & (np.abs(s.winding - TAU) <= 1e-6))[0]
        assert ccw.size > 0
        assert ccw.max() - ccw.min() + 1 == ccw.size  # one contiguous arc

    def test_winding_is_multiple_of_tau(self):
        s = pl.enumerate_configurations(pl.SideLengths([2, 2, 2, 1]), 500)
        k = np.round(s.winding / TAU)
        assert np.max(np.abs(s.winding - k * TAU)) < 1e-6
        assert np.all(np.abs(k[s.embedded]) == 1)

    def test_near_fold_exists_for_nongeneric(self):
        for ell, grid in (([1, 1, 1, 1], 8000), ([6, 4, 2, 4], 8000)):
            s = pl.enumerate_configurations(pl.SideLengths(ell), grid)
            gap = math.pi - np.abs(s.angles).max(axis=1)
            assert gap.min() < 1e-3

    def test_matches_scalar_classify(self):
        s = pl.enumerate_configurations(pl.SideLengths([2, 2, 2, 1]), 360)
        rng = np.random.default_rng(3)
        for i in rng.integers(0, len(s), 60):
            rec = s.config(int(i))
            cls = pl.classify(rec.chain)
            assert cls.embedded == rec.config_class.embedded
            assert abs(cls.winding - rec.config_class.winding) < 1e-9

    def test_stored_configs_close_and_realize(self):
        lengths = pl.SideLengths([2, 2, 2, 1])
        s = pl.enumerate_configurations(lengths, 360)
        rng = np.random.default_rng(4)
        for i in rng.integers(0, len(s), 50):
            chain = s.chain(int(i))
            assert np.hypot(*chain.vertices[-1]) < 1e-9
            assert chain.realizes(lengths)

    def test_n_out_of_range(self):
        with pytest.raises(ValueError, match="3 <= n <= 6"):
            pl.enumerate_configurations(pl.SideLengths(np.ones(7)), 10)

    def test_order_grid_major_branch_minor(self):
        s = pl.enumerate_configurations(pl.SideLengths([2, 2, 2, 1]), 100)
        key = s.free_indices[:, 0].astype(np.int64) * 2 + s.branch
        assert np.all(np.diff(key) > 0)

    def test_windowed_sweep(self):
        lengths = pl.SideLengths([2, 2, 2, 1])
        full = pl.enumerate_configurations(lengths, 400)
        conv = full.angles[full.convex_ccw, 0]
        lo, hi = conv.min(), conv.max()
        zoom = pl.enumerate_configurations(
            lengths, 400, windows=[(lo - 0.05, hi + 0.05)]
        )
        # inclusive linspace over the window, finer than the full sweep
        assert zoom.angles[:, 0].min() >= lo - 0.05 - 1e-12
        assert zoom.angles[:, 0].max() <= hi + 0.05 + 1e-12
        zconv = zoom.angles[zoom.convex_ccw, 0]
        assert zconv.min() <= lo + 1e-12
        assert zconv.max() >= hi - 1e-12
        with pytest.raises(ValueError, match="windows"):
            pl.enumerate_configurations(lengths, 10, windows=[(0, 1), (0, 1)])


def eager_enumeration(lengths, grid_per_angle, windows=None, step=4096):
    """The sweep before lazy embeddedness, kept as a test-only reference:
    one block per elbow branch, ``embedded_mask`` on every row, and a
    ``lexsort`` that restores grid-major, branch-minor order."""
    n, ell, n3 = lengths.n, lengths.lengths, lengths.n - 3
    full = -math.pi + TAU * np.arange(1, grid_per_angle + 1) / grid_per_angle
    grids = [
        full if windows is None or windows[a] is None
        else np.linspace(float(windows[a][0]), float(windows[a][1]), grid_per_angle)
        for a in range(n3)
    ]
    total = grid_per_angle**n3
    r1, r2 = float(ell[n - 2]), float(ell[n - 1])
    tol = TANGENT_RTOL * (r1 + r2)
    blocks = []  # (free_indices, branch, angles, embedded) per branch and pass
    for start in range(0, total, step):
        flat = np.arange(start, min(start + step, total), dtype=np.int64)
        idx = np.empty((flat.size, n3), dtype=np.int32)
        for a in range(n3 - 1, -1, -1):
            idx[:, a] = flat % grid_per_angle
            flat //= grid_per_angle
        free = np.column_stack(
            [grids[a][idx[:, a]] for a in range(n3)] + [np.zeros((flat.size, 0))]
        )
        front = chain_vertices(ell[: n - 2], free)
        anchor = front[:, -1, :]
        d = np.hypot(anchor[:, 0], anchor[:, 1])
        feasible = (d > tol) & (d <= r1 + r2 + tol) & (d >= abs(r1 - r2) - tol)
        fi = np.nonzero(feasible)[0]
        dl = d[fi]
        a_par = (dl * dl + r1 * r1 - r2 * r2) / (2.0 * dl)
        h_sq = np.maximum(r1 * r1 - a_par * a_par, 0.0)
        tangent = (np.abs(dl - (r1 + r2)) <= tol) | (
            np.abs(dl - abs(r1 - r2)) <= tol
        )
        h = np.where(tangent, 0.0, np.sqrt(h_sq))
        u = -anchor[fi] / dl[:, None]
        foot = anchor[fi] + a_par[:, None] * u
        normal = np.column_stack((-u[:, 1], u[:, 0]))
        branches = (
            (foot + h[:, None] * normal, np.ones(fi.size, dtype=bool)),
            (foot - h[:, None] * normal, ~tangent),  # a tangency is on branch 0
        )
        for branch_id, (pts, sel) in enumerate(branches):
            rows = fi[sel]
            pts = pts[sel]
            verts = np.concatenate(
                (front[rows], pts[:, None, :], np.zeros((rows.size, 1, 2))), axis=1
            )
            theta = turn_angle_array(verts)[0]
            embedded = embedded_mask(chain_vertices(ell, theta[:, : n - 1]))
            branch = np.full(rows.size, branch_id, dtype=np.int8)
            blocks.append((idx[rows], branch, theta, embedded))
    free_indices, branch, angles, embedded = (
        np.concatenate([b[k] for b in blocks]) for k in range(4)
    )
    key = free_indices.astype(np.int64) @ (
        grid_per_angle ** np.arange(n3 - 1, -1, -1, dtype=np.int64)
    )
    order = np.lexsort((branch, key))
    free_indices, branch, angles, embedded = (
        a[order] for a in (free_indices, branch, angles, embedded)
    )
    winding = angles.sum(axis=1)
    convex = (
        embedded
        & (np.abs(winding - TAU) <= config_space.WINDING_TOL)
        & (angles.min(axis=1) >= -config_space.CONVEX_ANGLE_SLACK)
    )
    return {
        "free_indices": free_indices, "branch": branch, "angles": angles,
        "winding": winding, "embedded": embedded, "convex_ccw": convex,
    }


_N6 = random_generic_lengths(6, np.random.default_rng(7), margin=0.05).lengths
_SWEEPS = [
    *(
        (random_generic_lengths(n, np.random.default_rng(20 + n)).lengths, grid, None)
        for n, grid in ((3, 30), (4, 1500), (5, 160), (6, 24))
    ),
    ([6, 4, 2, 4], 1000, None),
    ([1, 1, 1, 1], 1000, None),
    ([2, 2, 2, 1], 1000, None),
    ([1, 1, 1, 1, 1], 120, None),
    ([1.3, 1.0, 0.9, 1.2, 0.8], 100, [None, (-0.5, 1.0)]),
    ([10, 1, 1, 1], 100, None),  # infeasible: no rows
    # c04-style zoom windows: a degenerate window (a, a) repeats one value
    # of a prefix angle at every grid index
    ([1.3, 1.0, 0.9, 1.2, 0.8], 150, [(1.2, 1.2), (0.4, 1.8)]),
    (_N6, 30, [(1.0, 1.0), (1.0, 1.0), (0.2, 1.8)]),
    (_N6, 30, [None, None, (-1.0, 0.5)]),  # a window on the last free angle
]


@pytest.mark.parametrize("ell, grid, windows", _SWEEPS)
def test_sweep_matches_eager_reference(ell, grid, windows):
    lengths = pl.SideLengths(ell)
    want = eager_enumeration(lengths, grid, windows)
    got = pl.enumerate_configurations(lengths, grid, windows=windows)
    for key, col in want.items():
        have = getattr(got, key)
        assert have.dtype == col.dtype and have.shape == col.shape, key
        assert np.array_equal(have, col), key  # bit for bit: same arithmetic
    assert (len(got) == 0) == (not pl.is_feasible(lengths))


_COLUMNS = ("free_indices", "branch", "angles", "winding", "convex_ccw")


@pytest.mark.parametrize("n, grid", [(5, 60), (6, 14)])
def test_sweep_columns_do_not_depend_on_chunk(n, grid):
    lengths = random_generic_lengths(n, np.random.default_rng(30 + n), margin=0.05)
    want = pl.enumerate_configurations(lengths, grid)
    assert want.convex_ccw.any()
    # sweep passes of chunk // 32 grid points (7, 1000, 1) end inside a
    # prefix's block of ``grid`` points; embeddedness passes differ too
    for chunk in (32 * 7, 32 * 1000, 5 * 7):
        got = pl.enumerate_configurations(lengths, grid, chunk=chunk)
        for key in _COLUMNS:
            have, col = getattr(got, key), getattr(want, key)
            assert have.dtype == col.dtype and have.shape == col.shape, key
            assert have.tobytes() == col.tobytes(), (chunk, key)


def test_sweep_memory_tracks_result():
    # the result's columns, 16 bytes per grid point and one pass's
    # temporaries: about 1.36 times the result on this vector; a sweep
    # that keeps per-pass pieces and concatenates them holds about 2.5
    lengths = random_generic_lengths(6, np.random.default_rng(26), margin=0.05)
    grid = 48
    tracemalloc.start()
    try:
        sweep = pl.enumerate_configurations(lengths, grid)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    result = sum(getattr(sweep, key).nbytes for key in _COLUMNS)
    assert peak <= 1.5 * result


class _CountingMask:
    """Stands in for ``embedded_mask``: records the batch size of each call."""

    def __init__(self):
        self.rows = []

    def __call__(self, verts):
        self.rows.append(len(verts))
        return embedded_mask(verts)


def test_embeddedness_only_on_angle_candidates(monkeypatch):
    counter = _CountingMask()
    monkeypatch.setattr(config_space, "embedded_mask", counter)
    lengths = pl.SideLengths([1.3, 1.0, 0.9, 1.2, 0.8])
    s = pl.enumerate_configurations(lengths, 200, chunk=5 * 1000)
    cand = (np.abs(s.winding - TAU) <= config_space.WINDING_TOL) & (
        s.angles.min(axis=1) >= -config_space.CONVEX_ANGLE_SLACK
    )
    assert 0 < cand.sum() < len(s) // 10
    assert sum(counter.rows) == cand.sum()
    # a pass tests chunk / (n(n-3)/2 edge pairs) = 1000 chains at most
    assert max(counter.rows) <= 1000
    counter.rows.clear()
    first = s.embedded
    assert sum(counter.rows) == len(s) and max(counter.rows) <= 1000
    counter.rows.clear()
    assert s.embedded is first and counter.rows == []  # computed once
    assert np.array_equal(s.convex_ccw, first & cand)


def test_config_classifies_one_row(monkeypatch):
    counter = _CountingMask()
    monkeypatch.setattr(config_space, "embedded_mask", counter)
    s = pl.enumerate_configurations(pl.SideLengths([6, 4, 2, 4]), 3600)
    # the one fold: every turn angle is +-pi
    fold = int(np.argmax(np.abs(s.angles).min(axis=1)))
    counter.rows.clear()
    rec = s.config(fold)
    assert counter.rows == [1] and rec.config_class.embedded is False
    assert not pl.classify(rec.chain).embedded
    assert "embedded" not in vars(s)  # the column was not computed
    assert s.config((fold + 1) % len(s)).config_class.embedded is True
    assert int(s.embedded.sum()) == len(s) - 1
    # once the column exists, config reads it
    counter.rows.clear()
    assert s.config(fold).config_class.embedded is False and counter.rows == []


def test_closures_for_free_angles_branches():
    lengths = pl.SideLengths([1, 1, 1])
    chains = pl.closures_for_free_angles(lengths, [])
    assert len(chains) == 2
    # branch 0 is left of the anchor->origin line; for the triangle the
    # anchor sits at (1, 0), so "left" of the -x direction is negative y
    assert chains[0].vertices[1][1] < 0 < chains[1].vertices[1][1]
    for ch in chains:
        assert ch.realizes(lengths)
    # matches the enumeration oracle's branch tagging
    sweep = pl.enumerate_configurations(lengths, 10)
    assert np.allclose(sweep.chain(0).vertices, chains[0].vertices)
    assert np.allclose(sweep.chain(1).vertices, chains[1].vertices)


# --- meet-in-the-middle genericity against the full enumeration -----------


def brute_force_sign_vectors(lengths, tolerance=None):
    """The 2**(n-1)-row sign-matrix enumeration that the meet-in-the-middle
    search replaced, kept as a test-only reference."""
    n = lengths.n
    ell = lengths.lengths
    if tolerance is None:
        tolerance = 1e-9 * lengths.perimeter
    m = n - 1
    rest = ((np.arange(1 << m)[:, None] >> np.arange(m)) & 1) * 2 - 1
    signs = np.column_stack((np.ones(1 << m, dtype=np.int64), rest[:, ::-1]))
    sums = signs.astype(float) @ ell
    margin = 16 * np.finfo(float).eps * lengths.perimeter * n
    candidates = np.nonzero(np.abs(sums) <= tolerance + margin)[0]
    tol_frac = Fraction(float(tolerance))
    found = []
    for idx in candidates:
        vec = tuple(int(v) for v in signs[idx])
        total = sum(Fraction(float(l)) * s for l, s in zip(ell, vec))
        if abs(total) <= tol_frac:
            found.append(vec)
    return tuple(found)


def _length_vectors(n: int):
    rng = np.random.default_rng(4000 + n)
    yield "random", rng.uniform(0.6, 1.6, n)
    ints = rng.integers(1, 6, n).astype(float)
    yield "small_integer", ints
    eps = rng.choice([-1.0, 1.0], n - 1)
    ints[-1] = max(abs(eps @ ints[:-1]), 1.0)  # a straight line, unless 1.0
    yield "planted", ints
    yield "decimal", rng.integers(1, 4, n) / 10.0  # sums of tenths round
    if n % 2 == 0:
        yield "all_equal", np.full(n, 0.7)


@pytest.mark.parametrize("n", range(3, 17))
def test_meet_in_the_middle_matches_enumeration(n):
    listed = 0
    for kind, ell in _length_vectors(n):
        lengths = pl.SideLengths(ell)
        for tolerance in (None, 0.0, 1e-9):
            want = brute_force_sign_vectors(lengths, tolerance)
            got = pl.straight_line_sign_vectors(lengths, tolerance)
            assert got.sign_vectors == want, (kind, tolerance)
            assert pl.is_generic(lengths, tolerance) == (not want), (kind, tolerance)
            listed += len(want)
    assert listed > 0


def test_report_size_is_capped(monkeypatch):
    monkeypatch.setattr(config_space, "MAX_LISTED", 100)
    lengths = pl.SideLengths(np.ones(12))  # 462 straight lines
    with pytest.raises(ValueError, match="more than 100"):
        pl.straight_line_sign_vectors(lengths)
    assert not pl.is_generic(lengths)


def test_generic_lengths_sampler_is_generic():
    rng = np.random.default_rng(12)
    for n in (4, 5, 6):
        lengths = random_generic_lengths(n, rng)
        assert pl.is_generic(lengths)
        assert pl.is_feasible(lengths)


# --- property tests: one embeddedness answer on every path -----------------

PROPERTY = settings(max_examples=300, deadline=None, derandomize=True)

DEGENERACIES = ("random", "star", "lattice", "fold", "near_contact", "tiny_edge")


LARGE_OFFSET = st.floats(1e3, 1e6) | st.floats(-1e6, -1e3)


def _nonzero_edges(v: np.ndarray) -> bool:
    e = v - np.roll(v, 1, axis=0)
    lens = np.hypot(e[:, 0], e[:, 1])
    return bool(lens.min() > 1e-14 * lens.max())


@st.composite
def vertex_cycles(draw, kinds=DEGENERACIES):
    """Vertex cycles of 4..12 points, random or close to a degeneracy."""
    n = draw(st.integers(4, 12))
    kind = draw(st.sampled_from(kinds))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    if kind == "random":
        v = rng.normal(size=(n, 2))
    elif kind == "star":
        v = star_polygon(n, rng).vertices
    elif kind == "lattice":
        # small integer coordinates: exact vertex-edge touches and
        # collinear overlaps
        v = rng.integers(-2, 3, (n, 2)).astype(float)
        while not _nonzero_edges(v):
            v = rng.integers(-2, 3, (n, 2)).astype(float)
    elif kind == "fold":
        # a turn of exactly pi at one vertex
        theta = rng.uniform(-math.pi, math.pi, n)
        theta[rng.integers(0, n - 1)] = math.pi
        ell = pl.SideLengths(rng.uniform(0.5, 1.5, n))
        v = pl.vertices_from_turn_angles(ell, theta)[0].vertices
    elif kind == "near_contact":
        # a vertex within 1e-10 * scale of a non-incident edge, either side
        v = star_polygon(n, rng).vertices.copy()
        i = int(rng.integers(0, n))
        j = (i + 1 + int(rng.integers(0, n - 2))) % n
        a, b = v[i - 1], v[i]
        normal = np.array([a[1] - b[1], b[0] - a[0]]) / np.hypot(*(b - a))
        offset = draw(st.floats(-1e-10, 1e-10)) * np.abs(v).max()
        v[j] = a + rng.uniform(0.0, 1.0) * (b - a) + offset * normal
    else:
        # one edge down to 1e-4 of the scale
        v = star_polygon(n, rng).vertices.copy()
        k = int(rng.integers(0, n))
        phi = rng.uniform(0.0, 2.0 * math.pi)
        ratio = 10.0 ** draw(st.floats(-4.0, -1.0))
        v[k] = v[k - 1] + ratio * np.abs(v).max() * np.array([math.cos(phi), math.sin(phi)])
    assume(_nonzero_edges(v))
    return v


def _pairwise_embedded(v: np.ndarray) -> bool:
    """Reference: classify every edge pair with segment_intersection, whose
    tolerance is set per pair."""
    n = v.shape[0]
    segs = [(v[i - 1], v[i]) for i in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            rel = pl.segment_intersection(segs[i], segs[j])
            if j == i + 1 or (i == 0 and j == n - 1):
                if rel is pl.SegmentRelation.OVERLAP:
                    return False
            elif rel is not pl.SegmentRelation.DISJOINT:
                return False
    return True


class TestOneEmbeddednessAnswer:
    @PROPERTY
    @given(vertex_cycles(kinds=("random", "star", "lattice")))
    def test_matches_pairwise_reference(self, v):
        # per-pair and per-chain tolerances only differ within ORIENT_EPS of
        # a contact, which these inputs either hit exactly or stay clear of
        assert embedded_mask(v[None])[0] == _pairwise_embedded(v)

    @PROPERTY
    @given(vertex_cycles(), st.integers(0, 6), st.integers(0, 2**32 - 1))
    def test_classify_matches_batch_row(self, v, pos, seed):
        n = v.shape[0]
        others = np.random.default_rng(seed).normal(size=(6, n, 2))
        batch = np.insert(others, pos, v, axis=0)
        assert pl.classify(pl.PolygonChain(v)).embedded == embedded_mask(batch)[pos]

    @PROPERTY
    @given(
        vertex_cycles(),
        st.integers(1, 11),
        st.integers(-30, 30),
        st.tuples(LARGE_OFFSET, LARGE_OFFSET),
    )
    def test_exact_symmetries(self, v, shift, power, offset):
        # rotation is left out: the tolerance follows the longest edge's
        # largest coordinate difference, which rotation changes
        embedded = pl.classify(pl.PolygonChain(v)).embedded
        relabelled = pl.PolygonChain(np.roll(v, shift, axis=0))
        mirrored = pl.reflect_x(pl.PolygonChain(v))
        rescaled = pl.PolygonChain(v * 2.0**power)
        for chain in (relabelled, mirrored, rescaled):
            assert pl.classify(chain).embedded == embedded
        # far from the origin: v + offset rounds v to the offset's ulp, but
        # (v + offset) - offset is exact (Sterbenz), so the shifted chain is
        # an exact translate of that rounded chain; their edge vectors,
        # orientation values and tolerances are bit-equal (only the box pad,
        # added in absolute coordinates, can round differently)
        shifted = v + np.array(offset)
        rounded = pl.PolygonChain(shifted - np.array(offset))
        assert pl.classify(pl.PolygonChain(shifted)).embedded == pl.classify(rounded).embedded

    def test_translated_near_contact_pentagon(self):
        # the reflex vertex sits 1e-8 above the bottom edge; a tolerance
        # scaled by absolute coordinates called this a contact at (1e4, 1e4)
        v = np.array([[0.0, 0], [4, 0], [4, 3], [2, 1e-8], [0, 3]])
        for shift in (0.0, 1e4, -1e4):
            assert pl.classify(pl.PolygonChain(v + shift)).embedded

    @settings(max_examples=25, deadline=None, derandomize=True)
    @given(
        st.sampled_from([(1, 1, 1, 1), (6, 4, 2, 4)]),
        st.integers(3, 400),
        st.one_of(st.none(), st.floats(1e-9, 0.1)),
    )
    def test_near_fold_sweep_matches_classify(self, ell, grid, width):
        windows = None if width is None else [(math.pi - width, math.pi)]
        s = pl.enumerate_configurations(pl.SideLengths(ell), grid, windows=windows)
        assert len(s) > 0
        for i in range(len(s)):
            assert pl.classify(s.chain(i)).embedded == s.embedded[i]

    @settings(max_examples=8, deadline=None, derandomize=True)
    @given(st.integers(4, 6), st.integers(0, 2**32 - 1))
    def test_convexify_snapshots_pass_batch_predicate(self, n, seed):
        chain = random_embedded_ccw(n, np.random.default_rng(seed), require_nonconvex=True)
        trace = pl.convexify(chain, pl.FlowParams(snapshot_stride=1))
        verts = np.stack([snap.vertices for snap in trace.snapshots])
        assert len(verts) == trace.accepted_steps + 1
        assert embedded_mask(verts).all()
