import math

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

import polylink as pl
from polylink.chain_geometry import embedded_mask

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
        with pytest.raises(ValueError, match="n <= 30"):
            pl.straight_line_sign_vectors(pl.SideLengths(np.ones(31)))


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
