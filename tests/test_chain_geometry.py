import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

import polylink as pl
from polylink.chain_geometry import chain_vertices

from conftest import random_closed_chain

TAU = 2.0 * math.pi
# lengths of any unit: a relation or a check must not change under rescaling
SCALES = (1e-9, 1.0, 1e9)
OFFSETS = ((1024, -512), (1e6, 0), (3e7, -1e7))


class TestVerticesFromTurnAngles:
    def test_equilateral_triangle(self):
        chain, defect = pl.vertices_from_turn_angles(
            pl.SideLengths([1, 1, 1]), np.array([TAU / 3] * 3)
        )
        expected = [(1, 0), (0.5, math.sqrt(3) / 2), (0, 0)]
        assert np.allclose(chain.vertices, expected, atol=1e-12)
        assert defect < 1e-12

    def test_unit_square(self):
        chain, defect = pl.vertices_from_turn_angles(
            pl.SideLengths([1, 1, 1, 1]), np.array([math.pi / 2] * 4)
        )
        assert np.allclose(chain.vertices, [(1, 0), (1, 1), (0, 1), (0, 0)], atol=1e-12)
        assert defect < 1e-12

    def test_folded_line_6424(self):
        # the (+,-,+,-) fold: every turn is a half-turn
        chain, defect = pl.vertices_from_turn_angles(
            pl.SideLengths([6, 4, 2, 4]), np.array([math.pi] * 4)
        )
        assert np.allclose(chain.vertices, [(6, 0), (2, 0), (4, 0), (0, 0)], atol=1e-12)
        assert defect < 1e-12

    def test_length_mismatch(self):
        with pytest.raises(ValueError, match="mismatch"):
            pl.vertices_from_turn_angles(
                pl.SideLengths([1, 1, 1]), np.array([0.1] * 4)
            )


def _chain_vertices_stacked(ell, turns):
    """Reference for ``chain_vertices``: headings and steps built by
    concatenate and stack, as the kernel once formed them."""
    turns = np.asarray(turns, dtype=float)
    headings = np.concatenate(
        (np.zeros(turns.shape[:-1] + (1,)), np.cumsum(turns, axis=-1)), axis=-1
    )
    steps = ell[:, None] * np.stack((np.cos(headings), np.sin(headings)), axis=-1)
    return np.cumsum(steps, axis=-2)


class TestChainVertices:
    @pytest.mark.parametrize("shape", [(0,), (9,), (50, 9), (4, 6, 9)])
    def test_matches_stacked_formula(self, shape):
        rng = np.random.default_rng(sum(shape) + len(shape))
        turns = rng.uniform(-math.pi, math.pi, shape)
        ell = rng.uniform(1e-3, 1e3, shape[-1] + 1)
        got = chain_vertices(ell, turns)
        want = _chain_vertices_stacked(ell, turns)
        assert got.shape == want.shape == shape[:-1] + (shape[-1] + 1, 2)
        assert got.tobytes() == want.tobytes()

    def test_triangle_batch_without_lengths(self):
        # the oracle's triangle has no free angle: no lengths, no turns
        ell, turns = np.ones(3)[:0], np.empty((1, 0))
        got = chain_vertices(ell, turns)
        assert got.shape == _chain_vertices_stacked(ell, turns).shape == (1, 0, 2)


class TestTurnAnglesFromVertices:
    def test_square_ccw(self):
        sq = pl.PolygonChain(np.array([[1.0, 0], [1, 1], [0, 1], [0, 0]]))
        assert np.allclose(
            pl.turn_angles_from_vertices(sq).angles, [math.pi / 2] * 4, atol=0
        )

    def test_square_cw(self):
        sq = pl.PolygonChain(np.array([[0.0, 0], [0, 1], [1, 1], [1, 0]]))
        assert np.allclose(
            pl.turn_angles_from_vertices(sq).angles, [-math.pi / 2] * 4, atol=0
        )

    def test_equilateral_triangle(self):
        tri = pl.PolygonChain(
            np.array([[1.0, 0], [0.5, math.sqrt(3) / 2], [0, 0]])
        )
        assert np.allclose(
            pl.turn_angles_from_vertices(tri).angles, [TAU / 3] * 3, atol=1e-15
        )

    def test_zero_length_edge(self):
        bad = pl.PolygonChain(np.array([[1.0, 0], [1, 0], [0, 1]]))
        with pytest.raises(ValueError, match="zero-length"):
            pl.turn_angles_from_vertices(bad)


class TestCanonicalize:
    square = np.array([[1.0, 0], [1, 1], [0, 1], [0, 0]])

    def test_idempotent(self):
        out = pl.canonicalize(pl.PolygonChain(self.square))
        assert np.allclose(out.vertices, self.square, atol=1e-15)

    def test_translation_removed(self):
        out = pl.canonicalize(pl.PolygonChain(self.square + np.array([5.0, 7.0])))
        assert np.allclose(out.vertices, self.square, atol=1e-12)

    def test_rotation_removed(self):
        a = math.radians(30)
        rot = np.array([[math.cos(a), -math.sin(a)], [math.sin(a), math.cos(a)]])
        out = pl.canonicalize(pl.PolygonChain(self.square @ rot.T))
        assert np.allclose(out.vertices, self.square, atol=1e-12)
        assert out.is_canonical()

    def test_distances_preserved(self):
        rng = np.random.default_rng(1)
        pts = rng.normal(size=(6, 2)) * 3
        chain = pl.PolygonChain(pts)
        out = pl.canonicalize(chain)
        d_in = np.linalg.norm(pts[:, None] - pts[None, :], axis=-1)
        d_out = np.linalg.norm(
            out.vertices[:, None] - out.vertices[None, :], axis=-1
        )
        assert np.max(np.abs(d_in - d_out)) < 1e-12 * max(1, d_in.max())

    @pytest.mark.parametrize("scale", SCALES)
    def test_is_canonical_at_any_scale(self, scale):
        assert pl.PolygonChain(self.square * scale).is_canonical()
        a = 1e-6  # a small rotation moves vertex 0 off the x-axis
        rot = np.array([[math.cos(a), -math.sin(a)], [math.sin(a), math.cos(a)]])
        assert not pl.PolygonChain(self.square @ rot.T * scale).is_canonical()


@pytest.mark.parametrize("scale", SCALES)
def test_realizes_at_any_scale(scale):
    chain = pl.PolygonChain(TestCanonicalize.square * scale)
    assert chain.realizes(pl.SideLengths(np.ones(4) * scale))
    assert not chain.realizes(pl.SideLengths(np.array([1, 1, 1, 1 + 1e-6]) * scale))


class TestCircleIntersection:
    def test_two_points_with_ordering(self):
        pts = pl.circle_circle_intersection((0, 0), 1.0, (1, 0), 1.0)
        # left of the line (0,0)->(1,0) means positive y
        assert np.allclose(pts[0], (0.5, math.sqrt(3) / 2))
        assert np.allclose(pts[1], (0.5, -math.sqrt(3) / 2))

    def test_disjoint(self):
        assert pl.circle_circle_intersection((0, 0), 1.0, (3, 0), 1.0) == []

    def test_tangent(self):
        pts = pl.circle_circle_intersection((0, 0), 1.0, (2, 0), 1.0)
        assert len(pts) == 1
        assert np.allclose(pts[0], (1.0, 0.0))

    def test_coincident_centers(self):
        with pytest.raises(ValueError, match="coincident"):
            pl.circle_circle_intersection((0, 0), 1.0, (0, 0), 2.0)

    def test_points_satisfy_both_circles(self):
        rng = np.random.default_rng(2)
        for _ in range(300):
            c1 = rng.normal(size=2) * 2
            c2 = rng.normal(size=2) * 2
            r1, r2 = rng.uniform(0.1, 3.0, 2)
            if np.hypot(*(c2 - c1)) < 1e-6:
                continue
            points = pl.circle_circle_intersection(c1, r1, c2, r2)
            for pt in points:
                tol = 1e-9 * max(r1, r2)
                assert abs(np.hypot(*(np.array(pt) - c1)) - r1) < tol
                assert abs(np.hypot(*(np.array(pt) - c2)) - r2) < tol
            if len(points) == 2:
                # left of the directed center line c1 -> c2 first, then right
                (dx, dy), (p0, p1) = c2 - c1, np.subtract(points, c1)
                assert dx * p0[1] - dy * p0[0] > 0.0 > dx * p1[1] - dy * p1[0]


def _relation(seg1, seg2):
    """How two segments meet, asserted the same at every scale in SCALES
    and moved by every offset in OFFSETS."""
    pairs = [(np.multiply(seg1, s), np.multiply(seg2, s)) for s in SCALES]
    pairs += [(np.add(seg1, t), np.add(seg2, t)) for t in OFFSETS]
    rels = {pl.segment_intersection(*pair) for pair in pairs}
    assert len(rels) == 1, rels
    return rels.pop()


class TestSegmentIntersection:
    def test_proper_crossing(self):
        rel = _relation(((0, 0), (2, 2)), ((2, 0), (0, 2)))
        assert rel is pl.SegmentRelation.PROPER_CROSSING

    def test_endpoint_touch(self):
        rel = _relation(((0, 0), (1, 0)), ((1, 0), (1, 1)))
        assert rel is pl.SegmentRelation.ENDPOINT_TOUCH

    def test_collinear_overlap(self):
        rel = _relation(((0, 0), (2, 0)), ((1, 0), (3, 0)))
        assert rel is pl.SegmentRelation.OVERLAP

    def test_disjoint(self):
        rel = _relation(((0, 0), (1, 0)), ((0, 1), (1, 1)))
        assert rel is pl.SegmentRelation.DISJOINT

    def test_near_miss_is_disjoint(self):
        # the second segment starts on the first one's line, 5e-4 past its end
        rel = _relation(((0, 0), (1, 0)), ((1.0005, 0), (2, 1)))
        assert rel is pl.SegmentRelation.DISJOINT

    def test_t_junction_is_touch(self):
        rel = _relation(((0, 0), (2, 0)), ((1, 0), (1, 1)))
        assert rel is pl.SegmentRelation.ENDPOINT_TOUCH

    def test_collinear_endpoint_touch(self):
        rel = _relation(((0, 0), (1, 0)), ((1, 0), (2, 0)))
        assert rel is pl.SegmentRelation.ENDPOINT_TOUCH

    def test_parallel_segments_apart_are_disjoint(self):
        rel = _relation(((0, 0), (1, 0)), ((0, 0.5), (1, 0.5)))
        assert rel is pl.SegmentRelation.DISJOINT

    def test_degenerate_segment(self):
        for s in SCALES:
            with pytest.raises(ValueError, match="degenerate"):
                pl.segment_intersection(((0, 0), (0, 0)), ((s, 0), (s, s)))
        for t in OFFSETS:
            seg1, seg2 = np.add(((0, 0), (0, 0)), t), np.add(((1, 0), (1, 1)), t)
            with pytest.raises(ValueError, match="degenerate"):
                pl.segment_intersection(seg1, seg2)


@given(st.floats(min_value=-50.0, max_value=50.0, allow_nan=False))
def test_normalize_angle_range(x):
    y = pl.normalize_angle(x)
    assert -math.pi < y <= math.pi
    # same angle modulo full turns
    assert abs(math.remainder(x - y, TAU)) < 1e-9


def test_normalize_angle_fold_convention():
    assert pl.normalize_angle(-math.pi) == math.pi
    assert pl.normalize_angle(math.pi) == math.pi
    assert pl.normalize_angle(3 * math.pi) == math.pi


def test_round_trip_random_chains():
    rng = np.random.default_rng(42)
    worst = 0.0
    for _ in range(200):
        chain = random_closed_chain(rng)
        angles = pl.turn_angles_from_vertices(chain)
        assert np.all(angles.angles > -math.pi)
        assert np.all(angles.angles <= math.pi)
        rebuilt, _ = pl.vertices_from_turn_angles(chain.side_lengths(), angles)
        canon = pl.canonicalize(chain)
        worst = max(worst, float(np.max(np.abs(rebuilt.vertices - canon.vertices))))
    assert worst < 1e-9


def test_turn_angle_sum_multiple_of_tau():
    rng = np.random.default_rng(43)
    for _ in range(100):
        chain = random_closed_chain(rng)
        w = pl.turn_angles_from_vertices(chain).winding
        assert abs(w - TAU * round(w / TAU)) < 1e-9


def test_reflect_x_negates_turns():
    rng = np.random.default_rng(44)
    chain = random_closed_chain(rng)
    a = pl.turn_angles_from_vertices(chain).angles
    b = pl.turn_angles_from_vertices(pl.reflect_x(chain)).angles
    # wherever no fold is involved the reflection negates the turn
    mask = np.abs(a) < math.pi - 1e-9
    assert np.allclose(b[mask], -a[mask], atol=1e-12)
