import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

import polylink as pl

from conftest import random_closed_chain

TAU = 2.0 * math.pi


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
            for pt in pl.circle_circle_intersection(c1, r1, c2, r2):
                tol = 1e-9 * max(r1, r2)
                assert abs(np.hypot(*(np.array(pt) - c1)) - r1) < tol
                assert abs(np.hypot(*(np.array(pt) - c2)) - r2) < tol


class TestSegmentIntersection:
    def test_proper_crossing(self):
        rel = pl.segment_intersection(((0, 0), (2, 2)), ((2, 0), (0, 2)))
        assert rel is pl.SegmentRelation.PROPER_CROSSING

    def test_endpoint_touch(self):
        rel = pl.segment_intersection(((0, 0), (1, 0)), ((1, 0), (1, 1)))
        assert rel is pl.SegmentRelation.ENDPOINT_TOUCH

    def test_collinear_overlap(self):
        rel = pl.segment_intersection(((0, 0), (2, 0)), ((1, 0), (3, 0)))
        assert rel is pl.SegmentRelation.OVERLAP

    def test_disjoint(self):
        rel = pl.segment_intersection(((0, 0), (1, 0)), ((0, 1), (1, 1)))
        assert rel is pl.SegmentRelation.DISJOINT

    def test_t_junction_is_touch(self):
        rel = pl.segment_intersection(((0, 0), (2, 0)), ((1, 0), (1, 1)))
        assert rel is pl.SegmentRelation.ENDPOINT_TOUCH

    def test_collinear_endpoint_touch(self):
        rel = pl.segment_intersection(((0, 0), (1, 0)), ((1, 0), (2, 0)))
        assert rel is pl.SegmentRelation.ENDPOINT_TOUCH

    def test_degenerate_segment(self):
        with pytest.raises(ValueError, match="degenerate"):
            pl.segment_intersection(((0, 0), (0, 0)), ((1, 0), (1, 1)))


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
