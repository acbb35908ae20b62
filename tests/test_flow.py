import json
import math
from pathlib import Path

import numpy as np
import pytest

import polylink as pl
from polylink.energy import log_energy_gradient

from conftest import random_embedded_ccw

TAU = 2.0 * math.pi
FIXTURES = Path(__file__).parent / "fixtures"


def _unit_square():
    chain, _ = pl.vertices_from_turn_angles(
        pl.SideLengths([1, 1, 1, 1]), np.array([math.pi / 2] * 4)
    )
    return chain


class TestProjectToClosure:
    def test_already_closed_unchanged(self):
        free = np.array([math.pi / 2] * 3)
        out, _ = pl.project_to_closure(free, pl.SideLengths([1, 1, 1, 1]))
        assert np.array_equal(out, free)

    def test_small_perturbation(self):
        lengths = pl.SideLengths([1, 1, 1, 1])
        free = np.array([math.pi / 2 + 1e-3, math.pi / 2, math.pi / 2])
        out, _ = pl.project_to_closure(free, lengths)
        _, defect = pl.vertices_from_turn_angles(lengths, np.append(out, 0.0))
        assert defect < 1e-12
        # regression bound: the minimal-norm correction stays local
        assert np.max(np.abs(out - free)) < 2e-3

    def test_large_defect_rejected(self):
        free = np.array([math.pi / 2 + 1.5, math.pi / 2, math.pi / 2])
        with pytest.raises(pl.ClosureError, match="too large"):
            pl.project_to_closure(free, pl.SideLengths([1, 1, 1, 1]))


class TestConvexify:
    def test_convex_input_returns_immediately(self):
        trace = pl.convexify(_unit_square())
        assert trace.status == pl.CONVERGED
        assert len(trace.records) == 1
        assert trace.accepted_steps == 0
        assert len(trace.snapshots) == 1

    def test_pentagon_fixture_converges(self, pentagon_fixture):
        trace = pl.convexify(pentagon_fixture)
        assert trace.status == pl.CONVERGED
        assert trace.records[-1].min_turn_angle >= -1e-6
        logs = [r.log_energy for r in trace.records]
        assert all(b < a for a, b in zip(logs, logs[1:]))
        lengths = pentagon_fixture.side_lengths()
        for snap in trace.snapshots:
            chain = pl.PolygonChain(snap.vertices)
            assert pl.classify(chain).embedded
            assert np.max(np.abs(chain.edge_lengths() - lengths.lengths)) < 1e-9

    def test_pentagon_fixture_trace_summary_regression(self, pentagon_fixture):
        stored = json.loads(
            (FIXTURES / "pentagon_trace_summary.json").read_text()
        )
        trace = pl.convexify(pentagon_fixture)
        assert trace.status == stored["status"]
        assert trace.accepted_steps == stored["accepted_steps"]
        assert trace.reflected == stored["reflected"]
        assert trace.records[0].log_energy == float(
            stored["initial_log_energy"]
        )

    def test_31_gon_converges(self):
        # the flow never needs genericity, so it must not decide it
        chain = random_embedded_ccw(31, np.random.default_rng(0), require_nonconvex=True)
        lengths = chain.side_lengths()
        trace = pl.convexify(chain)
        assert trace.status == pl.CONVERGED
        for snap in trace.snapshots:
            snap_chain = pl.PolygonChain(snap.vertices)
            assert pl.classify(snap_chain).embedded
            assert np.max(np.abs(snap_chain.edge_lengths() - lengths.lengths)) < 1e-9

    def test_non_embedded_rejected(self):
        bow = pl.PolygonChain(np.array([[0.0, 0], [2, 2], [2, 0], [0, 2]]))
        with pytest.raises(pl.NotEmbeddedError, match="embedded"):
            pl.convexify(bow)

    def test_max_iterations_status(self, pentagon_fixture):
        params = pl.FlowParams(max_iterations=2)
        trace = pl.convexify(pentagon_fixture, params)
        assert trace.status == pl.MAX_ITERATIONS
        assert trace.accepted_steps <= 2

    def test_deterministic(self, pentagon_fixture):
        t1 = pl.convexify(pentagon_fixture)
        t2 = pl.convexify(pentagon_fixture)
        assert len(t1.records) == len(t2.records)
        for a, b in zip(t1.records, t2.records):
            assert a.log_energy == b.log_energy
            assert a.step_size == b.step_size
        for a, b in zip(t1.snapshots, t2.snapshots):
            assert np.array_equal(a.vertices, b.vertices)

    def test_cw_input_is_reflected(self, pentagon_fixture):
        cw = pl.PolygonChain(pentagon_fixture.vertices[::-1].copy())
        assert pl.classify(cw).winding < 0
        trace = pl.convexify(cw)
        assert trace.reflected
        assert trace.status == pl.CONVERGED

    def test_snapshot_count_matches_stride(self, pentagon_fixture):
        params = pl.FlowParams(snapshot_stride=7)
        trace = pl.convexify(pentagon_fixture, params)
        t = trace.accepted_steps
        assert len(trace.snapshots) == math.ceil(t / 7) + 1
        steps = [s.step for s in trace.snapshots]
        assert steps[0] == 0 and steps[-1] == t

    def test_trace_energy_columns_consistent(self, pentagon_fixture):
        trace = pl.convexify(pentagon_fixture)
        for r in trace.records:
            if r.log_energy == -math.inf:
                assert r.energy == 0.0
            elif r.log_energy > -700:
                assert r.energy == pytest.approx(
                    math.exp(r.log_energy), rel=1e-12
                )


# accepted steps of the first 40 polygons of the c03 acceptance recipe
# (random_embedded_ccw, default_rng(103), n = 4 + i % 5); all converge
C03_RECIPE_STEPS = [
    153, 15, 91, 66, 188, 51, 282, 59, 280, 368,
    34, 206, 147, 119, 300, 240, 161, 132, 225, 262,
    23, 37, 229, 323, 464, 88, 78, 261, 28, 280,
    27, 68, 25, 19, 167, 102, 178, 100, 245, 130,
]


def test_c03_recipe_decisions_pinned():
    # a rounding change in the flow moves late-run step counts; this pins
    # every accept decision of 40 seeded runs (6,251 steps)
    rng = np.random.default_rng(103)
    got = []
    for count in range(len(C03_RECIPE_STEPS)):
        n = 4 + count % 5
        trace = pl.convexify(random_embedded_ccw(n, rng, require_nonconvex=True))
        got.append((trace.lengths.n, trace.status, trace.accepted_steps))
    expected = [
        (4 + count % 5, pl.CONVERGED, steps)
        for count, steps in enumerate(C03_RECIPE_STEPS)
    ]
    assert got == expected
    assert sum(C03_RECIPE_STEPS) == 6251


class TestFlowParams:
    def test_validation(self):
        with pytest.raises(ValueError):
            pl.FlowParams(initial_step=-1.0)
        with pytest.raises(ValueError):
            pl.FlowParams(max_iterations=0)


class TestReverseFlowStep:
    def test_non_embedded_rejected(self):
        bow = pl.PolygonChain(np.array([[0.0, 0], [2, 2], [2, 0], [0, 2]]))
        with pytest.raises(pl.NotEmbeddedError, match="embedded"):
            pl.reverse_flow_step(bow)
        # callers of the public API may still catch ValueError
        assert issubclass(pl.NotEmbeddedError, ValueError)

    def test_convex_interior_rejected(self):
        with pytest.raises(ValueError, match="zero gradient"):
            pl.reverse_flow_step(_unit_square())

    def test_near_boundary_ascent(self):
        lengths = pl.SideLengths([1, 1.2, 0.9, 1.1, 1.0])
        _, w = pl.min_turn_angle(lengths, [])
        theta = pl.turn_angles_from_vertices(w.chain).angles
        free = theta[:-1].copy()
        j = int(np.argmin(np.abs(free)))
        free[j] = -1e-3
        free, chain = pl.project_to_closure(free, lengths)
        before = log_energy_gradient(pl.ReducedCoords(free), lengths).log_value
        stepped = pl.reverse_flow_step(chain)
        after = log_energy_gradient(
            pl.ReducedCoords.from_chain(stepped), lengths
        ).log_value
        assert after > before
        assert pl.classify(stepped).embedded

    def test_pentagon_step_pinned(self, pentagon_fixture):
        # written by the flow with its own ascent loop; the shared line
        # search must reproduce it bit for bit
        expected = np.array([
            [1.9701444466846114, 0.0],
            [1.9331822588261607, 0.06037851389159836],
            [2.1995030862802016, 0.9721298741815586],
            [1.6979686659458204, 1.1179035026608803],
            [5.704325900524054e-13, 3.448352714485736e-13],
        ])
        stepped = pl.reverse_flow_step(pentagon_fixture)
        assert np.array_equal(stepped.vertices, expected)

    def test_energy_cap_refused(self, pentagon_fixture):
        cap = pl.modified_energy(pentagon_fixture)
        with pytest.raises(ValueError, match="no acceptable ascent"):
            pl.reverse_flow_step(pentagon_fixture, energy_cap=cap)

    def test_energy_cap_shortens_step(self, pentagon_fixture):
        e0 = pl.modified_energy(pentagon_fixture)
        free0 = pl.ReducedCoords.from_chain(pentagon_fixture).free_angles

        def moved(chain):
            return np.linalg.norm(pl.ReducedCoords.from_chain(chain).free_angles - free0)

        free_step = pl.reverse_flow_step(pentagon_fixture)
        capped = pl.reverse_flow_step(pentagon_fixture, energy_cap=1.001 * e0)
        assert pl.modified_energy(free_step) > 1.001 * e0
        assert e0 < pl.modified_energy(capped) <= 1.001 * e0
        assert moved(capped) < moved(free_step) / 2
        assert pl.classify(capped).embedded

    def test_crossing_step_rejected_by_embeddedness(self):
        # polygon with a deep pocket: ascent pushes toward self-contact;
        # an aggressive raw step crosses, the accepted step may not
        rng = np.random.default_rng(14)
        found = False
        for _ in range(200):
            chain = random_embedded_ccw(6, rng, require_nonconvex=True)
            lengths = chain.side_lengths()
            coords = pl.ReducedCoords.from_chain(chain)
            le = log_energy_gradient(coords, lengths)
            d = le.projected_gradient / np.linalg.norm(le.projected_gradient)
            try:
                _, raw_chain = pl.project_to_closure(
                    coords.free_angles + 0.8 * d, lengths
                )
            except ValueError:
                continue
            if pl.classify(raw_chain).embedded:
                continue
            found = True
            stepped = pl.reverse_flow_step(
                chain, pl.FlowParams(initial_step=0.8)
            )
            assert pl.classify(stepped).embedded
            break
        assert found, "no crossing fixture found"

    def test_random_convexifications(self):
        rng = np.random.default_rng(15)
        for n in (4, 6, 8):
            chain = random_embedded_ccw(n, rng, require_nonconvex=True)
            trace = pl.convexify(chain)
            assert trace.status == pl.CONVERGED
            assert trace.records[-1].min_turn_angle >= -1e-6
