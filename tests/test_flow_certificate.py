"""The flow's clearance certificate: it may accept a trial as embedded
only where ``embedded_mask`` accepts it too, and the flow decides exactly
as it does with every trial sent to ``classify``."""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import polylink as pl
from polylink import flow
from polylink.chain_geometry import embedded_mask
from polylink.energy import project_tangent

from conftest import random_embedded_ccw, star_polygon

KINDS = ("near-contact", "near-fold", "tiny-edge", "scaled")


def _embedded(le) -> bool:
    return bool(embedded_mask(le.chain.vertices[None])[0])


def _probe(free, lengths):
    """The flow's evaluation of free angles, ``(projected free angles,
    LogEnergy)``, or None where the line search would skip them."""
    try:
        le = flow._evaluate(free, lengths)
        return le.full_angles[:-1], le
    except (ValueError, np.linalg.LinAlgError):
        return None


def _tiny_edge_polygon(n, rng):
    """Embedded CCW n-gon with one edge 1e-4 times the longest."""
    while True:
        pts = star_polygon(n - 1, rng).vertices
        k = int(rng.integers(n - 1))
        edge = pts[k] - pts[k - 1]
        longest = np.hypot(*(pts - np.roll(pts, 1, axis=0)).T).max()
        phi = math.atan2(edge[1], edge[0]) + rng.uniform(-1.0, 1.0)
        q = pts[k] - 1e-4 * longest * np.array([math.cos(phi), math.sin(phi)])
        chain = pl.PolygonChain(np.insert(pts, k, q, axis=0))
        cls = pl.classify(chain)
        if cls.embedded and abs(cls.winding - 2.0 * math.pi) <= 1e-6:
            return pl.canonicalize(chain)


def _toward_boundary(free, direction, lengths, depth):
    """Walk from ``free`` along ``direction``, projecting onto closure at
    every step, until the chain stops being embedded; returns free angles
    ``10**-depth`` (along ``direction``) short of that point, which
    bisection locates."""
    def probe(t):
        hit = _probe(free + t * direction, lengths)
        return hit if hit is not None and _embedded(hit[1]) else None

    h = 0.05
    for _ in range(200):
        hit = probe(h)
        if hit is None:
            break
        free = hit[0]
    else:
        return free
    lo, hi = 0.0, h
    for _ in range(60):
        mid = 0.5 * (lo + hi)
        lo, hi = (mid, hi) if probe(mid) is not None else (lo, mid)
    return free + (lo - 10.0**-depth) * direction


def _pair(kind, seed, n, depth, overshoot, scale_exp):
    """Side lengths with a base iterate ``10**-depth`` short of the
    boundary of embeddedness and a trial ``10**overshoot`` times that far
    on toward it, both as the flow evaluates them."""
    rng = np.random.default_rng(seed)
    if kind == "tiny-edge":
        chain = _tiny_edge_polygon(n, rng)
    else:
        chain = random_embedded_ccw(n, rng)
    free = pl.ReducedCoords.from_chain(chain).free_angles
    scale = 10.0**scale_exp if kind == "scaled" else 1.0
    lengths = pl.SideLengths(chain.side_lengths().lengths * scale)
    if kind == "near-fold":
        # open or close the sharpest turn toward a fold
        direction = np.zeros_like(free)
        i = int(np.argmax(np.abs(free)))
        direction[i] = math.copysign(1.0, free[i])
    else:
        direction = rng.normal(size=free.size)
        direction /= np.linalg.norm(direction)
    free = _toward_boundary(free, direction, lengths, depth)
    # the trial moves on toward the boundary, a little off the line
    wobble = rng.normal(size=free.size)
    step = direction + 0.3 * wobble / np.linalg.norm(wobble)
    trial_free = free + 10.0 ** (overshoot - depth) * step / np.linalg.norm(step)
    base, trial = _probe(free, lengths), _probe(trial_free, lengths)
    return lengths, base and base[1], trial and trial[1]


def _certifies(lengths, base, trial) -> bool:
    """The certificate's verdict on one pair, asserting its claim."""
    cert = flow.ClearanceCertificate(lengths)
    cert.rebase(base)
    certified = cert.certifies(trial)
    if certified:
        assert _embedded(trial), "certified a trial embedded_mask rejects"
    return certified


@pytest.mark.parametrize("kind", KINDS)
@settings(max_examples=30, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    n=st.integers(4, 12),
    depth=st.floats(1.0, 8.0),
    overshoot=st.floats(-9.0, 1.0),
    scale_exp=st.floats(-6.0, 6.0),
)
def test_certificate_implies_embedded(kind, seed, n, depth, overshoot, scale_exp):
    lengths, base, trial = _pair(kind, seed, n, depth, overshoot, scale_exp)
    if base is not None and trial is not None:
        _certifies(lengths, base, trial)


def test_near_degenerate_pairs_reach_both_verdicts():
    # the generated pairs are not vacuous: some are certified, and some
    # trials are not embedded at all (and must never be certified)
    certified = rejected = 0
    for k in range(40):
        kind = KINDS[k % 4]
        overshoot = (-8.0, -6.0, -4.0, -2.0, 0.5)[k // 4 % 5]
        lengths, base, trial = _pair(
            kind, 5000 + k, 4 + k % 9, 1.0 + k % 7, overshoot, -6.0 + k % 13
        )
        if base is None or trial is None:
            continue
        certified += _certifies(lengths, base, trial)
        rejected += not _embedded(trial)
    assert certified >= 5 and rejected >= 5


def _contact_pair(pts, shrink):
    """Walk the polygon ``pts`` in the flow's coordinates, tangent to
    closure, down ``shrink(vertices) -> (gap, d gap**2 / d free angles)``
    to where the chain stops being embedded; returns the side lengths and
    the flow's evaluations just before and just past that point."""
    chain = pl.canonicalize(pl.PolygonChain(np.asarray(pts, float)))
    lengths = chain.side_lengths()
    free, le = _probe(pl.ReducedCoords.from_chain(chain).free_angles, lengths)
    while True:
        gap, grad = shrink(le.chain.vertices)
        d = -project_tangent(grad, le.jacobian)
        d /= np.linalg.norm(d)
        h = min(0.01, 0.2 * gap)
        hit = _probe(free + h * d, lengths)
        if hit is None or not _embedded(hit[1]):
            break
        free, le = hit
    lo, hi = 0.0, h
    for _ in range(80):
        mid = 0.5 * (lo + hi)
        hit = _probe(free + mid * d, lengths)
        lo, hi = (mid, hi) if hit and _embedded(hit[1]) else (lo, mid)
    # the bracket's own ends: rounding makes embeddedness ragged at this
    # resolution, so a point just outside the bracket may fall either way
    base = _probe(free + lo * d, lengths)[1]
    trial = _probe(free + hi * d, lengths)[1]
    assert _embedded(base) and not _embedded(trial)
    return lengths, base, trial


def _swing(v, target):
    """d |v3 - target|**2 / d free angles with ``target`` held: turn m < 3
    swings vertex 3 about vertex m."""
    grad = np.zeros(v.shape[0] - 1)
    for m in range(3):
        arm = v[3] - v[m]
        grad[m] = 2.0 * np.dot(v[3] - target, (-arm[1], arm[0]))
    return grad


def test_tolerance_band_guards_a_vertex_pinch():
    # vertex 3 closes in on vertex 0: near a vertex the denominators shrink
    # only linearly, so the kernel's clearance is still positive where the
    # tolerance of embedded_mask already reports contact, and only the
    # band check declines the trial
    pinch = [[0, 0], [1, -1], [1, 1], [0.1, 0], [-1, 1], [-1, -1]]
    lengths, base, trial = _contact_pair(
        pinch,
        lambda v: (np.linalg.norm(v[3] - v[0]), _swing(v, v[0])),
    )
    move = np.abs(trial.chain.vertices - base.chain.vertices).max()
    assert base.min_den > 1e-12 > 100.0 * move
    assert not _certifies(lengths, base, trial)


def test_closure_defect_is_budgeted(monkeypatch):
    # with a loose closure tolerance the stored edge 0 starts far from the
    # origin, where the kernel anchors it: vertex 3 touches the stored edge
    # while the kernel still sees it clear by a wide margin
    dent = [[2, 0], [2, 1], [1.2, 1], [1, 0.3], [0.8, 1], [0, 1], [0, 0]]
    perimeter = pl.PolygonChain(np.asarray(dent, float)).perimeter
    monkeypatch.setattr(flow, "CLOSURE_RTOL", 1e-3 / perimeter)
    lengths, base, trial = _contact_pair(
        dent,
        lambda v: (v[3, 1], _swing(v, (v[3, 0], 0.0))),
    )
    move = np.abs(trial.chain.vertices - base.chain.vertices).max()
    assert math.hypot(*base.chain.vertices[-1]) > 1e-5
    assert base.min_den > 1e-9 > 100.0 * move
    assert not _certifies(lengths, base, trial)


def _checked_certificate(monkeypatch):
    """Route every certificate verdict through ``embedded_mask``; returns
    the list of verdicts."""
    verdicts = []
    original = flow.ClearanceCertificate.certifies

    def checked(self, trial):
        certified = original(self, trial)
        if certified:
            assert _embedded(trial), "certified a trial embedded_mask rejects"
        verdicts.append(certified)
        return certified

    monkeypatch.setattr(flow.ClearanceCertificate, "certifies", checked)
    return verdicts


def test_flow_trials_certified_only_when_embedded(monkeypatch, pentagon_fixture):
    verdicts = _checked_certificate(monkeypatch)
    rng = np.random.default_rng(808)
    for n in range(4, 13):
        chain = random_embedded_ccw(n, rng, require_nonconvex=True)
        assert pl.convexify(chain).status == pl.CONVERGED
        pl.reverse_flow_step(chain)
    pl.reverse_flow_step(pentagon_fixture)
    # the certificate carries most of the flow's embeddedness tests
    assert sum(verdicts) > len(verdicts) // 2


def test_unverified_base_certifies_nothing():
    # every vertex of a pentagram is far from its non-incident edges, so
    # only the embeddedness check of the base stops the small-move argument
    lengths = pl.SideLengths(np.ones(5))
    chain, _ = pl.vertices_from_turn_angles(lengths, np.full(5, 0.8 * math.pi))
    coords = pl.ReducedCoords.from_chain(chain)
    le = pl.log_energy_gradient(coords, lengths, chain=chain)
    assert not _embedded(le)
    cert = flow.ClearanceCertificate(lengths)
    assert cert.clearance(le) > 0.1
    cert.rebase(le)
    assert not cert.certifies(le)
    cert.rebase(le, known_embedded=True)  # a false premise
    assert cert.certifies(le)


def test_start_chain_failing_verification_is_never_certified_from(
    monkeypatch, pentagon_fixture
):
    expected_step = pl.reverse_flow_step(pentagon_fixture)
    expected_trace = pl.convexify(pentagon_fixture, pl.FlowParams(max_iterations=1))
    verdicts = _checked_certificate(monkeypatch)
    # the flow calls embedded_mask only to verify a start chain
    monkeypatch.setattr(flow, "embedded_mask", lambda verts: np.zeros(1, dtype=bool))
    step = pl.reverse_flow_step(pentagon_fixture)
    trace = pl.convexify(pentagon_fixture, pl.FlowParams(max_iterations=1))
    assert verdicts and not any(verdicts)
    assert np.array_equal(step.vertices, expected_step.vertices)
    assert trace.records == expected_trace.records


def _flow_outputs(pentagon_fixture):
    rng = np.random.default_rng(909)
    traces = [
        pl.convexify(random_embedded_ccw(n, rng, require_nonconvex=True))
        for n in range(4, 13)
    ]
    return traces, pl.reverse_flow_step(pentagon_fixture)


def test_certificate_changes_no_decision(monkeypatch, pentagon_fixture):
    verdicts = _checked_certificate(monkeypatch)
    traces, step = _flow_outputs(pentagon_fixture)
    assert any(verdicts)
    monkeypatch.setattr(
        flow.ClearanceCertificate, "certifies", lambda self, trial: False
    )
    ref_traces, ref_step = _flow_outputs(pentagon_fixture)
    for trace, ref in zip(traces, ref_traces, strict=True):
        assert (trace.status, trace.reflected) == (ref.status, ref.reflected)
        assert trace.records == ref.records
        assert [s.step for s in trace.snapshots] == [s.step for s in ref.snapshots]
        for snap, ref_snap in zip(trace.snapshots, ref.snapshots):
            assert snap.vertices.tobytes() == ref_snap.vertices.tobytes()
        final, ref_final = trace.snapshots[-1].vertices, ref.snapshots[-1].vertices
        assert final.tobytes() == ref_final.tobytes()
    assert step.vertices.tobytes() == ref_step.vertices.tobytes()
