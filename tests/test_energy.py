import math

import numpy as np
import pytest

import polylink as pl
from polylink.energy import (
    _elliptic_value,
    _elliptic_value_and_vertex_grad,
    _logsumexp,
    _swing_gradient,
    closure_jacobian,
    log_bump,
)

from conftest import random_embedded_ccw, star_polygon

TAU = 2.0 * math.pi


def _unit_triangle():
    chain, _ = pl.vertices_from_turn_angles(
        pl.SideLengths([1, 1, 1]), np.array([TAU / 3] * 3)
    )
    return chain


def _unit_square():
    chain, _ = pl.vertices_from_turn_angles(
        pl.SideLengths([1, 1, 1, 1]), np.array([math.pi / 2] * 4)
    )
    return chain


class TestEllipticEnergy:
    def test_unit_triangle_is_three(self):
        # 3 pairs, each denominator (1 + 1 - 1)^2
        assert abs(pl.elliptic_energy(_unit_triangle()) - 3.0) < 1e-12

    def test_unit_square_is_four(self):
        # 8 pairs, each term 1/(sqrt(2) + 1 - 1)^2 = 1/2
        assert abs(pl.elliptic_energy(_unit_square()) - 4.0) < 1e-12

    def test_blow_up_near_vertex_edge_contact(self):
        # a notched pentagon whose reflex vertex slides toward the bottom
        # edge: the reflex angle stays bounded away from zero, so both F
        # and the modified energy must blow up monotonically
        f_vals, e_vals = [], []
        for d in (1e-1, 1e-2, 1e-3, 1e-4, 1e-5, 1e-6):
            verts = np.array([[1.0, 0], [1, 1], [0.5, d], [0, 1], [0, 0]])
            chain = pl.PolygonChain(verts)
            assert pl.classify(chain).embedded
            f_vals.append(pl.elliptic_energy(chain))
            e_vals.append(pl.modified_energy(chain))
        assert all(b > a for a, b in zip(f_vals, f_vals[1:]))
        assert all(b > a for a, b in zip(e_vals, e_vals[1:]))
        assert f_vals[-1] > 1e6
        assert e_vals[-1] > 1e6

    def test_vertex_on_edge_rejected(self):
        verts = np.array([[1.0, 0], [1, 1], [0.5, 0.0], [0, 1], [0, 0]])
        with pytest.raises(ValueError, match="non-incident edge"):
            pl.elliptic_energy(pl.PolygonChain(verts))


def _loop_elliptic(verts, anchor):
    """Reference: F, dF/d(vertex) and the smallest denominator pair by
    pair, edge i from verts[i-1] (``anchor`` for i = 0) to verts[i],
    vertices i-1 and i skipped."""
    n = verts.shape[0]
    starts = np.vstack((anchor, verts[:-1]))
    grad = np.zeros_like(verts)
    total = 0.0
    min_den = math.inf
    for i in range(n):
        a, b = starts[i], verts[i]
        lab = math.hypot(*(b - a))
        e_hat = (b - a) / lab
        for j in range(n):
            if j in ((i - 1) % n, i):
                continue
            va, vb = verts[j] - a, verts[j] - b
            da, db = math.hypot(*va), math.hypot(*vb)
            den = da + db - lab
            min_den = min(min_den, den)
            total += 1.0 / (den * den)
            w = -2.0 / (den * den * den)
            grad[j] += w * (va / da + vb / db)
            if i >= 1:
                grad[i - 1] += w * (-va / da + e_hat)
            grad[i] += w * (-vb / db - e_hat)
    return total, grad, min_den


def _nonconvex_star(n, seed):
    rng = np.random.default_rng(seed)
    while True:
        chain = star_polygon(n, rng)
        if (
            pl.classify(chain).embedded
            and pl.turn_angles_from_vertices(chain).angles.min() < -0.2
        ):
            return chain


class TestEllipticKernel:
    @pytest.mark.parametrize("n", [4, 8, 16, 32, 64])
    def test_matches_pairwise_loop(self, n):
        chain = _nonconvex_star(n, n)
        lengths = chain.side_lengths()
        free = pl.ReducedCoords.from_chain(chain).free_angles
        # closed chain (anchor = last vertex) and the off-manifold
        # extension of the gradient work (anchor = origin, last vertex off it)
        off = pl.ReducedCoords(free + 1e-3).chain(lengths)[0].vertices
        for verts, anchor in ((chain.vertices, chain.vertices[-1]), (off, np.zeros(2))):
            F_ref, g_ref, min_den_ref = _loop_elliptic(verts, anchor)
            F, g, min_den = _elliptic_value_and_vertex_grad(verts, anchor)
            assert F == pytest.approx(F_ref, rel=1e-12, abs=0)
            assert min_den == pytest.approx(min_den_ref, rel=1e-12, abs=0)
            assert _elliptic_value(verts, anchor) == F
            assert np.linalg.norm(g - g_ref) <= 1e-12 * np.linalg.norm(g_ref)

    @pytest.mark.parametrize("n", [4, 8, 16, 32, 64])
    def test_swing_gradient_matches_definition(self, n):
        # dF/dtheta_m = sum over k > m of g_k . rot90(v_k - v_m)
        rng = np.random.default_rng(100 + n)
        verts = _nonconvex_star(n, n).vertices
        vgrad = rng.normal(size=(n, 2))
        ref = np.array([
            sum(
                g[1] * d[0] - g[0] * d[1]
                for g, d in zip(vgrad[m + 1 :], verts[m + 1 :] - verts[m])
            )
            for m in range(n - 1)
        ])
        got = _swing_gradient(verts, vgrad)
        assert np.linalg.norm(got - ref) <= 1e-12 * np.linalg.norm(ref)

    def test_analytic_gradient_matches_fd_at_n32(self):
        chain = _nonconvex_star(32, 32)
        lengths = chain.side_lengths()
        coords = pl.ReducedCoords.from_chain(chain)
        g = pl.energy_gradient(coords, lengths)
        fd = pl.finite_difference_gradient(coords, lengths, 1e-6)
        assert np.linalg.norm(g.gradient - fd) < 1e-5 * np.linalg.norm(fd)

    def test_contact_raises_on_every_entry_point(self):
        # a vertex exactly at the midpoint of the bottom edge
        notch = np.array([[1.0, 0], [1, 1], [0.5, 0.0], [0, 1], [0, 0]])
        with pytest.raises(ValueError, match="non-incident edge"):
            pl.elliptic_energy(pl.PolygonChain(notch))
        # a turn of exactly pi at vertex 0 puts vertex 1 on edge 0
        free = np.array([math.pi, -0.5, 1.0, 1.0])
        with pytest.raises(ValueError, match="non-incident edge"):
            pl.energy_of_free_angles(free, pl.SideLengths([2, 1, 1, 1, 1]))

    def test_given_chain_matches_rebuilt(self, pentagon_fixture):
        lengths = pentagon_fixture.side_lengths()
        free = pl.ReducedCoords.from_chain(pentagon_fixture).free_angles
        free, chain = pl.project_to_closure(free, lengths)
        coords = pl.ReducedCoords(free)
        assert np.array_equal(chain.vertices, coords.chain(lengths)[0].vertices)
        a = pl.log_energy_gradient(coords, lengths)
        b = pl.log_energy_gradient(coords, lengths, chain=chain)
        assert a.log_value == b.log_value
        assert np.array_equal(a.gradient, b.gradient)


class TestBump:
    def test_values(self):
        assert pl.bump(-1.0) == 0.0
        assert pl.bump(0.0) == 0.0
        assert abs(pl.bump(1.0) - math.exp(-1)) < 1e-16
        assert abs(pl.bump(0.5) - math.exp(-4)) < 1e-16

    def test_cutoff_region_is_exact_zero(self):
        assert pl.bump(0.009) == 0.0
        assert pl.bump_derivative(0.009) == 0.0

    def test_strictly_increasing_where_positive(self):
        xs = np.linspace(0.02, 5.0, 200)
        ys = [pl.bump(x) for x in xs]
        assert all(b > a for a, b in zip(ys, ys[1:]))

    def test_smooth_at_zero(self):
        # value and first two finite-difference derivatives vanish
        h = 1e-3
        f = pl.bump
        assert f(0.0) == 0.0
        d1 = (f(h) - f(-h)) / (2 * h)
        d2 = (f(h) - 2 * f(0.0) + f(-h)) / (h * h)
        assert abs(d1) < 1e-12
        assert abs(d2) < 1e-12

    def test_derivative_matches_fd(self):
        for x in (0.05, 0.2, 0.7, 1.5):
            h = 1e-7
            fd = (pl.bump(x + h) - pl.bump(x - h)) / (2 * h)
            assert abs(pl.bump_derivative(x) - fd) < 1e-6 * max(1, abs(fd))

    @pytest.mark.filterwarnings("error")
    def test_bits_on_a_grid_through_cutoff_and_underflow(self):
        # reference formulas, written out: the bump was flushed to zero at
        # x <= 0.01, and its log is -inf wherever x * x underflows to zero
        def bump_ref(x):
            return 0.0 if x <= 0.01 else math.exp(-1.0 / (x * x))

        def derivative_ref(x):
            if x <= 0.01:
                return 0.0
            return 2.0 / (x * x * x) * math.exp(-1.0 / (x * x))

        def log_bump_ref(x):
            sq = x * x
            return -math.inf if x <= 0.0 or sq == 0.0 else -1.0 / sq

        def same(a, b):
            if math.isnan(a) or math.isnan(b):
                return math.isnan(a) and math.isnan(b)
            return a == b and math.copysign(1.0, a) == math.copysign(1.0, b)

        special = [0.0, -0.0, math.inf, -math.inf, math.nan, 1e-300, 5e-324,
                   1.5e-162, 2e-162, 7e-155, 7.5e-155, 1.5e-154, 1e-10,
                   0.0099, 0.01, 0.0366, 0.0367]
        grid = np.geomspace(5e-324, 10.0, 4001)
        xs = [float(x) for x in np.concatenate((special, grid, -grid))]
        for x in xs:
            assert same(pl.bump(x), bump_ref(x)), x
            assert same(pl.bump_derivative(x), derivative_ref(x)), x
            assert same(log_bump(x), log_bump_ref(x)), x
        # the array form, which the flow uses, gives the same bits
        logs = log_bump(np.array(xs))
        assert all(same(a, log_bump(x)) for a, x in zip(logs.tolist(), xs))


class TestModifiedEnergy:
    def test_convex_polygons_are_zero(self):
        assert pl.modified_energy(_unit_square()) == 0.0
        assert pl.modified_energy(_unit_triangle()) == 0.0

    def test_single_reflex_formula(self):
        # one reflex angle of -0.5 multiplies F by exp(-1/0.25)
        rng = np.random.default_rng(8)
        for _ in range(20):
            chain = random_embedded_ccw(6, rng, require_nonconvex=True)
            theta = pl.turn_angles_from_vertices(chain).angles
            neg = theta[theta < 0]
            if len(neg) == 1 and abs(neg[0] + 0.5) < 0.2:
                expected = pl.bump(-float(neg[0])) * pl.elliptic_energy(chain)
                assert abs(pl.modified_energy(chain) - expected) < 1e-12 * max(
                    1, expected
                )
                break
        # direct formula check on any polygon with one reflex vertex
        chain = random_embedded_ccw(5, rng, require_nonconvex=True)
        theta = pl.turn_angles_from_vertices(chain).angles
        expected = sum(pl.bump(-t) for t in theta) * pl.elliptic_energy(chain)
        assert pl.modified_energy(chain) == pytest.approx(expected, rel=1e-14)

    def test_positivity_and_zero_set(self):
        # across many random embedded polygons: E >= 0 always, and E is
        # zero exactly on the convex ones (random reflex angles land far
        # from the sub-denormal sliver where the bump underflows)
        rng = np.random.default_rng(77)
        count = 0
        while count < 1000:
            n = int(rng.integers(4, 9))
            phis = np.sort(rng.uniform(0, TAU, n))
            radii = rng.uniform(0.5, 1.5, n)
            pts = np.column_stack((radii * np.cos(phis), radii * np.sin(phis)))
            chain = pl.PolygonChain(pts)
            cls = pl.classify(chain)
            if not cls.embedded:
                continue
            theta = pl.turn_angles_from_vertices(chain).angles
            e = pl.modified_energy(chain)
            assert e >= 0.0
            if theta.min() >= -1e-9:
                assert e == 0.0
            elif theta.min() < -0.05:
                assert e > 0.0
            count += 1

    def test_pentagon_fixture_term_audit(self, pentagon_fixture):
        # recompute every pair term independently
        verts = pentagon_fixture.vertices
        n = len(verts)
        total = 0.0
        for i in range(n):
            a = verts[i - 1]
            b = verts[i]
            for j in range(n):
                if j == (i - 1) % n or j == i:
                    continue
                v = verts[j]
                den = (
                    math.dist(v, a) + math.dist(v, b) - math.dist(a, b)
                )
                total += 1.0 / den**2
        theta = pl.turn_angles_from_vertices(pentagon_fixture).angles
        amp = sum(pl.bump(-t) for t in theta)
        assert pl.modified_energy(pentagon_fixture) == pytest.approx(
            amp * total, rel=1e-12
        )
        assert pl.modified_energy(pentagon_fixture) > 0


class TestEnergyGradient:
    def test_convex_gradient_is_zero(self):
        coords = pl.ReducedCoords.from_chain(_unit_square())
        g = pl.energy_gradient(coords, pl.SideLengths([1, 1, 1, 1]))
        assert g.value == 0.0
        assert np.all(g.gradient == 0.0)

    def test_matches_finite_differences_on_fixture(self, pentagon_fixture):
        lengths = pentagon_fixture.side_lengths()
        coords = pl.ReducedCoords.from_chain(pentagon_fixture)
        g = pl.energy_gradient(coords, lengths)
        fd = pl.finite_difference_gradient(coords, lengths, 1e-6)
        rel = np.linalg.norm(g.gradient - fd) / np.linalg.norm(fd)
        assert rel < 1e-5

    def test_fd_convergence_order(self, pentagon_fixture):
        lengths = pentagon_fixture.side_lengths()
        coords = pl.ReducedCoords.from_chain(pentagon_fixture)
        g = pl.energy_gradient(coords, lengths).gradient
        err = {}
        for h in (1e-2, 1e-3, 1e-4):
            fd = pl.finite_difference_gradient(coords, lengths, h)
            err[h] = np.linalg.norm(fd - g)
        # central differences: error shrinks ~h^2
        assert err[1e-3] < err[1e-2] / 20
        assert err[1e-4] < err[1e-3] / 20

    def test_projected_gradient_tangent_to_closure(self, pentagon_fixture):
        lengths = pentagon_fixture.side_lengths()
        coords = pl.ReducedCoords.from_chain(pentagon_fixture)
        g = pl.energy_gradient(coords, lengths)
        jac = closure_jacobian(coords.chain(lengths)[0].vertices)
        assert np.max(np.abs(jac @ g.projected_gradient)) < 1e-9 * max(
            1, np.linalg.norm(g.gradient)
        )

    def test_nonconvex_hexagon_has_nonzero_projected_gradient(
        self, hexagon_fixture
    ):
        lengths = hexagon_fixture.side_lengths()
        coords = pl.ReducedCoords.from_chain(hexagon_fixture)
        g = pl.energy_gradient(coords, lengths)
        assert np.linalg.norm(g.projected_gradient) > 1e-6

    def test_random_polygons_match_fd(self):
        rng = np.random.default_rng(9)
        for n in (4, 5, 6, 7, 8):
            for _ in range(3):
                chain = random_embedded_ccw(n, rng, require_nonconvex=True)
                lengths = chain.side_lengths()
                coords = pl.ReducedCoords.from_chain(chain)
                g = pl.energy_gradient(coords, lengths)
                fd = pl.finite_difference_gradient(coords, lengths, 1e-6)
                rel = np.linalg.norm(g.gradient - fd) / np.linalg.norm(fd)
                assert rel < 1e-5


class TestReducedCoords:
    def test_round_trip(self, pentagon_fixture):
        coords = pl.ReducedCoords.from_chain(pentagon_fixture)
        lengths = pentagon_fixture.side_lengths()
        chain, defect = coords.chain(lengths)
        assert defect < 1e-9
        assert np.max(np.abs(chain.vertices - pentagon_fixture.vertices)) < 1e-9

    def test_dependent_angle_closes_the_turning(self, pentagon_fixture):
        coords = pl.ReducedCoords.from_chain(pentagon_fixture)
        theta = pl.turn_angles_from_vertices(pentagon_fixture).angles
        assert abs(coords.dependent_angle() - theta[-1]) < 1e-9


class TestLogEnergy:
    def test_matches_linear_domain_when_representable(self, pentagon_fixture):
        lengths = pentagon_fixture.side_lengths()
        coords = pl.ReducedCoords.from_chain(pentagon_fixture)
        le = pl.log_energy_gradient(coords, lengths)
        g = pl.energy_gradient(coords, lengths)
        assert math.exp(le.log_value) == pytest.approx(g.value, rel=1e-10)
        assert np.allclose(le.gradient, g.gradient / g.value, rtol=1e-9)

    @pytest.mark.parametrize("n", [4, 7, 12])
    def test_log_bumps_match_scalar_log_bump(self, n):
        # the log energy is the log-sum-exp of the per-angle scalar log
        # bumps plus log F, bit for bit, with -inf bumps at x <= 0
        rng = np.random.default_rng(40 + n)
        chain = random_embedded_ccw(n, rng, require_nonconvex=True)
        le = pl.log_energy_gradient(
            pl.ReducedCoords.from_chain(chain), chain.side_lengths()
        )
        logs = np.array([log_bump(-t) for t in le.full_angles])
        assert (logs == -math.inf).any() and np.isfinite(logs).any()
        assert le.log_value == _logsumexp(logs) + math.log(le.elliptic)

    def test_convex_is_minus_infinity(self):
        coords = pl.ReducedCoords.from_chain(_unit_square())
        le = pl.log_energy_gradient(coords, pl.SideLengths([1, 1, 1, 1]))
        assert le.log_value == -math.inf

    def test_usable_below_double_underflow(self):
        # reflex angle -1e-3: E underflows to zero but log E is finite
        lengths = pl.SideLengths([1, 1.2, 0.9, 1.1, 1.0])
        _, w = pl.min_turn_angle(lengths, [])
        theta = pl.turn_angles_from_vertices(w.chain).angles
        free = theta[:-1].copy()
        j = int(np.argmin(np.abs(free)))
        free[j] = -1e-3
        free, _ = pl.project_to_closure(free, lengths)
        coords = pl.ReducedCoords(free)
        le = pl.log_energy_gradient(coords, lengths)
        assert math.isfinite(le.log_value)
        assert le.log_value < -9e5  # ~ -1/(1e-3)^2
        assert np.linalg.norm(le.projected_gradient) > 0

    def test_bump_factor_decreases_as_reflex_rises(self, pentagon_fixture):
        # raising the single reflex angle toward zero (closure re-projected)
        # strictly shrinks the bump amplitude
        lengths = pentagon_fixture.side_lengths()
        theta = pl.turn_angles_from_vertices(pentagon_fixture).angles
        j = int(np.argmin(theta))
        amps = []
        for lift in (0.0, 0.05, 0.1, 0.2):
            free = theta[:-1].copy()
            free[j] = theta[j] + lift
            free, _ = pl.project_to_closure(free, lengths)
            full = np.append(free, pl.ReducedCoords(free).dependent_angle())
            amps.append(sum(pl.bump(-t) for t in full))
        assert all(b < a for a, b in zip(amps, amps[1:]))
