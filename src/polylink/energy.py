"""Self-intersection energy of embedded polygons and its turn-angle gradient.

The elliptic distance energy sums, over every (edge, vertex) pair with the
vertex not an endpoint of the edge, the inverse squared excess of the
triangle inequality::

    F = sum  1 / (|v - a| + |v - b| - |b - a|)^2

A term blows up exactly when the vertex lands on the edge, so F is finite
on embedded polygons and diverges at self-contact.  The modified energy
multiplies F by a sum of smooth bumps of the negated turn angles, making
it vanish exactly on convex configurations.

Gradients are taken in reduced turn-angle coordinates: the first ``n - 1``
turn angles are free, the chain start is pinned to the canonical frame,
and closure (final vertex at the origin) is a two-dimensional constraint
whose Jacobian is used to project gradients onto the constraint tangent
space.  Side lengths are preserved exactly by this parametrization.

Because ``exp(-1/x^2)`` underflows to zero in double precision for
``x < 0.0366``, the energy is also exposed in log-domain form
(:func:`log_energy_gradient`); the descent flow steers by it so that the
signal survives all the way to convexity.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .chain_geometry import (
    CLOSURE_DATA_RTOL,
    TAU,
    PolygonChain,
    SideLengths,
    embedded_mask,
    normalize_angle,
    turn_angles_from_vertices,
    vertices_from_turn_angles,
)


def log_bump(x):
    """log of the bump, elementwise: -1/x^2 for x > 0, -inf otherwise.

    Takes a float or an array and returns the same.  For 0 < x below
    about 7.5e-155, where -1/x^2 is beyond the doubles, the result is -inf
    without a warning; NaN stays NaN.  This is the representation the
    descent flow steers by.
    """
    x = np.asarray(x, dtype=float)
    out = np.full(x.shape, -math.inf)
    with np.errstate(all="ignore"):
        np.divide(-1.0, x * x, out=out, where=~(x <= 0.0))
    return out if out.ndim else float(out)


@lru_cache(maxsize=64)
def _pair_mask(n: int) -> np.ndarray:
    """(n, n) mask of the (edge i, vertex j) pairs in the energy sum: every
    vertex except ``(i-1) % n`` and ``i``, the endpoints of edge i."""
    mask = ~np.eye(n, dtype=bool)
    mask[np.arange(n), np.arange(n) - 1] = False
    mask.flags.writeable = False
    return mask


def _elliptic_pairs(verts: np.ndarray, anchor: np.ndarray):
    """Vectors from both endpoints of every edge to every vertex, their
    lengths, and the pair denominators, all indexed (edge i, vertex j),
    followed by the smallest denominator.

    Edge i runs from ``verts[i-1]`` to ``verts[i]``; ``anchor`` is the start
    point of edge 0 (the stored last vertex for a closed chain, the exact
    origin for the smooth extension used in gradient work).  Denominators
    off the pair mask are ``inf``, so their terms vanish.
    """
    # one (n + 1, n) matrix from the anchor and every vertex: edge i starts
    # at row i and ends at row i + 1
    points = np.concatenate((anchor[None], verts))
    diff = verts[None, :, :] - points[:, None, :]
    dist = np.hypot(diff[..., 0], diff[..., 1])
    to_a, to_b, da, db = diff[:-1], diff[1:], dist[:-1], dist[1:]
    lab = da.diagonal()  # da[i, i] = |verts[i] - points[i]|, edge i's length
    den = np.where(_pair_mask(verts.shape[0]), da + db - lab[:, None], np.inf)
    min_den = float(np.fmin.reduce(den, axis=None))  # skips NaN, as den <= 0 does
    if min_den <= 0.0:
        raise ValueError("vertex lies on a non-incident edge: energy undefined")
    return to_a, to_b, da, db, den, min_den


def _elliptic_value(verts: np.ndarray, anchor: np.ndarray):
    """Energy F with what its vertex gradient reads: ``(F, inv, pairs)``,
    ``inv`` the terms ``1 / den**2`` and ``pairs`` the tuple of
    :func:`_elliptic_pairs`, which ends with the smallest denominator; it
    bounds the clearance: dist(v, ab) >= (|v - a| + |v - b| - |a - b|) / 2."""
    pairs = _elliptic_pairs(verts, anchor)
    den = pairs[4]
    inv = 1.0 / (den * den)
    return float(inv.sum()), inv, pairs


def _elliptic_vertex_grad(inv: np.ndarray, pairs) -> np.ndarray:
    """dF/d(vertex) for every vertex (anchor constant), from the terms and
    pairs of :func:`_elliptic_value`."""
    to_a, to_b, da, db, den, _ = pairs
    mask = _pair_mask(den.shape[0])
    w = -2.0 * inv / den  # d(term)/d(den); zero off the mask
    pa = np.divide(w, da, out=np.zeros_like(w), where=mask)[..., None] * to_a
    pb = np.divide(w, db, out=np.zeros_like(w), where=mask)[..., None] * to_b
    e_hat = to_a.diagonal().T / da.diagonal()[:, None]  # edge i direction
    we = w.sum(axis=1)[:, None] * e_hat
    # each term moves with its vertex j and with both endpoints of edge i
    grad = (pa + pb).sum(axis=0) - pb.sum(axis=1) - we
    grad[:-1] += we[1:] - pa[1:].sum(axis=1)
    return grad


def elliptic_energy(chain: PolygonChain) -> float:
    """Elliptic distance energy of a closed embedded polygon."""
    verts = chain.vertices
    return _elliptic_value(verts, verts[-1])[0]


def _bump_amplitude(theta: np.ndarray) -> float:
    """The bump factor of the modified energy: the sum of the bumps of the
    negated turn angles."""
    return sum(map(math.exp, log_bump(-theta).tolist()))


def modified_energy(chain: PolygonChain) -> float:
    """Bump-weighted energy: zero exactly when every turn angle is >= 0."""
    amp = _bump_amplitude(turn_angles_from_vertices(chain).angles)
    if amp == 0.0:
        return 0.0
    return amp * elliptic_energy(chain)


@dataclass(frozen=True, eq=False)
class ReducedCoords:
    """Turn-angle coordinates with the last angle dependent.

    ``free_angles`` holds the first ``n - 1`` turn angles; the last is
    ``2*pi - sum(free_angles)`` (normalized), which is the geometric turn
    at the frame corner whenever the chain closes counterclockwise.
    """

    free_angles: np.ndarray

    def __post_init__(self):
        arr = np.atleast_1d(np.asarray(self.free_angles, dtype=float))
        if arr.ndim != 1 or arr.size < 2:
            raise ValueError("need at least 2 free angles (n >= 3)")
        object.__setattr__(self, "free_angles", arr)

    @property
    def n(self) -> int:
        return int(self.free_angles.size) + 1

    @classmethod
    def from_chain(cls, chain: PolygonChain) -> "ReducedCoords":
        theta = turn_angles_from_vertices(chain).angles
        return cls(theta[:-1].copy())

    def dependent_angle(self) -> float:
        return normalize_angle(TAU - float(self.free_angles.sum()))

    def full_angles(self) -> np.ndarray:
        return np.append(self.free_angles, self.dependent_angle())

    def chain(self, lengths: SideLengths) -> tuple[PolygonChain, float]:
        """Rebuild vertices; the reported defect is |final vertex|."""
        return vertices_from_turn_angles(
            lengths, np.append(self.free_angles, 0.0)
        )


@dataclass(frozen=True, eq=False)
class EnergyGradient:
    """Modified energy with its full and closure-projected gradients."""

    value: float
    gradient: np.ndarray
    projected_gradient: np.ndarray


def _rot90(v: np.ndarray) -> np.ndarray:
    out = np.empty_like(v)
    out[..., 0] = -v[..., 1]
    out[..., 1] = v[..., 0]
    return out


def closure_jacobian(verts: np.ndarray) -> np.ndarray:
    """d(final vertex)/d(free angles), shape (2, n-1).

    Rotating all headings after vertex m swings the tail rigidly about
    vertex m, so each column is the 90-degree rotation of the arm from
    vertex m to the final vertex.
    """
    n = verts.shape[0]
    arms = verts[-1] - verts[: n - 1]
    return _rot90(arms).T


def _swing_gradient(verts: np.ndarray, vgrad: np.ndarray) -> np.ndarray:
    """dF/dtheta_m from dF/d(vertex): every vertex k > m swings about
    vertex m, so dF/dtheta_m = sum_{k>m} (v_k - v_m) x g_k, which is
    ``C[m+1] - v_m x G[m+1]`` with the suffix sums ``G[m] = sum_{k>=m} g_k``
    and ``C[m] = sum_{k>=m} v_k x g_k``."""
    cross = verts[:, 0] * vgrad[:, 1] - verts[:, 1] * vgrad[:, 0]
    C = cross[::-1].cumsum()[::-1]
    G = vgrad[::-1].cumsum(axis=0)[::-1]
    return C[1:] - (verts[:-1, 0] * G[1:, 1] - verts[:-1, 1] * G[1:, 0])


def min_norm_correction(jac: np.ndarray, r: np.ndarray) -> np.ndarray:
    """The shortest d with ``jac @ d = r``: ``jac.T (jac jac.T)^-1 r``, by
    the normal equations of ``jac``'s rows (two for the closure Jacobian,
    one more where the wall slide adds a barrier gradient)."""
    return jac.T @ np.linalg.solve(jac @ jac.T, r)


def project_tangent(grad: np.ndarray, jac: np.ndarray) -> np.ndarray:
    """Remove from ``grad`` its component in the span of ``jac``'s rows
    (the closure normals)."""
    return grad - min_norm_correction(jac, jac @ grad)


def energy_of_free_angles(free: np.ndarray, lengths: SideLengths) -> float:
    """Smooth extension of the modified energy to off-manifold free angles.

    The chain starts at the exact origin; the dependent turn angle is
    ``2*pi - sum(free)``.  On the closure manifold this agrees with
    :func:`modified_energy` of the rebuilt chain.
    """
    coords = ReducedCoords(free)
    chain, _ = coords.chain(lengths)
    amp = _bump_amplitude(coords.full_angles())
    if amp == 0.0:
        return 0.0
    return amp * _elliptic_value(chain.vertices, np.zeros(2))[0]


def energy_gradient(coords: ReducedCoords, lengths: SideLengths) -> EnergyGradient:
    """Analytic gradient of the modified energy in free turn angles.

    Derived from the log-domain form: ``E = exp(log E)`` and
    ``grad E = E * grad log E``, for the full and the closure-projected
    gradient alike.  ``projected_gradient`` is tangent to the closure
    constraint.
    """
    chain, defect = coords.chain(lengths)
    if defect > CLOSURE_DATA_RTOL * lengths.perimeter:
        raise ValueError("coordinates are far off the closure manifold")
    if not embedded_mask(chain.vertices[None])[0]:
        raise ValueError("energy gradient requires an embedded configuration")
    le = log_energy_gradient(coords, lengths, chain=chain)
    value = math.exp(le.log_value)
    return EnergyGradient(
        value=value,
        gradient=value * le.gradient,
        projected_gradient=value * le.projected_gradient,
    )


def finite_difference_gradient(
    coords: ReducedCoords, lengths: SideLengths, h: float = 1e-6
) -> np.ndarray:
    """Central differences of the smooth energy extension; test oracle."""
    free = coords.free_angles
    out = np.zeros_like(free)
    for m in range(free.size):
        bumped = free.copy()
        bumped[m] = free[m] + h
        hi = energy_of_free_angles(bumped, lengths)
        bumped[m] = free[m] - h
        lo = energy_of_free_angles(bumped, lengths)
        out[m] = (hi - lo) / (2.0 * h)
    return out


def _logsumexp(values: np.ndarray) -> float:
    top = values.max()
    if top == -math.inf:
        return -math.inf
    return float(top + math.log(np.exp(values - top).sum()))


class LogEnergy:
    """Log-domain modified energy; finite whenever some turn angle is
    negative, -inf exactly on the convex set.

    ``chain`` is the configuration the energy was evaluated on, with all
    ``n`` of its turn angles in ``full_angles``.  ``min_den`` is the
    smallest pair denominator of F, computed with edge 0 anchored at the
    exact origin; half of it bounds the distance of every vertex from
    every non-incident edge.  These and ``log_value`` are computed with
    the energy.

    ``gradient`` (of log E, full), ``projected_gradient``,
    ``bump_gradient`` (the bump-factor part of the gradient; the rest is
    the gradient of log F, which acts as the contact barrier) and the
    closure ``jacobian`` are computed on first read, from the pair arrays
    the value was summed from, which are then dropped: a line-search
    trial that is rejected never pays for its gradient."""

    __slots__ = (
        "log_value", "min_turn_angle", "chain", "full_angles", "min_den",
        "_terms", "_gradient", "_bump_gradient", "_projected", "_jacobian",
    )

    def __init__(self, log_value, chain, full_angles, min_den, terms):
        self.log_value = log_value
        self.min_turn_angle = float(full_angles.min())
        self.chain = chain
        self.full_angles = full_angles
        self.min_den = min_den
        # (bump arguments, their log bumps, log amplitude, F, its terms,
        # its pairs) until the gradient is read; None on the convex set,
        # where every gradient is zero
        self._terms = terms
        self._jacobian = None
        if terms is None:
            zero = np.zeros(full_angles.size - 1)
            self._gradient = self._bump_gradient = self._projected = zero
        else:
            self._projected = None

    def _differentiate(self) -> None:
        """Compute the gradient and its bump part; drop the pair arrays."""
        x, logs, log_amp, F, inv, pairs = self._terms
        # softmax weights of the active bumps times their log-derivatives
        # 2/x^3, formed only where the weight is positive (else 0 * inf at
        # a tiny x)
        w = np.exp(logs - log_amp)
        contrib = w * np.divide(2.0, x**3, out=np.zeros_like(x), where=w > 0.0)
        d_log_amp = -contrib[:-1] + contrib[-1]
        vgrad = _elliptic_vertex_grad(inv, pairs)
        self._gradient = d_log_amp + _swing_gradient(self.chain.vertices, vgrad) / F
        self._bump_gradient = d_log_amp
        self._terms = None

    @property
    def gradient(self) -> np.ndarray:
        if self._terms is not None:
            self._differentiate()
        return self._gradient

    @property
    def bump_gradient(self) -> np.ndarray:
        if self._terms is not None:
            self._differentiate()
        return self._bump_gradient

    @property
    def jacobian(self) -> np.ndarray:
        if self._jacobian is None:
            self._jacobian = closure_jacobian(self.chain.vertices)
        return self._jacobian

    @property
    def projected_gradient(self) -> np.ndarray:
        if self._projected is None:
            self._projected = project_tangent(self.gradient, self.jacobian)
        return self._projected


def log_energy_gradient(
    coords: ReducedCoords,
    lengths: SideLengths,
    *,
    chain: PolygonChain | None = None,
) -> LogEnergy:
    """Log of the exact-math modified energy with its gradient.

    ``grad log E = grad A / A + grad F / F`` where the first term is a
    softmax-weighted combination of the bump log-derivatives ``2/x^3``.
    Representable in doubles for reflex angles arbitrarily close to zero,
    unlike E itself.  ``chain``, when given, must be ``coords.chain(lengths)``
    already built by the caller (the closure projection builds it at its
    last Newton check); it is used instead of building it again.  The
    value is computed here, the gradients on first read (see
    :class:`LogEnergy`).
    """
    if chain is None:
        chain, _ = coords.chain(lengths)
    full = coords.full_angles()
    x = -full  # bump arguments
    logs = log_bump(x)
    log_amp = _logsumexp(logs)
    F, inv, pairs = _elliptic_value(chain.vertices, np.zeros(2))
    if log_amp == -math.inf:
        return LogEnergy(-math.inf, chain, full, pairs[5], None)
    return LogEnergy(
        log_amp + math.log(F), chain, full, pairs[5], (x, logs, log_amp, F, inv, pairs)
    )
