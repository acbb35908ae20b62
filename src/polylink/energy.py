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


def bump(x: float) -> float:
    """Smooth bump: 0 for x <= 0, exp(-1/x^2) for x > 0.

    In doubles it is exactly 0.0 below about ``x = 0.0366``.
    """
    return math.exp(log_bump(x))


def bump_derivative(x: float) -> float:
    """da/dx of :func:`bump`, analytically (2/x^3) exp(-1/x^2); 0.0 wherever
    the bump is."""
    b = bump(x)
    if b == 0.0:
        return 0.0
    return 2.0 / (x * x * x) * b


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
    starts = np.vstack((anchor, verts[:-1]))
    to_a = verts[None, :, :] - starts[:, None, :]
    to_b = verts[None, :, :] - verts[:, None, :]
    da = np.hypot(to_a[..., 0], to_a[..., 1])
    db = np.hypot(to_b[..., 0], to_b[..., 1])
    lab = np.diagonal(da)  # da[i, i] = |verts[i] - starts[i]|
    den = np.where(_pair_mask(verts.shape[0]), da + db - lab[:, None], np.inf)
    min_den = float(np.fmin.reduce(den, axis=None))  # skips NaN, as den <= 0 does
    if min_den <= 0.0:
        raise ValueError("vertex lies on a non-incident edge: energy undefined")
    return to_a, to_b, da, db, den, min_den


def _elliptic_value(verts: np.ndarray, anchor: np.ndarray) -> float:
    den = _elliptic_pairs(verts, anchor)[4]
    return float(np.sum(1.0 / (den * den)))


def _elliptic_value_and_vertex_grad(verts: np.ndarray, anchor: np.ndarray):
    """Energy F, dF/d(vertex) for every vertex (anchor constant) and the
    smallest pair denominator, which bounds the clearance:
    dist(v, ab) >= (|v - a| + |v - b| - |a - b|) / 2."""
    to_a, to_b, da, db, den, min_den = _elliptic_pairs(verts, anchor)
    mask = _pair_mask(verts.shape[0])
    inv = 1.0 / (den * den)
    w = -2.0 * inv / den  # d(term)/d(den); zero off the mask
    pa = np.divide(w, da, out=np.zeros_like(w), where=mask)[..., None] * to_a
    pb = np.divide(w, db, out=np.zeros_like(w), where=mask)[..., None] * to_b
    e_hat = np.diagonal(to_a).T / np.diagonal(da)[:, None]  # edge i direction
    we = w.sum(axis=1)[:, None] * e_hat
    # each term moves with its vertex j and with both endpoints of edge i
    grad = (pa + pb).sum(axis=0) - pb.sum(axis=1) - we
    grad[:-1] += we[1:] - pa[1:].sum(axis=1)
    return float(np.sum(inv)), grad, min_den


def elliptic_energy(chain: PolygonChain) -> float:
    """Elliptic distance energy of a closed embedded polygon."""
    verts = chain.vertices
    return _elliptic_value(verts, verts[-1])


def modified_energy(chain: PolygonChain) -> float:
    """Bump-weighted energy: zero exactly when every turn angle is >= 0."""
    theta = turn_angles_from_vertices(chain).angles
    amp = sum(map(math.exp, log_bump(-theta).tolist()))
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
    C = np.cumsum(cross[::-1])[::-1]
    G = np.cumsum(vgrad[::-1], axis=0)[::-1]
    return C[1:] - (verts[:-1, 0] * G[1:, 1] - verts[:-1, 1] * G[1:, 0])


def min_norm_correction(jac: np.ndarray, r: np.ndarray) -> np.ndarray:
    """The shortest d with ``jac @ d = r``: ``jac.T (jac jac.T)^-1 r``, by
    the 2x2 normal equations of the closure Jacobian."""
    return jac.T @ np.linalg.solve(jac @ jac.T, r)


def project_tangent(grad: np.ndarray, jac: np.ndarray) -> np.ndarray:
    """Remove the closure-normal component of ``grad``."""
    return grad - min_norm_correction(jac, jac @ grad)


def energy_of_free_angles(free: np.ndarray, lengths: SideLengths) -> float:
    """Smooth extension of the modified energy to off-manifold free angles.

    The chain starts at the exact origin; the dependent turn angle is
    ``2*pi - sum(free)``.  On the closure manifold this agrees with
    :func:`modified_energy` of the rebuilt chain.
    """
    chain, _ = vertices_from_turn_angles(lengths, np.append(free, 0.0))
    verts = chain.vertices
    theta_n = normalize_angle(TAU - float(np.sum(free)))
    amp = sum(map(math.exp, log_bump(-np.append(free, theta_n)).tolist()))
    if amp == 0.0:
        return 0.0
    return amp * _elliptic_value(verts, np.zeros(2))


def energy_gradient(coords: ReducedCoords, lengths: SideLengths) -> EnergyGradient:
    """Analytic gradient of the modified energy in free turn angles.

    Derived from the log-domain form: ``E = exp(log E)`` and
    ``grad E = E * grad log E``, for the full and the closure-projected
    gradient alike.  ``projected_gradient`` is tangent to the closure
    constraint.
    """
    chain, defect = coords.chain(lengths)
    if defect > 1e-6 * lengths.perimeter:
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
    top = np.max(values)
    if top == -math.inf:
        return -math.inf
    return float(top + math.log(np.sum(np.exp(values - top))))


@dataclass(frozen=True, eq=False)
class LogEnergy:
    """Log-domain modified energy; finite whenever some turn angle is
    negative, -inf exactly on the convex set.

    ``bump_gradient`` is the bump-factor part of the gradient (the rest
    is the gradient of log F, which acts as the contact barrier).
    ``chain`` is the configuration the energy was evaluated on, with all
    ``n`` of its turn angles in ``full_angles`` and its closure Jacobian
    in ``jacobian``.  ``min_den`` is the smallest pair denominator of F,
    computed with edge 0 anchored at the exact origin; half of it bounds
    the distance of every vertex from every non-incident edge."""

    log_value: float
    gradient: np.ndarray  # of log E, full
    projected_gradient: np.ndarray
    bump_gradient: np.ndarray
    elliptic: float
    min_turn_angle: float
    chain: PolygonChain
    full_angles: np.ndarray
    jacobian: np.ndarray
    min_den: float


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
    last Newton check); it is used instead of building it again.
    """
    free = coords.free_angles
    n = coords.n
    if chain is None:
        chain, _ = coords.chain(lengths)
    verts = chain.vertices
    theta_n = coords.dependent_angle()
    full = np.append(free, theta_n)

    x = -full  # bump arguments
    logs = log_bump(x)
    log_amp = _logsumexp(logs)
    F, vgrad, min_den = _elliptic_value_and_vertex_grad(verts, np.zeros(2))
    jac = closure_jacobian(verts)

    if log_amp == -math.inf:
        zero = np.zeros(n - 1)
        return LogEnergy(
            -math.inf, zero, zero, zero, F, float(full.min()), chain, full, jac,
            min_den,
        )

    # softmax weights of the active bumps
    w = np.exp(logs - log_amp)
    dlog_bump = np.where(x > 0.0, 2.0 / np.where(x > 0.0, x, 1.0) ** 3, 0.0)
    contrib = w * dlog_bump
    d_log_amp = -contrib[:-1] + contrib[-1]
    grad = d_log_amp + _swing_gradient(verts, vgrad) / F
    return LogEnergy(
        log_value=log_amp + math.log(F),
        gradient=grad,
        projected_gradient=project_tangent(grad, jac),
        bump_gradient=d_log_amp,
        elliptic=F,
        min_turn_angle=float(full.min()),
        chain=chain,
        full_angles=full,
        jacobian=jac,
        min_den=min_den,
    )
