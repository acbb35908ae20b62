"""Convexification by projected negative-gradient descent.

A trajectory lives in reduced turn-angle coordinates (side lengths are
then preserved exactly); after each trial step the two closure equations
are re-solved by Gauss-Newton.  A step is accepted only when the energy
strictly decreased and the candidate polygon is embedded, so every stored
iterate is a valid configuration.  One backtracking line search serves
both this descent and the reverse (ascent) step, which passes the
opposite energy test.

Embeddedness of a trial is mostly proved rather than tested: the energy's
pair denominators bound the clearance of the current iterate, and a
trial whose vertices all moved well within that clearance, and which
itself stays clear of the tolerance band of ``embedded_mask``, is
embedded (:class:`ClearanceCertificate`, proof in its docstring).  A
trial the certificate does not cover goes to ``classify``; the
certificate only ever accepts what ``classify`` would, so accept
decisions, traces and outputs are those of testing every trial.

Descent is steered by the log-domain energy: in plain doubles the bump
factor underflows to zero once every reflex angle is above about -0.037,
which would strand the iteration short of convexity; the log form keeps
a usable gradient until the reflex angles actually reach zero.

CW inputs are reflected to CCW first (the two embedded components are
mirror images); the trace records that this happened.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .chain_geometry import (
    ORIENT_EPS,
    TAU,
    PolygonChain,
    SideLengths,
    canonicalize,
    embedded_mask,
    reflect_x,
    vertices_from_turn_angles,
)
from .config_space import ClosureError, classify
from .energy import (
    ReducedCoords,
    closure_jacobian,
    log_energy_gradient,
    min_norm_correction,
    project_tangent,
)

CONVERGED = "converged_convex"
MAX_ITERATIONS = "max_iterations"
STALLED = "stalled"

# line-search step factor after a rejected trial
BACKTRACK = 0.5
# smallest trial step before a line search gives up
MIN_STEP = 1e-14
# Gauss-Newton iterations before the closure projection gives up
CLOSURE_MAX_ITER = 50


class NotEmbeddedError(ValueError):
    """The polygon handed to the flow is not embedded."""


@dataclass(frozen=True)
class FlowParams:
    """Tuning knobs for the descent; defaults are desk-scale settings."""

    initial_step: float = 1e-2
    convexity_tol: float = 1e-6
    max_iterations: int = 100_000
    snapshot_stride: int = 10
    closure_tol: float = 1e-12

    def __post_init__(self):
        for name in ("initial_step", "convexity_tol", "closure_tol"):
            if getattr(self, name) <= 0.0:
                raise ValueError(f"{name} must be positive")
        if self.max_iterations < 1 or self.snapshot_stride < 1:
            raise ValueError("iteration counts must be >= 1")


# slotted: a trace holds one record per accepted step, and callers keep traces
@dataclass(frozen=True, slots=True)
class FlowRecord:
    iteration: int
    energy: float
    log_energy: float
    min_turn_angle: float
    step_size: float


@dataclass(frozen=True, eq=False, slots=True)
class FlowSnapshot:
    step: int
    vertices: np.ndarray


@dataclass(eq=False)
class FlowTrace:
    """Record of one convexification run."""

    lengths: SideLengths
    status: str
    reflected: bool
    records: list[FlowRecord] = field(default_factory=list)
    snapshots: list[FlowSnapshot] = field(default_factory=list)

    @property
    def accepted_steps(self) -> int:
        return len(self.records) - 1

    @property
    def final_chain(self) -> PolygonChain:
        return PolygonChain(self.snapshots[-1].vertices)


def project_to_closure(
    free_angles: np.ndarray, lengths: SideLengths, tol: float = 1e-12
) -> tuple[np.ndarray, PolygonChain]:
    """Gauss-Newton solve of the two closure equations in free angles.

    Each step is the minimum-norm correction of the closure defect, so the
    projection moves the input as little as possible.  Requires the
    initial defect to be below a tenth of the perimeter.  Returns the
    projected free angles and the closed configuration the last Newton
    check built from them.
    """
    free = np.asarray(free_angles, dtype=float).copy()
    chain, defect = vertices_from_turn_angles(lengths, np.append(free, 0.0))
    if defect > 0.1 * lengths.perimeter:
        raise ClosureError("closure defect too large for Newton projection")
    for _ in range(CLOSURE_MAX_ITER):
        if defect <= tol:
            return free, chain
        verts = chain.vertices
        free -= min_norm_correction(closure_jacobian(verts), verts[-1])
        chain, defect = vertices_from_turn_angles(lengths, np.append(free, 0.0))
    raise ClosureError(
        f"closure Newton did not converge in {CLOSURE_MAX_ITER} iterations "
        f"(defect {defect:.3e})"
    )


def _balanced_lift_direction(le) -> np.ndarray | None:
    """Raise every reflex angle at the same rate, tangent to closure.

    The log-energy gradient is a softmax over the reflex angles: when
    several are nearly tied it concentrates on the most negative one and
    closure coupling forces microscopic lockstep steps.  Lifting all of
    them together is not the steepest direction but makes fast progress,
    and acceptance still demands a strict energy decrease.
    """
    mask = le.full_angles < 0.0
    if not mask.any():
        return None
    g = mask[:-1].astype(float) - (1.0 if mask[-1] else 0.0)
    d = project_tangent(g, le.jacobian)
    norm = float(np.linalg.norm(d))
    if not math.isfinite(norm) or norm < 1e-9:
        return None
    return d / norm


def _wall_sliding_direction(le) -> np.ndarray | None:
    """Descent direction that also stays tangent to the contact barrier.

    Near self-contact the energy splits into a huge bump-factor cliff and
    the barrier term log F; the raw gradient points almost straight into
    the barrier and plain backtracking collapses to wall-scale zigzag
    steps.  Removing the span of the closure Jacobian and grad(log F)
    from the gradient leaves the component that slides along the wall
    while still strictly decreasing the energy to first order.
    """
    g_f = le.gradient - le.bump_gradient  # gradient of log F alone
    rows = np.vstack((le.jacobian, g_f))
    gram = rows @ rows.T
    try:
        lam = np.linalg.solve(gram, rows @ le.gradient)
    except np.linalg.LinAlgError:
        return None
    d = -(le.gradient - rows.T @ lam)
    norm = float(np.linalg.norm(d))
    if not math.isfinite(norm) or norm < 1e-12 * max(
        1.0, float(np.linalg.norm(le.gradient))
    ):
        return None
    return d / norm


def _evaluate(free, lengths, params):
    """Project free angles onto closure and evaluate the log energy there;
    returns ``(projected free angles, LogEnergy)``."""
    free, chain = project_to_closure(free, lengths, tol=params.closure_tol)
    return free, log_energy_gradient(ReducedCoords(free), lengths, chain=chain)


# unit roundoff of IEEE doubles
_UNIT_ROUNDOFF = 2.0**-53
# how many times a certified clearance must exceed the tolerance band
_BAND_SAFETY = 4.0


class ClearanceCertificate:
    """Proof, from the energy kernel's own numbers, that a line-search
    trial is embedded; it declines whenever the proof does not go through.

    One certificate serves one flow run on side lengths ``L`` (perimeter
    ``P``).  :meth:`rebase` sets the iterate X the trials start from,
    :meth:`certifies` tests a trial T.  Both X and T are
    ``LogEnergy`` values of chains the flow built from ``L`` with
    :func:`~polylink.chain_geometry.vertices_from_turn_angles` and
    projected onto closure, in the same canonical frame.

    Claim: if ``embedded_mask`` holds for X and ``certifies(T)`` returns
    True, then ``embedded_mask`` holds for T.  Every accepted iterate
    passed ``embedded_mask`` or this certificate, so by induction only the
    projected start chain needs one ``embedded_mask`` call; when it fails,
    nothing is certified from it.

    Proof.  Write ``d`` for the distance of a chain's stored last vertex
    from the origin (its closure defect) and ``u = 2**-53``.

    1. Clearance.  For a vertex v and an edge ab,
       dist(v, ab) >= (|v-a| + |v-b| - |a-b|) / 2 = den / 2.  The kernel
       anchors edge 0 at the exact origin, not at the stored last vertex,
       which moves each of its denominators by at most ``2 d``; rounding
       moves a denominator by less than ``den_err = 128 u P``.  So every
       vertex lies at least ``c = (min_den - den_err) / 2 - d`` from every
       non-incident edge (:meth:`clearance`).  Two disjoint segments are
       closest at an endpoint of one of them, so non-adjacent edges that
       do not meet are at least ``c`` apart.
    2. Tolerance band.  A chain built from ``L`` has edges within
       ``slack = d + 8 u P`` of ``L``, so its shortest edge is at least
       ``lo = min(L) - slack`` and the scale ``s`` of ``embedded_mask``
       (largest coordinate difference over the edges) at most
       ``hi = max(L) + slack`` and at least ``(max(L) - slack) / sqrt 2``.
       There ``eps <= ORIENT_EPS hi**2``, ``pad <= ORIENT_EPS hi``, an
       orientation or edge cross product is off by at most
       ``err = 24 u hi (P + hi)`` and a padded box edge by ``2 u P``.  Let
       ``band = (1 + sqrt 2) (eps + err) / lo + sqrt 2 (pad + 2 u P)``.
       A chain is clear when ``c > 4 band`` and ``err`` is below the
       smallest possible ``eps``; the factor 4 also absorbs the rounding
       of evaluating these bounds.
    3. A clear chain on which ``embedded_mask`` holds has disjoint
       non-adjacent edges.  If edges ab and cd crossed at x, each endpoint
       would be at least ``c`` from the other segment (1).  Let p be the
       endpoint nearest to x, at distance r: its foot on the other line is
       within r of x, hence on the other segment, so r sin(angle) >= c,
       and every endpoint lies at least c from the other line.  All four
       orientations then exceed ``lo c > eps + err``, so ``embedded_mask``
       reads their signs correctly and reports the crossing.
    4. Small move.  :meth:`certifies` requires X clear and
       ``3 max|T - X| < c(X)`` over the coordinates, so every vertex moves
       less than ``c(X) / 2`` (3 > 2 sqrt 2 with room for rounding).  Each
       point of an edge moves less than that too, so non-adjacent edges of
       T stay more than ``c(X) - 2 c(X) / 2 = 0`` apart: they are disjoint.
    5. Band.  :meth:`certifies` requires T clear as well.  A reported
       crossing needs four nonzero orientation signs; as ``err < eps``
       they are the true signs, so the disjoint edges of T (4) would
       cross.  A reported touch needs an orientation within ``eps`` and an
       endpoint in the padded box, which puts that endpoint within
       ``(1 + sqrt 2) (eps + err) / lo + sqrt 2 (pad + 2 u P) = band < c``
       of the other edge, against (1).  A reported fold at a vertex
       (cross within ``eps``, dot below 0) puts the far end of the shorter
       edge within ``(eps + err) / lo < c`` of the longer edge, or, if the
       true dot is not negative, makes the product of the two edge lengths
       at most about ``eps``, while it is at least ``lo c > 2 eps``
       (``c`` is at most the shortest edge).  So ``embedded_mask`` holds
       for T.
    """

    def __init__(self, lengths: SideLengths):
        ell = lengths.lengths
        self._min_len = float(ell.min())
        self._max_len = float(ell.max())
        self._perimeter = lengths.perimeter
        self._base = None  # (vertices, clearance) of the iterate X

    def clearance(self, le) -> float:
        """Certified clearance of ``le.chain``: the lower bound ``c`` on
        the distance of each vertex from each non-incident edge, or 0.0
        when ``c`` does not clear the tolerance band of ``embedded_mask``
        (steps 1 and 2 of the proof)."""
        u, perimeter = _UNIT_ROUNDOFF, self._perimeter
        last = le.chain.vertices[-1]
        defect = math.hypot(last[0], last[1])
        clear = 0.5 * (le.min_den - 128.0 * u * perimeter) - defect
        slack = defect + 8.0 * u * perimeter
        lo = self._min_len - slack
        hi = self._max_len + slack
        err = 24.0 * u * hi * (perimeter + hi)
        smallest_eps = ORIENT_EPS * 0.5 * (self._max_len - slack) ** 2
        if not (lo > 0.0 and 2.0 * err < smallest_eps):
            return 0.0
        eps, pad, root2 = ORIENT_EPS * hi * hi, ORIENT_EPS * hi, math.sqrt(2.0)
        band = (1.0 + root2) * (eps + err) / lo + root2 * (pad + 2.0 * u * perimeter)
        return clear if clear > _BAND_SAFETY * band else 0.0

    def rebase(self, le, known_embedded: bool = False) -> None:
        """Start certifying trials from the iterate ``le``.  Unless the
        caller knows ``embedded_mask`` holds for it, one call checks that;
        an iterate that fails it, or is not clear, certifies nothing."""
        clear = self.clearance(le)
        verts = le.chain.vertices
        if clear > 0.0 and (known_embedded or embedded_mask(verts[None])[0]):
            self._base = (verts, clear)
        else:
            self._base = None

    def certifies(self, trial) -> bool:
        """True only when the proof shows ``trial.chain`` is embedded."""
        if self._base is None:
            return False
        verts, clear = self._base
        move = float(np.abs(trial.chain.vertices - verts).max())
        return 3.0 * move < clear and self.clearance(trial) > 0.0


def _line_search(free, direction, s_start, s_floor, accept, lengths, params, cert):
    """Backtrack along one direction; returns (free, le, step) or None
    when no acceptable step at or above ``s_floor`` exists.

    A trial is accepted when ``accept`` passes its log energy and it is
    embedded, tested in that order: ``cert`` (a
    :class:`ClearanceCertificate` based at the current iterate) proves
    most trials embedded, the others go to ``classify``."""
    s = s_start
    while s >= s_floor:
        try:
            cand, cand_le = _evaluate(free + s * direction, lengths, params)
        except (ValueError, np.linalg.LinAlgError):
            s *= BACKTRACK
            continue
        if accept(cand_le.log_value) and (
            cert.certifies(cand_le) or classify(cand_le.chain).embedded
        ):
            return cand, cand_le, s
        s *= BACKTRACK
    return None


def _record(iteration: int, le, step: float) -> FlowRecord:
    return FlowRecord(
        iteration, math.exp(le.log_value), le.log_value, le.min_turn_angle, step
    )


def _start(chain: PolygonChain, params: FlowParams):
    """Canonical frame, side lengths, the projected start ``(free, le)``
    and a certificate based there; returns ``(lengths, free, le, cert)``."""
    chain = canonicalize(chain)
    lengths = chain.side_lengths()
    free, le = _evaluate(ReducedCoords.from_chain(chain).free_angles, lengths, params)
    cert = ClearanceCertificate(lengths)
    cert.rebase(le)
    return lengths, free, le, cert


def convexify(chain: PolygonChain, params: FlowParams | None = None) -> FlowTrace:
    """Drive an embedded polygon to convexity by energy descent.

    The energy strictly decreases across accepted steps, every accepted
    iterate is embedded and realizes the side lengths, and the run stops
    as soon as the smallest turn angle clears ``-convexity_tol``.  A step
    that cannot make strict progress above ``MIN_STEP`` is reported as
    ``stalled``, never silently accepted.
    """
    params = params or FlowParams()
    cls = classify(chain)
    if not cls.embedded:
        raise NotEmbeddedError("convexify requires an embedded input polygon")
    reflected = False
    if abs(cls.winding + TAU) <= 1e-6:
        chain = reflect_x(chain)
        reflected = True
    elif abs(cls.winding - TAU) > 1e-6:
        raise ValueError("embedded polygon must wind by +-2*pi")
    lengths, free, le, cert = _start(chain, params)

    trace = FlowTrace(lengths=lengths, status=MAX_ITERATIONS, reflected=reflected)
    trace.records.append(_record(0, le, 0.0))
    trace.snapshots.append(FlowSnapshot(0, le.chain.vertices.copy()))

    def lower(log_value):  # strict descent from the current iterate
        return log_value < le.log_value

    step = params.initial_step
    accepted = 0
    last_snap = 0
    for _ in range(params.max_iterations):
        if le.min_turn_angle >= -params.convexity_tol:
            trace.status = CONVERGED
            break
        direction = le.projected_gradient
        norm = float(np.linalg.norm(direction))
        if not math.isfinite(norm) or norm == 0.0:
            trace.status = STALLED
            break
        direction = -direction / norm

        # stage 1: the projected gradient direction, a handful of halvings
        step = min(step / BACKTRACK, params.initial_step)
        stage1_floor = max(step * BACKTRACK**8, MIN_STEP)
        hit = _line_search(
            free, direction, step, stage1_floor, lower, lengths, params, cert
        )
        if hit is None or hit[2] < 0.05 * params.initial_step:
            # gradient progress has collapsed (tied reflex angles in
            # lockstep, or the contact barrier); try coarser but more
            # robust directions, each only searched down to the step the
            # incumbent already achieved, and keep whichever moves farthest
            for alt_dir in (_balanced_lift_direction(le), _wall_sliding_direction(le)):
                if alt_dir is None:
                    continue
                floor = MIN_STEP if hit is None else 2.0 * hit[2]
                alt = _line_search(
                    free, alt_dir, params.initial_step, floor,
                    lower, lengths, params, cert,
                )
                if alt is not None and (hit is None or alt[2] > hit[2]):
                    hit = alt
        if hit is None:
            # exhaust the plain direction before declaring a stall
            hit = _line_search(
                free, direction, stage1_floor * BACKTRACK, MIN_STEP,
                lower, lengths, params, cert,
            )
        if hit is None:
            trace.status = STALLED
            break

        free, le, step = hit
        cert.rebase(le, known_embedded=True)
        accepted += 1
        trace.records.append(_record(accepted, le, step))
        if accepted % params.snapshot_stride == 0:
            trace.snapshots.append(FlowSnapshot(accepted, le.chain.vertices.copy()))
            last_snap = accepted
    else:
        # budget exhausted; the last step may still have reached convexity
        trace.status = (
            CONVERGED
            if le.min_turn_angle >= -params.convexity_tol
            else MAX_ITERATIONS
        )

    if accepted != last_snap:
        trace.snapshots.append(FlowSnapshot(accepted, le.chain.vertices.copy()))
    return trace


def reverse_flow_step(
    chain: PolygonChain,
    params: FlowParams | None = None,
    energy_cap: float | None = None,
) -> PolygonChain:
    """One energy-ascent step; generates nonconvex neighbors of a
    configuration.

    Uses the same projection and acceptance machinery as the descent, with
    the inequality reversed.  Refuses to start where the gradient vanishes
    (strictly convex configurations) and refuses steps whose energy would
    exceed ``energy_cap``.
    """
    params = params or FlowParams()
    cls = classify(chain)
    if not cls.embedded:
        raise NotEmbeddedError("reverse step requires an embedded polygon")
    if abs(cls.winding - TAU) > 1e-6:
        raise ValueError("reverse step expects a counterclockwise polygon")
    lengths, free, le, cert = _start(chain, params)
    if le.log_value == -math.inf:
        raise ValueError("zero gradient: no ascent direction from a convex interior")
    direction = le.projected_gradient
    norm = float(np.linalg.norm(direction))
    if norm == 0.0:
        raise ValueError("zero gradient: no ascent direction")
    if energy_cap is None:
        log_cap = math.inf
    elif energy_cap <= 0.0:
        log_cap = -math.inf
    else:
        log_cap = math.log(energy_cap)

    def higher(log_value):  # strict ascent, at most up to the cap
        return le.log_value < log_value <= log_cap

    hit = _line_search(
        free, direction / norm, params.initial_step, MIN_STEP,
        higher, lengths, params, cert,
    )
    if hit is None:
        raise ValueError("no acceptable ascent step above the step floor")
    return hit[1].chain
