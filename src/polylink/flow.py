"""Convexification by projected negative-gradient descent.

A trajectory lives in reduced turn-angle coordinates (side lengths are
then preserved exactly); after each trial step the two closure equations
are re-solved by Gauss-Newton.  A step is accepted only when the energy
strictly decreased and the candidate polygon is embedded, so every stored
iterate is a valid configuration.  Descent is steered by the log-domain
energy: in plain doubles the bump factor underflows to zero once every
reflex angle is above about -0.037, which would strand the iteration
short of convexity; the log form keeps a usable gradient until the
reflex angles actually reach zero.

CW inputs are reflected to CCW first (the two embedded components are
mirror images); the trace records that this happened.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .chain_geometry import (
    TAU,
    PolygonChain,
    SideLengths,
    canonicalize,
    reflect_x,
    vertices_from_turn_angles,
)
from .config_space import classify, is_generic
from .energy import (
    ReducedCoords,
    closure_jacobian,
    log_energy_gradient,
    project_tangent,
)

CONVERGED = "converged_convex"
MAX_ITERATIONS = "max_iterations"
STALLED = "stalled"


@dataclass(frozen=True)
class FlowParams:
    """Tuning knobs for the descent; defaults are desk-scale settings."""

    initial_step: float = 1e-2
    backtrack: float = 0.5
    convexity_tol: float = 1e-6
    max_iterations: int = 100_000
    snapshot_stride: int = 10
    closure_tol: float = 1e-12
    closure_max_iter: int = 50
    min_step: float = 1e-14

    def __post_init__(self):
        if not 0.0 < self.backtrack < 1.0:
            raise ValueError("backtrack factor must lie in (0, 1)")
        for name in ("initial_step", "convexity_tol", "closure_tol", "min_step"):
            if getattr(self, name) <= 0.0:
                raise ValueError(f"{name} must be positive")
        if self.max_iterations < 1 or self.snapshot_stride < 1:
            raise ValueError("iteration counts must be >= 1")


@dataclass(frozen=True)
class FlowRecord:
    iteration: int
    energy: float
    log_energy: float
    min_turn_angle: float
    step_size: float


@dataclass(frozen=True, eq=False)
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
    def generic(self) -> bool:
        """Whether the side lengths are generic; decided when read, because
        the flow never needs it and the exact check grows as 2^n."""
        return is_generic(self.lengths)

    @property
    def accepted_steps(self) -> int:
        return len(self.records) - 1

    @property
    def final_chain(self) -> PolygonChain:
        return PolygonChain(self.snapshots[-1].vertices)


def project_to_closure(
    free_angles: np.ndarray,
    lengths: SideLengths,
    tol: float = 1e-12,
    max_iter: int = 50,
    *,
    return_chain: bool = False,
):
    """Gauss-Newton solve of the two closure equations in free angles.

    Each step is the minimum-norm correction of the closure defect, so the
    projection moves the input as little as possible.  Requires the
    initial defect to be below a tenth of the perimeter.  Returns the
    projected free angles, or with ``return_chain`` the pair ``(free,
    chain)`` where ``chain`` is the closed configuration the last Newton
    check built from them.
    """
    free = np.asarray(free_angles, dtype=float).copy()
    chain, defect = vertices_from_turn_angles(lengths, np.append(free, 0.0))
    if defect > 0.1 * lengths.perimeter:
        raise ValueError("closure defect too large for Newton projection")
    for _ in range(max_iter):
        if defect <= tol:
            return (free, chain) if return_chain else free
        verts = chain.vertices
        jac = closure_jacobian(verts)
        jjt = jac @ jac.T
        lam = np.linalg.solve(jjt, verts[-1])
        free -= jac.T @ lam
        chain, defect = vertices_from_turn_angles(lengths, np.append(free, 0.0))
    raise ValueError(
        f"closure Newton did not converge in {max_iter} iterations "
        f"(defect {defect:.3e})"
    )


def _balanced_lift_direction(
    full_angles: np.ndarray, verts: np.ndarray
) -> np.ndarray | None:
    """Raise every reflex angle at the same rate, tangent to closure.

    The log-energy gradient is a softmax over the reflex angles: when
    several are nearly tied it concentrates on the most negative one and
    closure coupling forces microscopic lockstep steps.  Lifting all of
    them together is not the steepest direction but makes fast progress,
    and acceptance still demands a strict energy decrease.
    """
    mask = full_angles < 0.0
    if not mask.any():
        return None
    g = mask[:-1].astype(float) - (1.0 if mask[-1] else 0.0)
    jac = closure_jacobian(verts)
    d = project_tangent(g, jac)
    norm = float(np.linalg.norm(d))
    if not math.isfinite(norm) or norm < 1e-9:
        return None
    return d / norm


def _wall_sliding_direction(le, verts: np.ndarray) -> np.ndarray | None:
    """Descent direction that also stays tangent to the contact barrier.

    Near self-contact the energy splits into a huge bump-factor cliff and
    the barrier term log F; the raw gradient points almost straight into
    the barrier and plain backtracking collapses to wall-scale zigzag
    steps.  Removing the span of the closure Jacobian and grad(log F)
    from the gradient leaves the component that slides along the wall
    while still strictly decreasing the energy to first order.
    """
    jac = closure_jacobian(verts)
    g_f = le.gradient - le.bump_gradient  # gradient of log F alone
    rows = np.vstack((jac, g_f))
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


def _line_search(free, direction, s_start, s_floor, le, lengths, params):
    """Backtrack along one direction; returns (free, le, step) or None
    when no acceptable step at or above ``s_floor`` exists."""
    s = s_start
    while s >= s_floor:
        try:
            cand, chain = project_to_closure(
                free + s * direction,
                lengths,
                tol=params.closure_tol,
                max_iter=params.closure_max_iter,
                return_chain=True,
            )
            cand_le = log_energy_gradient(ReducedCoords(cand), lengths, chain=chain)
        except (ValueError, np.linalg.LinAlgError):
            s *= params.backtrack
            continue
        if cand_le.log_value < le.log_value and classify(cand_le.chain).embedded:
            return cand, cand_le, s
        s *= params.backtrack
    return None


def convexify(chain: PolygonChain, params: FlowParams | None = None) -> FlowTrace:
    """Drive an embedded polygon to convexity by energy descent.

    The energy strictly decreases across accepted steps, every accepted
    iterate is embedded and realizes the side lengths, and the run stops
    as soon as the smallest turn angle clears ``-convexity_tol``.  A step
    that cannot make strict progress above ``min_step`` is reported as
    ``stalled``, never silently accepted.
    """
    params = params or FlowParams()
    cls = classify(chain)
    if not cls.embedded:
        raise ValueError("convexify requires an embedded input polygon")
    reflected = False
    if abs(cls.winding + TAU) <= 1e-6:
        chain = reflect_x(chain)
        reflected = True
    elif abs(cls.winding - TAU) > 1e-6:
        raise ValueError("embedded polygon must wind by +-2*pi")
    chain = canonicalize(chain)
    lengths = chain.side_lengths()

    free, chain = project_to_closure(
        ReducedCoords.from_chain(chain).free_angles,
        lengths,
        tol=params.closure_tol,
        max_iter=params.closure_max_iter,
        return_chain=True,
    )
    le = log_energy_gradient(ReducedCoords(free), lengths, chain=chain)

    trace = FlowTrace(lengths=lengths, status=MAX_ITERATIONS, reflected=reflected)
    trace.records.append(
        FlowRecord(0, math.exp(le.log_value) if le.log_value > -math.inf else 0.0,
                   le.log_value, le.min_turn_angle, 0.0)
    )
    trace.snapshots.append(FlowSnapshot(0, le.chain.vertices.copy()))

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
        step = min(step / params.backtrack, params.initial_step)
        stage1_floor = max(step * params.backtrack**8, params.min_step)
        hit = _line_search(
            free, direction, step, stage1_floor, le, lengths, params
        )
        if hit is None or hit[2] < 0.05 * params.initial_step:
            # gradient progress has collapsed (tied reflex angles in
            # lockstep, or the contact barrier); try coarser but more
            # robust directions, each only searched down to the step the
            # incumbent already achieved, and keep whichever moves farthest
            full = np.append(free, ReducedCoords(free).dependent_angle())
            for alt_dir in (
                _balanced_lift_direction(full, le.chain.vertices),
                _wall_sliding_direction(le, le.chain.vertices),
            ):
                if alt_dir is None:
                    continue
                floor = params.min_step if hit is None else 2.0 * hit[2]
                alt = _line_search(
                    free, alt_dir, params.initial_step, floor,
                    le, lengths, params,
                )
                if alt is not None and (hit is None or alt[2] > hit[2]):
                    hit = alt
        if hit is None:
            # exhaust the plain direction before declaring a stall
            hit = _line_search(
                free,
                direction,
                stage1_floor * params.backtrack,
                params.min_step,
                le,
                lengths,
                params,
            )
        if hit is None:
            trace.status = STALLED
            break

        free, le, step = hit
        accepted += 1
        trace.records.append(
            FlowRecord(
                accepted,
                math.exp(le.log_value) if le.log_value > -math.inf else 0.0,
                le.log_value,
                le.min_turn_angle,
                step,
            )
        )
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
        raise ValueError("reverse step requires an embedded polygon")
    if abs(cls.winding - TAU) > 1e-6:
        raise ValueError("reverse step expects a counterclockwise polygon")
    chain = canonicalize(chain)
    lengths = chain.side_lengths()
    free, chain = project_to_closure(
        ReducedCoords.from_chain(chain).free_angles,
        lengths,
        tol=params.closure_tol,
        max_iter=params.closure_max_iter,
        return_chain=True,
    )
    le = log_energy_gradient(ReducedCoords(free), lengths, chain=chain)
    if le.log_value == -math.inf:
        raise ValueError("zero gradient: no ascent direction from a convex interior")
    direction = le.projected_gradient
    norm = float(np.linalg.norm(direction))
    if norm == 0.0:
        raise ValueError("zero gradient: no ascent direction")
    direction = direction / norm
    if energy_cap is None:
        log_cap = math.inf
    elif energy_cap <= 0.0:
        log_cap = -math.inf
    else:
        log_cap = math.log(energy_cap)

    step = params.initial_step
    while step >= params.min_step:
        try:
            cand, chain = project_to_closure(
                free + step * direction,
                lengths,
                tol=params.closure_tol,
                max_iter=params.closure_max_iter,
                return_chain=True,
            )
            cand_le = log_energy_gradient(ReducedCoords(cand), lengths, chain=chain)
        except (ValueError, np.linalg.LinAlgError):
            step *= params.backtrack
            continue
        if (
            cand_le.log_value > le.log_value
            and cand_le.log_value <= log_cap
            and classify(cand_le.chain).embedded
        ):
            return cand_le.chain
        step *= params.backtrack
    raise ValueError("no acceptable ascent step above the step floor")
