"""Span tracing around the public functions of each polylink module.

The tracer replaces names in the modules that import them (for example
``polylink.flow.classify``), so the program itself is unchanged.  A call
to a wrapped function becomes a span with a start, an end, the span that
caused it and an outcome; spans live in flat arrays until the run ends.
Self time is a span's duration minus the time its child spans cover.
Small helpers called many times per parent are only counted.
"""

from __future__ import annotations

import functools
import time
from array import array
from collections import Counter
from contextlib import contextmanager

import numpy as np

from polylink import cli, config_space, convex_atlas, energy, flow

RAISED = -1


def _embedded(cls) -> int:
    return int(cls.embedded)


def _sweep_counts(sweep) -> dict[str, int]:
    return {"configs": len(sweep), "convex_configs": int(sweep.convex_ccw.sum())}


# (module holding the name, attribute, span name, outcome of a result);
# the counters of a result are in COUNTED
WRAPPED = [
    (flow, "convexify", "flow.convexify", None),
    (flow, "project_to_closure", "flow.project_to_closure", None),
    (flow, "classify", "config_space.classify@flow", _embedded),
    (flow, "log_energy_gradient", "energy.log_energy_gradient@flow", None),
    (flow, "vertices_from_turn_angles", "chain_geometry.vertices_from_turn_angles@flow", None),
    (energy, "vertices_from_turn_angles", "chain_geometry.vertices_from_turn_angles@energy", None),
    (config_space, "classify", "config_space.classify", _embedded),
    (config_space, "enumerate_configurations", "config_space.enumerate_configurations", None),
    (config_space, "straight_line_sign_vectors", "config_space.straight_line_sign_vectors", None),
    (config_space, "vertices_from_turn_angles", "chain_geometry.vertices_from_turn_angles@config_space", None),
    (convex_atlas, "min_turn_angle", "convex_atlas.min_turn_angle", None),
    (convex_atlas, "max_turn_angle", "convex_atlas.max_turn_angle", None),
    (convex_atlas, "sample_atlas", "convex_atlas.sample_atlas", None),
    (cli, "classify", "config_space.classify@cli", _embedded),
    (cli, "straight_line_sign_vectors", "config_space.straight_line_sign_vectors@cli", None),
    (cli, "sample_atlas", "convex_atlas.sample_atlas@cli", None),
    (cli, "enumerate_configurations", "config_space.enumerate_configurations@cli", None),
    (cli, "vertices_from_turn_angles", "chain_geometry.vertices_from_turn_angles@cli", None),
]
COUNTED = {
    "flow.convexify": lambda trace: {"accepted_steps": trace.accepted_steps},
    "config_space.enumerate_configurations": _sweep_counts,
    "config_space.enumerate_configurations@cli": _sweep_counts,
}
# small helpers called many times per parent: only their calls are
# counted, and their time stays in the caller's self time
CALLS_ONLY = [
    (config_space, "segment_intersection", "chain_geometry.segment_intersection"),
    (config_space, "turn_angles_from_vertices", "chain_geometry.turn_angles_from_vertices"),
    (energy, "turn_angles_from_vertices", "chain_geometry.turn_angles_from_vertices"),
    (convex_atlas, "turn_angles_from_vertices", "chain_geometry.turn_angles_from_vertices"),
    (cli, "turn_angles_from_vertices", "chain_geometry.turn_angles_from_vertices"),
    (config_space, "circle_circle_intersection", "chain_geometry.circle_circle_intersection"),
    (convex_atlas, "circle_circle_intersection", "chain_geometry.circle_circle_intersection"),
]

# name -> (unit, better), in the order BENCHMARK.json lists them
PER_LAYER = {
    "config_space.classify.calls": ("count", "lower"),
    "config_space.classify.self_s": ("s", "lower"),
    "config_space.classify.embedded_frac": ("ratio", "higher"),
    "chain_geometry.segment_intersection.calls": ("count", "lower"),
    "energy.log_energy_gradient.calls": ("count", "lower"),
    "energy.log_energy_gradient.self_s": ("s", "lower"),
    "chain_geometry.vertices_from_turn_angles.calls": ("count", "lower"),
    "chain_geometry.vertices_from_turn_angles.self_s": ("s", "lower"),
    "flow.project_to_closure.calls": ("count", "lower"),
    "flow.project_to_closure.self_s": ("s", "lower"),
    "flow.project_to_closure.failed": ("count", "lower"),
    "flow.newton_iterations": ("count", "lower"),
    "flow.convexify.self_s": ("s", "lower"),
    "flow.accepted_steps": ("count", "lower"),
    "flow.accept_ratio": ("ratio", "higher"),
    "flow.rejected_energy": ("count", "lower"),
    "flow.rejected_embedded": ("count", "lower"),
    "config_space.enumerate_configurations.self_s": ("s", "lower"),
    "config_space.enumerate_configurations.configs": ("count", "higher"),
    "config_space.enumerate_configurations.convex_frac": ("ratio", "higher"),
    "config_space.straight_line_sign_vectors.calls": ("count", "lower"),
    "config_space.straight_line_sign_vectors.self_s": ("s", "lower"),
    "convex_atlas.min_turn_angle.calls": ("count", "lower"),
    "convex_atlas.min_turn_angle.self_s": ("s", "lower"),
    "convex_atlas.max_turn_angle.calls": ("count", "lower"),
    "convex_atlas.max_turn_angle.self_s": ("s", "lower"),
    "convex_atlas.prefix_errors": ("count", "lower"),
    "chain_geometry.turn_angles_from_vertices.calls": ("count", "lower"),
    "chain_geometry.circle_circle_intersection.calls": ("count", "lower"),
    "cli.self_s": ("s", "lower"),
    "trace.untraced_ops_per_s": ("1/s", "higher"),
    "trace.traced_ops_per_s": ("1/s", "higher"),
    "trace.overhead_frac": ("ratio", "lower"),
}


class Tracer:
    """Records spans while ``active``; installs and removes its wrappers."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.start = array("d")
        self.end = array("d")
        self.name = array("i")
        self.parent = array("i")
        self.outcome = array("b")
        self.counters: Counter = Counter()
        self.active = False
        self._stack: list[int] = []
        self._undo: list[tuple] = []

    def _id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def _open(self, nid: int) -> int:
        idx = len(self.start)
        self.name.append(nid)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.outcome.append(0)
        self.end.append(0.0)
        self._stack.append(idx)
        self.start.append(time.perf_counter())
        return idx

    def _close(self, idx: int, outcome: int):
        self.end[idx] = time.perf_counter()
        self.outcome[idx] = outcome
        self._stack.pop()

    @contextmanager
    def span(self, name: str):
        """A span opened by the benchmark itself (an op, a CLI call)."""
        if not self.active:
            yield
            return
        idx = self._open(self._id(name))
        try:
            yield
        except BaseException:
            self._close(idx, RAISED)
            raise
        self._close(idx, 0)

    @contextmanager
    def paused(self):
        """Run checks without recording them."""
        was, self.active = self.active, False
        try:
            yield
        finally:
            self.active = was

    def _wrap(self, fn, name: str, outcome):
        nid = self._id(name)
        count = COUNTED.get(name)
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            idx = tracer._open(nid)
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                tracer._close(idx, RAISED)
                tracer.counters[f"{name}!{type(exc).__name__}"] += 1
                raise
            tracer._close(idx, outcome(result) if outcome else 0)
            if count:
                tracer.counters.update(count(result))
            return result

        return wrapper

    def _count(self, fn, name: str):
        key = f"{name}.calls"
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if tracer.active:
                tracer.counters[key] += 1
            return fn(*args, **kwargs)

        return wrapper

    def install(self):
        wrappers = [(m, a, lambda fn, n=n, o=o: self._wrap(fn, n, o))
                    for m, a, n, o in WRAPPED]
        wrappers += [(m, a, lambda fn, n=n: self._count(fn, n))
                     for m, a, n in CALLS_ONLY]
        for module, attr, make in wrappers:
            fn = getattr(module, attr)
            setattr(module, attr, make(fn))
            self._undo.append((module, attr, fn))
        self.active = True

    def uninstall(self):
        self.active = False
        for module, attr, fn in reversed(self._undo):
            setattr(module, attr, fn)
        self._undo.clear()

    def save(self, path):
        """Write every span to an ``.npz`` file (names indexed by ``name``)."""
        np.savez(
            path,
            names=np.array(self.names),
            start=np.frombuffer(self.start, dtype=float),
            end=np.frombuffer(self.end, dtype=float),
            name=np.frombuffer(self.name, dtype=np.int32),
            parent=np.frombuffer(self.parent, dtype=np.int32),
            outcome=np.frombuffer(self.outcome, dtype=np.int8),
        )

    def summary(self) -> dict[str, dict[str, float]]:
        """Per span name (site suffix kept): calls, self_s, raised, true."""
        k = len(self.names)
        if not len(self.start):
            return {}
        start = np.frombuffer(self.start, dtype=float)
        dur = np.frombuffer(self.end, dtype=float) - start
        name = np.frombuffer(self.name, dtype=np.int32)
        parent = np.frombuffer(self.parent, dtype=np.int32)
        outcome = np.frombuffer(self.outcome, dtype=np.int8)
        has_parent = parent >= 0
        covered = np.bincount(
            parent[has_parent], weights=dur[has_parent], minlength=dur.size
        )
        self_s = dur - covered
        out = {}
        calls = np.bincount(name, minlength=k)
        selfs = np.bincount(name, weights=self_s, minlength=k)
        raised = np.bincount(name, weights=outcome == RAISED, minlength=k)
        true = np.bincount(name, weights=outcome == 1, minlength=k)
        for i, nm in enumerate(self.names):
            out[nm] = {
                "calls": int(calls[i]),
                "self_s": float(selfs[i]),
                "raised": int(raised[i]),
                "true": int(true[i]),
            }
        return out


def layer_metrics(tracer: Tracer) -> dict[str, float]:
    """Derive the per-layer metrics of :data:`PER_LAYER` from the spans.

    Span names carry the module whose binding was called after ``@``; a
    layer total sums every site.  The flow counts follow from how
    ``convexify`` calls its helpers: one classify, one projection and one
    log-energy evaluation of the input, then per trial step a projection,
    a log-energy evaluation if the projection succeeded and a classify
    only if the energy dropped.  A trial that passes both is not always
    accepted (a longer step along another direction may win), so accepted
    steps are counted from the traces ``convexify`` returns.
    """
    spans = tracer.summary()

    def site(name: str, field: str) -> float:
        return spans.get(name, {}).get(field, 0)

    def total(base: str, field: str) -> float:
        return sum(
            v[field] for k, v in spans.items() if k.split("@")[0] == base
        )

    m: dict[str, float] = {}
    classify_calls = total("config_space.classify", "calls")
    m["config_space.classify.calls"] = classify_calls
    m["config_space.classify.self_s"] = total("config_space.classify", "self_s")
    m["config_space.classify.embedded_frac"] = (
        total("config_space.classify", "true") / classify_calls
        if classify_calls else 0.0
    )
    m["chain_geometry.segment_intersection.calls"] = tracer.counters[
        "chain_geometry.segment_intersection.calls"]
    m["energy.log_energy_gradient.calls"] = total("energy.log_energy_gradient", "calls")
    m["energy.log_energy_gradient.self_s"] = total("energy.log_energy_gradient", "self_s")
    m["chain_geometry.vertices_from_turn_angles.calls"] = total(
        "chain_geometry.vertices_from_turn_angles", "calls")
    m["chain_geometry.vertices_from_turn_angles.self_s"] = total(
        "chain_geometry.vertices_from_turn_angles", "self_s")

    polygons = site("flow.convexify", "calls")
    projections = site("flow.project_to_closure", "calls")
    m["flow.project_to_closure.calls"] = projections
    m["flow.project_to_closure.self_s"] = site("flow.project_to_closure", "self_s")
    m["flow.project_to_closure.failed"] = site("flow.project_to_closure", "raised")
    m["flow.newton_iterations"] = (
        site("chain_geometry.vertices_from_turn_angles@flow", "calls") - projections
    )
    m["flow.convexify.self_s"] = site("flow.convexify", "self_s")
    trial_classifies = site("config_space.classify@flow", "calls") - polygons
    rejected_embedded = trial_classifies - (
        site("config_space.classify@flow", "true") - polygons
    )
    accepted = tracer.counters["accepted_steps"]
    trial_projections = projections - polygons
    trial_energies = (
        site("energy.log_energy_gradient@flow", "calls")
        - site("energy.log_energy_gradient@flow", "raised")
        - polygons
    )
    m["flow.accepted_steps"] = accepted
    m["flow.accept_ratio"] = accepted / trial_projections if trial_projections else 0.0
    m["flow.rejected_energy"] = trial_energies - trial_classifies
    m["flow.rejected_embedded"] = rejected_embedded

    configs = tracer.counters["configs"]
    m["config_space.enumerate_configurations.self_s"] = total(
        "config_space.enumerate_configurations", "self_s")
    m["config_space.enumerate_configurations.configs"] = configs
    m["config_space.enumerate_configurations.convex_frac"] = (
        tracer.counters["convex_configs"] / configs if configs else 0.0
    )
    m["config_space.straight_line_sign_vectors.calls"] = total(
        "config_space.straight_line_sign_vectors", "calls")
    m["config_space.straight_line_sign_vectors.self_s"] = total(
        "config_space.straight_line_sign_vectors", "self_s")
    for fn in ("min_turn_angle", "max_turn_angle"):
        m[f"convex_atlas.{fn}.calls"] = site(f"convex_atlas.{fn}", "calls")
        m[f"convex_atlas.{fn}.self_s"] = site(f"convex_atlas.{fn}", "self_s")
    m["convex_atlas.prefix_errors"] = sum(
        tracer.counters[f"convex_atlas.{fn}!PrefixError"]
        for fn in ("min_turn_angle", "max_turn_angle")
    )
    for fn in ("turn_angles_from_vertices", "circle_circle_intersection"):
        key = f"chain_geometry.{fn}.calls"
        m[key] = tracer.counters[key]
    m["cli.self_s"] = site("cli", "self_s")
    return m
