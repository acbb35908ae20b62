"""The four benchmark workloads.

Each workload draws one input per op from the seed (``input``) and runs
ops in a fixed cycle of input sizes.  ``run(i)`` performs op ``i`` and
returns ``(result, busy_s, units)``: the result to check, the CPU
seconds spent inside polylink calls, and how many throughput units the
op completed.  ``check(i, result)`` returns the list of failed checks and
runs outside the timed calls.  ``fingerprint(result)`` is the exact count
a traced replay of the op must reproduce.
"""

from __future__ import annotations

import contextlib
import hashlib
import json
import math
import shutil
import time
from pathlib import Path

import numpy as np
from click.testing import CliRunner

import inputs
from polylink import chain_geometry, cli, config_space, convex_atlas, flow

TAU = 2.0 * math.pi
WARMUP_SEED = 0  # warm-up inputs do not depend on --seed
# nu <= mu is checked up to rounding: at a prefix on the endpoint of its
# parent interval the level interval is one point, and the two stretched
# constructions agree there only to a few ulps (seen: 5.6e-16)
ROUNDING = 1e-12


# Ops are timed in CPU time of the (single-threaded) worker process.  On an
# idle machine it equals wall time; on a shared one it leaves out the time
# the process waited for a CPU while other processes or the host (steal
# time) had it.
clock = time.process_time


def _elapsed(t0: float) -> float:
    return clock() - t0


class Workload:
    unit = ""  # what one throughput unit is
    cycle_len = 1  # ops per cycle of input sizes
    min_cycles = 1  # the timed phase runs at least this many cycles
    # a fast cycle time; sizes the set-up input pool and the traced run
    nominal_cycle_s = 1.0

    def __init__(self, seed: int, seconds: float):
        self.seed = seed
        self.seconds = seconds
        # a span for the benchmark's own boundaries; the tracer replaces it
        self.span = lambda name: contextlib.nullcontext()

    def setup(self):
        """Draw the inputs of ``seconds`` at the nominal rate, then warm up."""
        self.rng = np.random.default_rng(self.seed)
        self.inputs: list = []
        cycles = max(self.min_cycles, math.ceil(self.seconds / self.nominal_cycle_s))
        self.input(cycles * self.cycle_len - 1)
        self.warm_up()

    def input(self, i: int):
        """Input of op ``i``; every op gets its own.

        Inputs past the set-up pool (a faster program runs more ops) are
        drawn from the same stream when first needed, outside the timed
        calls.
        """
        while len(self.inputs) <= i:
            self.inputs.append(self.draw(len(self.inputs) % self.cycle_len))
        return self.inputs[i]

    def draw(self, slot: int):
        """Next input for cycle slot ``slot``, from ``self.rng``."""
        raise NotImplementedError

    def warm_up(self):
        raise NotImplementedError

    def run(self, i: int):
        raise NotImplementedError

    def check(self, i: int, result) -> list[str]:
        raise NotImplementedError

    def fingerprint(self, result):
        raise NotImplementedError

    def info(self, results: list) -> dict:
        """Extra figures for the report, from the per-op results."""
        return {}

    def finish(self) -> dict[int, str]:
        """Checks that need every op, run after the timed phase: op -> error."""
        return {}

    def close(self):
        pass


class FlowWorkload(Workload):
    """``convexify`` on nonconvex embedded CCW polygons, sizes cycling.

    The throughput unit is a polygon, or an accepted flow step when
    ``count_steps`` is set (where a run holds too few polygons for a
    steady per-polygon figure); ``info`` reports steps per polygon.
    """

    def __init__(self, seed, seconds, sizes, count_steps, min_cycles, nominal_cycle_s):
        super().__init__(seed, seconds)
        self.sizes = tuple(sizes)
        self.cycle_len = len(self.sizes)
        self.count_steps = count_steps
        self.unit = "accepted flow step" if count_steps else "polygon"
        self.min_cycles = min_cycles
        self.nominal_cycle_s = nominal_cycle_s

    def setup(self):
        self.polygons = inputs.StratifiedPolygons(np.random.default_rng(self.seed))
        super().setup()

    def draw(self, slot):
        return self.polygons.draw(self.sizes[slot])

    def warm_up(self):
        flow.convexify(inputs.nonconvex_polygon(5, np.random.default_rng(WARMUP_SEED)))

    def run(self, i):
        chain = self.input(i)
        t0 = clock()
        trace = flow.convexify(chain)
        busy = _elapsed(t0)
        return trace, busy, trace.accepted_steps if self.count_steps else 1

    def check(self, i, trace):
        errors = []
        lengths = self.input(i).edge_lengths()
        if trace.status != flow.CONVERGED:
            errors.append(f"polygon {i}: status {trace.status}")
        logs = [r.log_energy for r in trace.records]
        if not all(b < a for a, b in zip(logs, logs[1:])):
            errors.append(f"polygon {i}: log energy not strictly decreasing")
        for snap in trace.snapshots:
            chain = chain_geometry.PolygonChain(snap.vertices)
            if not config_space.classify(chain).embedded:
                errors.append(f"polygon {i}: snapshot {snap.step} not embedded")
            if np.max(np.abs(chain.edge_lengths() - lengths)) >= 1e-9:
                errors.append(f"polygon {i}: snapshot {snap.step} changed a side")
        return errors

    def fingerprint(self, trace):
        return trace.accepted_steps

    def info(self, results):
        steps = sum(trace.accepted_steps for trace in results)
        return {
            "polygons": len(results),
            "steps_per_polygon": steps / len(results) if results else 0.0,
        }


class OracleWorkload(Workload):
    """Brute-force enumeration against the stretched constructions."""

    unit = "enumerated configuration"
    plan = ((5, 1000), (6, 96))  # (n, grid per free angle), alternating
    cycle_len = len(plan)
    nominal_cycle_s = 7.5

    def draw(self, slot):
        return inputs.generic_lengths(self.plan[slot][0], self.rng, 0.05)

    def warm_up(self):
        warm = inputs.generic_lengths(5, np.random.default_rng(WARMUP_SEED), 0.05)
        config_space.enumerate_configurations(warm, 60)
        convex_atlas.min_turn_angle(warm, [])
        convex_atlas.max_turn_angle(warm, [])

    def run(self, i):
        n, grid = self.plan[i % self.cycle_len]
        lengths = self.input(i)
        cell = TAU / grid
        t0 = clock()
        sweep = config_space.enumerate_configurations(lengths, grid)
        enum_s = _elapsed(t0)
        busy = enum_s
        prefix: list[float] = []
        intervals = []
        for k in range(n - 3):
            sel = sweep.convex_ccw.copy()
            for m, a in enumerate(prefix):
                sel &= np.abs(sweep.angles[:, m] - a) < cell / 4
            t0 = clock()
            nu, _ = convex_atlas.min_turn_angle(lengths, prefix)
            mu, _ = convex_atlas.max_turn_angle(lengths, prefix)
            busy += _elapsed(t0)
            vals = sweep.angles[sel, k]
            intervals.append((k, nu, mu, vals))
            if not vals.size:
                break
            # descend to a mid-interval grid value of the oracle
            grid_vals = np.unique(np.round(vals, 12))
            prefix.append(float(grid_vals[len(grid_vals) // 2]))
        result = {
            "configs": len(sweep),
            "convex": int(sweep.convex_ccw.sum()),
            "enum_s": enum_s,
            "cell": cell,
            "intervals": intervals,
        }
        return result, busy, len(sweep)

    def check(self, i, result):
        errors = []
        cell = result["cell"]
        for k, nu, mu, vals in result["intervals"]:
            if not vals.size:
                errors.append(f"vector {i} angle {k}: no convex oracle sample")
            elif nu > mu + ROUNDING or vals.min() < nu - cell or vals.max() > mu + cell:
                errors.append(
                    f"vector {i} angle {k}: oracle [{vals.min():.6f}, "
                    f"{vals.max():.6f}] outside [{nu:.6f}, {mu:.6f}] by > 1 cell"
                )
        return errors

    def fingerprint(self, result):
        return (result["configs"], result["convex"])

    def info(self, results):
        configs = sum(r["configs"] for r in results)
        enum_s = sum(r["enum_s"] for r in results)
        return {
            "vectors": len(results),
            "enumerate_configs_per_s": configs / enum_s if enum_s else 0.0,
        }


class CliWorkload(Workload):
    """``polylink analyze`` then ``polylink atlas --out json``, in process.

    Every op runs a vector of its own; after the timed phase the vectors
    of the first cycle are run again and their output compared byte for
    byte (a traced run compares every vector of its two replays).
    """

    unit = "length vector"
    # (n, k, grid, margin): two atlas-bound vectors, one genericity-bound
    plan = ((7, 4, 12, 0.05), (7, 4, 12, 0.05), (20, 2, 30, 1e-6))
    cycle_len = len(plan)
    nominal_cycle_s = 2.5

    def __init__(self, seed, seconds, workdir: Path):
        super().__init__(seed, seconds)
        self.workdir = workdir
        self.runner = CliRunner()
        self.digests: dict[int, list[str]] = {}
        self.rounded_rows = 0  # rows with nu > mu, within ROUNDING

    def _write(self, tag: str, lengths) -> str:
        path = self.workdir / f"{tag}.json"
        path.write_text(json.dumps({"lengths": lengths.lengths.tolist()}))
        return str(path)

    def setup(self):
        self.workdir.mkdir(parents=True, exist_ok=True)
        super().setup()

    def draw(self, slot):
        n, _, _, margin = self.plan[slot]
        lengths = inputs.generic_lengths(n, self.rng, margin)
        return self._write(f"v{len(self.inputs)}", lengths)

    def warm_up(self):
        warm = self._write(
            "warm", inputs.generic_lengths(6, np.random.default_rng(WARMUP_SEED), 0.05)
        )
        self._invoke(warm, 2, 4)

    def _invoke(self, path, k, grid):
        runs = []
        for args in (
            ["analyze", path],
            ["atlas", path, "--k", str(k), "--grid", str(grid), "--out", "json"],
        ):
            with self.span("cli"):
                runs.append(self.runner.invoke(cli.main, args))
        return runs

    def _plan(self, i):
        """(n, k, grid) of op ``i``."""
        n, k, grid, _ = self.plan[i % self.cycle_len]
        return n, k, grid

    def run(self, i):
        _, k, grid = self._plan(i)
        path = self.input(i)
        t0 = clock()
        runs = self._invoke(path, k, grid)
        return runs, _elapsed(t0), 1

    def check(self, i, runs):
        n, k, grid = self._plan(i)
        errors = []
        for res in runs:
            if res.exit_code != 0:
                errors.append(f"vector {i}: exit code {res.exit_code} ({res.exception!r})")
        if errors:
            return errors
        try:
            analyzed = json.loads(runs[0].stdout)
            atlas = json.loads(runs[1].stdout)
        except json.JSONDecodeError as exc:
            return [f"vector {i}: output is not JSON ({exc})"]
        if analyzed.get("n") != n or analyzed.get("generic") is not True:
            errors.append(f"vector {i}: analyze reports {analyzed}")
        rows = atlas.get("rows", [])
        if len(rows) != grid ** (k - 1):
            errors.append(f"vector {i}: {len(rows)} atlas rows")
        if any(not row["nu"] <= row["mu"] + ROUNDING for row in rows):
            errors.append(f"vector {i}: an atlas row has nu > mu")
        self.rounded_rows += sum(row["nu"] > row["mu"] for row in rows)
        self.digests.setdefault(i, []).append(self.fingerprint(runs))
        return errors

    def fingerprint(self, runs):
        text = runs[0].stdout + "\0" + runs[1].stdout
        return hashlib.sha256(text.encode()).hexdigest()

    def finish(self):
        """Output must repeat byte for byte; vectors seen once are run again
        if they belong to the first cycle."""
        errors = {}
        for i, seen in self.digests.items():
            if len(seen) == 1 and i < self.cycle_len:
                _, k, grid = self._plan(i)
                seen.append(self.fingerprint(self._invoke(self.input(i), k, grid)))
            if len(set(seen)) > 1:
                errors[i] = f"vector {i}: output differs between calls"
        return errors

    def info(self, results):
        return {"vectors": len(self.digests), "rows_nu_above_mu": self.rounded_rows}

    def close(self):
        shutil.rmtree(self.workdir, ignore_errors=True)
        with contextlib.suppress(OSError):
            self.workdir.parent.rmdir()


def make(name: str, seed: int, seconds: float, workdir: Path) -> Workload:
    if name == "flow-small":
        return FlowWorkload(seed, seconds, range(4, 9), False, 20, 0.8)
    if name == "flow-large":
        return FlowWorkload(seed, seconds, (12,), True, 1, 1.6)
    if name == "oracle":
        return OracleWorkload(seed, seconds)
    if name == "cli":
        return CliWorkload(seed, seconds, workdir)
    raise ValueError(f"unknown workload {name!r}")
