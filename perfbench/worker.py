"""One workload in one process: set up, run the timed phase, report.

Started by ``run.py`` with BLAS/OpenMP threads pinned to 1; prints one
JSON object on its last stdout line.  With ``--setup-only`` it stops after
set-up and reports only the set-up time.  With ``--trace 1`` it runs a
fixed number of ops twice, untraced and then traced, and reports the
per-layer metrics, the tracing overhead and whether the traced replay
reproduced the untraced counts exactly.
"""

import time

T_START = time.process_time()  # set-up is timed from here, imports included

import argparse  # noqa: E402
import contextlib  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
RESULTS = ROOT / "perfbench" / "results"
sys.path.insert(0, str(ROOT / "src"))

import workloads  # noqa: E402

WALL_CAP = 1.5  # the timed phase ends by this multiple of --seconds in wall time


class Runner:
    """Runs ops of one workload, checks each and keeps its figures.

    Throughput and latency weight every slot of the workload's size cycle
    equally, so they do not depend on how the seed happened to split the
    work between sizes.
    """

    def __init__(self, wl, tracer=None):
        self.wl = wl
        self.tracer = tracer
        self.results = []
        self.ops: list[tuple[int, float, int]] = []  # (slot, busy_s, units)
        self.busy = 0.0  # failed ops included
        self.fingerprints = []
        self.errors: list[str] = []
        self.failed_ops: set[int] = set()

    def op(self, i: int):
        wl = self.wl
        t0 = workloads.clock()
        try:
            with wl.span("op"):
                result, busy, units = wl.run(i)
        except Exception as exc:  # an op that raises is a failed op
            self.busy += workloads.clock() - t0
            self.fail(i, [f"op {i} raised {exc!r}"])
            self.fingerprints.append(None)
            return
        self.busy += busy
        with self.tracer.paused() if self.tracer else contextlib.nullcontext():
            errors = wl.check(i, result)
            self.fingerprints.append(wl.fingerprint(result))
        if errors:
            self.fail(i, errors)
            return
        self.results.append(result)
        self.ops.append((i % wl.cycle_len, busy, units))

    def fail(self, i: int, errors: list[str]):
        self.failed_ops.add(i)
        self.errors.extend(errors)

    def timed(self, seconds: float):
        """Whole cycles until the busy time is nearest ``seconds``.

        Busy time is CPU time; a run kept waiting so long that its wall
        time passes ``WALL_CAP * seconds`` ends after the current cycle.
        """
        wall_end = time.perf_counter() + WALL_CAP * seconds
        i = cycles = 0
        while True:
            for _ in range(self.wl.cycle_len):
                self.op(i)
                i += 1
            cycles += 1
            nearest = self.busy + self.busy / cycles / 2 >= seconds
            if nearest and cycles >= self.wl.min_cycles:
                return
            if time.perf_counter() >= wall_end:
                return

    def fixed(self, count: int):
        for i in range(count):
            self.op(i)

    @property
    def attempted(self) -> int:
        return len(self.fingerprints)

    @property
    def failed(self) -> int:
        return len(self.failed_ops)

    def _slots(self) -> dict[int, list]:
        slots: dict[int, list] = {}
        for slot, busy, units in self.ops:
            acc = slots.setdefault(slot, [0.0, 0])
            acc[0] += busy
            acc[1] += units
        return {k: v for k, v in slots.items() if v[1]}

    @property
    def ops_per_s(self) -> float:
        """Units per second if every slot completed the same number of units."""
        slots = self._slots()
        if not slots:
            return 0.0
        return len(slots) / sum(busy / units for busy, units in slots.values())

    def latency_ms(self, q: float) -> float:
        """Geometric mean over the slots of each slot's ``q``-quantile of ms/unit."""
        per_slot: dict[int, list[float]] = {}
        for slot, busy, units in self.ops:
            if units:
                per_slot.setdefault(slot, []).append(busy / units * 1e3)
        if not per_slot:
            return 0.0
        logs = [math.log(np.quantile(v, q)) for v in per_slot.values()]
        return math.exp(sum(logs) / len(logs))


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def metric(value, unit):
    return {"value": value, "unit": unit}


def untraced(wl, seconds):
    run = Runner(wl)
    run.timed(seconds)
    for i, error in wl.finish().items():
        run.fail(i, [error])
    return {
        "correct": not run.errors,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {
            "ops_per_s": metric(run.ops_per_s, "1/s"),
            "op_p50_ms": metric(run.latency_ms(0.5), "ms"),
            "op_p90_ms": metric(run.latency_ms(0.9), "ms"),
            "peak_rss_mb": metric(peak_rss_mb(), "MB"),
        },
        "info": {
            "op_unit": wl.unit,
            "latency_samples": len(run.ops),
            "units": sum(units for _, _, units in run.ops),
            "busy_s": run.busy,
            **wl.info(run.results),
        },
        "ops": run.ops,
        "errors": run.errors[:20],
    }


def traced(wl, seconds, spans_path):
    import tracer as tr  # imported here: wrappers exist only in traced runs

    count = wl.cycle_len * max(1, int(seconds / 2 / wl.nominal_cycle_s))
    plain = Runner(wl)
    plain.fixed(count)

    tracer = tr.Tracer()
    wl.span = tracer.span
    replay = Runner(wl, tracer)
    tracer.install()
    try:
        replay.fixed(count)
    finally:
        tracer.uninstall()
    tracer.save(spans_path)

    layer = tr.layer_metrics(tracer)
    layer["trace.untraced_ops_per_s"] = plain.ops_per_s
    layer["trace.traced_ops_per_s"] = replay.ops_per_s
    layer["trace.overhead_frac"] = (
        plain.ops_per_s / replay.ops_per_s - 1.0 if replay.ops_per_s else 0.0
    )

    errors = plain.errors + replay.errors + list(wl.finish().values())
    if plain.fingerprints != replay.fingerprints:
        errors.append("traced replay did not reproduce the untraced counts")
    if isinstance(wl, workloads.FlowWorkload):
        steps = sum(fp for fp in plain.fingerprints if fp is not None)
        if layer["flow.accepted_steps"] != steps:
            errors.append(
                f"traced accepted steps {layer['flow.accepted_steps']} != {steps}"
            )
    if isinstance(wl, workloads.OracleWorkload):
        configs = sum(fp[0] for fp in plain.fingerprints if fp is not None)
        if layer["config_space.enumerate_configurations.configs"] != configs:
            errors.append("traced configuration count differs from untraced")
    failed = max(plain.failed, replay.failed, 1 if errors else 0)
    return {
        "correct": not errors,
        "attempted": plain.attempted,
        "failed": failed,
        "metrics": {
            name: metric(layer[name], unit)
            for name, (unit, _) in tr.PER_LAYER.items()
        },
        "info": {"ops": count, "spans": len(tracer.start), "op_unit": wl.unit},
        "errors": errors[:20],
    }


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    workdir = ROOT / "perfbench" / ".work" / str(os.getpid())
    wl = workloads.make(args.workload, args.seed, args.seconds, workdir)
    try:
        wl.setup()
        setup_s = time.process_time() - T_START  # CPU time, as ops are timed
        if args.setup_only:
            out = {"setup_s": setup_s}
        elif args.trace:
            spans = RESULTS / f"{args.workload}-seed{args.seed}.spans.npz"
            out = traced(wl, args.seconds, spans)
        else:
            out = untraced(wl, args.seconds)
            out["setup_s"] = setup_s
    finally:
        wl.close()
    print(json.dumps(out))


if __name__ == "__main__":
    main()
