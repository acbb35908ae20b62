"""Benchmark for polylink: run one workload and print its metrics.

Run from the repository root::

    python3 perfbench/run.py --workload flow-small --seed 1 --seconds 28 --trace 0

``--workload`` is one of flow-small, flow-large, oracle, cli, or ``all``
to run the four in turn.  Each workload runs in its own child process with
BLAS/OpenMP threads pinned to 1.  With ``--trace 0`` the end-to-end
metrics are reported; set-up is repeated in fresh processes and its median
reported.  With ``--trace 1`` the per-layer metrics of a traced replay are
reported instead.  The last stdout line is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; a full record goes
to ``perfbench/results/``.  The exit code is 0 only when every output
check passed.
"""

from __future__ import annotations

import argparse
import importlib.metadata
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RESULTS = HERE / "results"
NAMES = ("flow-small", "flow-large", "oracle", "cli")
SETUP_REPEATS = 3  # set-ups per run; the median is reported
DEADLINE_S = 170.0  # per workload, for all of its processes together
PINNED = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
          "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")


class WorkerError(RuntimeError):
    pass


def commit() -> str:
    """Commit of the checkout, read from ``.git`` without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def environment() -> dict:
    return {
        "python": platform.python_version(),
        "numpy": importlib.metadata.version("numpy"),
        "click": importlib.metadata.version("click"),
        "machine": platform.machine(),
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "commit": commit(),
    }


def worker(args: list[str], deadline: float) -> dict:
    env = {**os.environ, "PYTHONDONTWRITEBYTECODE": "1"}
    env.update({var: "1" for var in PINNED})
    try:
        proc = subprocess.run(
            [sys.executable, str(HERE / "worker.py"), *args],
            cwd=ROOT,
            env=env,
            capture_output=True,
            text=True,
            timeout=max(1.0, deadline - time.monotonic()),
        )
    except subprocess.TimeoutExpired as exc:
        raise WorkerError(f"worker timed out: {' '.join(args)}") from exc
    if proc.returncode != 0:
        raise WorkerError(f"worker exited {proc.returncode}:\n{proc.stderr[-3000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def run_workload(name: str, seed: int, seconds: float, trace: int) -> dict:
    deadline = time.monotonic() + DEADLINE_S
    common = ["--workload", name, "--seed", str(seed), "--seconds", str(seconds)]
    if trace:
        return worker(common + ["--trace", "1"], deadline)
    setups = [
        worker(common + ["--setup-only"], deadline)["setup_s"]
        for _ in range(SETUP_REPEATS - 1)
    ]
    out = worker(common + ["--trace", "0"], deadline)
    setups.append(out.pop("setup_s"))
    out["metrics"] = {
        "setup_s": {"value": statistics.median(setups), "unit": "s"},
        **out["metrics"],
    }
    out["info"]["setup_samples_s"] = setups
    return out


def report(name: str, out: dict):
    print(f"[{name}] correct={out['correct']} attempted={out['attempted']} "
          f"failed={out['failed']}")
    for key, m in out["metrics"].items():
        print(f"  {key:52s} {m['value']:>16.6g} {m['unit']}")
    print(f"  info: {json.dumps(out['info'])}")
    for err in out["errors"]:
        print(f"  check failed: {err}", file=sys.stderr)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter
    )
    parser.add_argument("--workload", required=True, choices=NAMES + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "polylink" / "__init__.py").is_file():
        print(f"no polylink sources under {ROOT / 'src'}; run from a checkout",
              file=sys.stderr)
        return 2
    RESULTS.mkdir(exist_ok=True)
    env = environment()
    print(f"polylink benchmark seed={args.seed} seconds={args.seconds:g} "
          f"trace={args.trace} env={json.dumps(env)}")

    names = NAMES if args.workload == "all" else (args.workload,)
    outs = {}
    try:
        for name in names:
            outs[name] = run_workload(name, args.seed, args.seconds, args.trace)
            report(name, outs[name])
            record = {"workload": name, "seed": args.seed, "seconds": args.seconds,
                      "trace": args.trace, "env": env, **outs[name]}
            path = RESULTS / f"{name}-seed{args.seed}-trace{args.trace}.json"
            path.write_text(json.dumps(record, indent=1) + "\n")
    except WorkerError as exc:
        print(exc, file=sys.stderr)
        return 1

    if len(outs) == 1:
        (out,) = outs.values()
        metrics = out["metrics"]
    else:
        metrics = {f"{n}.{k}": m for n, out in outs.items()
                   for k, m in out["metrics"].items()}
    result = {
        "correct": all(o["correct"] for o in outs.values()),
        "attempted": sum(o["attempted"] for o in outs.values()),
        "failed": sum(o["failed"] for o in outs.values()),
        "metrics": metrics,
    }
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
