"""Command-line interface.

Subcommands: ``analyze`` (length-vector diagnostics), ``check`` (polygon
classification), ``convexify`` (energy descent with trace/SVG output),
``atlas`` (convex-prefix interval sampling), and ``demo-figure-eight``
(the (6,4,2,4) sweep whose configuration space is a figure eight).

Exit codes: 0 success, 1 I/O or parse error, 2 infeasible or non-generic
lengths, or lengths the exact straight-line search cannot take (n > 45,
or more straight lines than one report lists), 3 non-embedded polygon,
4 flow non-convergence, or a flow that fails on an embedded polygon
(closure projection, winding, overflow at extreme sizes) with a JSON
error on stderr; 4 is also used when the demo's expected findings fail.
``convexify`` reports ``"generic": null`` for n > 45, where the exact
straight-line search does not run; the flow itself never needs
genericity.  All output is deterministic: floats print with 17
significant digits and fields appear in fixed order.
"""

from __future__ import annotations

import dataclasses
import json
import math
import sys
from pathlib import Path

import click
import numpy as np

from .chain_geometry import (
    CLOSURE_DATA_RTOL,
    TAU,
    PolygonChain,
    SideLengths,
    TurnAngles,
    turn_angles_from_vertices,
    vertices_from_turn_angles,
)
from .config_space import (
    MAX_SIGN_N,
    WINDING_TOL,
    classify,
    enumerate_configurations,
    is_feasible,
    is_generic,
    straight_line_sign_vectors,
)
from .convex_atlas import max_level, sample_atlas
from .flow import CONVERGED, FlowParams, NotEmbeddedError
from .flow import convexify as run_convexify
from .svg_frames import write_frame_set

EXIT_OK = 0
EXIT_PARSE = 1
EXIT_LENGTHS = 2
EXIT_NONEMBEDDED = 3
EXIT_NOCONVERGE = 4


def render_json(obj) -> str:
    """Deterministic JSON: insertion order, floats at 17 significant
    digits, non-finite floats as strings."""
    if isinstance(obj, dict):
        inner = ", ".join(
            f"{json.dumps(str(k))}: {render_json(v)}" for k, v in obj.items()
        )
        return "{" + inner + "}"
    if isinstance(obj, (list, tuple)) or isinstance(obj, np.ndarray):
        seq = obj.tolist() if isinstance(obj, np.ndarray) else obj
        return "[" + ", ".join(render_json(v) for v in seq) + "]"
    if isinstance(obj, (bool, np.bool_)):
        return "true" if obj else "false"
    if isinstance(obj, (int, np.integer)):
        return str(int(obj))
    if isinstance(obj, (float, np.floating)):
        x = float(obj)
        if math.isnan(x):
            return '"nan"'
        if math.isinf(x):
            return '"inf"' if x > 0 else '"-inf"'
        return format(x, ".17g")
    if isinstance(obj, str):
        return json.dumps(obj)
    if obj is None:
        return "null"
    raise TypeError(f"cannot serialize {type(obj)!r}")


def _fail(message: str, code: int):
    click.echo(render_json({"error": message}), err=True)
    sys.exit(code)


def _load_json_file(path: str):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        _fail(f"cannot read {path}: {exc}", EXIT_PARSE)


def _load_lengths(path: str) -> SideLengths:
    data = _load_json_file(path)
    if not isinstance(data, dict) or "lengths" not in data:
        _fail("lengths file must be a JSON object with a 'lengths' array", EXIT_PARSE)
    try:
        return SideLengths(np.asarray(data["lengths"], dtype=float))
    except (TypeError, ValueError) as exc:
        _fail(f"bad lengths: {exc}", EXIT_PARSE)


def _load_polygon(path: str) -> tuple[PolygonChain, float]:
    """Load a polygon file; returns the chain and its closure defect."""
    data = _load_json_file(path)
    if not isinstance(data, dict):
        _fail("polygon file must be a JSON object", EXIT_PARSE)
    has_verts = "vertices" in data
    has_angles = "lengths" in data or "turn_angles" in data
    if has_verts and has_angles:
        _fail("polygon file must use exactly one representation", EXIT_PARSE)
    if has_verts:
        try:
            chain = PolygonChain(np.asarray(data["vertices"], dtype=float))
        except (TypeError, ValueError) as exc:
            _fail(f"bad vertices: {exc}", EXIT_PARSE)
        if not np.isfinite(chain.vertices).all():
            _fail("bad vertices: vertices must be finite", EXIT_PARSE)
        return chain, 0.0
    if "lengths" not in data or "turn_angles" not in data:
        _fail(
            "polygon file needs 'vertices' or both 'lengths' and 'turn_angles'",
            EXIT_PARSE,
        )
    try:
        lengths = SideLengths(np.asarray(data["lengths"], dtype=float))
        angles = TurnAngles(np.asarray(data["turn_angles"], dtype=float))
        chain, defect = vertices_from_turn_angles(lengths, angles)
    except (TypeError, ValueError) as exc:
        _fail(f"bad polygon data: {exc}", EXIT_PARSE)
    if defect > CLOSURE_DATA_RTOL * lengths.perimeter:
        _fail(f"polygon data does not close (defect {defect:.3e})", EXIT_PARSE)
    return chain, defect


def _straight_line_report(lengths: SideLengths):
    try:
        return straight_line_sign_vectors(lengths)
    except ValueError as exc:  # too many lengths or straight lines to list
        _fail(str(exc), EXIT_LENGTHS)


def _sign_strings(report) -> list[list[str]]:
    return [["+" if s > 0 else "-" for s in vec] for vec in report]


@click.group()
def main():
    """Planar polygon linkages: analysis, convexification, atlases."""


@main.command()
@click.argument("lengths_file")
def analyze(lengths_file):
    """Report dimension, feasibility, and genericity of a length vector."""
    lengths = _load_lengths(lengths_file)
    feasible = is_feasible(lengths)
    report = _straight_line_report(lengths)
    out = {
        "n": lengths.n,
        "dimension": lengths.n - 3,
        "feasible": feasible,
        "generic": len(report) == 0,
        "straight_line": _sign_strings(report),
    }
    click.echo(render_json(out))
    sys.exit(EXIT_OK if feasible else EXIT_LENGTHS)


@main.command()
@click.argument("polygon_file")
def check(polygon_file):
    """Classify a polygon: turn angles, winding, embeddedness, convexity."""
    chain, defect = _load_polygon(polygon_file)
    try:
        angles = turn_angles_from_vertices(chain)
        cls = classify(chain)
    except ValueError as exc:
        _fail(f"degenerate polygon: {exc}", EXIT_PARSE)
    out = {
        "n": chain.n,
        "closure_defect": defect,
        "turn_angles": list(angles.angles),
        "winding": cls.winding,
        "embedded": cls.embedded,
        "convex_ccw": cls.convex_ccw,
    }
    click.echo(render_json(out))
    sys.exit(EXIT_OK if cls.embedded else EXIT_NONEMBEDDED)


def _trace_json(trace, records, generic) -> dict:
    return {
        "status": trace.status,
        "reflected": trace.reflected,
        "generic": generic,
        "lengths": list(trace.lengths.lengths),
        "records": [dataclasses.asdict(r) for r in records],
        "snapshots": [
            {"step": s.step, "vertices": [list(v) for v in s.vertices]}
            for s in trace.snapshots
        ],
    }


@main.command()
@click.argument("polygon_file")
@click.option("--step", type=float, default=FlowParams.initial_step, show_default=True)
@click.option("--tol", type=float, default=FlowParams.convexity_tol, show_default=True)
@click.option("--max-iter", type=int, default=FlowParams.max_iterations, show_default=True)
@click.option("--trace", "trace_path", type=str, default=None)
@click.option("--svg", "svg_dir", type=str, default=None)
@click.option("--stride", type=int, default=FlowParams.snapshot_stride, show_default=True)
def convexify(polygon_file, step, tol, max_iter, trace_path, svg_dir, stride):
    """Convexify an embedded polygon by energy descent."""
    chain, _ = _load_polygon(polygon_file)
    try:
        params = FlowParams(
            initial_step=step,
            convexity_tol=tol,
            max_iterations=max_iter,
            snapshot_stride=stride,
        )
    except ValueError as exc:
        _fail(f"bad flow options: {exc}", EXIT_PARSE)
    try:
        trace = run_convexify(chain, params)
    except NotEmbeddedError as exc:
        _fail(str(exc), EXIT_NONEMBEDDED)
    except (ValueError, OverflowError) as exc:
        # closure failure, a winding other than +-2 pi, or a polygon too
        # large for the flow's arithmetic
        _fail(str(exc), EXIT_NOCONVERGE)
    # the flow never needs genericity; past the exact search's limit it
    # is reported as undecided rather than failing a finished run
    lengths = trace.lengths
    generic = is_generic(lengths) if lengths.n <= MAX_SIGN_N else None
    records = trace.records  # rebuilt on each read of the trace

    if trace_path:
        Path(trace_path).write_text(
            render_json(_trace_json(trace, records, generic)) + "\n"
        )
    if svg_dir:
        frames = [s.vertices for s in trace.snapshots]
        rows = [
            (r.iteration, r.energy, r.log_energy, r.min_turn_angle)
            for r in records
        ]
        write_frame_set(svg_dir, frames, rows)

    last = records[-1]
    click.echo(
        render_json(
            {
                "status": trace.status,
                "accepted_steps": trace.accepted_steps,
                "reflected": trace.reflected,
                "generic": generic,
                "final_energy": last.energy,
                "final_log_energy": last.log_energy,
                "final_min_turn_angle": last.min_turn_angle,
            }
        )
    )
    sys.exit(EXIT_OK if trace.status == CONVERGED else EXIT_NOCONVERGE)


# the fields of an atlas row, in output order; CSV spreads the prefix
# over one column per angle
ATLAS_FIELDS = (
    "prefix", "nu", "mu", "witness_kind_min", "witness_kind_max", "witness_j"
)


def _write_atlas(lengths, k, grid, fmt, output):
    """Sample the atlas and write it as CSV or JSON.

    A function of its own so that no frame of the command holds the
    sample or its text when the command exits: an in-process caller that
    keeps the ``SystemExit`` traceback (``click.testing.CliRunner``
    results do) would otherwise keep every witness chain alive.
    """
    sample = sample_atlas(lengths, k, grid)
    rows = (
        (r.prefix, r.nu, r.mu, r.witness_min.kind, r.witness_max.kind, r.witness_max.j)
        for r in sample.rows
    )
    if fmt == "csv":
        header = [f"alpha_{i}" for i in range(k - 1)] + list(ATLAS_FIELDS[1:])
        lines = [",".join(header)]
        for prefix, nu, mu, *rest in rows:
            cells = [format(a, ".17g") for a in prefix]
            cells += [format(nu, ".17g"), format(mu, ".17g"), *map(str, rest)]
            lines.append(",".join(cells))
        text = "\n".join(lines) + "\n"
    else:
        rows = [dict(zip(ATLAS_FIELDS, row)) for row in rows]
        out = {"lengths": list(lengths.lengths), "k": k, "grid": grid, "rows": rows}
        text = render_json(out) + "\n"
    if output == "-":
        click.echo(text, nl=False)
    else:
        Path(output).write_text(text)


@main.command()
@click.argument("lengths_file")
@click.option("--k", type=int, required=True)
@click.option("--grid", type=click.IntRange(min=2), default=100, show_default=True)
@click.option("--out", "fmt", type=click.Choice(["csv", "json"]), default="csv",
              show_default=True)
@click.option("--output", type=str, default="-", show_default=True)
def atlas(lengths_file, k, grid, fmt, output):
    """Sample the level-k atlas of convex turn-angle prefixes."""
    lengths = _load_lengths(lengths_file)
    if not is_feasible(lengths):
        click.echo(render_json({"feasible": False}))
        sys.exit(EXIT_LENGTHS)
    report = _straight_line_report(lengths)
    if len(report):
        click.echo(
            render_json({"generic": False, "straight_line": _sign_strings(report)})
        )
        sys.exit(EXIT_LENGTHS)
    top = max_level(lengths.n)
    if not 1 <= k <= top:
        raise click.UsageError(f"--k must lie in 1..{top} for n = {lengths.n}")

    _write_atlas(lengths, k, grid, fmt, output)
    sys.exit(EXIT_OK)


@main.command("demo-figure-eight")
@click.option("--samples", type=click.IntRange(min=1), default=10_000, show_default=True)
@click.option("--svg", "svg_dir", type=str, default=None)
def demo_figure_eight(samples, svg_dir):
    """Sweep the (6,4,2,4) linkage whose configuration space is a figure
    eight: one folded-line configuration, everything else embedded."""
    lengths = SideLengths(np.array([6.0, 4.0, 2.0, 4.0]))
    sweep = enumerate_configurations(lengths, samples)

    bad = np.nonzero(~sweep.embedded)[0]
    if bad.size:
        rounded = np.round(sweep.angles[bad], 6)
        classes = np.unique(rounded, axis=0).shape[0]
    else:
        classes = 0

    ccw = np.nonzero(sweep.embedded & (np.abs(sweep.winding - TAU) <= WINDING_TOL))[0]
    contiguous = bool(
        ccw.size > 0 and (ccw.max() - ccw.min() + 1 == ccw.size)
    )

    if svg_dir and ccw.size:
        take = np.linspace(0, ccw.size - 1, min(12, ccw.size)).astype(int)
        frames = [sweep.chain(int(ccw[i])).vertices for i in take]
        write_frame_set(svg_dir, frames)

    out = {
        "samples": samples,
        "configurations": len(sweep),
        "nonembedded_count": int(classes),
        "nonembedded_samples": int(bad.size),
        "ccw_count": int(ccw.size),
        "ccw_arc_contiguous": contiguous,
    }
    click.echo(render_json(out))
    sys.exit(EXIT_OK if classes == 1 and contiguous else EXIT_NOCONVERGE)


if __name__ == "__main__":
    main()
