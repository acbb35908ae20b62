"""Byte-for-byte CLI output for fixed inputs.

The expected outputs in ``fixtures/golden/`` were written by an earlier
implementation of the atlas and the genericity test (per-candidate
chains, full sign-vector enumeration) and, for ``convexify``, of the flow
with separate descent and ascent line searches, and for
``demo-figure-eight`` of the grid sweep that rebuilt every row's full
chain; the rewrites must reproduce them exactly.  The ``check`` outputs
and the files ``convexify --trace --svg`` writes were pinned before the
convexity, tolerance and viewBox rules were each given one definition.
``python tests/test_golden.py`` rewrites them from the current code,
which is only right when an output change is intended.
"""

from __future__ import annotations

import tempfile
from pathlib import Path

import pytest
from click.testing import CliRunner

from polylink.cli import main

GOLDEN = Path(__file__).parent / "fixtures" / "golden"

# output file -> (input file or None, CLI arguments after the input file);
# input paths are relative to ``fixtures/golden/``, and ``{out}`` in an
# argument is the directory the case writes its files into
CASES = {
    "atlas_n7_k3_g8.csv": ("n7.json", ["atlas", "--k", "3", "--grid", "8", "--out", "csv"]),
    "atlas_n7_k3_g8.json": ("n7.json", ["atlas", "--k", "3", "--grid", "8", "--out", "json"]),
    # k = n - 3: the flat-pin recursion reaches level n - 2
    "atlas_n7_k4_g5.csv": ("n7.json", ["atlas", "--k", "4", "--grid", "5", "--out", "csv"]),
    "atlas_n20_k2_g10.csv": ("n20.json", ["atlas", "--k", "2", "--grid", "10", "--out", "csv"]),
    "atlas_n20_k2_g10.json": ("n20.json", ["atlas", "--k", "2", "--grid", "10", "--out", "json"]),
    "analyze_6424.json": ("l6424.json", ["analyze"]),
    "analyze_1111.json": ("l1111.json", ["analyze"]),
    "analyze_112233.json": ("l112233.json", ["analyze"]),
    "convexify_pentagon.json": (
        "../pentagon_nonconvex.json",
        ["convexify", "--trace", "{out}/trace.json", "--svg", "{out}/svg"],
    ),
    "convexify_hexagon.json": ("../hexagon_nonconvex.json", ["convexify"]),
    "check_pentagon.json": ("../pentagon_nonconvex.json", ["check"]),
    "check_hexagon.json": ("../hexagon_nonconvex.json", ["check"]),
    # the only CLI caller of the enumeration oracle, and its only n = 4 sweep
    "demo_figure_eight_10000.json": (None, ["demo-figure-eight", "--samples", "10000"]),
}

# output file -> {golden file: the file the case writes, relative to {out}}
FILES = {
    "convexify_pentagon.json": {
        "convexify_pentagon_trace.json": "trace.json",
        "convexify_pentagon_summary.svg": "svg/summary.svg",
        "convexify_pentagon_energy.csv": "svg/energy.csv",
        "convexify_pentagon_frame_00000.svg": "svg/frame_00000.svg",
        "convexify_pentagon_frame_00012.svg": "svg/frame_00012.svg",
    },
}


def run_case(name: str, out: Path):
    input_file, args = CASES[name]
    inputs = [] if input_file is None else [str(GOLDEN / input_file)]
    args = [a.format(out=out) for a in args]
    argv = [args[0], *inputs, *args[1:]]
    return CliRunner().invoke(main, argv, catch_exceptions=False)


@pytest.mark.parametrize("name", sorted(CASES))
def test_output_matches_golden(name, tmp_path):
    result = run_case(name, tmp_path)
    assert result.exit_code == 0
    assert result.stdout_bytes == (GOLDEN / name).read_bytes()
    for golden, written in FILES.get(name, {}).items():
        assert (tmp_path / written).read_bytes() == (GOLDEN / golden).read_bytes(), golden


if __name__ == "__main__":
    for case in CASES:
        with tempfile.TemporaryDirectory() as tmp:
            res = run_case(case, Path(tmp))
            assert res.exit_code == 0, (case, res.exit_code)
            (GOLDEN / case).write_bytes(res.stdout_bytes)
            print(f"wrote {case} ({len(res.stdout_bytes)} bytes)")
            for golden, written in FILES.get(case, {}).items():
                (GOLDEN / golden).write_bytes((Path(tmp) / written).read_bytes())
                print(f"wrote {golden}")
