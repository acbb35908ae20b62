import json
import math
import re
import time
from pathlib import Path

import numpy as np
import pytest
from click.testing import CliRunner

import polylink as pl
from polylink import flow
from polylink.cli import main, render_json
from polylink.svg_frames import union_viewbox

from conftest import load_fixture_chain, random_embedded_ccw

TAU = 2.0 * math.pi
FIXTURES = Path(__file__).parent / "fixtures"


@pytest.fixture()
def runner():
    return CliRunner()


def invoke(runner, args):
    result = runner.invoke(main, args, catch_exceptions=False)
    return result


def write(tmp_path, name, payload) -> str:
    p = tmp_path / name
    p.write_text(payload if isinstance(payload, str) else json.dumps(payload))
    return str(p)


class TestRenderJson:
    def test_float_formatting(self):
        assert render_json(0.1) == "0.10000000000000001"
        assert render_json(1.0) == "1"
        assert render_json(-math.inf) == '"-inf"'
        assert render_json({"a": [True, None, 2]}) == '{"a": [true, null, 2]}'

    def test_round_trips_through_float(self):
        for x in (math.pi, 1e-300, 2 / 3, 6.2831853071795862):
            assert float(render_json(x)) == x


class TestAnalyze:
    def test_figure_eight_lengths(self, runner, tmp_path):
        f = write(tmp_path, "l.json", {"lengths": [6, 4, 2, 4]})
        r = invoke(runner, ["analyze", f])
        assert r.exit_code == 0
        out = json.loads(r.output)
        assert out["generic"] is False
        assert out["dimension"] == 1
        assert ["+", "-", "+", "-"] in out["straight_line"]

    def test_generic_lengths(self, runner, tmp_path):
        f = write(tmp_path, "l.json", {"lengths": [2, 2, 2, 1]})
        r = invoke(runner, ["analyze", f])
        assert r.exit_code == 0
        out = json.loads(r.output)
        assert out["generic"] is True and out["dimension"] == 1

    def test_n40_under_one_second(self, runner, tmp_path):
        ell = np.random.default_rng(40).uniform(0.6, 1.6, 40)
        f = write(tmp_path, "l.json", {"lengths": ell.tolist()})
        t0 = time.process_time()  # CPU time: the runner works in process
        r = invoke(runner, ["analyze", f])
        elapsed = time.process_time() - t0
        assert r.exit_code == 0
        out = json.loads(r.output)
        assert out["n"] == 40
        assert len(out["straight_line"]) == len(
            pl.straight_line_sign_vectors(pl.SideLengths(ell))
        )
        assert elapsed < 1.0

    def test_infeasible_exits_2(self, runner, tmp_path):
        f = write(tmp_path, "l.json", {"lengths": [10, 1, 1, 1]})
        r = invoke(runner, ["analyze", f])
        assert r.exit_code == 2
        assert json.loads(r.output)["feasible"] is False

    def test_malformed_json_exits_1(self, runner, tmp_path):
        f = write(tmp_path, "l.json", "{not json")
        r = invoke(runner, ["analyze", f])
        assert r.exit_code == 1

    def test_missing_file_exits_1(self, runner):
        r = invoke(runner, ["analyze", "/nonexistent/l.json"])
        assert r.exit_code == 1

    @pytest.mark.parametrize(
        "lengths, message",
        [
            ([1, -1, 1], "side lengths must be finite and strictly positive"),
            ([1, math.inf, 1], "side lengths must be finite and strictly positive"),
            ([1e308, 1e308, 1e308], "side lengths must have a finite sum"),
        ],
        ids=["negative", "infinite", "overflow"],
    )
    @pytest.mark.parametrize("command", [["analyze"], ["atlas", "--k", "1"]],
                             ids=["analyze", "atlas"])
    def test_bad_lengths_exit_1(self, runner, tmp_path, command, lengths, message):
        f = write(tmp_path, "l.json", {"lengths": lengths})
        r = invoke(runner, [command[0], f, *command[1:]])
        assert r.exit_code == 1
        assert r.stdout == ""
        assert json.loads(r.stderr) == {"error": f"bad lengths: {message}"}


class TestCheck:
    def test_square_vertices(self, runner, tmp_path):
        f = write(
            tmp_path, "p.json", {"vertices": [[1, 0], [1, 1], [0, 1], [0, 0]]}
        )
        r = invoke(runner, ["check", f])
        assert r.exit_code == 0
        out = json.loads(r.output)
        assert out["embedded"] is True and out["convex_ccw"] is True
        assert abs(out["winding"] - TAU) < 1e-9

    def test_bowtie_exits_3(self, runner, tmp_path):
        f = write(
            tmp_path, "p.json", {"vertices": [[0, 0], [2, 2], [2, 0], [0, 2]]}
        )
        r = invoke(runner, ["check", f])
        assert r.exit_code == 3
        assert json.loads(r.output)["embedded"] is False

    @pytest.mark.parametrize("exp", [512, -540])
    def test_pentagon_at_power_of_two_scale_golden_bytes(self, runner, tmp_path, exp):
        # at these scales the edge cross products overflow (2**512) or
        # underflow (2**-540); the check runs at unit scale instead
        data = json.loads((FIXTURES / "pentagon_nonconvex.json").read_text())
        verts = np.ldexp(np.array(data["vertices"], dtype=float), exp)
        f = write(tmp_path, "p.json", {"vertices": verts.tolist()})
        r = invoke(runner, ["check", f])
        assert r.exit_code == 0
        assert r.stdout_bytes == (FIXTURES / "golden" / "check_pentagon.json").read_bytes()

    def test_representation_equivalence(self, runner, tmp_path):
        angles_file = write(
            tmp_path,
            "a.json",
            {"lengths": [1, 1, 1], "turn_angles": [TAU / 3] * 3},
        )
        ra = invoke(runner, ["check", angles_file])
        assert ra.exit_code == 0
        rep_a = json.loads(ra.output)
        # vertex file carrying the identical doubles the reconstruction made
        chain, _ = pl.vertices_from_turn_angles(
            pl.SideLengths([1, 1, 1]), np.array([TAU / 3] * 3)
        )
        verts = ", ".join(
            f"[{format(x, '.17g')}, {format(y, '.17g')}]"
            for x, y in chain.vertices
        )
        vert_file = write(tmp_path, "v.json", '{"vertices": [%s]}' % verts)
        rv = invoke(runner, ["check", vert_file])
        assert rv.exit_code == 0
        rep_v = json.loads(rv.output)
        for key in ("n", "turn_angles", "winding", "embedded", "convex_ccw"):
            assert rep_a[key] == rep_v[key]
        assert rep_a["closure_defect"] < 1e-12
        assert rep_v["closure_defect"] == 0.0

    def test_both_representations_rejected(self, runner, tmp_path):
        f = write(
            tmp_path,
            "p.json",
            {"vertices": [[1, 0], [0, 1], [0, 0]], "lengths": [1, 1, 1],
             "turn_angles": [2, 2, 2]},
        )
        r = invoke(runner, ["check", f])
        assert r.exit_code == 1

    def test_unclosed_angle_data_rejected(self, runner, tmp_path):
        f = write(
            tmp_path, "p.json", {"lengths": [1, 1, 1], "turn_angles": [1, 1, 1]}
        )
        r = invoke(runner, ["check", f])
        assert r.exit_code == 1

    @pytest.mark.parametrize("value", [math.nan, math.inf], ids=["nan", "inf"])
    @pytest.mark.parametrize("command", ["check", "convexify"])
    def test_non_finite_vertices_exit_1(self, runner, tmp_path, command, value):
        verts = [[0, 0], [1, 0], [value, 1], [0, 1]]
        f = write(tmp_path, "p.json", {"vertices": verts})
        r = invoke(runner, [command, f])
        assert r.exit_code == 1
        assert r.stdout == ""
        assert json.loads(r.stderr) == {"error": "bad vertices: vertices must be finite"}

    def test_nan_turn_angle_exits_1(self, runner, tmp_path):
        h = math.pi / 2
        f = write(
            tmp_path, "p.json",
            {"lengths": [1, 1, 1, 1], "turn_angles": [math.nan, h, h, h]},
        )
        r = invoke(runner, ["check", f])
        assert r.exit_code == 1
        assert r.stdout == ""
        assert json.loads(r.stderr) == {
            "error": "bad polygon data: turn angles must lie in (-pi, pi]"
        }


class TestConvexify:
    def test_convex_square(self, runner, tmp_path):
        f = write(
            tmp_path, "p.json", {"vertices": [[1, 0], [1, 1], [0, 1], [0, 0]]}
        )
        svg = tmp_path / "frames"
        r = invoke(
            runner,
            ["convexify", f, "--svg", str(svg), "--trace",
             str(tmp_path / "t.json")],
        )
        assert r.exit_code == 0
        out = json.loads(r.output)
        assert out["status"] == "converged_convex"
        assert out["accepted_steps"] == 0
        frames = sorted(svg.glob("frame_*.svg"))
        assert [p.name for p in frames] == ["frame_00000.svg"]
        trace = json.loads((tmp_path / "t.json").read_text())
        assert len(trace["records"]) == 1

    def test_pentagon_fixture_run(self, runner, tmp_path):
        f = str(FIXTURES / "pentagon_nonconvex.json")
        svg = tmp_path / "frames"
        r = invoke(
            runner,
            ["convexify", f, "--svg", str(svg), "--stride", "10",
             "--trace", str(tmp_path / "t.json")],
        )
        assert r.exit_code == 0
        out = json.loads(r.output)
        assert out["status"] == "converged_convex"
        assert out["final_min_turn_angle"] >= -1e-6

        csv_lines = (svg / "energy.csv").read_text().strip().splitlines()
        assert csv_lines[0] == "iteration,E,log_E,min_turn_angle"
        log_e = [float(line.split(",")[2]) for line in csv_lines[1:]]
        assert all(b < a for a, b in zip(log_e, log_e[1:]))

        frames = sorted(svg.glob("frame_*.svg"))
        steps = out["accepted_steps"]
        assert len(frames) == math.ceil(steps / 10) + 1
        indices = [int(p.stem.split("_")[1]) for p in frames]
        assert indices == list(range(len(frames)))
        # shared padded viewBox, one path and one circle per vertex
        boxes = set()
        for p in frames:
            text = p.read_text()
            boxes.add(re.search(r'viewBox="([^"]+)"', text).group(1))
            assert text.count("<path") == 1
            assert text.count("<circle") == 5
        assert len(boxes) == 1
        assert (svg / "summary.svg").exists()

        # viewBox equals the union bounding box of the snapshots padded 5%
        trace = json.loads((tmp_path / "t.json").read_text())
        pts = np.vstack([s["vertices"] for s in trace["snapshots"]])
        lo, hi = pts.min(axis=0), pts.max(axis=0)
        pad = 0.05 * max(hi - lo)
        x, y, w, h = (float(v) for v in boxes.pop().split())
        assert math.isclose(x, lo[0] - pad, rel_tol=1e-6)
        assert math.isclose(y, lo[1] - pad, rel_tol=1e-6)
        assert math.isclose(w, hi[0] - lo[0] + 2 * pad, rel_tol=1e-6)
        assert math.isclose(h, hi[1] - lo[1] + 2 * pad, rel_tol=1e-6)

    @pytest.mark.parametrize("scale", [1.0, 1e-12])
    def test_viewbox_pads_five_percent_at_any_scale(self, scale):
        verts = load_fixture_chain("pentagon_nonconvex.json").vertices
        box = union_viewbox([verts * scale])
        extent = np.ptp(verts * scale, axis=0)
        assert box[2] <= 1.2 * extent[0] and box[3] <= 1.2 * extent[1]
        for got, want in zip(box, union_viewbox([verts])):
            assert math.isclose(got, scale * want, rel_tol=1e-12)

    def test_max_iter_cutoff_exits_4(self, runner, tmp_path):
        f = str(FIXTURES / "pentagon_nonconvex.json")
        r = invoke(runner, ["convexify", f, "--max-iter", "1"])
        assert r.exit_code == 4

    def test_bowtie_exits_3(self, runner, tmp_path):
        f = write(
            tmp_path, "p.json", {"vertices": [[0, 0], [2, 2], [2, 0], [0, 2]]}
        )
        r = invoke(runner, ["convexify", f])
        assert r.exit_code == 3
        assert json.loads(r.stderr) == {
            "error": "convexify requires an embedded input polygon"
        }

    def test_closure_failure_exits_4(self, runner, monkeypatch):
        # an embedded polygon whose flow fails is not reported as non-embedded
        def no_closure(*args, **kwargs):
            raise pl.ClosureError("closure Newton did not converge")

        monkeypatch.setattr(flow, "project_to_closure", no_closure)
        r = invoke(runner, ["convexify", str(FIXTURES / "pentagon_nonconvex.json")])
        assert r.exit_code == 4
        assert r.stdout == ""
        assert json.loads(r.stderr) == {"error": "closure Newton did not converge"}

    @pytest.mark.parametrize("scale", [1e4, 1e6])
    def test_scaled_hexagon_exits_0(self, runner, tmp_path, scale):
        # the closure projection must reach its tolerance at any scale
        verts = load_fixture_chain("hexagon_nonconvex.json").vertices * scale
        f = write(tmp_path, "p.json", {"vertices": verts.tolist()})
        r = invoke(runner, ["convexify", f])
        assert r.exit_code == 0
        assert json.loads(r.output)["status"] == "converged_convex"

    @pytest.mark.parametrize("exp", [512, -540])
    def test_extreme_scale_ends_in_json_not_traceback(self, runner, tmp_path, exp):
        # `check` passes these polygons as embedded and CCW; the flow is
        # not scale-free this far out (its energy overflows, which numpy
        # reports as warnings, here silenced), but the command still ends
        # with a JSON error rather than a traceback
        verts = np.ldexp(load_fixture_chain("pentagon_nonconvex.json").vertices, exp)
        f = write(tmp_path, "p.json", {"vertices": verts.tolist()})
        with np.errstate(all="ignore"):
            r = invoke(runner, ["convexify", f])
        assert r.exit_code in (0, 4)
        if r.exit_code == 4:
            assert set(json.loads(r.stderr)) == {"error"}

    @pytest.mark.parametrize(
        "option, value, message",
        [
            ("--step", "-1", "initial_step must be positive"),
            ("--tol", "0", "convexity_tol must be positive"),
            ("--step", "inf", "initial_step must be finite"),
            ("--step", "nan", "initial_step must be finite"),
            ("--tol", "inf", "convexity_tol must be finite"),
            ("--tol", "nan", "convexity_tol must be finite"),
            ("--max-iter", "0", "iteration counts must be >= 1"),
            ("--stride", "0", "iteration counts must be >= 1"),
        ],
    )
    def test_bad_flow_option_exits_1(self, runner, option, value, message):
        f = str(FIXTURES / "pentagon_nonconvex.json")
        r = invoke(runner, ["convexify", f, option, value])
        assert r.exit_code == 1
        assert r.stdout == ""
        assert json.loads(r.stderr) == {"error": f"bad flow options: {message}"}

    def test_31_gon_exits_0(self, runner, tmp_path):
        # n = 31 was past the old sign-enumeration limit, and the CLI
        # prints the genericity flag
        chain = random_embedded_ccw(31, np.random.default_rng(0), require_nonconvex=True)
        f = write(tmp_path, "p.json", {"vertices": chain.vertices.tolist()})
        r = invoke(runner, ["convexify", f])
        assert r.exit_code == 0
        out = json.loads(r.output)
        assert out["status"] == "converged_convex"
        assert out["generic"] == pl.is_generic(chain.side_lengths())

    def test_48_gon_generic_undecided(self, runner, tmp_path):
        # past the exact search's n <= 45 limit the flow still runs and
        # the genericity flag is reported as undecided
        phi = TAU * np.arange(48) / 48
        radius = np.ones(48)
        radius[5] = 0.9
        verts = np.column_stack((radius * np.cos(phi), radius * np.sin(phi)))
        f = write(tmp_path, "p.json", {"vertices": verts.tolist()})
        tr = tmp_path / "t.json"
        r = invoke(runner, ["convexify", f, "--trace", str(tr)])
        assert r.exit_code == 0
        out = json.loads(r.output)
        assert out["status"] == "converged_convex"
        assert '"generic": null' in r.output and out["generic"] is None
        assert json.loads(tr.read_text())["generic"] is None


class TestAtlas:
    def test_2221_single_row(self, runner, tmp_path):
        f = write(tmp_path, "l.json", {"lengths": [2, 2, 2, 1]})
        r = invoke(runner, ["atlas", f, "--k", "1"])
        assert r.exit_code == 0
        lines = r.output.strip().splitlines()
        assert lines[0] == "nu,mu,witness_kind_min,witness_kind_max,witness_j"
        cells = lines[1].split(",")
        assert abs(float(cells[0]) - 1.4454684956268313) < 1e-9
        assert abs(float(cells[1]) - 2.4188584057763776) < 1e-9
        assert cells[2] == "minimal_case_b" and cells[3] == "maximal"
        assert cells[4] == "2"

    def test_json_format(self, runner, tmp_path):
        f = write(tmp_path, "l.json", {"lengths": [2, 2, 2, 1]})
        r = invoke(runner, ["atlas", f, "--k", "1", "--out", "json"])
        assert r.exit_code == 0
        out = json.loads(r.output)
        assert len(out["rows"]) == 1
        assert out["rows"][0]["witness_j"] == 2

    def test_triangle_k_out_of_range_usage_error(self, runner, tmp_path):
        f = write(tmp_path, "l.json", {"lengths": [1, 1, 1]})
        r = invoke(runner, ["atlas", f, "--k", "2"])
        assert r.exit_code == 2
        assert "--k must lie in 1..1 for n = 3" in r.output

    def test_triangle_level1_single_row(self, runner, tmp_path):
        # the library's level bound, 1..max(1, n - 3), admits level 1 here
        f = write(tmp_path, "l.json", {"lengths": [1, 1, 1]})
        r = invoke(runner, ["atlas", f, "--k", "1", "--out", "json"])
        assert r.exit_code == 0
        (row,) = json.loads(r.output)["rows"]
        want = pl.sample_atlas(pl.SideLengths([1.0, 1.0, 1.0]), 1, 100).rows[0]
        assert (row["nu"], row["mu"]) == (want.nu, want.mu)
        assert row["nu"] == pytest.approx(TAU / 3)

    def test_non_generic_exits_2(self, runner, tmp_path):
        f = write(tmp_path, "l.json", {"lengths": [6, 4, 2, 4]})
        r = invoke(runner, ["atlas", f, "--k", "1"])
        assert r.exit_code == 2
        out = json.loads(r.output)
        assert out["generic"] is False
        assert ["+", "-", "+", "-"] in out["straight_line"]

    @pytest.mark.parametrize(
        "k, grid",
        [
            pytest.param("2", "1", id="1"),
            pytest.param("2", "0", id="0"),
            pytest.param("2", "-3", id="-3"),
            # level 1 uses no grid, but a grid no run can use is still refused
            pytest.param("1", "-3", id="k1--3"),
            pytest.param("1", "1", id="k1-1"),
        ],
    )
    def test_grid_below_2_usage_error(self, runner, tmp_path, k, grid):
        f = write(tmp_path, "l.json", {"lengths": [1.0] * 5})
        r = invoke(runner, ["atlas", f, "--k", k, "--grid", grid])
        assert r.exit_code == 2
        assert "--grid" in r.output
        assert "Traceback" not in r.output

    @pytest.mark.parametrize("scale", [1e154, 1e300, 1e-160, 1e-200])
    def test_scale_free_at_extreme_scales(self, runner, tmp_path, scale):
        # the constructions square lengths; they run at a power-of-two
        # scale where that neither overflows nor underflows
        def row(lengths):
            f = write(tmp_path, "l.json", {"lengths": lengths})
            r = invoke(runner, ["atlas", f, "--k", "1", "--grid", "3", "--out", "json"])
            assert r.exit_code == 0, r.output
            return json.loads(r.output)["rows"][0]

        want = row([4, 4, 4, 3])
        got = row([4 * scale, 4 * scale, 4 * scale, 3 * scale])
        assert abs(got["nu"] - want["nu"]) <= 1e-12
        assert abs(got["mu"] - want["mu"]) <= 1e-12
        for key in ("witness_kind_min", "witness_kind_max", "witness_j"):
            assert got[key] == want[key]

    def test_output_file(self, runner, tmp_path):
        f = write(tmp_path, "l.json", {"lengths": [2, 2, 2, 1]})
        dest = tmp_path / "atlas.csv"
        r = invoke(runner, ["atlas", f, "--k", "1", "--output", str(dest)])
        assert r.exit_code == 0
        assert dest.read_text().startswith("nu,mu,")


@pytest.mark.parametrize("command", [["analyze"], ["atlas", "--k", "1"]])
class TestStraightLineSearchLimits:
    """Lengths past the exact straight-line search end in a JSON error on
    stderr and exit code 2, not in a traceback."""

    def test_46_lengths_exit_2(self, runner, tmp_path, command):
        f = write(tmp_path, "l.json", {"lengths": [1.0] * 46})
        r = invoke(runner, [command[0], f, *command[1:]])
        assert r.exit_code == 2
        assert r.stdout == ""
        assert "n <= 45" in json.loads(r.stderr)["error"]

    def test_report_past_cap_exits_2(self, runner, tmp_path, command, monkeypatch):
        monkeypatch.setattr(pl.config_space, "MAX_LISTED", 100)
        f = write(tmp_path, "l.json", {"lengths": [1.0] * 12})  # 462 straight lines
        r = invoke(runner, [command[0], f, *command[1:]])
        assert r.exit_code == 2
        assert r.stdout == ""
        assert json.loads(r.stderr) == {
            "error": "more than 100 straight-line sign vectors to list"
        }


class TestDemoFigureEight:
    def test_small_sweep(self, runner, tmp_path):
        svg = tmp_path / "out"
        r = invoke(
            runner, ["demo-figure-eight", "--samples", "200", "--svg", str(svg)]
        )
        assert r.exit_code == 0
        out = json.loads(r.output)
        assert out["nonembedded_count"] == 1
        assert out["ccw_arc_contiguous"] is True
        frames = list(svg.glob("frame_*.svg"))
        assert len(frames) >= 8
        assert (svg / "summary.svg").exists()

    @pytest.mark.parametrize("samples", ["0", "-3"])
    def test_samples_below_1_usage_error(self, runner, samples):
        r = invoke(runner, ["demo-figure-eight", "--samples", samples])
        assert r.exit_code == 2
        assert "--samples" in r.output
        assert "Traceback" not in r.output

    def test_coarse_sweep_same_booleans(self, runner):
        r = invoke(runner, ["demo-figure-eight", "--samples", "100"])
        assert r.exit_code == 0
        out = json.loads(r.output)
        assert out["nonembedded_count"] == 1
        assert out["ccw_arc_contiguous"] is True


class TestDeterminism:
    def _run_twice(self, runner, args):
        a = invoke(runner, list(args))
        b = invoke(runner, list(args))
        assert a.exit_code == b.exit_code
        assert a.output == b.output
        return a

    def test_all_subcommands_byte_identical(self, runner, tmp_path):
        lf = write(tmp_path, "l.json", {"lengths": [2, 2, 2, 1]})
        pf = str(FIXTURES / "pentagon_nonconvex.json")
        self._run_twice(runner, ["analyze", lf])
        self._run_twice(runner, ["check", pf])
        self._run_twice(runner, ["convexify", pf])
        self._run_twice(runner, ["atlas", lf, "--k", "1"])
        self._run_twice(runner, ["demo-figure-eight", "--samples", "150"])

    def test_written_files_byte_identical(self, runner, tmp_path):
        pf = str(FIXTURES / "pentagon_nonconvex.json")
        outs = []
        for tag in ("a", "b"):
            tr = tmp_path / f"trace_{tag}.json"
            svg = tmp_path / f"svg_{tag}"
            invoke(
                runner,
                ["convexify", pf, "--trace", str(tr), "--svg", str(svg)],
            )
            outs.append((tr.read_bytes(), (svg / "energy.csv").read_bytes(),
                         (svg / "frame_00000.svg").read_bytes()))
        assert outs[0] == outs[1]
