"""Command-line entry points, exercised in process via parse_and_dispatch."""

import csv
import json

import pytest

from fwpoly.cli import parse_and_dispatch
from fwpoly.solvers import CSV_COLUMNS


def run_cli(*argv):
    return parse_and_dispatch(list(argv))


class TestGeometryCommand:
    def test_phi_unit_box_corner(self, capsys):
        code = run_cli("geometry", "--polytope", "box2", "--op", "phi",
                       "--face", "v0")
        out = capsys.readouterr().out.strip()
        assert code == 0
        assert out.startswith("0.707106781186547")

    def test_phi_stretched_box(self, capsys):
        code = run_cli("geometry", "--polytope", "box_2x1", "--op", "phi",
                       "--face", "v0")
        out = capsys.readouterr().out.strip()
        assert code == 0
        assert float(out) == pytest.approx(2 / 5 ** 0.5, abs=1e-12)

    def test_phibar_is_one_on_boxes(self, capsys):
        for name in ("box2", "box_2x1"):
            code = run_cli("geometry", "--polytope", name, "--op", "phibar",
                           "--face", "v0")
            assert code == 0
            assert float(capsys.readouterr().out.strip()) == pytest.approx(1.0, abs=1e-12)

    def test_sigma_profile(self, capsys):
        code = run_cli("geometry", "--polytope", "simplex3", "--op", "sigma")
        out = capsys.readouterr().out.strip().replace(" ", "")
        assert code == 0
        assert out == "1,1,1"

    def test_lower_bound_not_above_phi(self, capsys):
        code = run_cli("geometry", "--polytope", "simplex3", "--op", "lb",
                       "--face", "v0,v1")
        lb = float(capsys.readouterr().out.strip())
        assert code == 0
        run_cli("geometry", "--polytope", "simplex3", "--op", "phi",
                "--face", "v0,v1")
        phi = float(capsys.readouterr().out.strip())
        assert lb <= phi + 1e-9

    def test_radial_needs_points(self):
        assert run_cli("geometry", "--polytope", "box2", "--op", "radial") == 2

    def test_radial_with_points(self, capsys):
        code = run_cli("geometry", "--polytope", "simplex3", "--op", "radial",
                       "--x", "0.5,0.5,0", "--y", "1,0,0")
        assert code == 0
        assert 0.0 < float(capsys.readouterr().out.strip()) <= 1.0

    def test_json_vertex_file(self, tmp_path, capsys):
        p = tmp_path / "tri.json"
        p.write_text(json.dumps({"vertices": [[0, 0], [1, 0], [0, 1]]}))
        code = run_cli("geometry", "--polytope", str(p), "--op", "phi",
                       "--face", "v0")
        assert code == 0
        assert float(capsys.readouterr().out.strip()) == pytest.approx(
            0.7071067811865476, abs=1e-12)

    def test_keyword_text_file(self, tmp_path, capsys):
        p = tmp_path / "tri.poly"
        p.write_text("vrep\nv 0 0\nv 1 0\nv 0 1\n")
        code = run_cli("geometry", "--polytope", str(p), "--op", "phi",
                       "--face", "v0")
        assert code == 0
        assert float(capsys.readouterr().out.strip()) == pytest.approx(
            0.7071067811865476, abs=1e-12)

    @pytest.mark.parametrize("data", [
        pytest.param(b"dodecahedron\nv 1 2 3\n", id="keyword"),
        pytest.param(json.dumps({"D": [[1, 0]]}).encode(), id="json"),
        pytest.param(b"box\nlo 0 x\nhi 1 1\n", id="non-numeric"),
        pytest.param(b"box\nlo 0 \xff\nhi 1 1\n", id="non-utf8"),
    ])
    def test_garbled_file_is_usage_error(self, tmp_path, data):
        p = tmp_path / "bad.poly"
        p.write_bytes(data)
        assert run_cli("geometry", "--polytope", str(p), "--op", "sigma") == 2


class TestSolveCommand:
    def test_solve_writes_trace(self, tmp_path, capsys):
        trace = tmp_path / "run.csv"
        code = run_cli("solve", "--polytope", "simplex3", "--objective", "wolfe1",
                       "--variant", "afw", "--step", "ss", "--tol", "1e-10",
                       "--x0", "0,0,1", "--trace", str(trace))
        assert code == 0
        with trace.open() as f:
            rows = list(csv.reader(f))
        assert tuple(rows[0]) == CSV_COLUMNS
        assert len(rows) > 10
        out = capsys.readouterr().out  # human summary on stdout
        assert "gap_tol" in out

    def test_reruns_byte_identical(self, tmp_path):
        outs = []
        for name in ("a.csv", "b.csv"):
            p = tmp_path / name
            assert run_cli("solve", "--polytope", "simplex3", "--objective",
                           "wolfe1", "--variant", "bpfw", "--step", "ss",
                           "--tol", "1e-10", "--x0", "0,0,1",
                           "--trace", str(p)) == 0
            outs.append(p.read_bytes())
        assert outs[0] == outs[1]

    def test_fwipw_end_to_end(self, tmp_path):
        trace = tmp_path / "ipw.csv"
        code = run_cli("solve", "--polytope", "simplex3std", "--objective",
                       "interior1", "--variant", "fwipw", "--step", "pow2",
                       "--tol", "1e-9", "--trace", str(trace))
        assert code == 0

    def test_line_search_needs_no_curvature_constant(self, tmp_path):
        # L = smoothness * diam^2 needs the vertices of box 8 (256 of them,
        # over the enumeration cap); line search never reads L
        poly = tmp_path / "box8.poly"
        poly.write_text("box 8\n")
        trace = tmp_path / "box8.csv"
        code = run_cli("solve", "--polytope", str(poly), "--objective",
                       "powdist:p=3,center=0.5;0.5;0.5;0.5;0.5;0.5;0.5;0.2",
                       "--variant", "fw", "--step", "ls", "--max-iters", "50",
                       "--trace", str(trace))
        assert code == 0
        assert len(trace.read_text().splitlines()) > 1

    def test_powdist_mini_language(self, tmp_path):
        trace = tmp_path / "p4.csv"
        code = run_cli("solve", "--polytope", "simplex2", "--objective",
                       "powdist:p=4,center=0.58;0.42", "--variant", "fw",
                       "--step", "ls", "--max-iters", "200",
                       "--trace", str(trace))
        assert code == 0


class TestExitCodes:
    def test_unknown_variant_is_usage(self, tmp_path):
        assert run_cli("solve", "--polytope", "simplex3", "--objective",
                       "wolfe1", "--variant", "pgd",
                       "--trace", str(tmp_path / "t.csv")) == 2

    def test_unknown_polytope_is_usage(self, tmp_path):
        assert run_cli("solve", "--polytope", "dodecahedron", "--objective",
                       "wolfe1", "--variant", "fw",
                       "--trace", str(tmp_path / "t.csv")) == 2

    def test_unknown_objective_is_usage(self, tmp_path):
        assert run_cli("solve", "--polytope", "simplex3", "--objective",
                       "entropy", "--variant", "fw",
                       "--trace", str(tmp_path / "t.csv")) == 2

    def test_mismatched_rule_is_numerical_error(self, tmp_path):
        # valid flags, invalid combination: pow2 outside the integer-step solver
        assert run_cli("solve", "--polytope", "simplex3", "--objective",
                       "wolfe1", "--variant", "fw", "--step", "pow2",
                       "--trace", str(tmp_path / "t.csv")) == 1

    @pytest.mark.parametrize("argv", [
        pytest.param(("solve", "--polytope", "cube3", "--objective",
                      "powdist:p=3,center=0.2;0.3;0.4", "--variant", "ifw",
                      "--x0", "0.5"), id="short-x0"),
        pytest.param(("solve", "--polytope", "simplex2", "--objective", "wolfe1",
                      "--variant", "fw"), id="objective-dimension"),
        pytest.param(("solve", "--polytope", "cube3", "--objective",
                      "powdist:p=3,center=0.2", "--variant", "fw"), id="short-center"),
        pytest.param(("solve", "--polytope", "simplex3", "--objective",
                      "powdist:p=abc", "--variant", "fw"), id="non-numeric-p"),
        pytest.param(("solve", "--polytope", "simplex3", "--objective",
                      "quad:Q={bad},c=1;2;3", "--variant", "fw"), id="non-numeric-Q"),
        pytest.param(("geometry", "--polytope", "simplex3", "--op", "radial",
                      "--x", "0.5,0.5", "--y", "1,0,0"), id="short-x"),
    ])
    def test_malformed_input_is_usage(self, tmp_path, argv):
        bad = tmp_path / "bad.txt"
        bad.write_text("1 2 x\n")
        argv = [a.format(bad=bad) for a in argv]
        trace = tmp_path / "t.csv"
        extra = ["--trace", str(trace)] if argv[0] == "solve" else []
        assert run_cli(*argv, *extra) == 2
        assert not trace.exists()

    def test_missing_required_flag(self):
        assert run_cli("geometry", "--op", "phi") == 2

    def test_no_command(self):
        assert run_cli() == 2


class TestBenchCommand:
    def test_fwipw_suite_passes(self, tmp_path, capsys):
        code = run_cli("bench", "--suite", "fwipw", "--out", str(tmp_path))
        assert code == 0
        assert (tmp_path / "summary_fwipw.csv").exists()
        assert "envelope" in capsys.readouterr().out

    def test_unknown_suite(self, tmp_path):
        assert run_cli("bench", "--suite", "everything", "--out", str(tmp_path)) == 2
