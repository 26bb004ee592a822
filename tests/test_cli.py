import contextlib
import hashlib
import io
import json
import math
import tempfile
import time
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spdorders import check_differential_positivity, loewner, random_spd, translation_map
from spdorders.cli import MAX_STDERR_LINE, main
from spdorders.core import random_sym
from spdorders.io import matrix_document, parse_matrix_document


@pytest.fixture
def files(tmp_path):
    def write(name, content):
        path = tmp_path / name
        path.write_text(content)
        return str(path)

    def matrix(name, mat):
        return write(name, matrix_document(mat))

    def cone(name, **fields):
        return write(name, json.dumps(fields))

    return tmp_path, write, matrix, cone


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestValidate:
    def test_accepts_spd(self, files, capsys):
        _, _, matrix, _ = files
        path = matrix("ok.json", np.eye(2))
        code, out, _ = run(capsys, "validate", path)
        assert code == 0
        assert json.loads(out) == {"valid": True, "n": 2}

    def test_rejects_indefinite_with_exit_one(self, files, capsys):
        _, _, matrix, _ = files
        path = matrix("bad.json", [[1.0, 2.0], [2.0, 1.0]])
        code, out, _ = run(capsys, "validate", path)
        assert code == 1
        doc = json.loads(out)
        assert doc["valid"] is False and doc["error"] == "NotPositiveDefinite"

    def test_malformed_file_exits_two(self, files, capsys):
        _, write, _, _ = files
        path = write("junk.json", "{not json")
        code, out, err = run(capsys, "validate", path)
        assert code == 2
        assert out == ""
        assert err.startswith("error:") and err.count("\n") == 1


class TestOrder:
    def test_scalar_multiple(self, files, capsys):
        _, _, matrix, cone = files
        a = matrix("a.json", np.eye(2))
        b = matrix("b.json", math.e * np.eye(2))
        spec = cone("cone.json", kind="quad-affine", mu=1.0, n=2)
        code, out, _ = run(capsys, "order", "--cone", spec, a, b)
        assert code == 0
        doc = json.loads(out)
        assert doc["relation"] == "less_equal"
        assert doc["forward_margin"] > 0 > doc["reverse_margin"]

    def test_dimension_mismatch_is_input_error(self, files, capsys):
        _, _, matrix, cone = files
        a = matrix("a.json", np.eye(2))
        b = matrix("b.json", np.eye(3))
        spec = cone("cone.json", kind="loewner", n=2)
        code, _, err = run(capsys, "order", "--cone", spec, a, b)
        assert code == 2 and "error:" in err

    def test_bad_cone_spec(self, files, capsys):
        _, _, matrix, cone = files
        a = matrix("a.json", np.eye(2))
        spec = cone("cone.json", kind="quad-affine", mu=5.0, n=2)
        code, _, err = run(capsys, "order", "--cone", spec, a, a)
        assert code == 2 and "error:" in err

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("kind", ["quad-affine", "ray"])
    def test_relative_spectrum_past_the_float_range_is_input_error(self, files, capsys, kind):
        _, _, matrix, cone = files
        a = matrix("a.json", np.ldexp(np.eye(2), -600))
        b = matrix("b.json", np.ldexp(np.diag([1.0, 2.0]), 600))
        spec = cone("cone.json", kind=kind, n=2, **({"mu": 1.0} if kind == "quad-affine" else {}))
        for pair in ((a, b), (b, a)):
            code, out, err = run(capsys, "order", "--cone", spec, *pair)
            assert (code, out) == (2, "")
            assert err.startswith("error:") and err.count("\n") == 1 and "normal float range" in err

    @pytest.mark.parametrize("n", ["1e400", "2.7", "2.0", '"2"', "true", "null"])
    def test_cone_spec_dimension_must_be_a_json_integer(self, files, capsys, n):
        _, write, matrix, _ = files
        a = matrix("a.json", np.eye(2))
        spec = write("cone.json", '{"kind": "loewner", "n": %s}' % n)
        code, out, err = run(capsys, "order", "--cone", spec, a, a)
        assert (code, out) == (2, "")
        assert err.startswith("error:") and err.count("\n") == 1 and '"n"' in err


class TestConeMember:
    def test_inside_and_outside_exit_codes(self, files, capsys):
        _, _, matrix, cone = files
        sigma = matrix("s.json", np.eye(2))
        inside_dir = matrix("din.json", np.eye(2))
        outside_dir = matrix("dout.json", -np.eye(2))
        spec = cone("cone.json", kind="loewner", n=2)
        code, out, _ = run(capsys, "cone-member", "--cone", spec, "--at", sigma, "--dir", inside_dir)
        assert code == 0 and json.loads(out)["inside"] is True
        code, out, _ = run(capsys, "cone-member", "--cone", spec, "--at", sigma, "--dir", outside_dir)
        assert code == 1 and json.loads(out)["inside"] is False

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("kind, expected", [
        ("quad-affine", (-1.414213562373095, -0.8)),
        ("loewner", (-0.7071067811865475, -0.447213595499958)),
        ("ray", (-1.414213562373095, -0.9486832980505139)),
    ])
    def test_huge_outside_tangents_are_outside(self, files, capsys, kind, expected):
        _, _, matrix, cone = files
        sigma = matrix("s.json", np.eye(2))
        spec = cone("cone.json", kind=kind, n=2, **({"mu": 1.0} if kind == "quad-affine" else {}))
        for x, margin in zip((-1e160 * np.eye(2), 1e160 * np.array([[1.0, 3.0], [3.0, 1.0]])), expected):
            code, out, err = run(capsys, "cone-member", "--cone", spec, "--at", sigma,
                                 "--dir", matrix("d.json", x))
            assert (code, err) == (1, "")
            doc = json.loads(out)
            assert doc["inside"] is False and doc["margin"] == pytest.approx(margin, rel=1e-14)

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("shift", [-520, 520])
    def test_base_points_out_of_range_get_their_true_margins(self, files, capsys, shift):
        # at 2^-520 S the affine margin once read 0.0 against trace_sign, with overflow warnings
        _, _, matrix, cone = files
        sigma, x = random_spd(3, 4).entries, np.eye(3) / math.sqrt(3.0) + 0.2 * random_sym(3, 5)
        spec = cone("cone.json", kind="quad-affine", n=3, mu=1.5)
        _, expected, _ = run(capsys, "cone-member", "--cone", spec, "--at", matrix("s.json", sigma),
                             "--dir", matrix("d.json", x))
        code, out, err = run(capsys, "cone-member", "--cone", spec, "--at", matrix("s.json", np.ldexp(sigma, shift)),
                             "--dir", matrix("d.json", x))
        assert (code, err) == (0, "")
        doc, expected = json.loads(out), json.loads(expected)
        assert doc["inside"] is True and doc["binding_constraint"] == expected["binding_constraint"]
        assert doc["margin"] == pytest.approx(expected["margin"], rel=1e-12)

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("kind, code, margin", [
        ("quad-affine", 0, 1.2653102393448728e-11),
        ("ray", 1, -0.707106781182074),
        ("half-space", 0, 1.0000000000063265),
    ])
    def test_overflowing_relative_tangent_gets_a_finite_margin(self, files, capsys, kind, code, margin):
        # S^-1 X = 2^998 diag(1, 1e11) x once overflowed inside the solve and
        # printed "margin": NaN (quad-affine, ray) or Infinity (half-space)
        _, _, matrix, cone = files
        spec = cone("cone.json", kind=kind, n=2, **({"mu": 1.0} if kind == "quad-affine" else {}))
        sigma = matrix("s.json", 2.0**-499 * np.diag([1.0, 1e-11]))
        x = matrix("d.json", 2.0**499 * np.array([[0.5, 0.2], [0.2, 0.7]]))
        got = run(capsys, "cone-member", "--cone", spec, "--at", sigma, "--dir", x)
        assert (got[0], got[2]) == (code, "")
        doc = json.loads(got[1], parse_constant=_no_constant)
        assert doc["inside"] is (code == 0) and doc["margin"] == pytest.approx(margin, rel=1e-12)


def _no_constant(name):
    raise ValueError(f"stdout is not strict JSON: {name}")


class TestGeometryCommands:
    def test_geodesic_endpoint(self, files, capsys):
        _, _, matrix, _ = files
        amat = random_spd(2, 3, 0.5).entries
        a = matrix("a.json", amat)
        b = matrix("b.json", random_spd(2, 4, 0.5).entries)
        code, out, _ = run(capsys, "geodesic", "--t", "0", a, b)
        assert code == 0
        assert np.allclose(parse_matrix_document(out), amat, rtol=1e-12)

    def test_mean_commuting_case(self, files, capsys):
        _, _, matrix, _ = files
        a = matrix("a.json", np.diag([1.0, 4.0]))
        b = matrix("b.json", np.diag([9.0, 1.0]))
        code, out, _ = run(capsys, "mean", a, b)
        assert code == 0
        assert np.allclose(parse_matrix_document(out), np.diag([3.0, 2.0]), rtol=1e-12)


class TestMonotone:
    def test_square_on_loewner_finds_violations(self, files, capsys):
        _, _, _, cone = files
        spec = cone("cone.json", kind="loewner", n=2)
        code, out, _ = run(capsys, "monotone", "--map", "power:2", "--cone", spec,
                           "--seed", "1", "--points", "40", "--dirs", "10")
        assert code == 1
        doc = json.loads(out)
        assert doc["violation_count"] > 0
        assert len(doc["witnesses"]) <= 5
        assert doc["min_output_margin"] < 0

    def test_half_power_is_clean(self, files, capsys):
        _, _, _, cone = files
        spec = cone("cone.json", kind="quad-affine", mu=1.5, n=3)
        code, out, _ = run(capsys, "monotone", "--map", "power:0.5", "--cone", spec,
                           "--seed", "1", "--points", "20", "--dirs", "8")
        assert code == 0
        assert json.loads(out)["violation_count"] == 0

    def test_unknown_map_is_input_error(self, files, capsys):
        _, _, _, cone = files
        spec = cone("cone.json", kind="loewner", n=2)
        code, _, err = run(capsys, "monotone", "--map", "cube", "--cone", spec)
        assert code == 2 and "error:" in err

    @pytest.mark.parametrize("bad_map", ["power:abc", "scale:abc"])
    def test_unparsable_map_parameter_is_input_error(self, files, capsys, bad_map):
        _, _, _, cone = files
        spec = cone("cone.json", kind="loewner", n=2)
        code, out, err = run(capsys, "monotone", "--map", bad_map, "--cone", spec)
        assert code == 2 and out == ""
        assert err.startswith("error:") and err.count("\n") == 1

    # rejected before the first draw: without the cap, --dirs 10^9 builds a
    # billion-entry list and then a billion generators
    @pytest.mark.parametrize("points, dirs", [("1", "1000000000"), ("1000000000000", "1"), ("317", "317")])
    def test_sample_count_above_cap_is_input_error(self, files, capsys, points, dirs):
        _, _, _, cone = files
        spec = cone("cone.json", kind="loewner", n=2)
        code, out, err = run(capsys, "monotone", "--map", "inv", "--cone", spec,
                             "--points", points, "--dirs", dirs)
        assert (code, out) == (2, "")
        assert err.startswith("error:") and err.count("\n") == 1 and "cap" in err


GOLDEN = Path(__file__).parent / "data"


class TestMonotoneGolden:
    """stdout of `monotone` for every CLI map kind x cone kind at two seeds,
    pinned byte for byte against tests/data/monotone_golden.json."""

    CASES = json.loads((GOLDEN / "monotone_golden.json").read_text())

    @pytest.mark.parametrize("case", CASES, ids=lambda c: f"{c['map']}-{c['cone']['kind']}-seed{c['seed']}")
    def test_stdout_is_byte_identical(self, files, capsys, case):
        _, write, _, _ = files
        cone = write("cone.json", json.dumps(case["cone"]))
        smap = f"translate:{GOLDEN / 'translate_shift.json'}" if case["map"] == "translate" else case["map"]
        code, out, _ = run(capsys, "monotone", "--map", smap, "--cone", cone, "--seed", str(case["seed"]),
                           "--points", "20", "--dirs", "6")
        assert (code, out) == (case["exit"], case["stdout"])


class TestFlow:
    def test_diagonal_input_constant_trajectory(self, files, capsys, tmp_path):
        _, _, matrix, _ = files
        x0 = matrix("x0.json", np.diag([3.0, 1.0]))
        out_csv = str(tmp_path / "traj.csv")
        code, out, _ = run(capsys, "flow", "--kind", "toda", "--t-end", "0.2",
                           "--step", "0.02", "--r", "1", "--out", out_csv, x0)
        assert code == 0
        doc = json.loads(out)
        assert doc["spectrum_drift"] <= 1e-12
        assert doc["projected_monotone"] is True
        lines = (tmp_path / "traj.csv").read_text().strip().split("\n")
        assert lines[0] == "t,a11,a12,a21,a22"
        assert len(lines) == doc["steps"] + 2

    def test_oversized_step_is_input_error(self, files, capsys):
        _, _, matrix, _ = files
        x0 = matrix("x0.json", 10.0 * np.array([[1.0, 0.9], [0.9, -1.0]]))
        code, _, err = run(capsys, "flow", "--kind", "toda", "--t-end", "5", "--step", "1.0", x0)
        assert code == 2 and "error:" in err

    @pytest.mark.parametrize("t_end, step", [("1", "nan"), ("1", "inf"), ("nan", "0.1"), ("inf", "0.1")])
    def test_non_finite_step_or_horizon_is_input_error(self, files, capsys, t_end, step):
        _, _, matrix, _ = files
        x0 = matrix("x0.json", np.diag([3.0, 1.0]))
        code, out, err = run(capsys, "flow", "--kind", "toda", "--t-end", t_end, "--step", step, x0)
        assert (code, out) == (2, "")
        assert err.startswith("error:") and err.count("\n") == 1

    @pytest.mark.parametrize("kind", ["toda", "qr"])
    def test_overflowing_step_is_one_line_drift_error(self, files, capsys, kind):
        _, _, matrix, _ = files
        x0 = matrix("x0.json", random_spd(3, 5, scale=0.5).entries)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, out, err = run(capsys, "flow", "--kind", kind, "--t-end", "1e150", "--step", "1e150", x0)
        assert (code, out) == (2, "")
        assert err.startswith("error:") and err.count("\n") == 1

    def test_step_cap_exits_before_integrating(self, files, capsys):
        _, _, matrix, _ = files
        x0 = matrix("x0.json", np.diag([3.0, 1.0]))
        code, out, err = run(capsys, "flow", "--kind", "toda", "--t-end", "1e9", "--step", "1e-9", x0)
        assert (code, out) == (2, "")
        assert "state entries" in err and err.count("\n") == 1


class TestFlowGolden:
    """stdout and the --out CSV of `flow` for both kinds at n in {2, 3, 5, 8}
    and two starts each, pinned byte for byte against
    tests/data/flow_golden.json."""

    CASES = json.loads((GOLDEN / "flow_golden.json").read_text())

    @pytest.mark.parametrize("case", CASES, ids=lambda c: f"{c['kind']}-n{c['n']}-seed{c['seed']}")
    def test_stdout_and_csv_are_byte_identical(self, tmp_path, monkeypatch, capsys, case):
        monkeypatch.chdir(tmp_path)  # stdout names the --out path as given
        Path("x0.json").write_text(case["x0"])
        code, out, _ = run(capsys, "flow", "--kind", case["kind"], "--t-end", "0.3", "--step", "1e-3",
                           "--r", str(case["r"]), "--out", "traj.csv", "x0.json")
        assert (code, out) == (case["exit"], case["stdout"])
        assert hashlib.sha256(Path("traj.csv").read_bytes()).hexdigest() == case["csv_sha256"]


class TestGeometryGolden:
    """stdout of `order`, `geodesic --t 0.3`, `geodesic --t 0.5` and `mean`
    for all five cone kinds at n in {2, 3, 5}, on random and ordered pairs
    at two seeds each, pinned byte for byte against
    tests/data/geometry_golden.json, which was captured by running
    `python -m spdorders` as a subprocess on each case's documents."""

    CASES = json.loads((GOLDEN / "geometry_golden.json").read_text())
    COMMANDS = {
        "order": ["order", "--cone", "cone.json"],
        "geodesic_0.3": ["geodesic", "--t", "0.3"],
        "geodesic_0.5": ["geodesic", "--t", "0.5"],
        "mean": ["mean"],
    }

    @pytest.mark.parametrize(
        "case", CASES, ids=lambda c: f"{c['cone']['kind']}-n{c['cone']['n']}-{c['pair']}-seed{c['seed']}"
    )
    def test_stdout_is_byte_identical(self, tmp_path, monkeypatch, capsys, case):
        monkeypatch.chdir(tmp_path)
        Path("cone.json").write_text(json.dumps(case["cone"]))
        Path("a.json").write_text(case["a"])
        Path("b.json").write_text(case["b"])
        for key, argv in self.COMMANDS.items():
            code, out, _ = run(capsys, *argv, "a.json", "b.json")
            assert (code, out) == (case[key]["exit"], case[key]["stdout"]), key

    @pytest.mark.parametrize("kind", ["quad-affine", "quad-translate", "loewner", "half-space", "ray"])
    def test_order_of_documents_scaled_by_2_to_the_77_prints_the_same(self, tmp_path, monkeypatch, capsys, kind):
        # 2^77: an odd power of two inside core.WINDOW, whose square root is not exact
        monkeypatch.chdir(tmp_path)
        for case in (c for c in self.CASES if c["cone"]["kind"] == kind):
            Path("cone.json").write_text(json.dumps(case["cone"]))
            outs = []
            for k in (0, 77):
                for name in ("a", "b"):
                    Path(f"{name}.json").write_text(matrix_document(np.ldexp(parse_matrix_document(case[name]), k)))
                outs.append(run(capsys, "order", "--cone", "cone.json", "a.json", "b.json"))
            assert outs[1] == outs[0] and outs[0][0] == 0


class TestViz2Command:
    def test_section_file_naming(self, files, capsys, tmp_path):
        _, _, matrix, cone = files
        sigma = matrix("s.json", np.eye(2))
        spec = cone("cone.json", kind="quad-affine", mu=0.5, n=2)
        outdir = tmp_path / "viz"
        code, out, _ = run(capsys, "viz2", "section", "--cone", spec, "--at", sigma,
                           "--resolution", "16", "--outdir", str(outdir))
        assert code == 0
        path = outdir / "section_quad-affine_0.5.csv"
        assert path.exists()
        lines = path.read_text().strip().split("\n")
        assert lines[0] == "dx,dy,dz"
        assert len(lines) == 17

    @pytest.mark.filterwarnings("error")
    def test_section_at_a_huge_point(self, files, capsys, tmp_path):
        _, _, matrix, cone = files
        sigma = matrix("s.json", np.ldexp(random_spd(2, 5, 0.6).entries, 520))
        spec = cone("cone.json", kind="quad-affine", mu=1.0, n=2)
        code, _, err = run(capsys, "viz2", "section", "--cone", spec, "--at", sigma,
                           "--resolution", "16", "--outdir", str(tmp_path / "viz"))
        assert (code, err) == (0, "")

    def test_leaf_export(self, files, capsys, tmp_path):
        outdir = tmp_path / "viz"
        code, out, _ = run(capsys, "viz2", "leaf", "--c", "2", "--resolution", "8",
                           "--outdir", str(outdir))
        assert code == 0
        path = outdir / "leaf_2.csv"
        assert path.exists()
        assert path.read_text().splitlines()[0] == "x,y,z"

    @pytest.mark.parametrize("missing", ["--cone", "--at"])
    def test_section_without_input_flag_is_input_error(self, files, capsys, tmp_path, missing):
        _, _, matrix, cone = files
        flags = {"--cone": cone("cone.json", kind="loewner", n=2), "--at": matrix("s.json", np.eye(2))}
        del flags[missing]
        outdir = tmp_path / "viz"
        code, out, err = run(capsys, "viz2", "section", *[v for kv in flags.items() for v in kv],
                             "--outdir", str(outdir))
        assert code == 2 and out == ""
        assert err.startswith("error:") and err.count("\n") == 1
        assert not outdir.exists()

    # without the cap a section at 10^8 arcs would allocate several 2.4 GB
    # arrays, so only the leaf is driven that far
    @pytest.mark.parametrize("what, resolution", [("section", "1025"), ("leaf", "1025"), ("leaf", "100000000")])
    def test_resolution_above_cap_is_input_error(self, files, capsys, tmp_path, what, resolution):
        _, _, matrix, cone = files
        inputs = ["--cone", cone("cone.json", kind="loewner", n=2), "--at", matrix("s.json", np.eye(2))]
        outdir = tmp_path / "viz"
        code, out, err = run(capsys, "viz2", what, *inputs, "--resolution", resolution, "--outdir", str(outdir))
        assert (code, out) == (2, "")
        assert err.startswith("error:") and err.count("\n") == 1 and "resolution" in err
        assert not outdir.exists()

    @pytest.mark.parametrize("c", ["nan", "inf", "4e307", "-1"])
    def test_unbounded_leaf_label_is_input_error(self, capsys, tmp_path, c):
        outdir = tmp_path / "viz"
        code, out, err = run(capsys, "viz2", "leaf", "--c", c, "--resolution", "8", "--outdir", str(outdir))
        assert (code, out) == (2, "")
        assert err.startswith("error:") and err.count("\n") == 1 and "leaf label" in err
        assert not outdir.exists()

    def test_ray_section_is_input_error(self, files, capsys, tmp_path):
        _, _, matrix, cone = files
        sigma = matrix("s.json", np.eye(2))
        spec = cone("cone.json", kind="ray", n=2)
        code, _, err = run(capsys, "viz2", "section", "--cone", spec, "--at", sigma,
                           "--outdir", str(tmp_path))
        assert code == 2 and "error:" in err


class TestTolerancePlumbing:
    def test_out_of_range_tolerance_rejected(self, files, capsys):
        _, _, matrix, cone = files
        a = matrix("a.json", np.eye(2))
        spec = cone("cone.json", kind="loewner", n=2)
        code, _, err = run(capsys, "order", "--cone", spec, "--tol", "1e-2", a, a)
        assert code == 2 and "tolerance" in err

    def test_env_override(self, files, capsys, monkeypatch):
        _, _, matrix, cone = files
        a = matrix("a.json", np.eye(2))
        spec = cone("cone.json", kind="loewner", n=2)
        monkeypatch.setenv("SPD_ORDER_TOL", "1e-3")
        code, _, err = run(capsys, "order", "--cone", spec, a, a)
        assert code == 2 and "tolerance" in err
        monkeypatch.setenv("SPD_ORDER_TOL", "1e-8")
        code, out, _ = run(capsys, "order", "--cone", spec, a, a)
        assert code == 0 and json.loads(out)["relation"] == "equal"

    def test_unparsable_env_tolerance_is_input_error(self, files, capsys, monkeypatch):
        _, _, matrix, cone = files
        a = matrix("a.json", np.eye(2))
        spec = cone("cone.json", kind="loewner", n=2)
        monkeypatch.setenv("SPD_ORDER_TOL", "abc")
        code, out, err = run(capsys, "order", "--cone", spec, a, a)
        assert code == 2 and out == ""
        assert err.startswith("error:") and err.count("\n") == 1 and "SPD_ORDER_TOL" in err


class TestDeterminism:
    def test_identical_invocations_identical_stdout(self, files, capsys):
        _, _, matrix, cone = files
        spec = cone("cone.json", kind="quad-affine", mu=1.0, n=2)
        runs = []
        for _ in range(2):
            code, out, _ = run(capsys, "monotone", "--map", "power:2", "--cone", spec,
                               "--seed", "7", "--points", "15", "--dirs", "6")
            runs.append((code, out))
        assert runs[0] == runs[1]


# Documents the diagnostics tests below refer to by name.
DOCS = {
    "huge": matrix_document(np.diag([1e308, 1e308])),
    "huge_skew": '{"n": 2, "data": [[1.0, 1e308], [-1e308, 1.0]]}',
    "huge_spectrum": '{"n": 2, "data": [[1e308, 1e308], [1e308, 1.5e308]]}',
    "eye": matrix_document(np.eye(2)),
    "d21": matrix_document(np.diag([2.0, 1.0])),
    "shift_neg": matrix_document(-0.9 * np.eye(2)),
    "shift_1x1": matrix_document([[2.0]]),
    "qa2": json.dumps({"kind": "quad-affine", "n": 2, "mu": 1.0}),
    "loew2": json.dumps({"kind": "loewner", "n": 2}),
    "mu_true": json.dumps({"kind": "quad-affine", "n": 2, "mu": True}),
    "n_true": '{"n": true, "data": [[2.0]]}',
    "entry_true": '{"n": 2, "data": [[true, 0.0], [0.0, 1.0]]}',
    "entry_string": '{"n": 1, "data": [["2.0"]]}',
    "entry_int_overflow": '{"n": 1, "data": [[1' + "0" * 400 + ']]}',
}


@pytest.fixture
def docs(tmp_path):
    def argv(*words):
        out = []
        for word in words:
            if word == "@tmp":
                word = str(tmp_path)
            elif word.startswith("@"):  # @name or translate:@name
                word = str(tmp_path / f"{word[1:]}.json")
            elif ":@" in word:
                prefix, name = word.split(":@")
                word = f"{prefix}:{tmp_path / name}.json"
            out.append(word)
        return out

    for name, text in DOCS.items():
        (tmp_path / f"{name}.json").write_text(text)
    return argv


class TestOneLineDiagnostics:
    # a warning that reached the warnings machinery would raise here
    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("words", [
        # usage errors
        ("order",),
        ("monotone", "--map", "power:2", "--cone", "c", "--points", "x"),
        ("bogus",),
        ("geodesic", "--tol", "1e-3", "--t", "0.5", "@eye", "@d21"),
        # numpy warnings on the way to an error
        ("monotone", "--map", "power:1e308", "--cone", "@qa2", "--points", "3", "--dirs", "2"),
        ("monotone", "--map", "power:-1e308", "--cone", "@qa2", "--points", "3", "--dirs", "2"),
        # a library warning on the way to an error
        ("monotone", "--map", "translate:@shift_neg", "--cone", "@loew2", "--points", "20", "--dirs", "2"),
        # a map matrix of the wrong size
        ("monotone", "--map", "translate:@shift_1x1", "--cone", "@loew2", "--points", "3", "--dirs", "2"),
        # an SPD matrix whose largest eigenvalue lies beyond the float range
        ("validate", "@huge_spectrum"),
    ])
    def test_exit_two_prints_one_error_line(self, docs, capsys, words):
        code, out, err = run(capsys, *docs(*words))
        assert (code, out) == (2, "")
        assert err.startswith("error:") and err.count("\n") == 1

    # entries near the float limit once overflowed the symmetrization, and
    # these ended in exit 2; diag(1e308, 1e308) is SPD, so they run
    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("words, field, value", [
        (("validate", "@huge"), "valid", True),
        (("monotone", "--map", "scale:1e308", "--cone", "@qa2", "--points", "3", "--dirs", "2"), "violation_count", 0),
        (("monotone", "--map", "translate:@huge", "--cone", "@qa2", "--points", "3", "--dirs", "2"), "violation_count", 0),
        (("order", "--cone", "@qa2", "@huge", "@huge"), "relation", "equal"),
        (("geodesic", "--t", "0.5", "@huge", "@huge"), "data", [[1e308, 0.0], [0.0, 1e308]]),
        (("mean", "@huge", "@huge"), "data", [[1e308, 0.0], [0.0, 1e308]]),
        (("cone-member", "--cone", "@qa2", "--at", "@huge", "--dir", "@eye"), "inside", True),
    ])
    def test_entries_near_the_float_limit_run(self, docs, capsys, words, field, value):
        code, out, err = run(capsys, *docs(*words))
        assert (code, err) == (0, "")
        assert json.loads(out)[field] == value

    def test_asymmetry_beyond_the_float_range_is_a_verdict(self, docs, capsys):
        code, out, err = run(capsys, *docs("validate", "@huge_skew"))
        assert (code, err) == (1, "")
        assert json.loads(out)["error"] == "NotSymmetric"

    def test_warning_on_success_is_one_line(self, docs, capsys, tmp_path):
        shift = np.diag([-0.01, 0.02])
        (tmp_path / "shift.json").write_text(matrix_document(shift))
        code, out, err = run(capsys, *docs("monotone", "--map", "translate:@shift", "--cone", "@loew2",
                                           "--points", "5", "--dirs", "2"))
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            report = check_differential_positivity(translation_map(shift), loewner(2), seed=0,
                                                   n_points=5, n_directions=2)
        assert code == 0
        assert out == json.dumps(report.to_dict(), sort_keys=True) + "\n"
        assert err == "warning: translation shift is not positive semidefinite; " \
                      "images of near-singular points may leave the SPD cone\n"

    def test_help_exits_zero(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["order", "--help"])
        assert exc.value.code == 0 and capsys.readouterr().out.startswith("usage:")

    @pytest.mark.parametrize("words", [
        ("validate", "@eye"),
        ("geodesic", "--t", "0.5", "@eye", "@d21"),
        ("mean", "@eye", "@d21"),
        ("flow", "--kind", "toda", "--t-end", "0.01", "--step", "1e-3", "@d21"),
        ("viz2", "leaf", "--outdir", "@tmp"),
    ])
    def test_tolerance_only_where_it_is_read(self, docs, capsys, words):
        code, out, err = run(capsys, *docs(*words), "--tol", "1e-8")
        assert (code, out) == (2, "")
        assert err.startswith("error: unrecognized arguments: --tol") and err.count("\n") == 1

    @pytest.mark.parametrize("words", [
        ("validate", "@n_true"),
        ("validate", "@entry_true"),
        ("validate", "@entry_string"),
        ("validate", "@entry_int_overflow"),
        ("order", "--cone", "@mu_true", "@eye", "@d21"),
    ])
    def test_json_booleans_are_not_numbers(self, docs, capsys, words):
        code, out, err = run(capsys, *docs(*words))
        assert (code, out) == (2, "")
        assert err.startswith("error:") and err.count("\n") == 1


class TestOrderMagnitudes:
    @pytest.mark.parametrize("cone", ["@qa2", "@loew2"])
    def test_huge_identity_against_a_unit_matrix(self, docs, capsys, tmp_path, cone):
        (tmp_path / "big.json").write_text(matrix_document(1e200 * np.eye(2)))
        code, out, err = run(capsys, *docs("order", "--cone", cone, "@big", "@d21"))
        assert (code, err) == (0, "")
        assert json.loads(out)["relation"] == "greater_equal"


class TestUnreadableDocuments:
    # bytes that are not UTF-8, and nesting deeper than the JSON decoder's recursion limit
    @pytest.mark.parametrize("content", [b'\xff\xfe{"n": 1, "data": [[2.0]]}', b"[" * 100_000],
                             ids=["not_utf8", "nested"])
    @pytest.mark.parametrize("words", [
        ("validate", "@bad"),
        ("order", "--cone", "@bad", "@eye", "@eye"),
        ("monotone", "--map", "translate:@bad", "--cone", "@loew2", "--points", "2", "--dirs", "2"),
    ])
    def test_exits_two_with_one_line(self, docs, capsys, tmp_path, content, words):
        (tmp_path / "bad.json").write_bytes(content)
        code, out, err = run(capsys, *docs(*words))
        assert (code, out) == (2, "")
        assert err.startswith("error:") and err.count("\n") == 1


class TestUnwritableOutputs:
    def _assert_one_line(self, capsys, argv, path):
        code, out, err = run(capsys, *argv)
        assert (code, out) == (2, "")
        assert err.startswith("error: cannot") and str(path) in err and err.count("\n") == 1

    def test_flow_out_in_a_missing_directory(self, docs, capsys, tmp_path):
        target = tmp_path / "missing" / "x.csv"
        argv = docs("flow", "--kind", "toda", "--t-end", "0.01", "--step", "1e-3", "--out", str(target), "@d21")
        self._assert_one_line(capsys, argv, target)

    def test_leaf_outdir_is_a_file(self, docs, capsys, tmp_path):
        (tmp_path / "afile").write_text("")
        self._assert_one_line(capsys, docs("viz2", "leaf", "--outdir", str(tmp_path / "afile")), tmp_path / "afile")

    def test_section_outdir_below_a_file(self, docs, capsys, tmp_path):
        (tmp_path / "afile").write_text("")
        target = tmp_path / "afile" / "sub"
        self._assert_one_line(capsys, docs("viz2", "section", "--cone", "@loew2", "--at", "@d21",
                                           "--outdir", str(target)), target)


class TestInternalErrors:
    def test_unexpected_exception_exits_three_with_one_line(self, docs, capsys, monkeypatch):
        def broken(a, b, t):
            raise ZeroDivisionError("first line\nsecond line")

        monkeypatch.setattr("spdorders.cli.geodesic", broken)
        code, out, err = run(capsys, *docs("geodesic", "--t", "0.5", "@eye", "@d21"))
        assert (code, out) == (3, "")
        assert err == "internal error: ZeroDivisionError: first line second line\n"


class TestBoundedErrorLines:
    # each input once echoed itself into its error line unbounded or with a raw newline
    @staticmethod
    def _assert_one_bounded_line(capsys, argv, code=2, prefix="error:"):
        got, out, err = run(capsys, *argv)
        assert (got, out) == (code, "")
        assert err.startswith(prefix) and err.count("\n") == 1 and err.endswith("\n")
        assert len(err) - 1 <= MAX_STDERR_LINE
        return err

    def test_long_cone_kind(self, files, capsys):
        _, _, matrix, cone = files
        path = cone("long.json", kind="k" * 50_000, n=2)
        err = self._assert_one_bounded_line(capsys, ["order", "--cone", path, matrix("a.json", np.eye(2)),
                                                     matrix("b.json", np.eye(2))])
        assert err == err[:MAX_STDERR_LINE - 3] + "...\n"

    def test_long_map_argument(self, files, capsys):
        _, _, _, cone = files
        self._assert_one_bounded_line(capsys, ["monotone", "--map", "m" * 100_000,
                                               "--cone", cone("c.json", kind="loewner", n=2)])

    def test_newline_in_an_unreadable_path(self, capsys, tmp_path):
        err = self._assert_one_bounded_line(capsys, ["validate", str(tmp_path / "no\nsuch.json")])
        assert "no such.json" in err

    def test_newline_in_an_unwritable_path(self, files, capsys, tmp_path):
        _, _, matrix, _ = files
        target = tmp_path / "missing\ndir" / "x.csv"
        self._assert_one_bounded_line(capsys, ["flow", "--kind", "toda", "--t-end", "0.01", "--step", "1e-3",
                                               "--out", str(target), matrix("x0.json", np.diag([2.0, 1.0]))])

    def test_long_internal_error(self, files, capsys, monkeypatch):
        def broken(a, b, t):
            raise ZeroDivisionError("x" * 10_000)

        _, _, matrix, _ = files
        monkeypatch.setattr("spdorders.cli.geodesic", broken)
        path = matrix("a.json", np.eye(2))
        self._assert_one_bounded_line(capsys, ["geodesic", "--t", "0.5", path, path], code=3,
                                      prefix="internal error: ZeroDivisionError: xxx")


# Fuzzed command lines: every value list starts with an ordinary value,
# drawn more often, and goes on to huge, tiny, non-finite and unparsable
# ones.  Sizes that would allocate (sample counts, resolutions, flow
# horizons) are either small or far past their caps, so extreme sizes
# reach the validators only.
_NUMBERS = ["0.5", "0", "1", "-1", "2", "nan", "inf", "-inf", "1e308", "1e-308", "1e999", "x"]
_VALUES = {
    "--tol": ["1e-10", "1e-4", "0", "nan", "x"],
    "--t": _NUMBERS,
    "--seed": ["0", "-1", "18446744073709551615", "99999999999999999999999", "x"],
    "--points": ["3", "-1", "0", "1", "100000000000", "x"],
    "--dirs": ["3", "-1", "0", "1", "100000000000", "x"],
    "--map": ["power:2", "power:0.5", "power:nan", "power:1e308", "inv", "scale:0", "scale:1e308",
              "scale:-1", "translate:@m1", "translate:@missing", "bogus"],
    "--kind": ["toda", "qr", "bogus"],
    "--t-end": ["0.01", "0", "1", "1e9", "nan", "-1", "inf", "x"],
    "--step": ["1e-3", "0.05", "0", "-1", "nan", "1e-300", "10", "x"],
    "--r": ["1", "0", "2", "5", "-1", "x"],
    "--resolution": ["16", "8", "7", "1025", "100000000000", "-5", "x"],
    "--c": ["2", "0", "1e307", "1e308", "nan", "-1", "inf", "x"],
}
_COMMANDS = {
    "validate": ([], ["@m0"]),
    "order": (["--cone", "--tol"], ["@m0", "@m1"]),
    "cone-member": (["--cone", "--at", "--dir", "--tol"], []),
    "geodesic": (["--t"], ["@m0", "@m1"]),
    "mean": ([], ["@m0", "@m1"]),
    "monotone": (["--map", "--cone", "--seed", "--points", "--dirs", "--tol"], []),
    "flow": (["--kind", "--t-end", "--step", "--r", "--out"], ["@m0"]),
    "viz2 section": (["--cone", "--at", "--resolution", "--outdir"], []),
    "viz2 leaf": (["--c", "--resolution", "--outdir"], []),
}
_SCALES = [1.0, 1.0, 1e-300, 1e-170, 1e160, 1e300, 1.7e308]
_ENTRIES = [0.0, 1.0, -1.0, 2.0, 0.5, 5e-324, 1e-300, 1e300, -1e308, math.nan, math.inf, -math.inf]


@st.composite
def _matrix_document(draw):
    shape = draw(st.sampled_from(["spd"] * 4 + ["entries"] * 2 + ["bytes", "nested", "ragged", "huge_n"]))
    if shape == "bytes":
        return draw(st.sampled_from([b"\xff\xfe\x00", b'{"n": 1, "data": [[\xe9]]}', "{}".encode("utf-16")]))
    if shape == "nested":
        return b"[" * draw(st.sampled_from([10, 5_000, 100_000]))
    if shape == "ragged":
        return b'{"n": 2, "data": [[1.0, 0.0], [0.0]]}'
    if shape == "huge_n":
        return b'{"n": 1000000000000, "data": [[1.0]]}'
    n = draw(st.sampled_from([2, 2, 1, 3]))
    if shape == "spd":  # diagonally dominant, then scaled to an extreme
        a = np.diag(draw(st.lists(st.sampled_from([1.0, 2.0, 3.0]), min_size=n, max_size=n))) + 0.25
        with np.errstate(over="ignore"):  # 1.7e308 scales a 3.25 entry to inf
            a = a * draw(st.sampled_from(_SCALES))
    else:
        a = np.array(draw(st.lists(st.sampled_from(_ENTRIES), min_size=n * n, max_size=n * n))).reshape(n, n)
        if draw(st.booleans()):
            a = np.triu(a) + np.triu(a, 1).T
    return json.dumps({"n": n, "data": a.tolist()}).encode()


_cone_document = st.fixed_dictionaries(
    {"kind": st.sampled_from(["quad-affine", "quad-translate", "loewner", "half-space", "ray", "bogus"]),
     "n": st.sampled_from([2, 2, 2, 1, 3, 0, 65, 10**12, 2.5, True])},
    optional={"mu": st.sampled_from([1.0, 1.0, 0.5, 1.5, -1.0, 1e308, math.nan, math.inf])},
).map(lambda d: json.dumps(d).encode())


class TestArgvFuzz:
    @given(data=st.data())
    @settings(max_examples=120, deadline=None, derandomize=True)
    def test_every_input_ends_in_a_documented_exit(self, data):
        command = data.draw(st.sampled_from(sorted(_COMMANDS)), label="command")
        flags, positionals = _COMMANDS[command]
        with tempfile.TemporaryDirectory() as tmp:
            root = Path(tmp)
            for name in ("m0", "m1", "m2"):
                (root / f"{name}.json").write_bytes(data.draw(_matrix_document(), label=name))
            (root / "cone.json").write_bytes(data.draw(_cone_document, label="cone"))
            (root / "afile").write_text("")
            targets = {"--cone": "@cone", "--at": "@m1", "--dir": "@m2"}
            argv = command.split()
            for flag in flags:
                if flag in targets:
                    value = targets[flag]
                elif flag in ("--out", "--outdir"):
                    value = data.draw(st.sampled_from([str(root / "out"), str(root / "out"), str(root / "afile"),
                                                       str(root / "afile" / "sub"), ""]), label=flag)
                else:
                    values = _VALUES[flag]
                    value = data.draw(st.sampled_from([None, values[0], values[0], *values]), label=flag)
                if value is not None:
                    argv += [flag, value]
            argv += positionals
            argv = [w.replace("@", f"{root}/") + ".json" if "@" in w else w for w in argv]
            out, err = io.StringIO(), io.StringIO()
            start = time.perf_counter()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = main(argv)
            elapsed = time.perf_counter() - start
        lines = err.getvalue().splitlines()
        assert code in (0, 1, 2, 3), argv
        assert all(len(line) <= MAX_STDERR_LINE for line in lines), argv
        assert "Traceback" not in err.getvalue()
        assert elapsed < 10.0, argv
        if code == 2:
            assert len(lines) == 1 and lines[0].startswith("error:"), (argv, lines)
        elif code == 3:
            assert len(lines) == 1 and lines[0].startswith("internal error:"), (argv, lines)
        else:
            assert all(line.startswith("warning:") for line in lines), (argv, lines)
            json.loads(out.getvalue(), parse_constant=_no_constant)  # a non-finite value is exit 3
