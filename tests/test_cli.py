import hashlib
import json
import math
import warnings
from pathlib import Path

import numpy as np
import pytest

from spdorders import check_differential_positivity, loewner, random_spd, translation_map
from spdorders.cli import main
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
        ("monotone", "--map", "scale:1e308", "--cone", "@qa2", "--points", "3", "--dirs", "2"),
        ("monotone", "--map", "power:-1e308", "--cone", "@qa2", "--points", "3", "--dirs", "2"),
        ("monotone", "--map", "translate:@huge", "--cone", "@qa2", "--points", "3", "--dirs", "2"),
        ("order", "--cone", "@qa2", "@huge", "@huge"),
        ("geodesic", "--t", "0.5", "@huge", "@huge"),
        ("mean", "@huge", "@huge"),
        ("cone-member", "--cone", "@qa2", "--at", "@huge", "--dir", "@eye"),
        # a library warning on the way to an error
        ("monotone", "--map", "translate:@shift_neg", "--cone", "@loew2", "--points", "20", "--dirs", "2"),
        # a map matrix of the wrong size
        ("monotone", "--map", "translate:@shift_1x1", "--cone", "@loew2", "--points", "3", "--dirs", "2"),
    ])
    def test_exit_two_prints_one_error_line(self, docs, capsys, words):
        code, out, err = run(capsys, *docs(*words))
        assert (code, out) == (2, "")
        assert err.startswith("error:") and err.count("\n") == 1

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
