#!/usr/bin/env python3
"""Output fingerprint: one SHA-256 per group of float.hex dumps over a fixed seeded corpus.

    python3 scripts/fingerprint.py              # fingerprint the working tree
    python3 scripts/fingerprint.py --diff REV   # the working tree against a checkout of REV

The corpus runs every public kernel and the CLI on seeded inputs (all five cone kinds at n in
{1, 2, 3, 5, 8}; random, ordered and reversed pairs, also at 2^-520 and 2^520) and dumps every
float as float.hex, every error as its type and message.  Each tree runs in a process of its own,
REV extracted with `git archive`; --diff names the groups and first cases that differ and exits 1.
The bits depend on the BLAS build, so each run prints its environment stamp and no hash is kept.
"""

import argparse
import contextlib
import dataclasses
import hashlib
import io
import json
import os
import platform
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
GROUPS = ("order_compare", "cone_margins", "conal_path_oracle", "order_interval_sample",
          "check_differential_positivity", "find_order_counterexample", "flows", "viz2", "cli")


def dump(value) -> str:
    """A canonical text of a result: floats as float.hex, arrays with their shape."""
    if isinstance(value, np.ndarray):
        return f"{value.dtype}{value.shape}" + dump(value.ravel().tolist())
    if isinstance(value, float):
        return float.hex(value)
    if isinstance(value, (list, tuple)):
        return "[" + ",".join(dump(v) for v in value) + "]"
    if isinstance(value, dict):
        return "{" + ",".join(f"{k}:{dump(v)}" for k, v in value.items()) + "}"
    if hasattr(value, "entries"):  # SpdMatrix, SymTangent
        return dump(value.entries)
    if dataclasses.is_dataclass(value):
        return type(value).__name__ + dump({f.name: getattr(value, f.name) for f in dataclasses.fields(value)})
    return repr(value)


def run_corpus() -> dict:
    """Every group's cases as (label, SHA-256 of the dump), run on the spdorders on sys.path."""
    import spdorders as sp
    from spdorders import cli, cones
    from spdorders import io as docio
    from spdorders.errors import SpdError

    groups = {name: [] for name in GROUPS}

    def record(group, label, f, *args):
        try:
            text = dump(f(*args))
        except SpdError as exc:
            text = f"{type(exc).__name__}: {exc}"
        groups[group].append((label, hashlib.sha256(text.encode()).hexdigest()))

    def scaled(sigma, e):
        return sp.SpdMatrix(np.ldexp(sigma.entries, e))

    def kinds(n, mu):
        return [sp.quadratic_affine(mu, n), sp.quadratic_translation(mu, n), sp.loewner(n),
                sp.half_space_affine(n), sp.ray_affine(n)]

    for n in (1, 2, 3, 5, 8):
        points = [sp.random_spd(n, 100 * n + s, 0.8) for s in range(6)]
        for spec in kinds(n, n / 2):
            pairs = {"random": (points[0], points[1])}
            for seed in range(3):
                a, b = sp.random_ordered_pair(spec, n, 7 * n + seed)
                pairs.update({f"ordered{seed}": (a, b), f"reversed{seed}": (b, a)})
            for e in (-520, 520):
                pairs[f"random@2^{e}"] = scaled(points[2], e), scaled(points[3], e)
                pairs[f"ordered@2^{e}"] = scaled(a, e), scaled(b, e)
            for name, (s1, s2) in pairs.items():
                label = f"{spec.kind} n={n} {name}"
                record("order_compare", label, sp.order_compare, spec, s1, s2)
                record("conal_path_oracle", label, sp.conal_path_oracle, spec, s1, s2, 130)
                if not name.startswith("random"):
                    record("order_interval_sample", label, sp.order_interval_sample, spec, s1, s2, 11, 4)
            rng = np.random.default_rng(n)
            xs = rng.standard_normal((6, n, n))
            rays = cones.sample_cone_tangents(spec, points[4], [rng] * 4, [1, 0, 1, 0])
            xs, sigmas = np.concatenate([xs + xs.swapaxes(1, 2), rays]), np.stack([p.entries for p in points * 2][:10])
            for e in (0, -520, 520):
                label = f"{spec.kind} n={n} @2^{e}"
                record("cone_margins", "points " + label, cones.cone_margins, spec, np.ldexp(sigmas, e), xs)
                record("cone_margins", "tangents " + label, cones.cone_margins, spec, sigmas, np.ldexp(xs, e))

    for n in (2, 3, 5):
        maps = {"power:0.5": sp.power_map(0.5), "power:2": sp.power_map(2.0), "inv": sp.inversion_map(),
                "congruence": sp.congruence_map(np.eye(n) + np.tri(n, k=-1)), "scale:2": sp.scaling_map(2.0),
                "translate": sp.translation_map(0.5 * np.eye(n))}
        for spec in kinds(n, n / 2):
            for name, m in maps.items():
                label = f"{name} {spec.kind} n={n}"
                record("check_differential_positivity", label, sp.check_differential_positivity, m, spec, 5, 6, 5)
                record("find_order_counterexample", label, sp.find_order_counterexample, m, spec, 3, 140)
        # more rows than one block holds at n <= 5, so --diff compares block splits bit for bit
        spec = sp.quadratic_affine(n / 2, n)
        record("check_differential_positivity", f"power:2 {spec.kind} n={n} 110x40",
               sp.check_differential_positivity, sp.power_map(2.0), spec, 8, 110, 40)
        record("find_order_counterexample", f"power:0.5 {spec.kind} n={n} budget 2100",
               sp.find_order_counterexample, sp.power_map(0.5), spec, 8, 2100)
        count = {2: 2051, 3: 913, 5: 330}[n]  # past the first span of core._block_rows(n) after the midpoint
        record("order_interval_sample", f"{spec.kind} n={n} count {count}",
               sp.order_interval_sample, spec, *sp.random_ordered_pair(spec, n, 8), 11, count)
    # seeds.seeded_streams draws 96 rows or more by vector passes when n x n is at most 16 raw words,
    # and by one generator per row otherwise: rows either side of both bounds, so --diff compares
    # the two draw paths bit for bit (48 x 2 draws 48 points row by row and 96 rays by a vector pass)
    for n, points, dirs in ((2, 95, 1), (2, 96, 1), (2, 48, 2), (3, 95, 1), (3, 96, 1), (3, 48, 2), (4, 60, 20),
                            (5, 60, 20)):
        spec = sp.quadratic_affine(n / 2, n)
        record("check_differential_positivity", f"power:0.5 {spec.kind} n={n} {points}x{dirs}",
               sp.check_differential_positivity, sp.power_map(0.5), spec, 9, points, dirs)

    def flow(kind, x0):
        trajectory = sp.integrate_flow(kind, x0, 0.5, 1e-2)
        return trajectory, sp.projected_eigenvalues(trajectory, 2)

    for n in (3, 5):
        record("flows", f"toda n={n}", flow, "toda", np.diag(np.arange(1.0, n + 1)) + 0.3 * (1.0 - np.eye(n)))
        record("flows", f"qr n={n}", flow, "qr", sp.random_spd(n, 40 + n, 0.5).entries)

    for spec in kinds(2, 1.0):
        for e in (0, -520, 520):
            at = scaled(sp.random_spd(2, 5, 0.6), e)
            record("viz2", f"section {spec.kind}@2^{e}", lambda: sp.cone_cross_section(spec, sp.phi(at), 24))
    for c in (0.0, 1.0, 2.5):
        record("viz2", f"leaf c={c}", sp.hyperboloid_leaf, c, 12)

    with tempfile.TemporaryDirectory() as tmp:
        os.chdir(tmp)  # the commands read and write relative paths
        a, b = sp.random_ordered_pair(sp.quadratic_affine(1.5, 3), 3, 21)
        docs = {"a.json": a.entries, "b.json": b.entries, "tiny.json": np.ldexp(a.entries, -520),
                "x.json": sp.random_spd(3, 22, 0.5).entries - np.eye(3), "s2.json": sp.random_spd(2, 23, 0.6).entries,
                "skew.json": np.array([[1.0, 1e308], [-1e308, 1.0]])}
        for name, mat in docs.items():
            docio.write_matrix_file(name, mat)
        for spec in kinds(3, 1.5) + [sp.quadratic_affine(1.0, 2)]:
            Path(f"{spec.kind}-{spec.n}.json").write_text(json.dumps(spec.to_dict()))
        commands = ["validate a.json", "validate tiny.json", "geodesic --t 0.3 a.json b.json", "mean a.json b.json",
                    "mean tiny.json a.json", "cone-member --cone quad-affine-3.json --at a.json --dir x.json",
                    "monotone --map power:0.5 --cone quad-affine-3.json --seed 4 --points 5 --dirs 4",
                    "monotone --map power:2 --cone loewner-3.json --seed 4 --points 5 --dirs 4",
                    "flow --kind qr --t-end 0.2 --step 1e-2 --r 2 --out flow.csv a.json",
                    "viz2 section --cone quad-affine-2.json --at s2.json --resolution 16 --outdir out",
                    "viz2 leaf --c 1.5 --resolution 8 --outdir out",
                    "monotone --map translate:skew.json --cone quad-affine-2.json --seed 4 --points 3 --dirs 2",
                    "monotone --map scale:nan --cone quad-affine-2.json --seed 4 --points 3 --dirs 2"]
        commands += [f"order --cone {spec.kind}-3.json {pair}" for spec in kinds(3, 1.5)
                     for pair in ("a.json b.json", "b.json a.json", "tiny.json a.json")]
        for command in commands:
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = cli.main(command.split())
            files = {str(p): p.read_text() for p in sorted(Path(".").rglob("*.csv"))}
            for name in files:
                os.remove(name)
            record("cli", command, lambda: (code, out.getvalue(), err.getvalue(), files))
        os.chdir(ROOT)
    return groups


def environment() -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"python": platform.python_version(), "numpy": np.__version__, "machine": platform.machine(),
            "blas": f"{blas.get('name')} {blas.get('version')}", "nproc": os.cpu_count(),
            "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS")}


def fingerprint(tree: Path) -> dict:
    """The corpus run in a new process on tree's src/: its environment and cases per group."""
    env = dict(os.environ, PYTHONPATH=str(tree / "src"), OPENBLAS_NUM_THREADS="1")
    done = subprocess.run([sys.executable, __file__, "--emit"], env=env, capture_output=True, text=True)
    if done.returncode:
        sys.exit(f"the corpus failed on {tree}:\n{done.stderr}")
    return json.loads(done.stdout)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--diff", metavar="REV", help="also run the corpus on REV and name the groups that differ")
    parser.add_argument("--emit", action="store_true", help=argparse.SUPPRESS)  # the child process
    args = parser.parse_args(argv)
    if args.emit:
        print(json.dumps({"environment": environment(), "groups": run_corpus()}))
        return 0
    here = there = fingerprint(ROOT)
    print("environment:", json.dumps(here["environment"]))
    if args.diff is not None:
        with tempfile.TemporaryDirectory() as tmp:
            archive = subprocess.run(["git", "-C", str(ROOT), "archive", args.diff], capture_output=True, check=True)
            subprocess.run(["tar", "-x", "-C", tmp], input=archive.stdout, check=True)
            there = fingerprint(Path(tmp))
    differ = 0
    for name, cases in here["groups"].items():
        other = there["groups"][name]
        changed = [label for (label, a), (_, b) in zip(cases, other) if a != b]
        if len(cases) != len(other) or changed:
            differ += 1
            print(f"{name:30s} DIFFERS in {len(changed)} of {len(cases)} cases: " + "; ".join(changed[:3]))
            continue
        digest = hashlib.sha256("\n".join(f"{label} {d}" for label, d in cases).encode()).hexdigest()
        print(f"{name:30s} {digest}  ({len(cases)} cases{', same as ' + args.diff if args.diff else ''})")
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main())
