"""The four benchmark workloads.

Each workload turns a seed into inputs (`setup`) and a *round*: a fixed
list of calls that one caller runs in order, each call starting only when
the previous one returned.  A call returns (units, attempted, failed):
units of work done, correctness gates checked and gates failed.  Rounds
are identical, so the rate of one round is a steady sample of the rate.
"""

from __future__ import annotations

import contextlib
import io as stdio
import json
import math
import subprocess
import sys
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import numpy as np

import spdorders
from spdorders import cli
from spdorders import io as docio
from spdorders.core import derive_rng, random_sym

ORDERED = ("less_equal", "equal")
CONFIGS = [(n, mu) for n in (2, 3, 5) for mu in (0.5, n / 2, n - 0.5)]


@dataclass
class Call:
    label: str   # kind of call; latencies are pooled over all labels
    phase: str   # name of the rate its units count towards
    run: Callable[[], tuple[int, int, int]]


@dataclass
class Prepared:
    round: list[Call]
    counters: dict = field(default_factory=dict)
    # cli-session only: the same argv lists run in-process, for the traced run
    inprocess_round: list[Call] | None = None


def _seed(seed: int, *parts: int) -> int:
    """An integer seed for library calls that take one, from the run seed."""
    return int(derive_rng(seed, *parts).integers(0, 2**31))


# ---------------------------------------------------------------------------
# order-oracle: criterion 01's shape.  Per config, 50 % random pairs, 40 %
# forward-ordered, 10 % reverse-ordered.  Ordered pairs run all 100 oracle
# samples; unordered pairs exit at the first, so the mix sets the cost.
# One call decides the 40 pairs of one config: per-pair latency is bimodal
# with about half the pairs in each mode, so its median is ill-conditioned.
# ---------------------------------------------------------------------------

# 20 random, 16 forward, 4 reverse.  A few random pairs are ordered by
# chance (2-9 of 90 at 10 per config), which shifts a round's cost with the
# seed; 20 random pairs per config halve that shift's share.
ORACLE_PAIRS_PER_CONFIG = 40


def setup_order_oracle(seed: int, workdir: Path) -> Prepared:
    calls = []
    for idx, (n, mu) in enumerate(CONFIGS):
        spec = spdorders.quadratic_affine(mu, n)
        pairs = []
        for k in range(ORACLE_PAIRS_PER_CONFIG):
            s = _seed(seed, 1, idx, k)
            if k < 20:
                a = spdorders.random_spd(n, derive_rng(s, 0), 0.8)
                b = spdorders.random_spd(n, derive_rng(s, 1), 0.8)
            elif k < 36:
                a, b = spdorders.random_ordered_pair(spec, n, seed=s)
            else:
                b, a = spdorders.random_ordered_pair(spec, n, seed=s)
            pairs.append((a.entries, b.entries))
        calls.append(Call("config", "oracle_pairs", _oracle_call(spec, pairs)))
    return Prepared(calls)


def _oracle_call(spec, pairs):
    def run():
        disagreements = 0
        for raw_a, raw_b in pairs:
            a = spdorders.SpdMatrix(raw_a)
            b = spdorders.SpdMatrix(raw_b)
            spectral = spdorders.order_compare(spec, a, b, tol=1e-10).relation in ORDERED
            path = spdorders.conal_path_oracle(spec, a, b, samples=100, tol=1e-10)
            disagreements += spectral != path
        return len(pairs), len(pairs), disagreements

    return run


# ---------------------------------------------------------------------------
# loewner-heinz.  Phase 1 follows scripts/monotonicity_survey.py at n=3;
# phase 2 follows criterion 02: ordered pairs drawn from order intervals,
# mapped through t -> t^r for r in [0, 1] and compared again.
# ---------------------------------------------------------------------------

SURVEY_EXPONENTS = (0.25, 0.5, 0.75, 1.0, 1.5, 2.0, 3.0)
MONOTONE_EXPONENTS = (0.25, 0.5, 0.75, 1.0)
# the survey script's defaults: one call is one cell of its table
DP_POINTS, DP_DIRECTIONS = 50, 20
# criterion 02 samples 5 points per order interval; one call covers the
# intervals of one config, sized to take about as long as a survey cell
# so that call latencies form one population
INTERVALS_PER_CONFIG, POINTS_PER_INTERVAL = 32, 5


def setup_loewner_heinz(seed: int, workdir: Path) -> Prepared:
    counters = {"violations_stored": 0, "samples_tested": 0, "interval_points": 0}
    calls = []
    n = 3
    specs = [spdorders.quadratic_affine(mu, n) for mu in (0.75, 1.5, 2.25)] + [spdorders.loewner(n)]
    for i, r in enumerate(SURVEY_EXPONENTS):
        for j, spec in enumerate(specs):
            calls.append(Call("dp", "dp_samples", _dp_call(spec, r, _seed(seed, 2, i, j), counters)))
    for idx, (n, mu) in enumerate(CONFIGS):
        spec = spdorders.quadratic_affine(mu, n)
        intervals = []
        for e in range(INTERVALS_PER_CONFIG):
            s1, s2 = spdorders.random_ordered_pair(spec, n, seed=_seed(seed, 3, idx, e))
            intervals.append((s1.entries, s2.entries, _seed(seed, 4, idx, e)))
        calls.append(Call("intervals", "interval_checks", _intervals_call(spec, intervals, counters)))
    return Prepared(calls, counters)


def _dp_call(spec, r, dp_seed, counters):
    smap = spdorders.power_map(r)

    def run():
        report = spdorders.check_differential_positivity(
            smap, spec, seed=dp_seed, n_points=DP_POINTS, n_directions=DP_DIRECTIONS
        )
        counters["violations_stored"] += len(report.violations)
        counters["samples_tested"] += report.samples_tested
        # Loewner-Heinz: clean for r in [0, 1], broken for every r > 1
        ok = report.is_positive if r <= 1.0 else not report.is_positive
        return report.samples_tested, 1, int(not ok)

    return run


def _intervals_call(spec, intervals, counters):
    def run():
        checks = failed = 0
        for raw1, raw2, interval_seed in intervals:
            s1 = spdorders.SpdMatrix(raw1)
            s2 = spdorders.SpdMatrix(raw2)
            points = spdorders.order_interval_sample(spec, s1, s2, seed=interval_seed, count=POINTS_PER_INTERVAL)
            counters["interval_points"] += len(points)
            pairs = [pair for p in points for pair in ((s1, p), (p, s2))]
            for r in MONOTONE_EXPONENTS:
                images = {id(x): spdorders.matrix_function(x, "power", r) for x in (s1, s2, *points)}
                for a, b in pairs:
                    verdict = spdorders.order_compare(spec, images[id(a)], images[id(b)], tol=1e-9)
                    failed += verdict.relation not in ORDERED
            checks += len(pairs) * len(MONOTONE_EXPONENTS)
        return checks, checks, failed

    return run


# ---------------------------------------------------------------------------
# flow-integrate: Toda and QR RK4 runs with their monitors.  One call
# integrates all four trajectories: their costs differ by kind and size, so
# per-trajectory latencies would pool four separate groups.
# ---------------------------------------------------------------------------

FLOW_CASES = (("toda", 5), ("toda", 8), ("qr", 5), ("qr", 8))
FLOW_T_END, FLOW_STEP = 0.5, 1e-3
DRIFT_BOUND, MONOTONE_SLACK = 1e-6, 1e-8


def setup_flow_integrate(seed: int, workdir: Path) -> Prepared:
    counters = {"flow_steps": 0}
    starts = []
    for k, (kind, n) in enumerate(FLOW_CASES):
        rng = derive_rng(seed, 5, k)
        x0 = random_sym(n, rng, scale=0.5) if kind == "toda" else spdorders.random_spd(n, rng, scale=0.35).entries
        starts.append((kind, x0))
    return Prepared([Call("trajectories", "flow_steps", _flow_call(starts, counters))], counters)


def _flow_call(starts, counters):
    def run():
        steps = failed = 0
        for kind, x0 in starts:
            traj = spdorders.integrate_flow(kind, x0, t_end=FLOW_T_END, step=FLOW_STEP)
            drift = traj.spectrum_drift()
            worst = min(
                float(np.min(np.diff(spdorders.projected_eigenvalues(traj, r), axis=0)))
                for r in range(1, traj.n + 1)
            )
            steps += len(traj.times) - 1
            failed += drift > DRIFT_BOUND or worst < -MONOTONE_SLACK
        counters["flow_steps"] += steps
        return steps, len(starts), failed

    return run


# ---------------------------------------------------------------------------
# cli-session: a fixed script of fresh `python -m spdorders` processes.
# Each output is checked against the library's in-process result on the
# same documents, and must repeat byte for byte.
# ---------------------------------------------------------------------------

CLI_KINDS = (
    ("quad-affine", 1.5), ("quad-translate", 1.5), ("loewner", None), ("half-space", None), ("ray", None),
)
SECTION_RESOLUTION = 256


def _close(got, want) -> bool:
    """Equal verdicts; floats equal to 1e-9 relative (1e-12 absolute)."""
    if isinstance(want, float) and isinstance(got, (int, float)) and not isinstance(got, bool):
        return math.isclose(got, want, rel_tol=1e-9, abs_tol=1e-12)
    if isinstance(want, dict):
        return isinstance(got, dict) and got.keys() == want.keys() and all(_close(got[k], want[k]) for k in want)
    if isinstance(want, list):
        return isinstance(got, list) and len(got) == len(want) and all(map(_close, got, want))
    return type(got) is type(want) and got == want


@dataclass
class CliItem:
    argv: list[str]
    exit_code: int
    stdout: dict         # expected JSON document on the single stdout line
    files: dict          # expected path -> text written by the command


def _write_doc(path: Path, raw) -> str:
    docio.write_matrix_file(path, raw)
    return str(path)


def _write_spec(path: Path, spec) -> str:
    path.write_text(json.dumps(spec.to_dict()))
    return str(path)


def _cli_script(seed: int, workdir: Path) -> list[CliItem]:
    """Write the documents and compute every expected result in-process."""
    n = 3
    qa = spdorders.quadratic_affine(1.5, n)
    a, b = spdorders.random_ordered_pair(qa, n, seed=_seed(seed, 6))
    a_doc = _write_doc(workdir / "a.json", a.entries)
    b_doc = _write_doc(workdir / "b.json", b.entries)
    items = [CliItem(["validate", a_doc], 0, {"valid": True, "n": n}, {})]

    for kind, mu in CLI_KINDS:
        spec = spdorders.ConeSpec(kind, n, mu)
        verdict = spdorders.order_compare(spec, a, b)
        items.append(CliItem(
            ["order", "--cone", _write_spec(workdir / f"cone-{kind}.json", spec), a_doc, b_doc], 0,
            {"relation": verdict.relation, "forward_margin": verdict.forward_margin,
             "reverse_margin": verdict.reverse_margin}, {},
        ))

    qa_doc = str(workdir / "cone-quad-affine.json")
    x = spdorders.cones.sample_cone_tangent(qa, a, derive_rng(seed, 7), boundary=False)
    member = spdorders.cone_membership(qa, a, x.entries)
    items.append(CliItem(
        ["cone-member", "--cone", qa_doc, "--at", a_doc, "--dir", _write_doc(workdir / "x.json", x.entries)],
        0 if member.inside else 1,
        {"inside": member.inside, "margin": member.margin, "binding_constraint": member.binding_constraint}, {},
    ))
    geo = spdorders.geodesic(a, b, 0.3).entries
    items.append(CliItem(["geodesic", "--t", "0.3", a_doc, b_doc], 0, {"n": n, "data": geo.tolist()}, {}))
    mean = spdorders.geometric_mean(a, b).entries
    items.append(CliItem(["mean", a_doc, b_doc], 0, {"n": n, "data": mean.tolist()}, {}))

    mono_seed = _seed(seed, 8)
    report = spdorders.check_differential_positivity(
        spdorders.power_map(0.5), qa, seed=mono_seed, n_points=5, n_directions=4
    )
    items.append(CliItem(
        ["monotone", "--map", "power:0.5", "--cone", qa_doc, "--seed", str(mono_seed), "--points", "5", "--dirs", "4"],
        1 if report.violations else 0, json.loads(json.dumps(report.to_dict())), {},
    ))

    x0 = random_sym(n, derive_rng(seed, 9), scale=0.5)
    x0_doc = _write_doc(workdir / "x0.json", x0)
    traj = spdorders.integrate_flow("toda", docio.read_matrix_file(x0_doc), t_end=0.2, step=1e-3)
    monotone_ok, worst = spdorders.flows.projected_monotonicity(traj, 2)
    items.append(CliItem(
        ["flow", "--kind", "toda", "--t-end", "0.2", "--step", "1e-3", "--r", "2", x0_doc],
        0 if monotone_ok else 1,
        {"kind": "toda", "n": n, "steps": len(traj.times) - 1, "t_end": float(traj.times[-1]),
         "spectrum_drift": traj.spectrum_drift(), "projected_rank": 2, "projected_monotone": monotone_ok,
         "worst_step_decrease": worst}, {},
    ))

    outdir = workdir / "out"
    q2 = spdorders.quadratic_affine(1.0, 2)
    s2 = spdorders.random_spd(2, derive_rng(seed, 10), 0.6)
    section = outdir / docio.section_filename(q2)
    expected_section = workdir / "expected-section.csv"
    docio.write_rows_csv(
        expected_section,
        spdorders.cone_cross_section(q2, spdorders.phi(s2), SECTION_RESOLUTION),
        header=("dx", "dy", "dz"),
    )
    items.append(CliItem(
        ["viz2", "section", "--cone", _write_spec(workdir / "cone-q2.json", q2),
         "--at", _write_doc(workdir / "s2.json", s2.entries),
         "--resolution", str(SECTION_RESOLUTION), "--outdir", str(outdir)],
        0, {"written": str(section)}, {str(section): expected_section.read_text()},
    ))
    c = 1.0 + float(derive_rng(seed, 11).uniform(0.0, 2.0))
    leaf = outdir / docio.leaf_filename(c)
    expected_leaf = workdir / "expected-leaf.csv"
    docio.write_rows_csv(expected_leaf, spdorders.hyperboloid_leaf(c, 64).reshape(-1, 3), header=("x", "y", "z"))
    items.append(CliItem(
        ["viz2", "leaf", "--c", repr(c), "--resolution", "64", "--outdir", str(outdir)],
        0, {"written": str(leaf)}, {str(leaf): expected_leaf.read_text()},
    ))
    return items


def _cli_label(argv: list[str]) -> str:
    return f"viz2-{argv[1]}" if argv[0] == "viz2" else argv[0]


def _check_cli(item: CliItem, code: int, stdout: str, seen: dict) -> bool:
    """Expected exit code, one JSON line equal to the in-process result,
    expected files, and stdout byte-identical to the first repeat."""
    key = tuple(item.argv)
    first = seen.setdefault(key, stdout)
    lines = stdout.splitlines()
    if code != item.exit_code or stdout != first or len(lines) != 1:
        return False
    try:
        doc = json.loads(lines[0])
    except json.JSONDecodeError:
        return False
    return _close(doc, item.stdout) and all(Path(p).read_text() == text for p, text in item.files.items())


def setup_cli_session(seed: int, workdir: Path, root: Path, env: dict) -> Prepared:
    workdir.mkdir(parents=True, exist_ok=True)
    items = _cli_script(seed, workdir)
    seen_proc: dict = {}
    seen_inproc: dict = {}

    def clear_outputs(item):
        # a call that writes nothing must not pass on an earlier call's file
        for path in item.files:
            Path(path).unlink(missing_ok=True)

    def subprocess_call(item):
        def run():
            clear_outputs(item)
            proc = subprocess.run(
                [sys.executable, "-m", "spdorders", *item.argv],
                cwd=root, env=env, capture_output=True, text=True, timeout=120,
            )
            return 1, 1, int(not _check_cli(item, proc.returncode, proc.stdout, seen_proc))

        return run

    def inprocess_call(item):
        def run():
            clear_outputs(item)
            out = stdio.StringIO()
            with contextlib.redirect_stdout(out):
                code = cli.main(item.argv)
            return 1, 1, int(not _check_cli(item, code, out.getvalue(), seen_inproc))

        return run

    return Prepared(
        [Call(_cli_label(it.argv), "cli_calls", subprocess_call(it)) for it in items],
        inprocess_round=[Call(_cli_label(it.argv), "cli_calls", inprocess_call(it)) for it in items],
    )
