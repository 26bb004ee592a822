#!/usr/bin/env python3
"""spdorders benchmark: one seeded workload, one closed-loop caller.

    python3 perfbench/run.py --workload order-oracle --seed 1 --seconds 20 --trace 0

Run from the repository root; the package is imported from `src/`.
With `--trace 0` the run measures the end-to-end metrics with tracing
off.  With `--trace 1` it runs whole rounds untraced, then the same
rounds again with every public spdorders function wrapped in a span, and
reports per-layer metrics and the tracing overhead.  The last stdout
line is one JSON object with keys correct, attempted, failed, metrics;
the line before it carries the environment stamp and the workload's
figures under their own names.  The exit code is 0 only when every
correctness gate held.  See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

# One BLAS thread: this OpenBLAS build would otherwise start threads of its
# own (MAX_THREADS=64) on a 2-core machine.  Must be set before numpy loads.
os.environ["OPENBLAS_NUM_THREADS"] = "1"

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORKLOADS = ("order-oracle", "loewner-heinz", "flow-integrate", "cli-session")
SETUP_REPEATS = 5
# The untraced pass of a traced run takes this share of --seconds, or
# TRACE_MAX_ROUNDS rounds if that comes first (it bounds the spans kept in
# memory); the traced pass repeats the same number of rounds.
TRACE_BASELINE_SHARE = 0.3
TRACE_MAX_ROUNDS = 10
# The host's speed drifts by up to 2x over minutes, so calls are bracketed
# by a fixed reference probe, run after every PROBE_EVERY_NS of call time
# and at the end of each round (each set-up gets its own pair), and their
# times are rescaled to the speed at which the probe takes REF_PROBE_S.
# Raw wall-clock figures are reported beside them.  The CLI processes of
# cli-session follow the in-process probe too: over runs of 8 rounds their
# mean latency spread 8 % as measured and 3 % rescaled.
PROBE_LOOPS = 1000
REF_PROBE_S = 0.015
PROBE_EVERY_NS = 200_000_000

# Names users know a workload's figures by, mapped to the generic
# end-to-end metric that carries them on the result line.
FIGURE_NAMES = {
    "order-oracle": {"oracle_pairs_per_s": "ops_per_s"},
    "loewner-heinz": {},
    "flow-integrate": {"flow_steps_per_s": "ops_per_s"},
    "cli-session": {"cli_ms_p50": "call_ms_p50", "cli_ms_p75": "call_ms_p75"},
}


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def reference_probe() -> float:
    """Seconds taken by a fixed kernel that does not touch spdorders: small
    symmetric eigendecompositions and a short interpreted loop, the mix the
    workloads run.  It measures how fast this machine runs right now."""
    import numpy as np

    a = np.arange(1.0, 26.0).reshape(5, 5)
    matrix = a @ a.T / 100.0 + np.eye(5)
    start = time.perf_counter()
    for _ in range(PROBE_LOOPS):
        w, v = np.linalg.eigh(matrix)
        acc = float(np.sum((v * w) @ v.T))
        for j in range(64):
            acc += j * 0.5
    return time.perf_counter() - start


class Round:
    __slots__ = ("phases", "units", "latencies_ns", "scales")

    def __init__(self):
        self.phases: list[str] = []
        self.units: list[int] = []
        self.latencies_ns: list[int] = []
        # multiply a call's latency by its scale to express it at the
        # reference speed
        self.scales: list[float] = []

    def times_ns(self, normalized: bool) -> list[float]:
        if not normalized:
            return list(self.latencies_ns)
        return [ns * scale for ns, scale in zip(self.latencies_ns, self.scales)]


class Totals:
    """Every call of a run.  A reference probe runs whenever PROBE_EVERY_NS
    of calls have passed since the last one, and at the end of every round;
    each call is rescaled by the two probes that bracket it."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.rounds: list[Round] = []
        self._probe_s: float | None = None

    def add_round(self, calls, tracer=None):
        if self._probe_s is None:
            self._probe_s = reference_probe()
        rnd = Round()
        pending_ns = 0  # call time since the last probe
        for i, call in enumerate(calls):
            call_start = time.perf_counter_ns()
            try:
                if tracer is None:
                    units, attempted, failed = call.run()
                else:
                    with tracer.span(f"bench.{call.label}"):
                        units, attempted, failed = call.run()
            except Exception:  # a call that raises is a failed operation, not a crashed run
                traceback.print_exc()
                units, attempted, failed = 0, 1, 1
            elapsed = time.perf_counter_ns() - call_start
            rnd.phases.append(call.phase)
            rnd.units.append(units)
            rnd.latencies_ns.append(elapsed)
            self.attempted += attempted
            self.failed += failed
            pending_ns += elapsed
            if i == len(calls) - 1 or pending_ns >= PROBE_EVERY_NS:
                before, self._probe_s = self._probe_s, reference_probe()
                scale = REF_PROBE_S / ((before + self._probe_s) / 2)
                rnd.scales.extend([scale] * (len(rnd.latencies_ns) - len(rnd.scales)))
                pending_ns = 0
        self.rounds.append(rnd)

    def scales(self) -> list[float]:
        return [scale for r in self.rounds for scale in r.scales]

    def wall_s(self, normalized: bool) -> float:
        """Time spent in calls."""
        return sum(sum(r.times_ns(normalized)) for r in self.rounds) / 1e9

    def rate(self, normalized: bool, phase: str | None = None) -> float:
        """Units done per second of call time, over the whole run."""
        units = ns = 0
        for r in self.rounds:
            for p, u, t in zip(r.phases, r.units, r.times_ns(normalized)):
                if phase is None or p == phase:
                    units += u
                    ns += t
        return units / (ns / 1e9)

    def latency_ms(self, q: int, normalized: bool) -> float:
        """The q-th percentile of call latency, pooled over every call."""
        lat = [t for r in self.rounds for t in r.times_ns(normalized)]
        if len(lat) == 1:
            return lat[0] / 1e6
        return statistics.quantiles(lat, n=100, method="inclusive")[q - 1] / 1e6


def probe_ms(totals: list[Totals]) -> float:
    """The median reference probe time of a run: the host's speed, which
    raw per-layer times can be set against."""
    return statistics.median(REF_PROBE_S / scale for t in totals for scale in t.scales()) * 1e3


def prepare(workload: str, seed: int, workdir: Path):
    import workloads as wl

    if workload == "cli-session":
        env = dict(os.environ, PYTHONPATH=str(SRC))
        return wl.setup_cli_session(seed, workdir, ROOT, env)
    setup = {
        "order-oracle": wl.setup_order_oracle,
        "loewner-heinz": wl.setup_loewner_heinz,
        "flow-integrate": wl.setup_flow_integrate,
    }[workload]
    return setup(seed, workdir)


def timed_setup(workload: str, seed: int, workdir: Path):
    """Generate the inputs and run the round's first call once (lazy
    initialisation, file cache); return (prepared, seconds)."""
    start = time.perf_counter()
    prepared = prepare(workload, seed, workdir)
    prepared.round[0].run()
    return prepared, time.perf_counter() - start


def peak_rss_mb(workload: str) -> float:
    # the user-visible process of cli-session is the CLI child, not this driver
    who = resource.RUSAGE_CHILDREN if workload == "cli-session" else resource.RUSAGE_SELF
    return resource.getrusage(who).ru_maxrss / 1024.0  # ru_maxrss is in KiB on Linux


def env_stamp(seed: int) -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    try:
        commit = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "HEAD"], capture_output=True, text=True, timeout=30
        ).stdout.strip() or "unknown"
    except OSError:
        commit = "unknown"
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas.get("name"),
        "blas_version": blas.get("version"),
        "openblas_num_threads": os.environ["OPENBLAS_NUM_THREADS"],
        "commit": commit,
        "seed": seed,
    }


def metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def measure(args, workdir: Path):
    """Untraced run: end-to-end metrics, with times expressed at the
    reference speed; the raw wall-clock figures go to the info line."""
    setups = []
    probe_s = reference_probe()
    for _ in range(SETUP_REPEATS):
        prepared, seconds = timed_setup(args.workload, args.seed, workdir)
        before, probe_s = probe_s, reference_probe()
        setups.append((seconds * REF_PROBE_S / ((before + probe_s) / 2), seconds))
    for key in prepared.counters:
        prepared.counters[key] = 0
    totals = Totals()
    deadline = time.perf_counter_ns() + int(args.seconds * 1e9)
    while not totals.rounds or time.perf_counter_ns() < deadline:
        totals.add_round(prepared.round)

    def e2e(normalized: bool) -> dict:
        return {
            "setup_s": metric(statistics.median(s[0 if normalized else 1] for s in setups), "s"),
            "peak_rss_mb": metric(peak_rss_mb(args.workload), "MB"),
            "ops_per_s": metric(totals.rate(normalized), "1/s"),
            "call_ms_p50": metric(totals.latency_ms(50, normalized), "ms"),
            "call_ms_p75": metric(totals.latency_ms(75, normalized), "ms"),
        }

    metrics = e2e(True)
    raw = e2e(False)
    figures = {name: metrics[generic] for name, generic in FIGURE_NAMES[args.workload].items()}
    if args.workload == "loewner-heinz":
        for phase in ("dp_samples", "interval_checks"):
            figures[f"{phase}_per_s"] = metric(totals.rate(True, phase), "1/s")
    figures["fail_ratio"] = metric(totals.failed / totals.attempted, "1")
    figures["calls"] = metric(sum(len(r.latencies_ns) for r in totals.rounds), "count")
    figures["rounds"] = metric(len(totals.rounds), "count")
    figures["speed"] = metric(statistics.median(totals.scales()), "1")
    figures["probe_ms"] = metric(probe_ms([totals]), "ms")
    return totals.attempted, totals.failed, metrics, {"figures": figures, "wall_clock": raw}


def import_breakdown(repeats: int = 5) -> dict:
    """Fresh interpreters: the wall time of one running `pass`, and, from
    `-X importtime` in one running `import spdorders`, the cumulative time
    of the numpy import and what spdorders adds beyond it.  Medians in
    milliseconds.  Subtracting the wall times of separate `import numpy`
    and `import spdorders` processes instead is lost in process-start
    noise: it read -0.1 ms for an import of about 45 ms."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    start_ms, numpy_ms, own_ms = [], [], []
    for _ in range(repeats):
        start = time.perf_counter()
        subprocess.run([sys.executable, "-c", "pass"], cwd=ROOT, env=env, check=True, timeout=120)
        start_ms.append((time.perf_counter() - start) * 1e3)
        proc = subprocess.run(
            [sys.executable, "-X", "importtime", "-c", "import spdorders"],
            cwd=ROOT, env=env, check=True, timeout=120, capture_output=True, text=True,
        )
        cumulative_ms = {}
        for line in proc.stderr.splitlines():  # "import time: self | cumulative | name", in us
            fields = line.split("|")
            if len(fields) == 3 and fields[1].strip().isdigit():
                cumulative_ms[fields[2].strip()] = int(fields[1]) / 1e3
        numpy_ms.append(cumulative_ms.get("numpy", 0.0))
        own_ms.append(cumulative_ms["spdorders"] - numpy_ms[-1])
    return {
        "cli.python_start_ms": statistics.median(start_ms),
        "cli.numpy_import_ms": statistics.median(numpy_ms),
        "cli.import_ms": statistics.median(own_ms),
    }


CLI_SUBCOMMANDS = ("validate", "order", "cone-member", "geodesic", "mean", "monotone", "flow",
                   "viz2-section", "viz2-leaf")


def layer_metrics(tracer, rounds: int, counters: dict) -> dict:
    """Per-layer figures from the spans of `rounds` traced rounds.  `.calls`
    is calls per round, `.us` and `.self_ms` are mean self time per call,
    `.ms` is mean inclusive time per call.  Layers a workload never calls
    read 0."""
    rows = tracer.summary()
    empty = {"calls": 0, "total_ns": 0, "self_ns": 0, "by_parent": {}}

    def mean(name, key, scale):
        row = rows.get(name, empty)
        return row[key] / row["calls"] / scale if row["calls"] else 0.0

    out = {}
    for name, unit, key, scale in (
        ("core.SpdMatrix", "us", "self_ns", 1e3),
        ("core.random_spd", "us", "self_ns", 1e3),
        ("core.matrix_function", "us", "self_ns", 1e3),
        ("cones.cone_membership", "us", "self_ns", 1e3),
        ("cones.sample_cone_tangent", "us", "self_ns", 1e3),
        ("geometry.relative_eigenframe", "us", "self_ns", 1e3),
        ("geometry.riemannian_exp", "us", "self_ns", 1e3),
        ("orders.order_compare", "us", "self_ns", 1e3),
        ("orders.conal_path_oracle", "self_ms", "self_ns", 1e6),
        ("orders.order_interval_sample", "self_ms", "self_ns", 1e6),
        ("monotone.map_differential", "us", "self_ns", 1e3),
        ("monotone.check_differential_positivity", "self_ms", "self_ns", 1e6),
        ("flows.spectrum_drift", "ms", "total_ns", 1e6),
        ("flows.projected_eigenvalues", "ms", "total_ns", 1e6),
        ("io.read_matrix_file", "us", "self_ns", 1e3),
        ("io.read_cone_spec_file", "us", "self_ns", 1e3),
        ("viz2.cone_cross_section", "ms", "total_ns", 1e6),
    ):
        out[f"{name}.calls"] = rows.get(name, empty)["calls"] / rounds
        out[f"{name}.{unit}"] = mean(name, key, scale)

    points = counters.get("interval_points", 0)
    compares = rows.get("orders.order_compare", empty)["by_parent"].get("orders.order_interval_sample", 0)
    out["orders.order_interval_sample.compares_per_point"] = compares / points if points else 0.0
    out["monotone.violations_stored"] = counters.get("violations_stored", 0) / rounds
    out["monotone.samples_tested"] = counters.get("samples_tested", 0) / rounds
    steps = counters.get("flow_steps", 0)
    out["flows.integrate_flow.steps"] = steps / rounds
    out["flows.integrate_flow.us_per_step"] = (
        rows.get("flows.integrate_flow", empty)["total_ns"] / steps / 1e3 if steps else 0.0
    )

    # cli.main per subcommand: inclusive time of each cli.main span, keyed
    # by the label of the benchmark call span that caused it
    per_label: dict[str, list[int]] = {}
    for idx, start, end, parent in tracer.spans:
        if tracer.names[idx] == "cli.main" and parent >= 0:
            label = tracer.names[tracer.spans[parent][0]].removeprefix("bench.")
            per_label.setdefault(label, []).append(end - start)
    for label in CLI_SUBCOMMANDS:
        times = per_label.get(label)
        out[f"cli.main.ms.{label}"] = sum(times) / len(times) / 1e6 if times else 0.0
    return out


def layer_unit(name: str) -> str:
    if name.endswith((".calls", ".steps", ".violations_stored", ".samples_tested", ".compares_per_point")):
        return "count"
    if name == "trace_overhead":
        return "ratio"
    if name.endswith((".us", ".us_per_step")):
        return "us"
    return "ms"


def trace(args, workdir: Path):
    """Traced run: whole rounds untraced, then the same number traced."""
    from tracer import Tracer

    prepared, _ = timed_setup(args.workload, args.seed, workdir)
    # cli-session is traced in-process, calling cli.main with the same argv
    calls = prepared.inprocess_round or prepared.round
    baseline = Totals()
    deadline = time.perf_counter_ns() + int(args.seconds * TRACE_BASELINE_SHARE * 1e9)
    while not baseline.rounds or (time.perf_counter_ns() < deadline and len(baseline.rounds) < TRACE_MAX_ROUNDS):
        baseline.add_round(calls)

    for key in prepared.counters:
        prepared.counters[key] = 0
    tracer = Tracer()
    traced = Totals()
    tracer.install()
    try:
        for _ in baseline.rounds:
            traced.add_round(calls, tracer)
    finally:
        tracer.uninstall()

    metrics = layer_metrics(tracer, len(traced.rounds), prepared.counters)
    metrics["trace_overhead"] = traced.wall_s(True) / baseline.wall_s(True)
    if args.workload == "cli-session":
        metrics.update(import_breakdown())
    else:
        metrics.update({"cli.python_start_ms": 0.0, "cli.numpy_import_ms": 0.0, "cli.import_ms": 0.0})
    return baseline, traced, tracer, metrics


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "spdorders" / "__init__.py").is_file():
        sys.stderr.write(f"perfbench: no spdorders package under {SRC}; run from a full checkout\n")
        return 2
    if args.seconds <= 0:
        sys.stderr.write("perfbench: --seconds must be positive\n")
        return 2
    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(Path(__file__).resolve().parent))

    work_root = ROOT / ".bench_build" / "perfbench"
    workdir = work_root / f"{args.workload}-{os.getpid()}"
    tracer = None
    try:
        if args.trace:
            baseline, traced, tracer, layer = trace(args, workdir)
            attempted = baseline.attempted + traced.attempted
            failed = baseline.failed + traced.failed
            metrics = {name: metric(value, layer_unit(name)) for name, value in sorted(layer.items())}
            extra = {"figures": {"fail_ratio": metric(failed / attempted, "1"),
                                 "rounds": metric(len(traced.rounds), "count"),
                                 "probe_ms": metric(probe_ms([baseline, traced]), "ms")}}
        else:
            attempted, failed, metrics, extra = measure(args, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    stamp = env_stamp(args.seed)
    info = {"workload": args.workload, "trace": args.trace, "env": stamp, **extra}
    if tracer is not None:
        trace_path = work_root / f"trace-{args.workload}.json"
        tracer.dump(trace_path, {"workload": args.workload, "env": stamp, "rounds": len(traced.rounds)})
        info["trace_file"] = str(trace_path.relative_to(ROOT))
    print(json.dumps(info))
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    raise SystemExit(main())
