"""File-driven command line front end.

Every subcommand is a thin shim over the library: inputs are the shared
matrix/cone-spec documents, output is deterministic structured text on
stdout.  Exit codes: 0 success, 1 verdict-level findings (violations
found, membership failed, validation rejected), 2 malformed input or an
unreadable or unwritable file, 3 an internal error (an exception that is
not an SpdError, which is a defect to report).
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import warnings
from pathlib import Path

from . import io as docio
from .cones import DEFAULT_TOL, cone_membership
from .core import spd_validate
from .errors import NotPositiveDefinite, NotSymmetric, SpdError
from .flows import integrate_flow, projected_monotonicity, trajectory_csv
from .geometry import geodesic
from .monotone import (
    check_differential_positivity,
    inversion_map,
    power_map,
    scaling_map,
    translation_map,
)
from .orders import order_compare
from .viz2 import cone_cross_section, hyperboloid_leaf, phi


def _emit(obj) -> None:
    sys.stdout.write(json.dumps(obj, sort_keys=True) + "\n")


def _float(text: str, what: str) -> float:
    try:
        return float(text)
    except ValueError:
        raise SpdError(f"{what} must be a number, got {text!r}") from None


def _tolerance(args) -> float:
    raw = args.tol
    if raw is None:
        raw = os.environ.get("SPD_ORDER_TOL")
    tol = DEFAULT_TOL if raw is None else _float(raw, "SPD_ORDER_TOL")
    if not (1e-14 <= tol <= 1e-4):
        raise SpdError(f"tolerance {tol:g} outside [1e-14, 1e-4]")
    return tol


def _parse_map(text: str):
    if text == "inv":
        return inversion_map()
    if text.startswith("power:"):
        return power_map(_float(text.split(":", 1)[1], "power exponent"))
    if text.startswith("scale:"):
        return scaling_map(_float(text.split(":", 1)[1], "scale factor"))
    if text.startswith("translate:"):
        return translation_map(docio.read_matrix_file(text.split(":", 1)[1]))
    raise SpdError(f"unknown map {text!r}; use power:<r>, inv, scale:<l>, translate:<c.json>")


def _cmd_validate(args) -> int:
    raw = docio.read_matrix_file(args.matrix)
    try:
        mat = spd_validate(raw)
    except (NotSymmetric, NotPositiveDefinite) as exc:
        _emit({"valid": False, "error": type(exc).__name__, "detail": str(exc)})
        return 1
    _emit({"valid": True, "n": mat.n})
    return 0


def _cmd_order(args) -> int:
    tol = _tolerance(args)
    spec = docio.read_cone_spec_file(args.cone)
    a = spd_validate(docio.read_matrix_file(args.a))
    b = spd_validate(docio.read_matrix_file(args.b))
    verdict = order_compare(spec, a, b, tol=tol)
    _emit({
        "relation": verdict.relation,
        "forward_margin": verdict.forward_margin,
        "reverse_margin": verdict.reverse_margin,
    })
    return 0


def _cmd_cone_member(args) -> int:
    tol = _tolerance(args)
    spec = docio.read_cone_spec_file(args.cone)
    sigma = spd_validate(docio.read_matrix_file(args.at))
    direction = docio.read_matrix_file(args.direction)
    report = cone_membership(spec, sigma, direction, tol=tol)
    _emit({
        "inside": report.inside,
        "margin": report.margin,
        "binding_constraint": report.binding_constraint,
    })
    return 0 if report.inside else 1


def _cmd_geodesic(args) -> int:
    a = spd_validate(docio.read_matrix_file(args.a))
    b = spd_validate(docio.read_matrix_file(args.b))
    sys.stdout.write(docio.matrix_document(geodesic(a, b, args.t).entries))
    return 0


def _cmd_monotone(args) -> int:
    tol = _tolerance(args)
    spec = docio.read_cone_spec_file(args.cone)
    smap = _parse_map(args.map)
    report = check_differential_positivity(
        smap, spec, seed=args.seed, n_points=args.points, n_directions=args.dirs, tol=tol
    )
    _emit(report.to_dict())
    return 1 if report.violations else 0


def _cmd_flow(args) -> int:
    raw = docio.read_matrix_file(args.x0)
    traj = integrate_flow(args.kind, raw, t_end=args.t_end, step=args.step)
    summary = {
        "kind": traj.flow_kind,
        "n": traj.n,
        "steps": len(traj.times) - 1,
        "t_end": traj.times[-1],
        "spectrum_drift": traj.spectrum_drift(),
    }
    monotone_ok = True
    if args.r is not None:
        monotone_ok, worst = projected_monotonicity(traj, args.r)
        summary["projected_rank"] = args.r
        summary["projected_monotone"] = monotone_ok
        summary["worst_step_decrease"] = worst
    if args.out:
        docio.write_text_file(args.out, trajectory_csv(traj))
        summary["written"] = args.out
    _emit(summary)
    return 0 if monotone_ok else 1


def _cmd_viz2(args) -> int:
    if args.what == "section" and (args.cone is None or args.at is None):
        raise SpdError("viz2 section needs --cone and --at")
    if args.what == "section":
        spec = docio.read_cone_spec_file(args.cone)
        sigma = spd_validate(docio.read_matrix_file(args.at))
        rows = cone_cross_section(spec, phi(sigma), args.resolution)
        name, header = docio.section_filename(spec), ("dx", "dy", "dz")
    else:
        rows = hyperboloid_leaf(args.c, args.resolution).reshape(-1, 3)
        name, header = docio.leaf_filename(args.c), ("x", "y", "z")
    outdir = Path(args.outdir)
    try:
        outdir.mkdir(parents=True, exist_ok=True)  # only once the export has succeeded
    except OSError as exc:
        raise SpdError(f"cannot create directory {outdir}: {exc.strerror or exc}") from exc
    path = outdir / name
    docio.write_rows_csv(path, rows, header=header)
    _emit({"written": str(path)})
    return 0


class _Parser(argparse.ArgumentParser):
    """Reports usage errors as SpdError, so main prints them as one line."""

    def error(self, message):
        raise SpdError(message)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="spdorders",
        description="Cone fields, partial orders, monotonicity checks and "
                    "isospectral flows on symmetric positive definite matrices.",
    )
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--tol", type=float, default=None,
                        help="membership tolerance override (also via SPD_ORDER_TOL)")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("validate", help="validate a matrix document as SPD")
    p.add_argument("matrix")
    p.set_defaults(func=_cmd_validate)

    p = sub.add_parser("order", parents=[common], help="compare two SPD matrices under a cone order")
    p.add_argument("--cone", required=True)
    p.add_argument("a")
    p.add_argument("b")
    p.set_defaults(func=_cmd_order)

    p = sub.add_parser("cone-member", parents=[common], help="test a tangent against the cone at a point")
    p.add_argument("--cone", required=True)
    p.add_argument("--at", required=True)
    p.add_argument("--dir", dest="direction", required=True)
    p.set_defaults(func=_cmd_cone_member)

    p = sub.add_parser("geodesic", help="point on the invariant geodesic")
    p.add_argument("--t", type=float, required=True)
    p.add_argument("a")
    p.add_argument("b")
    p.set_defaults(func=_cmd_geodesic)

    p = sub.add_parser("mean", help="geometric mean of two SPD matrices")
    p.add_argument("a")
    p.add_argument("b")
    p.set_defaults(func=_cmd_geodesic, t=0.5)  # the geometric mean is the geodesic midpoint

    p = sub.add_parser("monotone", parents=[common], help="sample a map for differential positivity")
    p.add_argument("--map", required=True, help="power:<r> | inv | scale:<l> | translate:<c.json>")
    p.add_argument("--cone", required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--points", type=int, default=100)
    p.add_argument("--dirs", type=int, default=10)
    p.set_defaults(func=_cmd_monotone)

    p = sub.add_parser("flow", help="integrate an isospectral flow")
    p.add_argument("--kind", choices=("toda", "qr"), required=True)
    p.add_argument("--t-end", type=float, required=True)
    p.add_argument("--step", type=float, required=True)
    p.add_argument("--r", type=int, default=None, help="monitor projected eigenvalues of the leading r x r block")
    p.add_argument("--out", default=None, help="write the trajectory CSV here")
    p.add_argument("x0")
    p.set_defaults(func=_cmd_flow)

    p = sub.add_parser("viz2", help="export the n=2 cone picture as CSV")
    p.add_argument("what", choices=("section", "leaf"))
    p.add_argument("--cone", help="cone spec document (section)")
    p.add_argument("--at", help="base point matrix document (section)")
    p.add_argument("--c", type=float, default=2.0, help="leaf label z^2 - x^2 - y^2 (leaf)")
    p.add_argument("--resolution", type=int, default=64)
    p.add_argument("--outdir", default=".")
    p.set_defaults(func=_cmd_viz2)

    return parser


MAX_STDERR_LINE = 300


def _stderr_line(text: str) -> None:
    """Write one diagnostic line: whitespace collapsed, cut to
    MAX_STDERR_LINE characters ending in "..."."""
    line = " ".join(text.split())
    if len(line) > MAX_STDERR_LINE:
        line = line[:MAX_STDERR_LINE - 3] + "..."
    sys.stderr.write(line + "\n")


def main(argv=None) -> int:
    """Run one command.  Exit 2 prints only its one error: line, and exit 3
    only its one internal error: line; after exit 0 or 1, each distinct
    warning the command raised prints as one line.  Every stderr line is
    bounded by MAX_STDERR_LINE."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            args = build_parser().parse_args(argv)
            code = args.func(args)
        except SpdError as exc:
            _stderr_line(f"error: {exc}")
            return 2
        except Exception as exc:  # a defect, not a verdict: never exit 1
            _stderr_line(f"internal error: {type(exc).__name__}: {exc}")
            return 3
    for message in dict.fromkeys(str(w.message) for w in caught):
        _stderr_line(f"warning: {message}")
    return code


if __name__ == "__main__":
    raise SystemExit(main())
