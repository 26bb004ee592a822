#!/usr/bin/env python3
"""Survey differential positivity of the power maps across cone openings.

For each exponent r and each quadratic cone parameter mu, samples base
points and cone rays, pushes the rays through the differential, and
prints the minimum membership margin at the image (negative margins are
violations) and the exact number of violating samples.  Exponents inside
[0, 1] stay clean; r > 1 breaks every opening, and the Loewner row shows
the classical r > 1 failure.
"""

import argparse

from spdorders import check_differential_positivity, loewner, power_map, quadratic_affine


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--n", type=int, default=3)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--points", type=int, default=50)
    parser.add_argument("--dirs", type=int, default=20)
    args = parser.parse_args()

    n = args.n
    exponents = (0.25, 0.5, 0.75, 1.0, 1.5, 2.0, 3.0)
    mus = (0.25 * n, 0.5 * n, 0.75 * n)
    specs = [(f"quad mu={mu:g}", quadratic_affine(mu, n)) for mu in mus]
    specs.append(("loewner", loewner(n)))

    header = f"{'cone / r':>14} " + " ".join(f"{r:>15g}" for r in exponents)
    print(header)
    print("-" * len(header))
    for name, spec in specs:
        cells = []
        for r in exponents:
            report = check_differential_positivity(
                power_map(r), spec, seed=args.seed, n_points=args.points, n_directions=args.dirs
            )
            mark = " " if report.is_positive else "*"
            cells.append(f"{report.min_output_margin:>9.2e}{mark}{report.violation_count:>5}")
        print(f"{name:>14} " + " ".join(cells))
    print("\n(*) violations found; the number after each margin counts the samples whose ray the"
          " differential pushed outside.")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
