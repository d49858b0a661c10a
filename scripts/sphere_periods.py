"""Monodromy periods of the round sphere at several wrapping degrees.

Builds the Jacobi extension of the area bivector on spherical
coordinates, then measures the kernel period of the degree-d covering
square for d = 1..degrees.  The periods should land on 4*pi*d, and the
relation finder should recognise the family as one rational class with
generator 4*pi.

``--map affine`` (the default) wraps each square by the affine map of
the benchmark workload, whose theta reads t1 alone and phi t2 alone.
``--map wavy`` bends it in both angles, so that every point coordinate
of the grid varies along both time axes (the map of
``test_a_sphere_map_that_is_not_separable_has_period_total_area``):

    theta = eps + (pi - 2 eps) t1 + 0.01 sin(pi t1) sin(2 pi t2)
    phi   = 2 pi d t2 + 0.05 sin(pi t1)

Usage: python3 scripts/sphere_periods.py [--degrees 3] [--grid 256] [--map affine|wavy]
"""

import argparse
import math

from algebroids import Chart, make_jacobi_extension, monodromy_group, tangent_lift

PI = math.pi


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--degrees", type=int, default=3, help="largest wrapping degree")
    ap.add_argument("--grid", type=int, default=256, help="grid points per cube axis")
    ap.add_argument("--eps", type=float, default=1e-3, help="polar-cap cutoff")
    ap.add_argument("--map", choices=("affine", "wavy"), default="affine", help="the map of each square")
    args = ap.parse_args()

    eps = args.eps
    chart = Chart(
        coords=("th", "ph"),
        box=((eps / 2, PI - eps / 2), (-0.1, 2 * PI * args.degrees + 0.1)),
    )
    A = make_jacobi_extension(chart, {(0, 1): "1/sin(th)"})
    splitting = [["0", "0"], ["0", "sin(th)"], ["-sin(th)", "0"]]

    def components(d: int) -> list[str]:
        if args.map == "affine":
            return [f"{eps} + {PI - 2 * eps}*t1", f"{2 * PI * d}*t2"]
        return [
            f"{eps} + {PI - 2 * eps}*t1 + 0.01*sin({PI}*t1)*sin({2 * PI}*t2)",
            f"{2 * PI * d}*t2 + 0.05*sin({PI}*t1)",
        ]

    cubes = [tangent_lift(chart, components(d), 2, args.grid) for d in range(1, args.degrees + 1)]
    labels = [f"deg{d}" for d in range(1, args.degrees + 1)]
    report = monodromy_group(A, splitting, cubes, labels=labels)

    print(f"{args.map} map, polar cutoff {eps}, grid {args.grid}")
    print(f"{'degree':>6} {'period':>14} {'4*pi*d':>14} {'error':>11} {'estimate':>11}")
    for d, period, est in zip(range(1, args.degrees + 1), report.periods, report.est_errors):
        target = 4 * PI * d
        print(f"{d:>6} {period:>14.9f} {target:>14.9f} {abs(period - target):>11.3e} {est:>11.3e}")
    print()
    print(report.summary())
    if report.generator is not None:
        print(f"generator / 4*pi = {report.generator / (4 * PI):.9f}")


if __name__ == "__main__":
    main()
