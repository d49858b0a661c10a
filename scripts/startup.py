"""Start-up wall time of fresh processes: the interpreter, numpy, the CLI import and each ``describe``.

Runs k rounds; each round starts one fresh process per probe, in turn:

- ``python -c pass`` and ``python -c "import numpy"``: the floor that
  no change to the package can lower;
- ``python -c "import algebroids.cli"``;
- ``python -m algebroids describe <config>`` for each ``configs/*.cfg``;

and prints per probe the median and quartiles of the wall times in ms.
Then it prints, per config, the ``algebroids.*`` modules that a
``describe`` left loaded.  The environment is passed through as it is,
so ``PYTHONDONTWRITEBYTECODE`` decides whether the package is compiled
from source in every process; the header says which.

``--against OTHER`` runs every package probe with the package of the
checkout ``OTHER`` too, alternating which checkout goes first from one
round to the next, and adds its figures and the change of the medians:

    python3 scripts/startup.py -k 15 --against ../parent

Usage: python3 scripts/startup.py [-k K] [--against OTHER]
"""

import argparse
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
CONFIGS = sorted((ROOT / "configs").glob("*.cfg"))
LOADED = """
import contextlib, io, sys
from algebroids.cli import main
with contextlib.redirect_stdout(io.StringIO()):
    assert main(["describe", sys.argv[1]]) == 0
print(" ".join(sorted(m for m in sys.modules if m.startswith("algebroids"))))
"""


def env_for(checkout: Path) -> dict:
    return dict(os.environ, PYTHONPATH=str(checkout.resolve() / "src"))


def wall_ms(args: list[str], env: dict) -> float:
    start = time.perf_counter()
    subprocess.run([sys.executable, *args], env=env, cwd=ROOT, stdout=subprocess.DEVNULL, check=True)
    return 1e3 * (time.perf_counter() - start)


def spread(times: list[float]) -> str:
    q1, q2, q3 = statistics.quantiles(times, n=4)
    return f"{q2:7.1f} ({q1:.1f}-{q3:.1f})"


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("-k", type=int, default=9, help="rounds of fresh processes, at least 2 (default 9)")
    ap.add_argument("--against", type=Path, metavar="OTHER", help="checkout to compare with")
    args = ap.parse_args()
    if args.k < 2:
        ap.error("-k must be at least 2, for quartiles")

    probes = [("python -c pass", ["-c", "pass"], False), ("import numpy", ["-c", "import numpy"], False)]
    probes.append(("import algebroids.cli", ["-c", "import algebroids.cli"], True))
    probes += [(f"describe {c.name}", ["-m", "algebroids", "describe", str(c)], True) for c in CONFIGS]
    sides = {"here": env_for(ROOT)}
    if args.against is not None:
        sides["other"] = env_for(args.against)
    times = {(label, side): [] for label, _, _ in probes for side in sides}
    for i in range(args.k):
        order = list(sides) if i % 2 == 0 else list(sides)[::-1]
        for label, argv, package in probes:
            for side in order if package else ["here"]:
                times[label, side].append(wall_ms(argv, sides[side]))

    print(f"{sys.executable}, Python {sys.version.split()[0]}, {os.cpu_count()} CPUs, k = {args.k}")
    print(f"PYTHONDONTWRITEBYTECODE={os.environ.get('PYTHONDONTWRITEBYTECODE', '')!r} "
          f"PYTHONPYCACHEPREFIX={os.environ.get('PYTHONPYCACHEPREFIX', '')!r}")
    print(f"{'probe':<32}{'here: median (q1-q3) ms':>26}" + (f"{'other':>26}{'change':>9}" if len(sides) > 1 else ""))
    for label, _, package in probes:
        line = f"{label:<32}{spread(times[label, 'here']):>26}"
        if package and len(sides) > 1:
            here, other = (statistics.median(times[label, s]) for s in ("here", "other"))
            line += f"{spread(times[label, 'other']):>26}{(here - other) / other:>+9.1%}"
        print(line)
    for side, env in sides.items():
        for config in CONFIGS:
            proc = subprocess.run([sys.executable, "-c", LOADED, str(config)], env=env, cwd=ROOT,
                                  capture_output=True, text=True, check=True)
            print(f"{side} describe {config.name} loaded: {proc.stdout.strip()}")


if __name__ == "__main__":
    main()
