"""One sha256 per CLI report, with the run time left out, or the drift against another checkout.

Runs every ``configs/*.cfg`` and the three benchmark workload configs
of ``perfbench/workloads.py`` at the given seed, each into its own
temporary directory, and prints one line per output file:
``<sha256>  <config>/<file>``.  A report's ``wall_time_s`` is dropped
before hashing, so two checkouts that compute the same numbers print
the same lines, and comparing them is one diff:

    python3 scripts/report_digest.py 11 > before.txt   # in one checkout
    python3 scripts/report_digest.py 11 > after.txt    # in the other
    diff before.txt after.txt

Hashes cannot tell a change of summation order from a regression.
``--against OTHER`` runs the same configs with the package of the
checkout ``OTHER`` too (``python -m algebroids run`` with
``OTHER/src`` on the path) and prints, per output file and instead of
its hash, the largest absolute and relative difference between the
numeric leaves of the two reports, then the largest of each over all
files.  A leaf that is zero in one report reads relative 1.  A leaf
present in only one report, a differing non-numeric leaf, or a zero
leaf whose sign differs (``0.0`` against ``-0.0``, which the absolute
difference cannot see) is printed by name:

    python3 scripts/report_digest.py 11 --against ../parent

The package and the workload generators are otherwise imported from the
checkout this script lives in.

Usage: python3 scripts/report_digest.py SEED [--against OTHER]
"""

import argparse
import contextlib
import hashlib
import io
import json
import math
import os
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]

import workloads  # noqa: E402
from algebroids import cli  # noqa: E402


def load(path: Path):
    """A JSON output, with a report's wall time removed."""
    data = json.loads(path.read_text(encoding="utf-8"))
    if isinstance(data, dict):
        data.pop("wall_time_s", None)
    return data


def digest(path: Path) -> str:
    text = json.dumps(load(path), sort_keys=True, indent=2)
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def leaves(data, path: str = ""):
    """(path, value) for every scalar of a JSON document."""
    if isinstance(data, dict):
        for key in sorted(data):
            yield from leaves(data[key], f"{path}/{key}")
    elif isinstance(data, list):
        for i, item in enumerate(data):
            yield from leaves(item, f"{path}/{i}")
    else:
        yield path, data


def drift(a: Path, b: Path) -> tuple[float, float, list[str]]:
    """Largest absolute and relative difference of the numeric leaves, and the mismatched leaves."""
    left, right = dict(leaves(load(a))), dict(leaves(load(b)))
    worst_abs = worst_rel = 0.0
    mismatched = sorted(set(left) ^ set(right))
    for key in sorted(set(left) & set(right)):
        x, y = left[key], right[key]
        numeric = all(isinstance(v, (int, float)) and not isinstance(v, bool) for v in (x, y))
        if not numeric:
            if x != y:
                mismatched.append(key)
            continue
        if x == y == 0 and math.copysign(1, x) != math.copysign(1, y):
            mismatched.append(key)
        gap = abs(x - y)
        worst_abs = max(worst_abs, gap)
        if gap:
            worst_rel = max(worst_rel, gap / max(abs(x), abs(y)))
    return worst_abs, worst_rel, mismatched


def run_here(config: Path, out: Path) -> int:
    with contextlib.redirect_stdout(io.StringIO()):
        return cli.main(["run", str(config), "--out", str(out)])


def run_other(checkout: Path, config: Path, out: Path) -> int:
    env = dict(os.environ, PYTHONPATH=str(checkout.resolve() / "src"))
    cmd = [sys.executable, "-m", "algebroids", "run", str(config), "--out", str(out)]
    return subprocess.run(cmd, env=env, stdout=subprocess.DEVNULL, check=False).returncode


def configs(seed: int, tmp: Path):
    """(label, config path) for every shipped config and every workload at the seed."""
    for config in sorted((ROOT / "configs").glob("*.cfg")):
        yield config.stem, config
    for name, (make, N) in workloads.WORKLOADS.items():
        config = tmp / f"{name}.cfg"
        config.write_text(make(seed, N).text, encoding="utf-8")
        yield name, config


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("seed", type=int, help="seed of the benchmark workload configs")
    ap.add_argument("--against", type=Path, metavar="OTHER", help="checkout to compare values with")
    args = ap.parse_args()

    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        worst_abs = worst_rel = 0.0
        for label, config in configs(args.seed, tmp):
            here = tmp / "here" / label
            rc = run_here(config, here)
            if args.against is None:
                for p in sorted(here.glob("*.json")):
                    print(f"{digest(p)}  {label}/{p.name}")
                print(f"exit {rc}  {label}")
                continue
            there = tmp / "there" / label
            rc_other = run_other(args.against, config, there)
            names = sorted({p.name for p in here.glob("*.json")} | {p.name for p in there.glob("*.json")})
            for name in names:
                if not ((here / name).exists() and (there / name).exists()):
                    print(f"only one checkout wrote {label}/{name}")
                    continue
                gap, rel, mismatched = drift(there / name, here / name)
                worst_abs, worst_rel = max(worst_abs, gap), max(worst_rel, rel)
                print(f"{gap:.3e} abs  {rel:.3e} rel  {label}/{name}")
                for key in mismatched:
                    print(f"  differs: {key}")
            print(f"exit {rc_other} -> {rc}  {label}")
        if args.against is not None:
            print(f"largest: {worst_abs:.3e} abs  {worst_rel:.3e} rel")


if __name__ == "__main__":
    main()
