"""One sha256 per CLI report, with the run time left out.

Runs every ``configs/*.cfg`` and the three benchmark workload configs
of ``perfbench/workloads.py`` at the given seed, each into its own
temporary directory, and prints one line per output file:
``<sha256>  <config>/<file>``.  A report's ``wall_time_s`` is dropped
before hashing, so two checkouts that compute the same numbers print
the same lines, and comparing them is one diff:

    python3 scripts/report_digest.py 11 > before.txt   # in one checkout
    python3 scripts/report_digest.py 11 > after.txt    # in the other
    diff before.txt after.txt

The package and the workload generators are imported from the checkout
this script lives in.

Usage: python3 scripts/report_digest.py SEED
"""

import argparse
import contextlib
import hashlib
import io
import json
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]

import workloads  # noqa: E402
from algebroids import cli  # noqa: E402


def digest(path: Path) -> str:
    """sha256 of a JSON output, with a report's wall time removed."""
    data = json.loads(path.read_text(encoding="utf-8"))
    if isinstance(data, dict):
        data.pop("wall_time_s", None)
    text = json.dumps(data, sort_keys=True, indent=2)
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def run(label: str, config: Path, out: Path) -> list[str]:
    with contextlib.redirect_stdout(io.StringIO()):
        rc = cli.main(["run", str(config), "--out", str(out)])
    lines = [f"{digest(p)}  {label}/{p.name}" for p in sorted(out.glob("*.json"))]
    return lines + [f"exit {rc}  {label}"]


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("seed", type=int, help="seed of the benchmark workload configs")
    args = ap.parse_args()

    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        for config in sorted((ROOT / "configs").glob("*.cfg")):
            for line in run(config.stem, config, tmp / config.stem):
                print(line)
        for name, (make, N) in workloads.WORKLOADS.items():
            config = tmp / f"{name}.cfg"
            config.write_text(make(args.seed, N).text, encoding="utf-8")
            for line in run(name, config, tmp / name):
                print(line)


if __name__ == "__main__":
    main()
