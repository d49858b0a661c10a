"""Write the pinned report leaves that ``tests/test_pinned_reports.py`` compares against.

Runs every ``configs/*.cfg`` and the three benchmark workload configs
of ``perfbench/workloads.py`` at seed 11, in process, exactly as
``scripts/report_digest.py`` does, and writes ``tests/data/reports_seed11.json``:
per config its exit code and, per report file, every scalar leaf by its
path (``/checks/0/value``), with ``wall_time_s`` dropped.  Floats are
written in their shortest round-trip form, so the file holds the exact
values and the sign of each zero.

A change that moves a pinned number regenerates the file with

    python3 scripts/pin_reports.py

and states which leaves moved and by how much, from
``python3 scripts/report_digest.py 11 --against <parent>``.

Usage: python3 scripts/pin_reports.py
"""

import json
import tempfile
from pathlib import Path

from report_digest import ROOT, configs, leaves, load, run_here

SEED = 11
PIN = ROOT / "tests" / "data" / f"reports_seed{SEED}.json"


def collect(seed: int = SEED) -> dict:
    """``{config: {"exit": rc, "reports": {file: {leaf path: value}}}}`` of one run of every config."""
    runs = {}
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        for label, config in configs(seed, tmp):
            out = tmp / "out" / label
            rc = run_here(config, out)
            reports = {p.name: dict(leaves(load(p))) for p in sorted(out.glob("*.json"))}
            runs[label] = {"exit": rc, "reports": reports}
    return runs


def main() -> None:
    PIN.parent.mkdir(exist_ok=True)
    PIN.write_text(json.dumps({"seed": SEED, "runs": collect()}, indent=1) + "\n", encoding="utf-8")
    print(f"wrote {PIN.relative_to(ROOT)}")


if __name__ == "__main__":
    main()
