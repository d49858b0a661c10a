"""Smoke test of the benchmark itself, at tiny N on all three workloads.

    python3 perfbench/selftest.py

Checks that an untraced and a traced invocation of each workload emit
exactly the metric names and units of ``BENCHMARK.json`` (plus the gate
figures), that every per-layer metric is nonzero on at least one
workload, that the correctness gate passes, that the module self times
add up to the traced run time, and that no span wrapper is left
installed afterwards.  Exits 0 when every check holds.
"""

from __future__ import annotations

import json
import math
import sys
from functools import cached_property

import run
import workloads

# Smallest sizes whose N/4 rung still meets every task tolerance.
TINY_N = {"transport_square": 16, "plane_lift": 24, "sphere_periods": 128}


def _bindings(modules) -> dict:
    """Every function-like binding in the package namespaces and classes."""
    out = {}
    for ns in modules:
        for key, value in vars(ns).items():
            out[ns.__name__, key] = value
            if isinstance(value, type) and value.__module__ == ns.__name__:
                for ckey, cval in vars(value).items():
                    target = cval.func if isinstance(cval, cached_property) else cval
                    out[ns.__name__, key, ckey] = target
    return out


def main() -> int:
    run.prepare()
    import spans

    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    expected = {
        False: [(m["name"], m["unit"]) for m in spec["end_to_end"]],
        True: [(m["name"], m["unit"]) for m in spec["per_layer"]],
    }
    failures = []

    def check(ok: bool, what: str) -> None:
        print(("ok   " if ok else "FAIL ") + what)
        if not ok:
            failures.append(what)

    measured = set()
    before = _bindings(spans._NAMESPACES)
    for name in workloads.WORKLOADS:
        for trace in (False, True):
            label = f"{name} trace={int(trace)} N={TINY_N[name]}"
            rec = run.measure(name, 1, 0.01, trace, N=TINY_N[name], setup_reps=1)
            emitted = [(k, m["unit"]) for k, m in rec["metrics"].items()]
            check(emitted == expected[trace], f"{label}: metric names and units")
            measured |= {k for k, m in rec["metrics"].items() if trace and m["value"] != 0}
            finite = all(math.isfinite(m["value"]) for m in rec["metrics"].values())
            check(finite, f"{label}: every metric is a finite number")
            check(sorted(rec["gate"]) == sorted(n for n, _ in run.GATE), f"{label}: gate figures")
            check(rec["correct"] and rec["failed"] == 0 and rec["attempted"] > 0,
                  f"{label}: gate passes ({rec['problems']})")
            if trace:
                coverage = rec["self_s_coverage"]
                check(abs(coverage - 1.0) < 0.05, f"{label}: self_s sum / run_s = {coverage:.4f}")
                check(not spans.installed_wrappers(), f"{label}: no wrapper left installed")
                after = _bindings(spans._NAMESPACES)
                moved = [k for k in before if after.get(k) is not before[k]]
                check(not moved, f"{label}: every original binding restored {moved[:3]}")
    never = [name for name, _ in expected[True] if name not in measured]
    check(not never, f"every per-layer metric is nonzero on some workload {never}")
    print(f"{len(failures)} failure(s)")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
