"""Every shipped report at seed 11 matches its pinned leaves.

``tests/data/reports_seed11.json`` holds the exit code of each shipped
config and benchmark workload config and every scalar leaf of its
reports (``wall_time_s`` dropped), written by ``scripts/pin_reports.py``.
This reruns them in process and compares:

- exit codes, PASS/FAIL and every text, boolean and null leaf exactly;
- the type of each number (an int stays an int) and the sign of each zero;
- each float within ``ATOL + RTOL * |pinned|``.

The tolerance is 1e-12 absolute plus 1e-12 relative.  The intended
changes so far moved reported values by at most 5e-14 (a summation
order of the sphere quadrature) and 1.1e-16 (replacing scipy), and
leaves that are round-off, such as a residual of 1e-15, may move by
their own size; all pass.  The acceptance budgets sit at discretisation
error, near 5e-5, so a move of 1e-6 that they cannot see fails here.
A change that moves a pinned number on purpose regenerates the file
with ``python3 scripts/pin_reports.py`` and says so.
"""

import json
import math
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
ATOL = RTOL = 1e-12


def _mismatches(pinned, got) -> list[str]:
    bad = []
    for label, run in pinned.items():
        if label not in got:
            bad.append(f"{label}: not run")
            continue
        if got[label]["exit"] != run["exit"]:
            bad.append(f"{label}: exit {got[label]['exit']}, pinned {run['exit']}")
        reports, now = run["reports"], got[label]["reports"]
        bad += [f"{label}/{name}: not pinned" for name in sorted(set(now) - set(reports))]
        for name, leaves in reports.items():
            where = f"{label}/{name}"
            if name not in now:
                bad.append(f"{where}: not written")
                continue
            bad += [f"{where}{key}: not pinned" for key in sorted(set(now[name]) - set(leaves))]
            for key, want in leaves.items():
                have = now[name].get(key, KeyError)
                if have is KeyError:
                    bad.append(f"{where}{key}: missing")
                elif type(have) is not type(want):
                    bad.append(f"{where}{key}: {have!r}, pinned {want!r}")
                elif isinstance(want, float):
                    if not abs(have - want) <= ATOL + RTOL * abs(want):
                        bad.append(f"{where}{key}: {have!r}, pinned {want!r}")
                    elif want == 0 and math.copysign(1, have) != math.copysign(1, want):
                        bad.append(f"{where}{key}: {have!r}, pinned {want!r} (sign of zero)")
                elif have != want:
                    bad.append(f"{where}{key}: {have!r}, pinned {want!r}")
    return bad + [f"{label}: not pinned" for label in sorted(set(got) - set(pinned))]


def test_shipped_reports_match_their_pinned_leaves(monkeypatch):
    monkeypatch.syspath_prepend(str(ROOT / "scripts"))
    from pin_reports import PIN, SEED, collect

    pinned = json.loads(PIN.read_text(encoding="utf-8"))
    assert pinned["seed"] == SEED
    bad = _mismatches(pinned["runs"], collect(SEED))
    assert not bad, "\n".join(bad)


def test_a_moved_leaf_a_flipped_zero_and_a_changed_exit_are_each_reported():
    pinned = {"c": {"exit": 0, "reports": {"r.json": {"/v": 1.0, "/z": 0.0, "/n": 3, "/passed": True}}}}
    same = json.loads(json.dumps(pinned))
    assert _mismatches(pinned, same) == []
    got = json.loads(json.dumps(pinned))
    leaves = got["c"]["reports"]["r.json"]
    leaves["/v"] = 1.0 + 1.5e-12  # within 1e-12 + 1e-12 * 1.0
    assert _mismatches(pinned, got) == []
    leaves["/v"], leaves["/z"], leaves["/n"] = 1.0 + 3e-12, -0.0, 3.0
    got["c"]["exit"] = 1
    assert _mismatches(pinned, got) == [
        "c: exit 1, pinned 0",
        "c/r.json/v: 1.000000000003, pinned 1.0",
        "c/r.json/z: -0.0, pinned 0.0 (sign of zero)",
        "c/r.json/n: 3.0, pinned 3",
    ]
