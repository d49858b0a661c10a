"""The names the benchmark's tracer patches still resolve, and tracing leaves nothing behind.

``perfbench/spans.py`` wraps a fixed list of package entry points by
name, and some of its counters read an argument by position; a refactor
that renames or removes one, or moves an argument, breaks the benchmark,
so this checks both against the package without running a workload.
"""

import importlib
import inspect
from pathlib import Path

from algebroids import core, fibration

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def _spans(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    return importlib.import_module("spans")


def test_every_entry_point_owner_holds_its_attribute(monkeypatch):
    spans = _spans(monkeypatch)
    missing = [
        name
        for name, (owner, attr, _) in spans.ENTRY_POINTS.items()
        if attr not in (owner.__dict__ if isinstance(owner, type) else vars(owner))
    ]
    assert not missing, missing


def test_an_empty_traced_block_leaves_no_wrapper_installed(monkeypatch):
    spans = _spans(monkeypatch)
    with spans.traced(spans.Recorder("t")):
        assert spans.installed_wrappers()
    assert spans.installed_wrappers() == []


def _parameters(function) -> list[str]:
    return list(inspect.signature(function).parameters)


def test_counters_read_the_arguments_at_their_positions():
    # the counters of spans.py read these arguments by position when a call passes them positionally
    assert _parameters(core.eval_exprs)[2] == "base_shape"
    assert _parameters(fibration.evolve_cube_system)[4] == "N"
    assert _parameters(fibration.transport_matrix)[:2] == ["fib", "path"]
    assert _parameters(fibration.Curvature2Form.values)[1] == "points"
