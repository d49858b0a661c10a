"""The names the benchmark's tracer patches still resolve, and tracing leaves nothing behind.

``perfbench/spans.py`` wraps a fixed list of package entry points by
name; a refactor that renames or removes one breaks the benchmark, so
this checks the list against the package without running a workload.
"""

import importlib
from pathlib import Path

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
