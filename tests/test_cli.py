import json
import re
import subprocess
import sys
from pathlib import Path

import pytest

from algebroids import cli
from algebroids.cli import ConfigError, apply_overrides, config_hash, main, parse_config

CONFIG_DIR = Path(__file__).resolve().parent.parent / "configs"

AREA_CFG = """
[chart plane]
coords = x y
bounds = -3 3; -3 3

[algebroid J]
kind = jacobi_extension
chart = plane
bivector = 0, 1; -1, 0

[algebroid CP]
kind = cotangent_poisson
chart = plane
bivector = 0, 1; -1, 0

[fibration F]
total = J
base = CP
pi = 0, 1, 0; 0, 0, 1
sigma = 0, 0; 1, 0; 0, 1
kernel_frame = 1, 0, 0

[cube sq]
algebroid = CP
source = tangent_lift_of
map = 0.9*t1, 0.9*t2
n = 2
N = 32

[task area]
kind = transgress
fibration = F
cube = sq
method = both
expect = 0.81
expect_tol = 1e-2
"""

BROKEN_SO3_CFG = """
[algebroid broken]
kind = lie_algebra
rank = 3
structure = 0 1: 0, 0, 1; 0 2: 0, -1, 0; 1 2: 1, 0, 0.25

[task check_broken]
kind = check
algebroid = broken
tol = 1e-8
"""

GROUP_CFG = """
[chart plane]
coords = x y
bounds = -3 3; -3 3

[algebroid J]
kind = jacobi_extension
chart = plane
bivector = 0, 1; -1, 0

[algebroid T]
kind = tangent
chart = plane

[cube s_small]
algebroid = T
source = tangent_lift_of
map = 0.6*t1, 0.6*t2
n = 2
N = 32

[cube s_big]
algebroid = T
source = tangent_lift_of
map = 1.2*t1, 0.6*t2
n = 2
N = 32

[task group]
kind = monodromy
algebroid = J
splitting = 0, 0; 0, 1; -1, 0
cubes = s_small s_big
labels = small big
expect = 0.36
expect_tol = 1e-3
"""


def write(tmp_path, text, name="run.cfg"):
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    return path


def load_report(out_dir, task):
    return json.loads((out_dir / f"{task}.json").read_text(encoding="utf-8"))


def test_run_writes_passing_report(tmp_path):
    cfg = write(tmp_path, AREA_CFG)
    out = tmp_path / "reports"
    assert main(["run", str(cfg), "--out", str(out)]) == 0
    report = load_report(out, "area")
    assert report["passed"] is True
    names = [c["name"] for c in report["checks"]]
    assert names == ["methods_agree", "expect"]
    assert all(c["passed"] for c in report["checks"])
    assert report["values"]["lift"]["N"] == 32
    assert len(report["config_hash"]) == 64
    assert report["wall_time_s"] >= 0.0


def test_describe_lists_entities_in_declaration_order(tmp_path, capsys):
    cfg = write(tmp_path, AREA_CFG)
    assert main(["describe", str(cfg)]) == 0
    lines = capsys.readouterr().out.splitlines()
    kinds = [line.split()[0] for line in lines[:-1]]
    assert kinds == ["chart", "algebroid", "algebroid", "fibration", "cube", "task"]
    assert "6 section(s), 1 task(s)" in lines[-1]


def test_describe_accepts_an_empty_config(tmp_path, capsys):
    cfg = write(tmp_path, "# nothing here\n")
    assert main(["describe", str(cfg)]) == 0
    assert "0 section(s), 0 task(s)" in capsys.readouterr().out


def test_parse_error_reports_the_line(tmp_path, capsys):
    cfg = write(tmp_path, "[chart c]\ncoords = x\nbounds = -1 1\nstray line\n")
    assert main(["run", str(cfg), "--out", str(tmp_path / "r")]) == 2
    assert "line 4" in capsys.readouterr().err


def test_undefined_reference_names_the_entity(tmp_path, capsys):
    cfg = write(tmp_path, "[task t]\nkind = check\nalgebroid = nowhere\n")
    assert main(["run", str(cfg), "--out", str(tmp_path / "r")]) == 2
    assert "undefined algebroid 'nowhere'" in capsys.readouterr().err


def test_failing_check_exits_one_and_keeps_the_witness(tmp_path):
    cfg = write(tmp_path, BROKEN_SO3_CFG)
    out = tmp_path / "reports"
    assert main(["run", str(cfg), "--out", str(out)]) == 1
    report = load_report(out, "check_broken")
    assert report["passed"] is False
    assert "jacobi defect" in report["values"]["witness"]


def test_overrides_apply_and_appear_in_the_echo(tmp_path):
    cfg = write(tmp_path, AREA_CFG)
    out = tmp_path / "reports"
    code = main(["run", str(cfg), "--set", "cube.sq.N=16", "--out", str(out)])
    assert code == 0
    report = load_report(out, "area")
    assert report["task"]["overrides"] == {"cube.sq.N": "16"}
    assert report["values"]["lift"]["N"] == 16


def test_override_of_unknown_key_fails_validation(tmp_path, capsys):
    cfg = write(tmp_path, AREA_CFG)
    code = main(["run", str(cfg), "--set", "task.area.bogus=1", "--out", str(tmp_path / "r")])
    assert code == 2
    assert "unknown key 'bogus'" in capsys.readouterr().err


def test_override_of_undefined_section_is_a_usage_error(tmp_path, capsys):
    cfg = write(tmp_path, AREA_CFG)
    code = main(["run", str(cfg), "--set", "cube.missing.N=16", "--out", str(tmp_path / "r")])
    assert code == 2
    assert "undefined cube 'missing'" in capsys.readouterr().err


def test_reports_are_deterministic_modulo_wall_time(tmp_path):
    cfg = write(tmp_path, AREA_CFG)
    texts = []
    for label in ("a", "b"):
        out = tmp_path / label
        assert main(["run", str(cfg), "--out", str(out)]) == 0
        report = load_report(out, "area")
        report["wall_time_s"] = None
        texts.append(json.dumps(report, sort_keys=True))
    assert texts[0] == texts[1]


def test_monodromy_group_task_reports_the_generator(tmp_path):
    cfg = write(tmp_path, GROUP_CFG)
    out = tmp_path / "reports"
    assert main(["run", str(cfg), "--out", str(out)]) == 0
    report = load_report(out, "group")
    group = report["values"]["group"]
    assert group["labels"] == ["small", "big"]
    assert group["lattice_rank"] == 1
    assert group["discrete"] is True
    assert group["generator"] == pytest.approx(0.36, abs=1e-9)


def test_config_hash_tracks_overrides():
    sections = parse_config(AREA_CFG)
    plain = config_hash(sections, {})
    overrides = apply_overrides(sections, ["cube.sq.N=16"])
    assert config_hash(sections, overrides) != plain


def test_parser_rejects_duplicates():
    with pytest.raises(ConfigError, match="duplicate section"):
        parse_config("[chart c]\ncoords = x\n[chart c]\ncoords = y\n")
    with pytest.raises(ConfigError, match="duplicate key"):
        parse_config("[chart c]\ncoords = x\ncoords = y\n")


def test_module_entrypoint_runs(tmp_path):
    cfg = write(tmp_path, AREA_CFG)
    proc = subprocess.run(
        [sys.executable, "-m", "algebroids", "describe", str(cfg)],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert "fibration" in proc.stdout


@pytest.mark.parametrize(
    "config, override",
    [
        ("plane_area", "cube.rim.N=0"),
        ("plane_area", "cube.rim.N=-3"),
        ("plane_area", "task.area.tol=inf"),
        ("plane_area", "task.area.expect_tol=inf"),
        ("plane_area", "task.area.centrality_tol=nan"),
        ("so3_check", "task.check_so3.n_points=0"),
        ("plane_area", "task.corner.expect_endpoint=0.9 0.9 0.9"),
        ("plane_area", "cube.sq.n=3"),
    ],
)
def test_out_of_range_override_is_rejected_by_describe_and_run(tmp_path, capsys, config, override):
    cfg = str(CONFIG_DIR / f"{config}.cfg")
    out = tmp_path / "reports"
    for argv in (["describe", cfg], ["run", cfg, "--out", str(out)]):
        assert main(argv + ["--set", override]) == 2, argv[0]
        err = capsys.readouterr().err
        assert re.search(r"line \d+", err), err
        assert "Traceback" not in err
    assert not list(out.glob("*.json"))


def test_cube_construction_error_stops_run_before_any_report(tmp_path, capsys):
    cfg = str(CONFIG_DIR / "plane_area.cfg")
    out = tmp_path / "reports"
    overrides = ["--set", "cube.sq.N=8", "--set", "cube.rim.sections=0, -9; 9, 0"]
    assert main(["run", cfg, "--out", str(out)] + overrides) == 2
    err = capsys.readouterr().err
    assert "line 33" in err, err
    assert "Traceback" not in err
    assert not list(out.glob("*.json"))


def test_describe_never_builds_a_cube_grid(monkeypatch, capsys):
    def refuse(self, params):
        raise AssertionError("describe built a cube")

    monkeypatch.setattr(cli.Workspace, "_make_cube", refuse)
    cfg = str(CONFIG_DIR / "s2_monodromy.cfg")
    # 2001^2 nodes of 6 doubles (192 MB): within the grid budget, and slow to build
    assert main(["describe", cfg, "--set", "cube.wrap.N=2000"]) == 0
    assert "N=2000" in capsys.readouterr().out


def test_grid_estimate_counts_the_doubles_of_every_node():
    # sphere_periods' square: 769^2 nodes, each a point and two tangent vectors
    assert cli.grid_bytes(768, 2, 2, 2) == 769**2 * 6 * 8
    assert cli.grid_bytes(100_000, 2, 2, 2) > 400 * 2**30
    assert cli.grid_bytes(2000, 2, 2, 2) < cli.GRID_BUDGET_BYTES < cli.grid_bytes(2400, 2, 2, 2)
    # a 3-cube over a rank-3 algebroid on a plane: 2 + 3 * 3 doubles a node
    assert cli.grid_bytes(10, 3, 2, 3) == 11**3 * 11 * 8


@pytest.mark.parametrize(
    "config, override, line, what",
    [
        ("s2_monodromy", "cube.wrap.N=100000", 23, "the cube"),
        # the cube fits, its lift with one more frame does not
        ("plane_area", "cube.rim.N=2100", 38, "task 'raise'"),
        # a one-dimensional path grows a deformation square
        ("decompose_demo", "cube.path.N=3000", 31, "task 'split'"),
    ],
)
def test_grid_over_budget_is_rejected_by_describe_and_run(tmp_path, monkeypatch, capsys, config, override, line, what):
    def refuse(self, params):
        raise AssertionError("an oversized cube was built")

    monkeypatch.setattr(cli.Workspace, "_make_cube", refuse)
    cfg = str(CONFIG_DIR / f"{config}.cfg")
    out = tmp_path / "reports"
    for argv in (["describe", cfg], ["run", cfg, "--out", str(out)]):
        assert main(argv + ["--set", override]) == 2, argv[0]
        err = capsys.readouterr().err
        assert f"line {line}:" in err and what in err and "256 MiB budget" in err, err
    assert not list(out.glob("*.json"))


def test_non_finite_file_cube_is_rejected_with_its_line(tmp_path, capsys):
    grid = [[0.1 * i, 0.0] for i in range(5)]
    coeffs = [[[0.1, float("nan")]] * 5]
    payload = {"n": 1, "N": 4, "r": 2, "m": 2, "basepoint": grid[0], "gamma": grid, "a": coeffs}
    (tmp_path / "bad.json").write_text(json.dumps(payload), encoding="utf-8")
    cfg = tmp_path / "file.cfg"
    cfg.write_text(
        "[chart plane]\ncoords = x y\nbounds = -3 3; -3 3\n\n"
        "[algebroid T]\nkind = tangent\nchart = plane\n\n"
        "[cube c]\nalgebroid = T\nsource = file\npath = bad.json\n\n"
        "[task f]\nkind = flow\ncube = c\n",
        encoding="utf-8",
    )
    assert main(["run", str(cfg), "--out", str(tmp_path / "reports")]) == 2
    err = capsys.readouterr().err
    assert "line 9:" in err and "NaN or inf" in err, err


def test_undefined_estimates_are_written_as_null(tmp_path):
    def refuse(token):
        raise ValueError(f"non-standard JSON constant {token}")

    out = tmp_path / "reports"
    main(["run", str(CONFIG_DIR / "plane_area.cfg"), "--out", str(out), "--set", "cube.sq.N=4"])
    reports = {p.name: json.loads(p.read_text(encoding="utf-8"), parse_constant=refuse) for p in out.glob("*.json")}
    assert sorted(reports) == ["area.json", "corner.json", "raise.json"]
    # N = 4 has no half grid of at least three nodes, so both estimates are undefined
    area = reports["area.json"]["values"]
    assert area["formula"]["est_error"] is None and area["lift"]["est_error"] is None


def test_describe_and_run_never_import_scipy(tmp_path):
    # a fresh process, so that no test's own scipy import can hide one made by the package
    src = Path(cli.__file__).resolve().parents[1]
    code = f"""
import contextlib, io, sys
from pathlib import Path
sys.path.insert(0, {str(src)!r})
from algebroids.cli import main
for cfg in sorted(Path({str(CONFIG_DIR)!r}).glob("*.cfg")):
    with contextlib.redirect_stdout(io.StringIO()):
        assert main(["describe", str(cfg)]) == 0, cfg
        assert main(["run", str(cfg), "--out", str(Path({str(tmp_path)!r}) / cfg.stem)]) == 0, cfg
loaded = sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy."))
assert not loaded, loaded
"""
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
