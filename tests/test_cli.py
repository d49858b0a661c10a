import json
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from algebroids import cli, cubes
from algebroids.cli import ConfigError, apply_overrides, config_hash, main, parse_config
from algebroids.expr import MAX_DEPTH

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
    # the package as this test imported it, also when only pytest's pythonpath setting found it
    src = str(Path(cli.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-m", "algebroids", "describe", str(cfg)],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": path},
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


FILE_CUBE_CFG = (
    "[chart plane]\ncoords = x y\nbounds = -3 3; -3 3\n\n"
    "[algebroid T]\nkind = tangent\nchart = plane\n\n"
    "[cube c]\nalgebroid = T\nsource = file\npath = bad.json\n\n"
    "[task f]\nkind = flow\ncube = c\n"
)


def test_non_finite_file_cube_is_rejected_with_its_line(tmp_path, capsys):
    grid = [[0.1 * i, 0.0] for i in range(5)]
    coeffs = [[[0.1, float("nan")]] * 5]
    payload = {"n": 1, "N": 4, "r": 2, "m": 2, "basepoint": grid[0], "gamma": grid, "a": coeffs}
    (tmp_path / "bad.json").write_text(json.dumps(payload), encoding="utf-8")
    cfg = write(tmp_path, FILE_CUBE_CFG, "file.cfg")
    assert main(["run", str(cfg), "--out", str(tmp_path / "reports")]) == 2
    err = capsys.readouterr().err
    assert "line 9:" in err and "NaN or inf" in err, err


_WRONG_KIND = {"n": 1, "N": 4, "r": 2, "m": 2, "gamma": {"a": 1}, "a": [[[0.1, 0.0]] * 5]}


@pytest.mark.parametrize(
    "payload, message",
    [
        ({"n": 1}, "keys n, N, r, m, gamma and a"),
        ([1, 2], "keys n, N, r, m, gamma and a"),
        (_WRONG_KIND, "gamma and a must be nested lists of numbers"),
    ],
    ids=["missing_keys", "not_an_object", "wrong_kind"],
)
def test_malformed_file_cube_is_rejected_before_any_report(tmp_path, capsys, payload, message):
    (tmp_path / "bad.json").write_text(json.dumps(payload), encoding="utf-8")
    cfg = write(tmp_path, FILE_CUBE_CFG, "file.cfg")
    out = tmp_path / "reports"
    assert main(["run", str(cfg), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert "line 9:" in err and message in err, err
    assert not list(out.glob("*.json"))


@pytest.mark.parametrize("name", ["missing/dir/c.json", "..", "."])
def test_save_outside_the_report_directory_is_rejected_at_its_line(tmp_path, capsys, name):
    text = (CONFIG_DIR / "plane_area.cfg").read_text(encoding="utf-8")
    text = text.replace("expect_tol = 1e-3\n", f"expect_tol = 1e-3\nsave = {name}\n")
    cfg = write(tmp_path, text)
    out = tmp_path / "reports"
    for argv in (["describe", str(cfg)], ["run", str(cfg), "--out", str(out)]):
        assert main(argv) == 2, argv[0]
        err = capsys.readouterr().err
        assert f"line {_line_of(text, f'save = {name}')}:" in err and "bare file name" in err, err
    assert not list(out.glob("*.json"))


SAVE_CFG = """
[chart plane]
coords = x y
bounds = -3 3; -3 3

[algebroid T]
kind = tangent
chart = plane

[algebroid E]
kind = rep_extension
base = T
fiber_dim = 1
action = 0 | 0.5
twist = 0 1: 1

[fibration F]
total = E
base = T
pi = 0, 1, 0; 0, 0, 1
sigma = 0, 0; 1, 0; 0, 1
kernel_frame = 1, 0, 0

[cube sq]
algebroid = T
source = tangent_lift_of
map = 0.9*t1 - 0.45, 0.9*t2 - 0.45
n = 2
N = 16

[cube rim]
algebroid = T
source = from_sections
sections = 0, -0.9; 0.9, 0
basepoint = 0 0
N = 16

[task corner]
kind = flow
cube = rim
save = rim.json

[task raise]
kind = lift
fibration = F
cube = sq
save = lifted_sq.json
"""


def test_saved_flow_and_lift_cubes_load_back_as_computed(tmp_path, monkeypatch):
    saved = {}

    def keep(cube, path):
        saved[Path(path).name] = cube
        save_cube(cube, path)

    save_cube = cubes.save_cube
    monkeypatch.setattr(cubes, "save_cube", keep)
    out = tmp_path / "reports"
    assert main(["run", str(write(tmp_path, SAVE_CFG)), "--out", str(out)]) == 0
    assert sorted(saved) == ["lifted_sq.json", "rim.json"]
    for name, cube in saved.items():
        back = cubes.load_cube(out / name, cube.algebroid)
        assert back.gamma.tobytes() == cube.gamma.tobytes(), name
        assert back.coeffs.tobytes() == cube.coeffs.tobytes(), name
    assert load_report(out, "raise")["passed"] and load_report(out, "corner")["passed"]


@pytest.mark.parametrize(
    "corner, lift, owner",
    [
        ("corner.json", "lifted_sq.json", "the report of task 'corner'"),  # its own report
        ("raise.json", "lifted_sq.json", "the report of task 'raise'"),  # a later task's report
        ("rim.json", "rim.json", "saved by task 'corner'"),  # another task's save
    ],
    ids=["own_report", "other_report", "other_save"],
)
def test_a_save_name_that_another_file_also_takes_is_rejected_at_its_line(tmp_path, capsys, corner, lift, owner):
    text = SAVE_CFG.replace("save = rim.json", f"save = {corner}").replace("save = lifted_sq.json", f"save = {lift}")
    cfg = write(tmp_path, text)
    line = _line_of(text, f"save = {lift}", "[task raise]") if lift == corner else _line_of(text, f"save = {corner}")
    out = tmp_path / "reports"
    for argv in (["describe", str(cfg)], ["run", str(cfg), "--out", str(out)]):
        assert main(argv) == 2, argv[0]
        err = capsys.readouterr().err
        assert f"line {line}:" in err and owner in err, err
    assert not out.exists()


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


def _line_of(text, entry, section=None):
    """Line of ``entry``, the first after the line ``section`` when one is given."""
    lines = text.splitlines()
    return lines.index(entry, lines.index(section) if section else 0) + 1


_PLANE_TANGENT = "[chart plane]\ncoords = x y\nbounds = -3 3; -3 3\n\n[algebroid T]\nkind = tangent\nchart = plane\n\n"


@pytest.mark.parametrize(
    "text, entry, message",
    [
        (
            "[algebroid g]\nkind = lie_algebra\nrank = 3\nstructure = 0 5: 1, 0, 0\n",
            "structure = 0 5: 1, 0, 0",
            "structure key (0, 5) must satisfy 0 <= i < j < 3",
        ),
        (
            _PLANE_TANGENT + "[algebroid E]\nkind = rep_extension\nbase = T\nfiber_dim = 1\n"
            "action = 0 | 0\ntwist = 0 1: 1, 2\n",
            "twist = 0 1: 1, 2",
            "twist value for (0, 1) must have 1 components",
        ),
        (
            _PLANE_TANGENT + "[algebroid E]\nkind = rep_extension\nbase = T\nfiber_dim = 1\n"
            "action = 0 | 0 | 0\n",
            "action = 0 | 0 | 0",
            "action needs 2 matrices",
        ),
        (
            _PLANE_TANGENT + "[algebroid E]\nkind = explicit\nchart = plane\nrank = 2\nanchor = 1, 0, 0; 0, 1, 0\n",
            "anchor = 1, 0, 0; 0, 1, 0",
            "anchor needs 2 entries per row, got 3",
        ),
        (
            AREA_CFG.replace("pi = 0, 1, 0; 0, 0, 1", "pi = 0, 1, 0"),
            "pi = 0, 1, 0",
            "pi needs 2 rows, got 1",
        ),
        (
            AREA_CFG.replace("sigma = 0, 0; 1, 0; 0, 1", "sigma = 1, 0; 0, 1"),
            "sigma = 1, 0; 0, 1",
            "sigma needs 3 rows, got 2",
        ),
        (
            AREA_CFG.replace("kernel_frame = 1, 0, 0", "kernel_frame = 1, 0"),
            "kernel_frame = 1, 0",
            "kernel_frame needs 3 entries per row, got 2",
        ),
        (
            _PLANE_TANGENT + "[algebroid J]\nkind = jacobi_extension\nchart = plane\nbivector = 0, 1; -1, 0\n\n"
            "[fibration F]\ntotal = T\nbase = J\npi = 1, 0; 0, 1; 0, 0\n",
            "base = J",
            "base rank 3 exceeds total rank 2",
        ),
    ],
    ids=["structure", "twist", "action", "anchor", "pi", "sigma", "kernel_frame", "ranks"],
)
def test_algebroid_table_errors_name_the_key_line(tmp_path, capsys, text, entry, message):
    cfg = write(tmp_path, text)
    for argv in (["describe", str(cfg)], ["run", str(cfg), "--out", str(tmp_path / "r")]):
        assert main(argv) == 2, argv[0]
        err = capsys.readouterr().err
        assert f"line {_line_of(text, entry)}:" in err and message in err, err


def test_a_rejected_expression_is_quoted_around_its_error():
    chain, width = " + ".join(["t1"] * 100), cli.QUOTE_CHARS
    with pytest.raises(ValueError) as ei:  # a ParseError: quoted around its offset
        cli._exprs(chain + " + 1.2.3")
    assert f"'...{(chain + ' + 1.2.3')[-width:]}'" in str(ei.value), ei.value
    with pytest.raises(ValueError) as ei:  # a DomainError carries no offset: quoted from the start
        cli._exprs("1/0 + " + chain)
    assert f"'{('1/0 + ' + chain)[:width]}...'" in str(ei.value), ei.value
    with pytest.raises(ValueError, match=r"bad expression 'x \$ y'"):
        cli._exprs("x $ y")


@pytest.mark.parametrize(
    "override, section, entry, message",
    [
        ("cube.sq.map=0.9*t3, 0.9*t2", "[cube sq]", "map = 0.9*t1, 0.9*t2", "unbound variable 't3'"),
        ("cube.rim.sections=0, -0.9*t3; 0.9, 0", "[cube rim]", "sections = 0, -0.9; 0.9, 0", "unbound variable 't3'"),
        ("algebroid.CP.bivector=0, z; -z, 0", "[algebroid CP]", "bivector = 0, 1; -1, 0", "unbound variable 'z'"),
        ("fibration.F.sigma=0, 0; q, 0; 0, 1", "[fibration F]", "sigma = 0, 0; 1, 0; 0, 1", "unbound variable 'q'"),
        ("algebroid.J.bivector=0, t1; -t1, 0", "[algebroid J]", "bivector = 0, 1; -1, 0", "unbound variable 't1'"),
        ("chart.plane.coords=t1 t2", "[cube sq]", "algebroid = CP", "collide with chart coordinates: ['t1', 't2']"),
        ("chart.plane.bounds=-3 3", "[chart plane]", "bounds = -3 3; -3 3", "bounds needs 2 rows"),
        ("chart.plane.bounds=-3 3; 3 -3", "[chart plane]", "bounds = -3 3; -3 3", "empty range (3.0, -3.0)"),
        ("chart.plane.coords=x x", "[chart plane]", "coords = x y", "coords must be distinct identifiers"),
    ],
    ids=["map", "sections", "bivector", "sigma", "time-in-bivector", "time-as-coordinate", "bounds-rows", "bounds-empty", "coords"],
)
def test_a_bad_expression_name_or_chart_key_is_rejected_at_its_line(tmp_path, capsys, override, section, entry, message):
    cfg = str(CONFIG_DIR / "plane_area.cfg")
    line = _line_of((CONFIG_DIR / "plane_area.cfg").read_text(encoding="utf-8"), entry, section)
    out = tmp_path / "reports"
    for argv in (["describe", cfg], ["run", cfg, "--out", str(out)]):
        assert main(argv + ["--set", override]) == 2, argv[0]
        err = capsys.readouterr().err
        assert f"line {line}:" in err and message in err, err
    assert not list(out.glob("*.json"))


def test_cotangent_lift_off_the_plane_is_rejected_by_describe_and_run(tmp_path, capsys):
    text = """[chart space]
coords = x y z
bounds = -2 2; -2 2; -2 2

[algebroid CP]
kind = cotangent_poisson
chart = space
bivector = 0, z, -y; -z, 0, x; y, -x, 0

[cube sq]
algebroid = CP
source = tangent_lift_of
map = 0.5*t1, 0.5*t2, 0.5
n = 2
N = 8
"""
    cfg = str(write(tmp_path, text))
    for argv in (["describe", cfg], ["run", cfg, "--out", str(tmp_path / "reports")]):
        assert main(argv) == 2, argv[0]
        err = capsys.readouterr().err
        assert f"line {_line_of(text, 'algebroid = CP')}:" in err and "2-D chart" in err, err


def test_empty_cube_list_is_rejected_at_its_line(tmp_path, capsys):
    text = GROUP_CFG.replace("cubes = s_small s_big", "cubes =").replace("labels = small big\n", "")
    cfg = str(write(tmp_path, text))
    for argv in (["describe", cfg], ["run", cfg, "--out", str(tmp_path / "reports")]):
        assert main(argv) == 2, argv[0]
        err = capsys.readouterr().err
        assert f"line {_line_of(text, 'cubes =')}:" in err and "at least one name" in err, err


def test_missing_generator_fails_its_check_in_strict_json(tmp_path):
    def refuse(token):
        raise ValueError(f"non-standard JSON constant {token}")

    # a constant map has period zero, so the family has no generator to compare with expect
    head = GROUP_CFG.split("[cube s_small]")[0]
    text = head + """[cube dot]
algebroid = T
source = tangent_lift_of
map = 1 + 0*t1, 1 + 0*t2
n = 2
N = 8

[task group]
kind = monodromy
algebroid = J
splitting = 0, 0; 0, 1; -1, 0
cubes = dot
expect = 1
"""
    out = tmp_path / "reports"
    assert main(["run", str(write(tmp_path, text)), "--out", str(out)]) == 1
    report = json.loads((out / "group.json").read_text(encoding="utf-8"), parse_constant=refuse)
    assert report["values"]["group"]["generator"] is None
    assert report["checks"] == [{"name": "expect", "value": None, "tol": 0.0, "passed": False}]


def test_report_data_of_an_unknown_type_is_refused_not_written_as_text():
    assert cli._jsonable({1: (np.float64("inf"), np.int64(2), np.array([0.5]), None, True)}) == {"1": [None, 2, [0.5], None, True]}
    for value, name in ((object(), "object"), (1j, "complex"), ({"x": [frozenset()]}, "frozenset"), (b"x", "bytes")):
        with pytest.raises(TypeError, match=f"^cannot write a {name} into a report$"):
            cli._jsonable(value)


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


def test_importing_the_cli_and_describing_load_no_hashlib_fractions_or_decimal():
    # only a run hashes its config, builds a cube, transgresses or writes a report, and only a
    # monodromy group reads fractions (which imports decimal)
    src = Path(cli.__file__).resolve().parents[1]
    code = f"""
import contextlib, io, sys
from pathlib import Path
sys.path.insert(0, {str(src)!r})
from algebroids.cli import main
deferred = ("hashlib", "fractions", "decimal", "algebroids.cubes", "algebroids.transgression", "json")
assert not [m for m in deferred if m in sys.modules], [m for m in deferred if m in sys.modules]
for cfg in sorted(Path({str(CONFIG_DIR)!r}).glob("*.cfg")):
    with contextlib.redirect_stdout(io.StringIO()):
        assert main(["describe", str(cfg)]) == 0, cfg
assert not [m for m in deferred if m in sys.modules], [m for m in deferred if m in sys.modules]
"""
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr


def test_importing_the_package_loads_no_submodule_until_a_name_is_used():
    src = Path(cli.__file__).resolve().parents[1]
    code = f"""
import sys
sys.path.insert(0, {str(src)!r})
import algebroids
loaded = sorted(m for m in sys.modules if m.startswith("algebroids."))
assert not loaded, loaded
algebroids.Expr
loaded = sorted(m for m in sys.modules if m.startswith("algebroids."))
assert loaded == ["algebroids.expr"], loaded
"""
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr


def test_each_package_name_is_the_object_of_its_home_module():
    import algebroids

    names = algebroids.__all__
    assert len(set(names)) == len(names) == 52
    assert set(names) <= set(dir(algebroids))
    for name in names:
        value = getattr(algebroids, name)
        assert value.__module__.startswith("algebroids."), name
        assert getattr(sys.modules[value.__module__], name) is value, name
    star = {}
    exec("from algebroids import *", star)
    assert set(star) - {"__builtins__"} == set(names)
    with pytest.raises(AttributeError, match="^module 'algebroids' has no attribute 'nosuch'$"):
        algebroids.nosuch


def test_decompose_over_a_fibration_without_kernel_passes_with_zero_values(tmp_path):
    # every sup-norm of the report runs over an empty kernel array here
    text = _PLANE_TANGENT + """[fibration F]
total = T
base = T
pi = 1, 0; 0, 1

[cube path]
algebroid = T
source = from_sections
sections = 0.3, 0.2*t1
basepoint = -0.5 0
N = 16

[task split]
kind = decompose
fibration = F
cube = path
tol = 1e-3
endpoint_tol = 1e-6
"""
    out = tmp_path / "reports"
    assert main(["run", str(write(tmp_path, text)), "--out", str(out)]) == 0
    report = load_report(out, "split")
    assert report["passed"] is True
    assert report["values"] == {"witness_defect": 0.0, "start_delta": 0.0, "end_delta": 0.0, "kernel_sup": 0.0}


def test_a_monodromy_period_under_a_nonzero_covariant_action_passes_its_closed_form(tmp_path):
    # the algebroid and square of configs/rep_transport.cfg, as a monodromy task
    text = _PLANE_TANGENT + """[algebroid E]
kind = rep_extension
base = T
fiber_dim = 1
action = 0 | 0.5
twist = 0 1: 1

[cube sq]
algebroid = T
source = tangent_lift_of
map = t1 - 0.5, t2 - 0.5
n = 2
N = 48

[task period]
kind = monodromy
algebroid = E
splitting = 0, 0; 1, 0; 0, 1
cube = sq
expect = 0.7869386805747332
expect_tol = 1e-2
"""
    out = tmp_path / "reports"
    assert main(["run", str(write(tmp_path, text)), "--out", str(out)]) == 0
    assert load_report(out, "period")["values"]["period"]["method"] == "monodromy"


def test_explicit_algebroid_check_passes(tmp_path):
    # e2 maps to x d/dy, so [e0, e2] must be e1 for the anchor to respect brackets
    text = _PLANE_TANGENT + """[algebroid E]
kind = explicit
chart = plane
rank = 3
anchor = 1, 0; 0, 1; 0, x
structure = 0 2: 0, 1, 0

[task check]
kind = check
algebroid = E
"""
    out = tmp_path / "reports"
    assert main(["run", str(write(tmp_path, text)), "--out", str(out)]) == 0
    report = load_report(out, "check")
    assert report["passed"] is True and "error" not in report
    assert report["values"]["jacobi_residual"] == 0.0 and report["values"]["anchor_residual"] == 0.0


def test_a_task_that_raises_reports_its_error_and_the_others_still_run(tmp_path):
    # the anchor kernel of E has rank two, which the commensurability analysis refuses
    text = GROUP_CFG.split("[task group]")[0] + """[algebroid E]
kind = rep_extension
base = T
fiber_dim = 2
action = 0, 0; 0, 0 | 0, 0; 0, 0

[task group]
kind = monodromy
algebroid = E
splitting = 0, 0; 0, 0; 1, 0; 0, 1
cubes = s_small

[task check]
kind = check
algebroid = J
"""
    out = tmp_path / "reports"
    assert main(["run", str(write(tmp_path, text)), "--out", str(out)]) == 1
    report = load_report(out, "group")
    assert report["error"] == "commensurability analysis needs a rank-one anchor kernel"
    assert report["passed"] is False
    assert load_report(out, "check")["passed"] is True


def test_an_overflowing_constant_power_is_a_non_finite_map(tmp_path, capsys):
    cfg = str(CONFIG_DIR / "plane_area.cfg")
    override = ["--set", "cube.sq.map=2^100000*t1, t2"]
    assert main(["describe", cfg] + override) == 0
    assert main(["run", cfg, "--out", str(tmp_path / "reports")] + override) == 2
    err = capsys.readouterr().err
    text = (CONFIG_DIR / "plane_area.cfg").read_text(encoding="utf-8")
    assert f"line {_line_of(text, '[cube sq]')}:" in err and "non-finite value" in err, err
    assert "Traceback" not in err


_DEEP = {
    "nested": lambda depth: "(" * depth + "0.9*t1" + ")" * depth,
    # 0.9*t1 is two levels tall and each further term one more
    "chain": lambda depth: "0.9*t1" + " + t1 - t1" * ((depth - 2) // 2) + " + t1" * (depth % 2),
}


@pytest.mark.parametrize("shape", sorted(_DEEP))
def test_a_map_of_maximal_depth_lifts_and_runs(tmp_path, shape):
    cfg = str(CONFIG_DIR / "plane_area.cfg")
    overrides = ["--set", f"cube.sq.map={_DEEP[shape](MAX_DEPTH)}, 0.9*t2", "--set", "cube.sq.N=16"]
    out = tmp_path / "reports"
    assert main(["describe", cfg] + overrides) == 0
    assert main(["run", cfg, "--out", str(out)] + overrides) == 0
    assert load_report(out, "area")["values"]["formula"]["value"][0] == pytest.approx(0.81, abs=1e-2)


@pytest.mark.parametrize(
    "shape, depth",
    [("nested", MAX_DEPTH + 1), ("nested", 250), ("chain", MAX_DEPTH + 1), ("chain", 1200)],
)
def test_an_expression_nested_too_deep_is_rejected_at_its_line(tmp_path, capsys, shape, depth):
    cfg = str(CONFIG_DIR / "plane_area.cfg")
    override = ["--set", f"cube.sq.map={_DEEP[shape](depth)}, t2"]
    line = _line_of((CONFIG_DIR / "plane_area.cfg").read_text(encoding="utf-8"), "map = 0.9*t1, 0.9*t2")
    for argv in (["describe", cfg], ["run", cfg, "--out", str(tmp_path / "reports")]):
        assert main(argv + override) == 2, argv[0]
        err = capsys.readouterr().err
        assert f"line {line}:" in err and "nests deeper than" in err, err
        assert "Traceback" not in err
        assert max(map(len, err.splitlines())) < 200, err  # the rejected expression is quoted around the error
