"""End-to-end acceptance checks, one verdict line per criterion.

Run with ``pytest -s tests/test_acceptance.py`` to see the verdict
table.  Every criterion prints exactly one PASS/FAIL line with its
headline numbers, wall time, and budget, then asserts.
"""

import json
import re
import time
from pathlib import Path

import numpy as np

from algebroids.cli import main as cli_main
from algebroids.core import (
    Chart,
    check_axioms,
    make_cotangent_poisson,
    make_jacobi_extension,
    make_lie_algebra,
    make_rep_extension,
    make_tangent,
    so3_structure,
)
from algebroids.cubes import (
    concat,
    cotangent_lift,
    cube_from_sections,
    homotopy_defect,
    morphism_residual,
    path_cube,
    reverse,
    tangent_lift,
)
from algebroids.fibration import (
    Fibration,
    identity_residuals,
    jacobi_fibration,
    project_cube,
    rep_extension_fibration,
)
from algebroids.transgression import (
    decompose_path,
    monodromy_period,
    transgress2_formula,
    transgress_lift,
)

PLANE = Chart(coords=("x", "y"), box=((-3.0, 3.0), (-3.0, 3.0)))
SPACE = Chart(coords=("x", "y", "z"), box=((-2.0, 2.0), (-2.0, 2.0), (-2.0, 2.0)))
PI = np.pi
CONFIG_DIR = Path(__file__).resolve().parent.parent / "configs"


def _verdict(num, label, ok, detail, elapsed, budget):
    in_time = elapsed < budget
    status = "PASS" if ok and in_time else "FAIL"
    print(f"criterion {num:>2} [{status}] {label}: {detail}, {elapsed:.2f}s of {budget:.0f}s")
    assert ok, f"criterion {num} ({label}) failed: {detail}"
    assert in_time, f"criterion {num} ({label}) overran its {budget:.0f}s budget: {elapsed:.2f}s"


def test_criterion_01_axiom_suite():
    start = time.perf_counter()
    bivectors = ("1", "x", "1 + x^2")
    algebroids = [
        make_lie_algebra(3, so3_structure()),
        make_tangent(SPACE),
        *[make_cotangent_poisson(PLANE, {(0, 1): e}) for e in bivectors],
        *[make_jacobi_extension(PLANE, {(0, 1): e}) for e in bivectors],
        make_rep_extension(
            make_tangent(SPACE), 1, [[["0"]], [["0"]], [["0"]]], twist={(0, 1): ("x",)}
        ),
    ]
    reports = [check_axioms(A, n_points=200, tol=1e-8) for A in algebroids]
    worst = max(max(r.jacobi_residual, r.anchor_residual) for r in reports)
    bad = check_axioms(
        make_lie_algebra(3, {(0, 1): ("0", "0", "1"), (0, 2): ("0", "-1", "0"), (1, 2): ("1", "0", "0.25")}),
        n_points=200,
        tol=1e-8,
    )
    ok = all(r.passed for r in reports) and not bad.passed and bad.witness is not None
    _verdict(
        1,
        "axiom suite",
        ok,
        f"worst residual {worst:.1e} over {len(reports)} algebroids; corrupted so(3) rejected with witness",
        time.perf_counter() - start,
        5.0,
    )


def test_criterion_02_residual_convergence():
    start = time.perf_counter()
    comps = [f"0.4*sin({PI}*t1)*sin({PI}*t2)", f"0.3*sin({PI}*t1)*sin(2*{PI}*t2)"]
    coarse = max(morphism_residual(tangent_lift(PLANE, comps, 2, 64)))
    fine = max(morphism_residual(tangent_lift(PLANE, comps, 2, 128)))
    ratio = coarse / fine
    _verdict(
        2,
        "residual convergence",
        3.5 <= ratio <= 4.5,
        f"residual ratio 64->128 is {ratio:.3f}",
        time.perf_counter() - start,
        5.0,
    )


def test_criterion_03_flow_construction():
    start = time.perf_counter()
    T = make_tangent(PLANE)
    sections = [["y - t2", "0"], ["0", "1"]]
    cube = cube_from_sections(T, sections, (0.2, 0.5), 256)
    ts = np.linspace(0.0, 1.0, 257)
    t1, t2 = np.meshgrid(ts, ts, indexing="ij")
    closed_form = np.stack([0.2 + 0.5 * t1, 0.5 + t2], axis=-1)
    err = float(np.max(np.abs(cube.gamma - closed_form)))
    swapped = cube_from_sections(T, sections, (0.2, 0.5), 256, order=(1, 0))
    swap_gap = float(np.max(np.abs(cube.gamma - swapped.gamma)))
    _verdict(
        3,
        "flow construction",
        err < 1e-8 and swap_gap < 1e-6,
        f"closed-form error {err:.1e}, axis swap {swap_gap:.1e}",
        time.perf_counter() - start,
        10.0,
    )


def test_criterion_04_connection_identities():
    start = time.perf_counter()
    flat = [[["0"]], [["0"]], [["0"]]]
    clean = rep_extension_fibration(make_tangent(SPACE), 1, flat, twist={(0, 1): ("x",)})
    worst = max(identity_residuals(clean).values())
    bent = rep_extension_fibration(
        make_tangent(SPACE), 1, flat, twist={(0, 1): ("x",), (1, 2): ("x",)}
    )
    bianchi = identity_residuals(bent)["bianchi"]
    _verdict(
        4,
        "connection identities",
        worst < 1e-8 and bianchi > 1e-3,
        f"clean residuals {worst:.1e}, non-closed twist bianchi {bianchi:.1e}",
        time.perf_counter() - start,
        5.0,
    )


def test_criterion_05_transgression_cross_check():
    start = time.perf_counter()
    fib = jacobi_fibration(PLANE, {(0, 1): "1"})
    square = cotangent_lift(PLANE, {(0, 1): "1"}, ["0.9*t1", "0.9*t2"], 2, 128)
    formula = transgress2_formula(fib, square).scalar()
    lifted = transgress_lift(fib, square).scalar()
    area = 0.81
    gap = max(abs(formula - lifted), abs(formula - area), abs(lifted - area))
    _verdict(
        5,
        "transgression cross-check",
        gap < 1e-2,
        f"formula {formula:.6f}, lift {lifted:.6f}, area {area}, worst gap {gap:.1e}",
        time.perf_counter() - start,
        30.0,
    )


def test_criterion_06_doubling_and_reversal():
    start = time.perf_counter()
    fib = jacobi_fibration(PLANE, {(0, 1): "1"})
    ring = [f"(0.6 + 0.4*t1)*cos(2*{PI}*t2)", f"(0.6 + 0.4*t1)*sin(2*{PI}*t2)"]
    annulus = cotangent_lift(PLANE, {(0, 1): "1"}, ring, 2, 128)
    value = transgress2_formula(fib, annulus).scalar()
    doubled = transgress2_formula(fib, concat(annulus, annulus, axis=1)).scalar()
    reversed_value = transgress2_formula(fib, reverse(annulus, 1)).scalar()
    double_gap = abs(doubled - 2.0 * value)
    reversal_gap = abs(reversed_value + value)
    _verdict(
        6,
        "doubling and reversal",
        double_gap < 1e-2 and reversal_gap < 1e-12,
        f"value {value:.6f}, doubling gap {double_gap:.1e}, reversal gap {reversal_gap:.1e}",
        time.perf_counter() - start,
        30.0,
    )


def test_criterion_07_sphere_monodromy():
    start = time.perf_counter()
    eps = 1e-3
    chart = Chart(coords=("th", "ph"), box=((eps / 2, PI - eps / 2), (-0.1, 2 * PI + 0.1)))
    A = make_jacobi_extension(chart, {(0, 1): "1/sin(th)"})
    splitting = [["0", "0"], ["0", "sin(th)"], ["-sin(th)", "0"]]
    wrap = tangent_lift(chart, [f"{eps} + {PI - 2 * eps}*t1", f"{2 * PI}*t2"], 2, 512)
    period = monodromy_period(A, splitting, wrap).scalar()
    err = abs(period - 4 * PI)
    _verdict(
        7,
        "sphere monodromy",
        err < 2e-2,
        f"degree-one period {period:.6f} vs 4*pi, error {err:.1e}",
        time.perf_counter() - start,
        60.0,
    )


def test_criterion_08_connection_independence():
    start = time.perf_counter()
    fib = jacobi_fibration(PLANE, {(0, 1): "1"})
    tweaked = Fibration(
        total=fib.total,
        base=fib.base,
        projection=fib.projection,
        splitting=(("0.3*y", "0.2*x - 0.1*y"),) + fib.splitting[1:],
        kernel=fib.kernel,
    )
    comps = [
        "0.1 + 12.8*t1*(1 - t1)*t2*(1 - t2)",
        "-0.2 + 30*t1^2*(1 - t1)*t2*(1 - t2)^2",
    ]
    sphere = cotangent_lift(PLANE, {(0, 1): "1"}, comps, 2, 128)
    one = transgress_lift(fib, sphere)
    two = transgress_lift(tweaked, sphere)
    gap = abs(one.scalar() - two.scalar())
    budget = 2.0 * (one.est_error + two.est_error)
    _verdict(
        8,
        "connection independence",
        gap <= budget,
        f"splitting change moved the value by {gap:.1e} against budget {budget:.1e}",
        time.perf_counter() - start,
        30.0,
    )


def test_criterion_09_path_decomposition():
    start = time.perf_counter()
    fib = jacobi_fibration(PLANE, {(0, 1): "1"})
    gamma = ["t1 - 0.5", f"0.3*sin({PI}*t1)"]
    coeffs = [f"0.1 + 0.3*sin({PI}*t1)", f"0.3*{PI}*cos({PI}*t1)", "-1"]
    path = path_cube(fib.total, gamma, coeffs, N=128)
    dec = decompose_path(fib, path)
    witness_ok = homotopy_defect(dec.witness) < 1e-3
    start_delta = float(np.max(np.abs(dec.horizontal.gamma[0] - path.gamma[0])))
    end_delta = float(np.max(np.abs(dec.kernel_path.gamma[-1] - path.gamma[-1])))
    horizontal_leak = float(np.max(np.abs(dec.horizontal.coeffs[0][..., 0])))
    kernel_base = project_cube(fib, dec.kernel_path)
    kernel_leak = float(np.max(np.abs(kernel_base.coeffs)))
    ok = (
        witness_ok
        and max(start_delta, end_delta) < 1e-6
        and horizontal_leak < 1e-12
        and kernel_leak < 1e-3
    )
    _verdict(
        9,
        "path decomposition",
        ok,
        f"witness homotopy {witness_ok}, endpoint gap {max(start_delta, end_delta):.1e}, "
        f"factor leaks {horizontal_leak:.1e}/{kernel_leak:.1e}",
        time.perf_counter() - start,
        10.0,
    )


def test_criterion_10_cli_determinism(tmp_path):
    start = time.perf_counter()
    configs = sorted(CONFIG_DIR.glob("*.cfg"))
    assert configs, f"no shipped configs under {CONFIG_DIR}"
    pairs = 0
    ok = True
    for cfg in configs:
        texts = []
        for attempt in ("first", "second"):
            out = tmp_path / cfg.stem / attempt
            code = cli_main(["run", str(cfg), "--out", str(out)])
            ok = ok and code == 0
            blob = {}
            for report in sorted(out.glob("*.json")):
                body = report.read_text(encoding="utf-8")
                blob[report.name] = re.sub(r'"wall_time_s": [^,\n]+', '"wall_time_s": 0', body)
            texts.append(blob)
        ok = ok and texts[0] == texts[1] and len(texts[0]) > 0
        pairs += len(texts[0])
    _verdict(
        10,
        "cli determinism",
        ok,
        f"{pairs} reports byte-identical across reruns of {len(configs)} configs",
        time.perf_counter() - start,
        180.0,
    )
