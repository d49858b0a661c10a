"""End-to-end and per-layer benchmark of the ``algebroids`` batch CLI.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the package is imported from
``src/``.  The seed generates one config for the workload (see
``workloads.py``); the program sees only that config, which is run
through the public batch entry point ``algebroids.cli.main(["run", ...])``.

Load model: a closed loop with one caller in one process.  Each run of
the workload starts only after the previous one returned.  BLAS and
OpenMP threads are pinned to 1 for this process and its children.

``--trace 0`` (tracing off) reports the end-to-end metrics:

* ``setup_s``: median over fresh processes, pinned to each usable CPU
  in turn, of importing ``algebroids`` and validating the config (the
  ``describe`` path);
* ``run_s``: time of one full workload run, in process, after one
  warm-up run: the mean over the runs sampled for ``--seconds``, with
  consecutive runs pinned to each usable CPU in turn (neighbours slow
  one core at a time).  The median, fastest and slowest runs are
  printed and every sample goes into the record;
* ``nodes_per_s``: sum over tasks of (N+1)^n input-cube nodes over ``run_s``;
* ``peak_rss_mb``: peak resident memory of one run in its own process.

``setup_s`` and ``run_s`` are in reference seconds.  The host's speed
shifts by tens of percent from one second to the next, so a fixed numpy
kernel (``reference.py``) is timed on the same CPU just before and just
after each run and each set-up, for about a tenth of the timed work, and
each wall time is scaled by ``reference.REFERENCE_S`` over the median of
the kernel times around it.  The mean, not the median, of the scaled
runs is reported: its spread from one invocation to the next was the
smaller of the two.
The wall-time medians are printed and recorded too.

It also prints ``value_err`` (largest |value - closed form|),
``methods_gap`` (largest |formula - lift|) and ``tasks_failed``.  Every
run, timed or not, is gated: each task report must PASS and match its
closed form; a failed task is counted, never dropped or retried, and the
command then exits 1.

``--trace 1`` warms up, traces the workload three times at each of N/4
and N/2, then for ``--seconds`` alternates an untraced and a traced run
at N.  Tracing wraps a span around every public entry point of ``expr``,
``core``, ``cubes``, ``fibration``, ``transgression`` and ``cli`` (see
``spans.py``).  It reports the per-layer metrics at N (medians over the
traced runs, whose counts must repeat exactly), the tracing overhead
(median ratio of traced to untraced time over the pairs),
and the exponent in N of the main counters and of each module's self
time.

The last line of stdout is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``.  The full record (environment,
seed, generated config text, samples, task outcomes) is written under
``perfbench/out/``.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path

import workloads

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
OUT = ROOT / "perfbench" / "out"
CHILD = Path(__file__).resolve().parent / "child.py"

THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)
SETUP_REPS = 6  # an even count, so each of two CPUs takes the same share
LADDER_REPS = 3  # traced runs per rung below N
MIN_SAMPLES = 3
CHILD_TIMEOUT_S = 120

GATE = (("value_err", "1"), ("methods_gap", "1"), ("tasks_failed", "fraction"))


class BenchError(Exception):
    """The benchmark cannot run here at all (as opposed to a failed task)."""


def metric_units(kind: str) -> tuple[tuple[str, str], ...]:
    """(name, unit) of each ``kind`` metric ("end_to_end" or "per_layer") in BENCHMARK.json."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return tuple((m["name"], m["unit"]) for m in spec[kind])


def prepare() -> None:
    """Pin native thread pools and put the checkout's ``src`` first on the path.

    Child processes also get a fixed hash seed: set iteration order
    follows it, and with it the order in which large arrays are freed,
    so the peak memory of one run otherwise differs between processes
    by two or three 8 MB arrays.
    """
    if not (SRC / "algebroids" / "__init__.py").is_file():
        raise BenchError(f"no algebroids sources under {SRC}; run from a source checkout")
    for var in THREAD_VARS:
        os.environ[var] = "1"
    os.environ["PYTHONHASHSEED"] = "0"
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))


# --- correctness gate -----------------------------------------------------------


@dataclass
class Tally:
    """Task outcomes over every run of one benchmark invocation."""

    attempted: int = 0
    failed: int = 0
    value_err: float = 0.0
    methods_gap: float = 0.0
    problems: list[str] = field(default_factory=list)


def _task_values(report: dict) -> list:
    values = report["values"]
    kind = report["task"]["kind"]
    if kind == "transgress":
        return values["formula"]["value"]
    if kind == "flow":
        return values["endpoint"]
    if kind == "monodromy" and "period" in values:
        return values["period"]["value"]
    return [values["group"]["generator"]]


def _check_task(task: workloads.Task, out_dir: Path, tally: Tally) -> str | None:
    """Return why the task failed, or None when it passed every check."""
    path = out_dir / f"{task.name}.json"
    try:
        report = json.loads(path.read_text(encoding="utf-8"))
    except (OSError, ValueError) as err:
        return f"no readable report ({err})"
    if "error" in report:
        return f"error: {report['error']}"
    if report.get("passed") is not True:
        failing = [c["name"] for c in report.get("checks", []) if not c["passed"]]
        return f"FAIL ({', '.join(failing)})"
    if task.closed_form is not None:
        got = _task_values(report)
        if None in got or len(got) != len(task.closed_form):
            return f"value {got} does not match the closed form {task.closed_form}"
        err = max(abs(g - c) for g, c in zip(got, task.closed_form))
        if not err <= task.tol:  # also catches nan
            return f"|value - closed form| = {err} > {task.tol}"
        tally.value_err = max(tally.value_err, err)
    if task.methods:
        formula = report["values"]["formula"]["value"]
        lift = report["values"]["lift"]["value"]
        gap = max(abs(f - g) for f, g in zip(formula, lift))
        if not math.isfinite(gap):
            return f"methods gap is {gap}"
        tally.methods_gap = max(tally.methods_gap, gap)
    return None


def check_run(workload: workloads.Workload, rc: int, out_dir: Path, tally: Tally, label: str):
    """Gate one workload run: every task must PASS and match its closed form."""
    failed = []
    for task in workload.tasks:
        why = _check_task(task, out_dir, tally)
        if why is not None:
            failed.append(f"{label} task {task.name}: {why}")
    if rc != 0 and not failed:
        failed = [f"{label} task {t.name}: run exited {rc}" for t in workload.tasks]
    tally.attempted += len(workload.tasks)
    tally.failed += len(failed)
    tally.problems.extend(failed)


# --- runs ----------------------------------------------------------------------------


def run_once(cli, config: Path, out_dir: Path) -> tuple[float, int]:
    """One full workload run in this process: (seconds, exit code).

    The CLI's output is captured and passed to stderr only when the run
    does not exit 0.
    """
    shutil.rmtree(out_dir, ignore_errors=True)
    argv = ["run", str(config), "--out", str(out_dir)]
    sink = io.StringIO()
    with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
        start = time.perf_counter()
        try:
            rc = cli.main(argv)
        except Exception:  # a crash fails the run's tasks; it never stops the benchmark
            rc = -1
            traceback.print_exc(file=sink)
        elapsed = time.perf_counter() - start
    if rc != 0:
        sys.stderr.write(sink.getvalue())
    return elapsed, rc


def child(mode: str, config: Path, out_dir: Path | None = None) -> dict:
    """Run ``child.py`` in a fresh interpreter and return its JSON result."""
    cmd = [sys.executable, str(CHILD), mode, str(config)]
    if out_dir is not None:
        shutil.rmtree(out_dir, ignore_errors=True)
        cmd.append(str(out_dir))
    proc = subprocess.run(
        cmd, cwd=ROOT, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S, check=False
    )
    if proc.returncode != 0:
        raise BenchError(f"{mode} probe exited {proc.returncode}: {proc.stderr.strip()[-2000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def gated_run(cli, workload, config, out_dir, tally, label) -> float:
    """One full run, gated; returns its wall time."""
    elapsed, rc = run_once(cli, config, out_dir)
    check_run(workload, rc, out_dir, tally, label)
    return elapsed


def sample_for(seconds: float, sample, min_samples: int = MIN_SAMPLES) -> list:
    """Call ``sample(i)`` for i = 0, 1, ... until ``seconds`` have passed.

    Takes at least ``min_samples`` samples.  Consecutive samples are
    pinned to the usable CPUs in turn (child processes inherit the pin):
    neighbours slow one core at a time, often for longer than a whole
    window.
    """
    out = []
    cpus = sorted(os.sched_getaffinity(0))
    deadline = time.perf_counter() + seconds
    try:
        while time.perf_counter() < deadline or len(out) < min_samples:
            os.sched_setaffinity(0, {cpus[len(out) % len(cpus)]})
            out.append(sample(len(out)))
    finally:
        os.sched_setaffinity(0, cpus)
    return out


def exponent(ns: list[int], values: list[float]) -> float:
    """Least-squares slope of log(value) against log(N); 0 unless every value is positive."""
    if any(v <= 0 for v in values):
        return 0.0
    xs = [math.log(n) for n in ns]
    ys = [math.log(v) for v in values]
    mx, my = statistics.fmean(xs), statistics.fmean(ys)
    return sum((x - mx) * (y - my) for x, y in zip(xs, ys)) / sum((x - mx) ** 2 for x in xs)


def layer_metrics(summary: dict[str, float], names) -> dict[str, float]:
    out = {name: float(summary.get(name, 0.0)) for name in names}
    calls = summary.get("core.eval_exprs.calls", 0.0)
    out["core.eval_exprs.points_per_call"] = (
        summary.get("core.eval_exprs.points", 0.0) / calls if calls else 0.0
    )
    return out


def environment(workload: workloads.Workload, seed: int) -> dict:
    import numpy
    import scipy

    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "threads": {var: os.environ[var] for var in THREAD_VARS},
        "seed": seed,
        "held_out_seed": workloads.HELD_OUT_SEED,
        "workload": workload.name,
        "N": workload.N,
        "N_by_workload": {name: n for name, (_, n) in workloads.WORKLOADS.items()},
    }


def measure(name: str, seed: int, seconds: float, trace: bool, N: int | None = None,
            setup_reps: int = SETUP_REPS) -> dict:
    """Run one benchmark invocation and return its full record.

    ``N`` overrides the workload's size; only the self-test uses it.
    """
    prepare()
    from algebroids import cli

    make, default_n = workloads.WORKLOADS[name]
    workload = make(seed, default_n if N is None else N)
    tag = f"{name}-seed{seed}-trace{int(trace)}"
    work = OUT / tag
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    config = work / f"{name}.cfg"
    config.write_text(workload.text, encoding="utf-8")
    tally = Tally()
    record = {"env": environment(workload, seed), "params": workload.params,
              "config": workload.text, "nodes": workload.nodes}
    reports = work / "reports"

    if not trace:
        import reference

        setup_speed, run_speed = reference.Speed(), reference.Speed()

        def setup(i):
            setup_speed.before()
            result = child("describe", config)
            setup_speed.after(result["seconds"])
            return result

        def timed(i):
            run_speed.before()
            elapsed = gated_run(cli, workload, config, reports, tally, f"run {i}")
            run_speed.after(elapsed)
            return elapsed

        setups = sample_for(0, setup, setup_reps)
        if any(s["rc"] != 0 for s in setups):
            tally.problems.append("describe rejected the generated config")
        probe = child("run", config, reports)
        check_run(workload, probe["rc"], reports, tally, "peak-memory probe")
        gated_run(cli, workload, config, reports, tally, "warm-up")
        samples = sample_for(seconds, timed)
        referenced = run_speed.referenced()
        run_s = statistics.fmean(referenced)
        metrics = {
            "setup_s": statistics.median(setup_speed.referenced()),
            "run_s": run_s,
            "nodes_per_s": workload.nodes / run_s,
            "peak_rss_mb": probe["peak_rss_mb"],
        }
        record.update(
            run_samples=samples,
            setup_samples=[s["seconds"] for s in setups],
            reference_kernel={"setup": setup_speed.kernel_times, "run": run_speed.kernel_times},
            referenced_run_samples=referenced,
            wall={"setup_s": statistics.median(setup_speed.times),
                  "run_s": statistics.median(samples)},
        )
        units = metric_units("end_to_end")
    else:
        units = metric_units("per_layer")
        names = [n for n, _ in units]
        metrics = _traced_metrics(cli, make, workload, seed, work, seconds, tally, record, names)

    record.update(
        metrics={k: {"value": metrics[k], "unit": u} for k, u in units},
        gate={"value_err": tally.value_err, "methods_gap": tally.methods_gap,
              "tasks_failed": tally.failed / tally.attempted},
        attempted=tally.attempted,
        failed=tally.failed,
        problems=tally.problems,
        correct=tally.failed == 0 and not tally.problems,
    )
    (work / "record.json").write_text(json.dumps(record, indent=2) + "\n", encoding="utf-8")
    record["record_path"] = str(work.relative_to(ROOT) / "record.json")
    return record


def _traced_metrics(cli, make, workload, seed, work, seconds, tally, record, names) -> dict:
    """Per-layer metrics: warm up, trace N/4 and N/2, then pair runs at N for ``seconds``.

    Each rung below N is warmed up once untraced and then traced
    LADDER_REPS times.  Each pair at N is one untraced and one traced run
    on the same CPU, so the tracing overhead compares like with like.
    Times of every rung are medians over its traced runs, whose counts
    must all agree exactly.  Each ``<figure>.exp_N`` in ``names`` is the
    exponent in N of that figure over the three rungs.
    """
    import spans

    reports = work / "reports"
    ladder = [workload.N // 4, workload.N // 2, workload.N]
    recorders = []

    def traced_run(rung, config, label):
        rec = spans.Recorder(f"{work.name}-{label}")
        with spans.traced(rec):
            elapsed, rc = run_once(cli, config, reports)
        check_run(rung, rc, reports, tally, f"traced {label}")
        return rec, elapsed

    config = work / f"{workload.name}.cfg"
    gated_run(cli, workload, config, reports, tally, "warm-up")
    rungs = []
    for n in ladder[:-1]:
        rung = make(seed, n)
        rung_config = work / f"{workload.name}-N{n}.cfg"
        rung_config.write_text(rung.text, encoding="utf-8")
        gated_run(cli, rung, rung_config, reports, tally, f"warm-up N{n}")
        runs = sample_for(0, lambda i: traced_run(rung, rung_config, f"N{n}-{i}"), LADDER_REPS)
        recorders.append(runs[-1][0])  # keep the spans of the last run of each rung
        rungs.append(_median_summary([rec.summary() for rec, _ in runs], tally))

    last = []

    def pair(i):
        untraced = gated_run(cli, workload, config, reports, tally, f"untraced {i}")
        rec, traced = traced_run(workload, config, f"N{workload.N}-{i}")
        last[:] = [rec]
        return untraced, traced, rec.summary()

    pairs = sample_for(seconds, pair)
    recorders += last
    leftover = spans.installed_wrappers()
    if leftover:
        tally.problems.append(f"span wrappers left installed: {', '.join(leftover)}")
    spans.dump(recorders, work / "spans.json.gz")

    full = [summary for _, _, summary in pairs]
    rungs.append(_median_summary(full, tally))
    metrics = layer_metrics(rungs[-1], names)
    metrics["trace.run_s"] = statistics.median(t for _, t, _ in pairs)
    metrics["trace.overhead_frac"] = statistics.median(t / u for u, t, _ in pairs) - 1.0
    for name in names:
        if name.endswith(".exp_N"):
            figure = name.removesuffix(".exp_N")
            metrics[name] = exponent(ladder, [r.get(figure, 0.0) for r in rungs])
    self_sum = sum(full[-1][f"{m}.self_s"] for m in spans.MODULES)
    record.update(
        pairs=[[u, t] for u, t, _ in pairs],
        ladder=ladder,
        rungs=rungs,
        self_s_coverage=self_sum / pairs[-1][1],
    )
    return metrics


def _median_summary(summaries: list[dict], tally: Tally) -> dict[str, float]:
    """Median of each figure over identical traced runs, whose counts must agree."""
    _check_counts(summaries, tally)
    keys = {k for summary in summaries for k in summary}
    return {k: statistics.median(summary.get(k, 0.0) for summary in summaries) for k in keys}


def _check_counts(summaries: list[dict], tally: Tally) -> None:
    first = summaries[0]
    keys = {k for s in summaries for k in s if k.endswith((".calls", ".steps", ".points"))}
    differ = sorted(k for k in keys if any(s.get(k) != first.get(k) for s in summaries))
    if differ:
        tally.problems.append(f"traced counts differ between identical runs: {', '.join(differ)}")


def _print_record(record: dict, trace: bool) -> None:
    env = record["env"]
    print(
        f"env: nproc={env['nproc']} usable={env['cpus_usable']} {env['machine']} "
        f"python={env['python']} numpy={env['numpy']} scipy={env['scipy']} "
        + " ".join(f"{k}={v}" for k, v in env["threads"].items())
    )
    sizes = " ".join(f"{k}:N={v}" for k, v in env["N_by_workload"].items())
    print(f"workload={env['workload']} N={env['N']} seed={env['seed']} sizes: {sizes}")
    print(f"params: {json.dumps(record['params'])}")
    for name, m in record["metrics"].items():
        print(f"  {name:<44} {m['value']:<14.6g} {m['unit']}")
    if not trace:
        samples = record["run_samples"]
        wall = record["wall"]
        kernels = sum(len(k) for ks in record["reference_kernel"].values() for k in ks)
        wall = record["wall"]
        referenced = record["referenced_run_samples"]
        kernels = sum(len(k) for ks in record["reference_kernel"].values() for k in ks)
        print(f"  (run_s is the mean of {len(samples)} runs after one warm-up and setup_s "
              f"the median of {len(record['setup_samples'])} fresh processes, in reference "
              f"seconds: each wall time scaled by the kernel times around it, "
              f"{kernels} kernel calls in all; median of the scaled runs "
              f"{statistics.median(referenced):.4g} s; wall medians: run_s {wall['run_s']:.4g} s "
              f"(fastest {min(samples):.4g} s, slowest {max(samples):.4g} s), "
              f"setup_s {wall['setup_s']:.4g} s)")
    else:
        print(f"  ({len(record['pairs'])} untraced/traced pairs at N; module self_s sum to "
              f"{record['self_s_coverage']:.4f} of the last traced run; "
              f"ladder N = {record['ladder']})")
    gate = record["gate"]
    for name, unit in GATE:
        print(f"  {name:<44} {gate[name]:<14.6g} {unit}")
    print(f"  tasks: {record['attempted']} attempted, {record['failed']} failed")
    for problem in record["problems"]:
        print(f"  FAILED {problem}")
    print(f"record: {record['record_path']}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args(argv)
    if not args.seconds > 0:
        parser.error("--seconds must be positive")
    try:
        record = measure(args.workload, args.seed, args.seconds, bool(args.trace))
    except (BenchError, subprocess.TimeoutExpired) as err:
        print(f"benchmark error: {err}", file=sys.stderr)
        return 2
    _print_record(record, bool(args.trace))
    result = {
        "correct": record["correct"],
        "attempted": record["attempted"],
        "failed": record["failed"],
        "metrics": record["metrics"],
    }
    print(json.dumps(result))
    return 0 if record["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
