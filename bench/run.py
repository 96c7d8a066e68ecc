"""Benchmark of the qwjumps command line.

    python3 bench/run.py --workload NAME [--seed N] [--seconds S] [--trace 0|1]

Run from anywhere inside a checkout; the package is imported from the
checkout's ``src/``.  One operation is one ``qwjumps`` invocation, run as
its own process exactly as the console script runs it.  A pass runs every
operation of the workload once, closed loop, one after the other; passes
repeat until the next one would end past ``--seconds`` (at least one).
Every operation's outputs are checked (see ``checks.py``); an operation
that exits non-zero or fails a check counts as failed.

With ``--trace 0`` the end-to-end metrics are reported: ``setup_s``
(a fresh interpreter plus ``import qwjumps.cli_runner``, median of several
launches), ``wall_per_ok_op_s`` (pass wall time over the operations that
succeeded) and ``peak_rss_mb`` (largest RSS of any process in the pass),
each as the median over passes.  ``site_steps_per_s``, ``fail_frac`` and,
on sweep-long, ``full_sweep_core_h`` are printed with them.

With ``--trace 1`` the same operations run in-process through
``cli_runner.main(argv)``, sweeps at ``--jobs 1``: an untraced warm-up,
a run with spans around every public layer function (``tracing.py``) and
an untraced run, operation by operation; workloads with a process pool
run once more as processes at their own ``--jobs`` to measure pool
efficiency.  The per-layer metrics come from
the traced pass.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the lines before
it print every metric by name and unit, with quartiles and sample counts,
and the machine the run was made on.  Spans and the full result go to
``.bench_results/`` in the checkout.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
DEFAULT_SEED = 12345  # the CLI's own default --rng-seed
SETUP_LAUNCHES = 7
LAUNCH = "import sys; from qwjumps.cli_runner import main; sys.exit(main())"


@dataclass
class OpRun:
    """Outcome of one operation in one pass."""

    op: object
    wall_s: float
    exit_code: int
    cpu_s: float = 0.0
    maxrss_mb: float = 0.0
    error: str = ""
    files: dict = field(default_factory=dict)
    problems: list = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return self.exit_code == 0 and not self.problems


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


# ------------------------------------------------------------- running


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def _spawn(cmd: list[str], env: dict, stderr_path: Path):
    """Run ``cmd`` to completion; return (wall s, exit code, rusage)."""
    with open(stderr_path, "w") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(cmd, stdout=subprocess.DEVNULL, stderr=err, env=env, cwd=ROOT)
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            os.wait4(proc.pid, 0)
            proc.returncode = -9
            raise
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return wall, proc.returncode, usage


def measure_setup(env: dict, work: Path) -> list[float]:
    """Wall times of fresh interpreters importing the CLI module."""
    times = []
    for _ in range(SETUP_LAUNCHES):
        wall, code, _ = _spawn(
            [sys.executable, "-c", "import qwjumps.cli_runner"], env, work / "setup.err"
        )
        if code != 0:
            raise RuntimeError((work / "setup.err").read_text())
        times.append(wall)
    return times


def run_processes(ops, work: Path, env: dict) -> list[OpRun]:
    """One pass, every operation as its own process."""
    runs = []
    for i, op in enumerate(ops):
        out = work / f"op{i:02d}"
        shutil.rmtree(out, ignore_errors=True)
        rel = os.path.relpath(out, ROOT)
        err = work / f"op{i:02d}.err"
        wall, code, usage = _spawn(
            [sys.executable, "-c", LAUNCH, *op.argv, "--out", rel], env, err
        )
        runs.append(
            OpRun(
                op=op,
                wall_s=wall,
                exit_code=code,
                cpu_s=usage.ru_utime + usage.ru_stime,
                maxrss_mb=usage.ru_maxrss / 1024.0,
                error=err.read_text().strip(),
            )
        )
        _collect(runs[-1], out)
    return runs


def run_in_process(op, out: Path, main) -> OpRun:
    """Run one operation as ``main(argv)`` in this process, sweeps at --jobs 1."""
    shutil.rmtree(out, ignore_errors=True)
    argv = list(op.argv)
    if "--jobs" in argv:
        argv[argv.index("--jobs") + 1] = "1"
    argv += ["--out", os.path.relpath(out, ROOT)]
    stderr = io.StringIO()
    start = time.perf_counter()
    try:
        with contextlib.redirect_stderr(stderr):
            code = main(argv)
    except SystemExit as exc:  # argparse rejects the argv
        code = exc.code if isinstance(exc.code, int) else 2
    except Exception:  # an uncaught crash of the CLI is a failed operation
        code = 1
        stderr.write(traceback.format_exc())
    run = OpRun(op=op, wall_s=time.perf_counter() - start, exit_code=code,
                error=stderr.getvalue().strip())
    _collect(run, out)
    return run


def _collect(run: OpRun, out: Path) -> None:
    """Fingerprint and check an operation's outputs, then delete them."""
    import checks

    if run.exit_code == 0:
        run.files = checks.fingerprint(out) if out.is_dir() else {}
        run.problems = checks.invariants(run.op, run.files)
        ref = REFERENCE.get(checks.reference_key(run.op))
        if ref is not None:
            run.problems += checks.compare_reference(run.op, run.files, ref)
    shutil.rmtree(out, ignore_errors=True)


def digests(runs: list[OpRun], skip=()) -> list[dict]:
    return [
        {name: f["sha256"] for name, f in r.files.items() if name not in skip}
        for r in runs
    ]


# ------------------------------------------------------------- reporting


def environment(trace: bool) -> dict:
    import numpy

    def read(path: str) -> str | None:
        try:
            return Path(path).read_text()
        except OSError:
            return None

    cpuinfo = read("/proc/cpuinfo") or ""
    model = next(
        (line.split(":", 1)[1].strip() for line in cpuinfo.splitlines() if line.startswith("model name")),
        "unknown",
    )
    caches = {}
    for index in range(8):
        base = f"/sys/devices/system/cpu/cpu0/cache/index{index}/"
        size = read(base + "size")
        if size is None:
            break
        level = (read(base + "level") or "?").strip()
        kind = (read(base + "type") or "?").strip()[:1]
        caches[f"L{level}{kind}"] = size.strip()
    head = read(str(ROOT / ".git" / "HEAD"))
    sha = None
    if head and head.startswith("ref: "):
        sha = read(str(ROOT / ".git" / head[5:].strip()))
        if sha is None:
            packed = read(str(ROOT / ".git" / "packed-refs")) or ""
            ref = head[5:].strip()
            sha = next((l.split()[0] for l in packed.splitlines() if l.endswith(" " + ref)), None)
    elif head:
        sha = head
    src_digest = hashlib.sha256()
    for path in sorted((SRC / "qwjumps").glob("*.py")):
        src_digest.update(path.read_bytes())
    return {
        "nproc": os.cpu_count(),
        "cpu_model": model,
        "caches": caches,
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "git_sha": sha.strip() if sha else None,
        "src_sha256": src_digest.hexdigest(),
        "trace": trace,
    }


def print_metric(name: str, values: list[float], unit: str) -> None:
    q1, med, q3 = quartiles(values)
    print(f"# {name:<42} median {med:.6g} {unit}  (q1 {q1:.6g}, q3 {q3:.6g}, n={len(values)})")


# ------------------------------------------------------------------ main


REFERENCE: dict = {}


def prepare():
    """Import the checkout's package; return the workloads module.

    Raises:
        FileNotFoundError: If the checkout holds no qwjumps sources.
    """
    if not (SRC / "qwjumps" / "cli_runner.py").is_file():
        raise FileNotFoundError(f"no qwjumps sources under {SRC}")
    sys.path.insert(0, str(SRC))
    os.chdir(ROOT)
    REFERENCE.update(json.loads((Path(__file__).parent / "reference.json").read_text()))
    import workloads

    return workloads


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be nonnegative (it is the random protocol's --rng-seed)")
    try:
        workloads = prepare()
    except FileNotFoundError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if args.workload not in workloads.WORKLOADS:
        parser.error(f"unknown workload; choose from {sorted(workloads.WORKLOADS)}")
    results = ROOT / ".bench_results"
    work = ROOT / ".bench_work" / f"{args.workload}-{args.seed}-{args.trace}"
    work.mkdir(parents=True, exist_ok=True)
    results.mkdir(exist_ok=True)
    try:
        result = run(args, workloads, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    spans = result.pop("spans", None)
    (results / f"{stem}.json").write_text(json.dumps(result, indent=1) + "\n")
    if spans is not None:
        (results / f"{stem}.spans.json").write_text(json.dumps(spans) + "\n")
    print(json.dumps(result["line"]))
    return 0


def run(args, workloads, work: Path, scale: float = 1.0) -> dict:
    """One benchmark run; ``scale`` < 1 shrinks the horizons (self-test only)."""
    env = child_env()
    setup = measure_setup(env, work)
    ops = workloads.build(args.workload, args.seed, scale)
    info = environment(bool(args.trace))
    print(f"# qwjumps benchmark  workload={args.workload} seed={args.seed} "
          f"seconds={args.seconds:g} trace={args.trace}  ({len(ops)} operations per pass)")
    print(f"# why: {workloads.WORKLOADS[args.workload]}")
    print("# env: " + json.dumps(info, sort_keys=True))
    passes: list[list[OpRun]] = []
    extra: dict = {}
    if args.trace:
        metrics, extra = traced(ops, work, env, passes)
    else:
        metrics = untraced(args, ops, work, env, passes, setup, workloads)
    all_runs = [r for p in passes for r in p]
    problems = [f"{' '.join(r.op.argv)}: {p}" for r in all_runs for p in r.problems]
    problems += determinism(passes, extra.get("pool_runs"))
    for r in all_runs:
        if r.exit_code != 0:
            print(f"# failed (exit {r.exit_code}): {' '.join(r.op.argv)}: {r.error.splitlines()[-1] if r.error else ''}")
    for p in problems:
        print(f"# CHECK FAILED: {p}")
    attempted = len(all_runs)
    failed = sum(not r.ok for r in all_runs)
    print(f"# ops_attempted {attempted}  ops_failed {failed}  fail_frac {failed / attempted:.4f}")
    for name, (value, unit) in metrics.items():
        if not math.isfinite(value):
            raise ValueError(f"metric {name} is not finite: {value}")
    line = {
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    return {
        "env": info,
        "workload": args.workload,
        "seed": args.seed,
        "passes": [[{"argv": list(r.op.argv), "wall_s": r.wall_s, "exit": r.exit_code,
                     "cpu_s": r.cpu_s, "maxrss_mb": r.maxrss_mb, "problems": r.problems,
                     "error": r.error[-500:]} for r in p] for p in passes],
        "setup_s": setup,
        "problems": problems,
        "line": line,
        "spans": extra.get("spans"),
    }


def untraced(args, ops, work, env, passes, setup, workloads) -> dict:
    pass_walls = []
    start = time.perf_counter()
    while True:
        runs = run_processes(ops, work, env)
        passes.append(runs)
        pass_walls.append(sum(r.wall_s for r in runs))
        if time.perf_counter() - start + statistics.median(pass_walls) > args.seconds:
            break
    per_op, rate, rss, fail, core_h = [], [], [], [], []
    full_total = workloads.full_sweep_site_steps(args.seed) if args.workload == "sweep-long" else 0
    for runs, wall in zip(passes, pass_walls):
        ok = [r for r in runs if r.ok]
        steps = sum(r.op.site_steps for r in ok)
        per_op.append(wall / max(len(ok), 1))
        rate.append(steps / wall)
        rss.append(max(r.maxrss_mb for r in runs))
        fail.append(1.0 - len(ok) / len(runs))
        if full_total and steps:
            core_h.append(sum(r.cpu_s for r in ok) / steps * full_total / 3600.0)
    print_metric("setup_s", setup, "s")
    print_metric("wall_per_ok_op_s", per_op, "s")
    print_metric("peak_rss_mb", rss, "MB")
    print_metric("fail_frac", fail, "ratio")
    if args.workload != "seq-diag":
        print_metric("site_steps_per_s", rate, "1/s")
    if core_h:
        print_metric("full_sweep_core_h", core_h, "core-h")
        print(f"#   (projection: measured CPU-s per site-step x {full_total} site-steps of the "
              "792 + 12 full-scale cells; ignores how the subnormal cost grows past 10^4 steps)")
    return {
        "setup_s": (statistics.median(setup), "s"),
        "wall_per_ok_op_s": (statistics.median(per_op), "s"),
        "peak_rss_mb": (statistics.median(rss), "MB"),
    }


def traced(ops, work, env, passes) -> tuple[dict, dict]:
    """Per operation: an untraced warm-up, the traced run, an untraced run.

    The warm-up lets the process's allocator reach the state later runs
    see, which would otherwise make the first run of an operation seconds
    slower; ``trace_overhead_frac`` compares the traced run with the
    untraced one right after it.
    """
    import tracing
    from qwjumps import cli_runner

    tracer = tracing.Tracer()

    def traced_main(argv):
        tracer.install()
        try:
            return tracer.call("cli_runner.main", cli_runner.main, argv)
        finally:
            tracer.uninstall()

    warm, traced_runs, plain = [], [], []
    for i, op in enumerate(ops):
        out = work / f"op{i:02d}"
        warm.append(run_in_process(op, out, cli_runner.main))
        traced_runs.append(run_in_process(op, out, traced_main))
        plain.append(run_in_process(op, out, cli_runner.main))
    passes += [warm, traced_runs, plain]
    traced_wall = sum(r.wall_s for r in traced_runs)
    plain_wall = sum(r.wall_s for r in plain)
    pool_ops = [op for op in ops if op.pool]
    pool_eff, pool_runs = 0.0, None
    if pool_ops:
        pool_runs = run_processes(pool_ops, work, env)
        passes.append(pool_runs)
        busy = sum(r.wall_s for r in traced_runs if r.op.pool)
        jobs = int(pool_ops[0].argv[pool_ops[0].argv.index("--jobs") + 1])
        pool_eff = busy / (jobs * sum(r.wall_s for r in pool_runs))
    written = sum(f["bytes"] for r in traced_runs for f in r.files.values())
    metrics = tracing.layer_metrics(tracer, traced_wall, plain_wall, written, pool_eff)
    print(f"# in-process wall: untraced {plain_wall:.4f} s, traced {traced_wall:.4f} s")
    for name, (value, unit) in metrics.items():
        print(f"# {name:<42} {value:.6g} {unit}")
    gap = 1.0 - metrics["trace.self_sum_s"][0] / traced_wall
    print(f"# layer self times sum to {1 - gap:.4%} of the traced wall time "
          f"(gap {gap:.4%}, trace_overhead_frac {metrics['trace_overhead_frac'][0]:.4%})")
    return metrics, {"spans": tracer.spans, "pool_runs": pool_runs}


def determinism(passes: list[list[OpRun]], pool_runs) -> list[str]:
    """Reruns of one operation must write byte-identical files."""
    problems = []
    in_order = [p for p in passes if p is not pool_runs]
    first = digests(in_order[0])
    for runs in in_order[1:]:
        for op_digest, ref, r in zip(digests(runs), first, runs):
            if r.exit_code == 0 and ref and op_digest != ref:
                problems.append(f"{' '.join(r.op.argv)}: outputs differ between passes")
    if pool_runs:
        by_argv = {tuple(r.op.argv): d for r, d in zip(in_order[0], digests(in_order[0], ("sweep_config.json",)))}
        for r, d in zip(pool_runs, digests(pool_runs, ("sweep_config.json",))):
            ref = by_argv.get(tuple(r.op.argv))
            if r.exit_code == 0 and ref and d != ref:
                problems.append(f"{' '.join(r.op.argv)}: --jobs 1 and parallel outputs differ")
    return problems


if __name__ == "__main__":
    sys.exit(main())
