"""Fast self-test of the benchmark harness.

    python3 bench/selftest.py

Runs a miniature of every workload (horizons shrunk about 50-fold),
untraced and traced, and checks that each run is correct, reports every
metric named in BENCHMARK.json with its unit, that the traced counts
repeat exactly, and that the traced self times add up to the traced
wall time.  Exits non-zero on the first failure.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import shutil
import sys

import run as bench

SCALE = 0.02
COUNTS = ("walk_engine.site_steps", "seqstats.lzc_calls", "observables.moment_calls")


def mini_run(workloads, name: str, trace: int) -> dict:
    args = argparse.Namespace(workload=name, seed=bench.DEFAULT_SEED, seconds=0.0, trace=trace)
    work = bench.ROOT / ".bench_work" / f"selftest-{name}-{trace}"
    work.mkdir(parents=True, exist_ok=True)
    try:
        with contextlib.redirect_stdout(io.StringIO()):
            return bench.run(args, workloads, work, scale=SCALE)["line"]
    finally:
        shutil.rmtree(work, ignore_errors=True)


def main() -> int:
    workloads = bench.prepare()
    spec = json.loads((bench.ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    expected = {
        0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
        1: {m["name"]: m["unit"] for m in spec["per_layer"]},
    }
    failures: list[str] = []
    for name in workloads.WORKLOADS:
        before = len(failures)
        lines = {trace: mini_run(workloads, name, trace) for trace in (0, 1)}
        again = mini_run(workloads, name, 1)
        for trace, line in lines.items():
            got = {k: v["unit"] for k, v in line["metrics"].items()}
            if got != expected[trace]:
                failures.append(f"{name} trace={trace}: metrics {got} != {expected[trace]}")
            if not line["correct"] or line["failed"] or line["attempted"] < 1:
                failures.append(f"{name} trace={trace}: {line['correct']=} {line['failed']=}")
        traced, repeat = lines[1]["metrics"], again["metrics"]
        for count in COUNTS:
            if traced[count]["value"] != repeat[count]["value"]:
                failures.append(f"{name}: {count} did not repeat exactly")
        wall, self_sum = traced["trace.wall_s"]["value"], traced["trace.self_sum_s"]["value"]
        if not 0.0 <= wall - self_sum <= 0.05 * wall:
            failures.append(f"{name}: self times {self_sum} do not add up to the traced wall {wall}")
        print(f"{name}: {'ok' if len(failures) == before else 'FAILED'}", flush=True)
    for failure in failures:
        print(failure, file=sys.stderr)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
