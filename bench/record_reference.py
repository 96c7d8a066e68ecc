"""Record ``reference.json``: fingerprints of every operation's outputs.

    python3 bench/record_reference.py

Runs each workload once at the default seed and stores, per operation,
its exit status and the fingerprint of every file it wrote (see
``checks.py``).  Operations that fail here get no reference files and
are checked against invariants only.  Record only at a commit whose
outputs are trusted: later runs are compared with these fingerprints.
"""

from __future__ import annotations

import json
import shutil
import sys
from pathlib import Path

import run as bench


def main() -> int:
    workloads = bench.prepare()
    import checks

    reference = {}
    work = bench.ROOT / ".bench_work" / "reference"
    work.mkdir(parents=True, exist_ok=True)
    try:
        for name in workloads.WORKLOADS:
            for r in bench.run_processes(workloads.build(name, bench.DEFAULT_SEED), work, bench.child_env()):
                entry = {"rng_seed": r.op.rng_seed, "exit": r.exit_code}
                if r.exit_code == 0:
                    entry["files"] = {
                        file: {k: v for k, v in f.items() if k not in ("sha256", "bytes")}
                        for file, f in r.files.items()
                    }
                else:
                    entry["error"] = r.error.splitlines()[-1] if r.error else ""
                for problem in r.problems:
                    print(f"{' '.join(r.op.argv)}: {problem}", file=sys.stderr)
                reference[checks.reference_key(r.op)] = entry
                print(f"{name}: exit {r.exit_code} in {r.wall_s:.2f} s: {' '.join(r.op.argv)}")
    finally:
        shutil.rmtree(work, ignore_errors=True)
    path = Path(__file__).parent / "reference.json"
    path.write_text(json.dumps(reference, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
