"""Record the reference outputs the benchmark checks every job against.

    python3 perfbench/record_reference.py [WORKLOAD ...]

Runs each workload once per seed variant, at full and tiny size, checks the
physics gates and writes ``perfbench/reference/<workload>.json``.  Run it
only on a commit whose outputs are trusted: the benchmark fails any job
whose outputs move from these by more than ``workloads.REFERENCE_TOL``.
"""

from __future__ import annotations

import json
import shutil
import sys

import run
import workloads


def record(workload: str) -> dict:
    doc = {}
    for size, tiny in (("full", False), ("tiny", True)):
        doc[size] = {}
        for variant in range(workloads.VARIANTS):
            out = run.WORK / "reference" / workload / f"{size}{variant}"
            job = run.run_worker(workloads.job_args(workload, variant, tiny),
                                 out)
            errors = workloads.check_gates(workload, variant, out) \
                if job["rc"] == 0 else [f"exit code {job['rc']}"]
            if errors:
                raise SystemExit(f"{workload} {size} variant {variant}: "
                                 + "; ".join(errors))
            doc[size][str(variant)] = workloads.reference_record(
                workloads.read_table(out))
            print(f"{workload} {size} variant {variant}: "
                  f"{job['wall_s']:.2f} s", flush=True)
            shutil.rmtree(out)
    return doc


def main(names: list) -> int:
    workloads.REFERENCE_DIR.mkdir(exist_ok=True)
    for workload in names or workloads.NAMES:
        doc = record(workload)
        path = workloads.REFERENCE_DIR / f"{workload}.json"
        lines = [f' "{size}": {{\n' + ",\n".join(
            f'  "{v}": {json.dumps(rec)}' for v, rec in recs.items()) + "\n }"
            for size, recs in doc.items()]
        path.write_text("{\n" + ",\n".join(lines) + "\n}\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
