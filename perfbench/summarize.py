"""Repeat the benchmark over seeds and summarise each metric's spread.

    python3 perfbench/summarize.py --seeds 1 10 --trace 0 [--workloads ...]
        [--out FILE]

Runs ``run.py`` once per seed and workload with ``run_seconds`` from
BENCHMARK.json, then prints per metric the median, the first and third
quartiles (``statistics.quantiles(values, n=4)``) and the spread: the
distance between the quartiles as a share of the median.  ``--out`` also
stores the summary in a JSON file, under the key ``trace0`` or ``trace1``
next to the run environment, keeping what the file already holds.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def summarize(values: list) -> dict:
    med = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 \
        else (med, med, med)
    return {"median": med, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / med if med else 0.0,
            "n": len(values), "values": values}


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", type=int, nargs=2, default=(1, 10),
                        metavar=("FIRST", "LAST"))
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--workloads", nargs="*",
                        default=[w["name"] for w in spec["workloads"]])
    parser.add_argument("--out", type=Path, default=None)
    args = parser.parse_args()

    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    doc = {}
    for workload in args.workloads:
        runs = []
        for seed in range(args.seeds[0], args.seeds[1] + 1):
            proc = subprocess.run(
                [sys.executable, *spec["command"][1:], "--workload", workload,
                 "--seed", str(seed), "--seconds", str(spec["run_seconds"]),
                 "--trace", str(args.trace)],
                cwd=ROOT, stdout=subprocess.PIPE, text=True, check=True)
            lines = proc.stdout.strip().splitlines()
            result = json.loads(lines[-1])
            runs.append(result)
            env = next(json.loads(line.split(": ", 1)[1]) for line in lines
                       if line.startswith("environment: "))
            print(f"{workload} seed {seed}: " + ", ".join(
                f"{k}={v['value']:.5g}" for k, v in result["metrics"].items()
                if k in bounds or args.trace), file=sys.stderr, flush=True)
        metrics = {name: summarize([r["metrics"][name]["value"] for r in runs])
                   for name in runs[0]["metrics"]}
        doc[workload] = {"attempted": sum(r["attempted"] for r in runs),
                         "failed": sum(r["failed"] for r in runs),
                         "metrics": metrics}
        for name, m in metrics.items():
            limit = bounds.get(name)
            flag = "" if limit is None else \
                f"  (bound {limit}, {'ok' if m['spread'] < limit / 3 else 'WIDE'})"
            print(f"{workload:10s} {name:36s} median {m['median']:.6g}  "
                  f"q1 {m['q1']:.6g}  q3 {m['q3']:.6g}  "
                  f"spread {m['spread']:.4f}{flag}")
    if args.out is not None:
        stored = json.loads(args.out.read_text(encoding="utf-8")) \
            if args.out.is_file() else {}
        for key in ("seed", "variant", "params"):
            env.pop(key)
        stored["environment"] = env
        stored[f"trace{args.trace}"] = doc
        args.out.write_text(json.dumps(stored, indent=1) + "\n",
                            encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
