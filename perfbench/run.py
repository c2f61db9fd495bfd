"""Benchmark of the dipolebounds command line, end to end and per layer.

Run from the repository root:

    python3 perfbench/run.py --workload crb_scan --seed 0 --seconds 10 --trace 0

Load model: a closed loop with one client running one job at a time.  A job
is one ``dipolebounds`` CLI invocation on the sources under ``src/``, run
in-process through ``dipolebounds.cli.main`` inside a fresh worker
interpreter (``worker.py``), so every job starts cold, as a CLI user's does,
and no job warms the allocator or caches for the next.  Jobs repeat until
``--seconds`` have passed (at least one).  ``--trace 0`` reports the
end-to-end metrics; ``--trace 1`` alternates untraced and traced jobs and
reports the per-layer metrics.  The last line of standard output is the
result as one JSON object; the full record goes to ``.perfbench/results/``.
The exit code is 0 only when every job passed its correctness checks.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench"

import workloads  # noqa: E402  (sibling module of this script)

# set-up-only interpreters per run for setup_s; the median is reported
SETUP_SAMPLES = 7
WORKER_TIMEOUT_S = 600


def run_worker(argv: list, out_dir: Path | None = None,
               spans_path: Path | None = None) -> dict:
    """Set-up and (given ``out_dir``) one job in a fresh interpreter."""
    if out_dir is not None:
        shutil.rmtree(out_dir, ignore_errors=True)
    preset, sets = workloads.resolve_args(argv)
    spec = {"src": str(SRC), "argv": argv, "preset": preset, "sets": sets,
            "out": None if out_dir is None else str(out_dir),
            "spans": None if spans_path is None else str(spans_path)}
    t0 = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, str(HERE / "worker.py"), json.dumps(spec)],
        cwd=ROOT, stdout=subprocess.PIPE, text=True,
        timeout=WORKER_TIMEOUT_S, check=out_dir is None)
    if proc.returncode != 0:
        # the worker died inside the job: a failed job, timed from outside
        return {"rc": proc.returncode, "wall_s": time.perf_counter() - t0,
                "cpu_s": math.nan, "peak_rss_mb": math.nan,
                "traced": spans_path is not None}
    record = json.loads(proc.stdout.strip().splitlines()[-1])
    if not Path(record["module"]).resolve().is_relative_to(SRC):
        raise RuntimeError(f"worker imported {record['module']}, not {SRC}")
    record["traced"] = spans_path is not None
    return record


def check_jobs(args, jobs: list, work: Path) -> float:
    """Record each job's correctness failures; returns the largest reference
    deviation seen."""
    ref = workloads.load_reference(args.workload, args.seed, args.tiny)
    tol = workloads.REFERENCE_TOL[args.workload]
    untraced_bytes = None
    worst = 0.0
    for i, job in enumerate(jobs):
        out = work / f"job{i}"
        errors = []
        if job["rc"] != 0:
            errors.append(f"exit code {job['rc']}")
        else:
            errors += workloads.check_gates(args.workload, args.seed, out)
            if ref is None:
                errors.append("no reference output recorded for this seed")
                dev = math.inf
            else:
                dev = workloads.reference_deviation(workloads.read_table(out),
                                                    ref)
            job["max_rel_dev"] = dev
            worst = max(worst, dev)
            if not dev <= tol:
                errors.append(f"reference deviation {dev:.3e} > {tol:g}")
            blob = workloads.output_bytes(out)
            if not job["traced"] and untraced_bytes is None:
                untraced_bytes = blob
            elif job["traced"] and blob != untraced_bytes:
                errors.append("traced outputs differ from untraced outputs")
        job["errors"] = errors
    return worst


def _median(values):
    return statistics.median(values) if values else 0.0


def layer_values(s: dict) -> dict:
    """Per-layer metrics of one traced job, from its span summary."""
    empty = {"calls": 0, "wall_s": 0.0, "self_s": 0.0, "size_sum": 0,
             "size_max": 0}

    def get(name, key):
        return s.get(name, empty)[key]

    def ratio(num, den, scale=1.0):
        return scale * num / den if den else 0.0

    scattered_pixels = (get("fields.scattered_point", "size_sum")
                        + get("fields.scattered_regularized", "size_sum"))
    scattered_s = (get("fields.scattered_point", "self_s")
                   + get("fields.scattered_regularized", "self_s"))
    pixels = get("detector.planar_grid", "size_sum")
    return {
        "quadrature.pv_matrix.calls": get("quadrature.pv_matrix", "calls"),
        "quadrature.pv_matrix.self_s": get("quadrature.pv_matrix", "self_s"),
        "quadrature.pv_integral.calls": get("quadrature.pv_integral", "calls"),
        "quadrature.pv_integral.self_s": get("quadrature.pv_integral", "self_s"),
        "qfi.modes": get("qfi.setup", "size_max"),
        "qfi.setup.calls": get("qfi.setup", "calls"),
        "qfi.setup.self_s": get("qfi.setup", "self_s"),
        "qfi.eval.calls": get("qfi.eval", "calls"),
        "qfi.eval.self_s": get("qfi.eval", "self_s"),
        "qfi.eval.us_per_time": ratio(get("qfi.eval", "self_s"),
                                      get("qfi.eval", "calls"), 1e6),
        "qfi.eval.bytes_computed": get("qfi.eval", "size_sum"),
        "qfi.qfi_matrix.self_s": get("qfi.qfi_matrix", "self_s"),
        "qfi.qfi_matrix.time_points": get("qfi.qfi_matrix", "size_sum"),
        "qfi.nsc_series.self_s": get("qfi.nsc_series", "self_s"),
        "qfi.nsc_series.time_points": get("qfi.nsc_series", "size_sum"),
        "fields.scattered_point.self_s": get("fields.scattered_point", "self_s"),
        "fields.scattered_point.pixels": get("fields.scattered_point",
                                             "size_sum"),
        "fields.scattered_regularized.self_s": get(
            "fields.scattered_regularized", "self_s"),
        "fields.scattered_regularized.pixels": get(
            "fields.scattered_regularized", "size_sum"),
        "fields.incident_field.self_s": get("fields.incident_field", "self_s"),
        "fields.intensity_parts.self_s": get("fields.intensity_parts",
                                             "self_s"),
        "fields.ns_per_pixel": ratio(scattered_s, scattered_pixels, 1e9),
        "detector.planar_grid.calls": get("detector.planar_grid", "calls"),
        "detector.planar_grid.self_s": get("detector.planar_grid", "self_s"),
        "detector.pixels": pixels,
        "detector.max_grid_pixels": get("detector.planar_grid", "size_max"),
        "fisher.count_gradients.self_s": get("fisher.count_gradients",
                                             "self_s"),
        "fisher.field_evals_per_pixel": ratio(scattered_pixels, pixels),
        "fisher.poisson_fi.self_s": get("fisher.poisson_fi", "self_s"),
        "fisher.fi_matrix.calls": get("fisher.fi_matrix", "calls"),
        "scenarios.sweep.self_s": get("scenarios.sweep", "self_s"),
        "cli.emit_s": get("cli.emit", "wall_s"),
        "trace.wall_s": get("job", "wall_s"),
        "trace.attributed_s": sum(v["self_s"] for k, v in s.items()
                                  if k != "job"),
        "trace.unattributed_s": get("job", "self_s"),
    }


def _metrics(section: str, values: dict) -> dict:
    """``values`` of every metric BENCHMARK.json lists in ``section``."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
            for m in spec[section]}


def main(argv: list | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.NAMES)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true",
                        help="tiny problem sizes (smoke test)")
    args = parser.parse_args(argv)

    if not (SRC / "dipolebounds" / "cli.py").is_file():
        print(f"benchmark: no package sources at {SRC}", file=sys.stderr)
        return 2
    # the load model runs the package single-worker (its default)
    workers_on_entry = os.environ.pop("DIPOLEBOUNDS_WORKERS", None)

    job = workloads.job_args(args.workload, args.seed, args.tiny)
    tag = f"{args.workload}{'_tiny' if args.tiny else ''}_seed{args.seed}" \
          f"_trace{args.trace}"
    work = WORK / "work" / args.workload
    results = WORK / "results"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    results.mkdir(parents=True, exist_ok=True)

    setup = [run_worker(job) for _ in range(SETUP_SAMPLES)]
    jobs = []
    t_start = time.perf_counter()
    while True:
        i = len(jobs)
        traced = bool(args.trace and i % 2)
        jobs.append(run_worker(
            job, work / f"job{i}",
            results / f"{tag}_job{i}_spans.csv.gz" if traced else None))
        done = time.perf_counter() - t_start >= args.seconds
        if done and (not args.trace or len(jobs) >= 2):
            break
    max_dev = check_jobs(args, jobs, work)

    attempted = len(jobs)
    failed = sum(bool(j["errors"]) for j in jobs)
    untraced = [j for j in jobs if not j["traced"]]
    if args.trace:
        per_job = [layer_values(j.get("layers", {}))
                   for j in jobs if j["traced"]]
        # counts repeat exactly; times are medians over the traced jobs
        values = {key: (per_job[0][key] if isinstance(per_job[0][key], int)
                        else _median([v[key] for v in per_job]))
                  for key in per_job[0]}
        values["cli.resolve_config_s"] = _median(
            [s["resolve_config_s"] for s in setup])
        values["process.cpu_s"] = _median([j["cpu_s"] for j in untraced])
        values["trace.overhead_s"] = (
            _median([j["wall_s"] for j in jobs if j["traced"]])
            - _median([j["wall_s"] for j in untraced]))
        values["output.max_rel_dev"] = max_dev
        metrics = _metrics("per_layer", values)
        counts_repeat = all(v[k] == per_job[0][k] for v in per_job
                            for k in v if isinstance(v[k], int))
    else:
        metrics = _metrics("end_to_end", {
            "wall_s": _median([j["wall_s"] for j in untraced]),
            "setup_s": _median([s["setup_s"] for s in setup]),
            "peak_rss_mb": _median([j["peak_rss_mb"] for j in untraced]),
            "ok_frac": (attempted - failed) / attempted,
        })
        counts_repeat = None
    correct = failed == 0

    env = dict(jobs[0].get("environment", {}), seed=args.seed,
               variant=args.seed % workloads.VARIANTS,
               params=workloads.variant_params(args.seed),
               DIPOLEBOUNDS_WORKERS_on_entry=workers_on_entry)
    record = {
        "workload": args.workload, "tiny": args.tiny, "seconds": args.seconds,
        "job": job, "environment": env, "setup": setup, "jobs": jobs,
        "failed_frac": failed / attempted, "counts_repeat": counts_repeat,
        "metrics": metrics,
    }
    (results / f"{tag}.json").write_text(
        json.dumps(record, indent=1) + "\n", encoding="utf-8")

    for j in jobs:
        for err in j["errors"]:
            print(f"FAILED job: {err}", file=sys.stderr)
    print("environment: " + json.dumps(env))
    print(f"jobs: {attempted} attempted, {failed} failed "
          f"(failed_frac {failed / attempted:g}), max_rel_dev {max_dev:.3e}")
    for name, m in metrics.items():
        print(f"{name} = {m['value']:.6g} {m['unit']}")
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
