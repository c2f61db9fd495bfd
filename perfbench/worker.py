"""One benchmark job in a fresh interpreter.

    python3 perfbench/worker.py SPEC_JSON

``SPEC_JSON`` holds ``src`` (the package sources), ``argv`` (CLI arguments
without ``--out``), ``preset`` and ``sets`` (the same arguments as
``resolve_config`` takes them), ``out`` (output directory, or null for set-up
only) and ``spans`` (span file of a traced job, or null for an untraced one).

The worker times its set-up (importing ``dipolebounds.cli`` and one
``resolve_config``, i.e. everything before the first numerical call), then
runs the job once through ``dipolebounds.cli.main`` and prints one JSON line
with its timings, peak memory and, when traced, the per-layer span summary.
Nothing is imported before the set-up timer starts except the standard
library modules the timer needs.
"""

import json
import sys
import time


def main() -> int:
    t0 = time.perf_counter()
    spec = json.loads(sys.argv[1])
    sys.path.insert(0, spec["src"])
    from dipolebounds import cli
    t1 = time.perf_counter()
    cli.resolve_config(None, spec["preset"], spec["sets"])
    t2 = time.perf_counter()
    record = {"setup_s": t2 - t0, "resolve_config_s": t2 - t1,
              "module": cli.__file__}
    if spec["out"] is not None:
        record.update(run_job(cli, [*spec["argv"], "--out", spec["out"]],
                              spec["spans"]))
    print(json.dumps(record))
    return 0


def run_job(cli, argv: list, spans_path: str | None) -> dict:
    import contextlib
    import io
    import resource
    import traceback

    import spans

    tracer = spans.Tracer() if spans_path else None
    t0, c0 = time.perf_counter(), time.process_time()
    try:
        # the CLI's own standard output would mix with this worker's result
        with contextlib.redirect_stdout(io.StringIO()):
            if tracer is None:
                rc = cli.main(argv)
            else:
                with spans.installed(tracer):
                    rc = tracer.wrap("job", cli.main)(argv)
    except SystemExit as exc:
        rc = exc.code
    except Exception:
        traceback.print_exc()
        rc = -1
    out = {"rc": rc, "wall_s": time.perf_counter() - t0,
           "cpu_s": time.process_time() - c0,
           "peak_rss_mb":
               resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
           "environment": environment()}
    if tracer is not None:
        out["layers"] = tracer.summary()
        tracer.write(spans_path)
    return out


def blas_threads():
    """Thread count of the OpenBLAS bundled with numpy, if it is found."""
    import ctypes
    from pathlib import Path

    import numpy

    libs = Path(numpy.__file__).resolve().parent.parent / "numpy.libs"
    for lib in sorted(libs.glob("libscipy_openblas*.so*")):
        dll = ctypes.CDLL(str(lib))
        for symbol in ("scipy_openblas_get_num_threads64_",
                       "scipy_openblas_get_num_threads"):
            fn = getattr(dll, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                fn.argtypes = []
                return int(fn())
    return None


def environment() -> dict:
    """What the job ran on: CPUs, BLAS, library and interpreter versions."""
    import os
    import platform

    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "cpus_allowed": len(os.sched_getaffinity(0)),
        "blas_vendor": blas.get("name"),
        "blas_version": blas.get("version"),
        "blas_threads": blas_threads(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "python": platform.python_version(),
        "machine": platform.machine(),
        "DIPOLEBOUNDS_WORKERS": os.environ.get("DIPOLEBOUNDS_WORKERS"),
    }


if __name__ == "__main__":
    sys.exit(main())
