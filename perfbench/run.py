"""Run one benchmark workload in this process and print its metrics.

    python3 perfbench/run.py --workload mimo-long --seed 1 --seconds 20 --trace 0

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  ``--trace 0`` reports
the end-to-end metrics; ``--trace 1`` alternates untraced and traced ops and
reports the per-layer metrics from the traced ones.  Run from the root of a
checkout: priorsid is imported from its ``src``.  Scratch files go under
``.perfbench_work/`` there, and the run leaves its result record and spans
in ``.perfbench_work/results/``.  See ``perfbench/README.md``.
"""

import time

T_START = time.perf_counter()

import os  # noqa: E402

# One BLAS/OpenMP thread, set before numpy is first imported: the OpenBLAS
# build is DYNAMIC_ARCH with MAX_THREADS=64 and the machine may be shared.
THREADS = {var: "1" for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")}
os.environ.update(THREADS)

import argparse  # noqa: E402
import collections  # noqa: E402
import contextlib  # noqa: E402
import ctypes  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
import warnings  # noqa: E402

import numpy as np  # noqa: E402

import tracer  # noqa: E402
import workloads  # noqa: E402

# setup_s is the median of this many set-ups, each in a fresh process, so
# one slow import does not move it.
SETUP_REPEATS = 5
WARNING_METRICS = ("estimate.warnings.EstimationWarning", "priors.warnings.ConstraintCompileWarning")
RESULTS = workloads.ROOT / ".perfbench_work" / "results"


def _blas_threads() -> int | None:
    """Threads the loaded OpenBLAS reports, or None if it cannot be asked."""
    with open("/proc/self/maps", encoding="utf-8") as fh:
        libs = {line.split()[-1] for line in fh if "openblas" in line and ".so" in line}
    for lib in sorted(libs):
        handle = ctypes.CDLL(lib)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(handle, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def machine_info() -> dict:
    import scipy

    with open("/proc/cpuinfo", encoding="utf-8") as fh:
        cpu = next((line.split(":", 1)[1].strip() for line in fh if line.startswith("model name")), "unknown")
    blas = np.__config__.CONFIG["Build Dependencies"]["blas"]
    return {
        "cpu": cpu,
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": blas.get("openblas configuration", f"{blas['name']} {blas['version']}"),
        "thread_env": THREADS,
        "blas_threads": _blas_threads(),
    }


def run_ops(wl, inputs, seconds: float, trace: tracer.Tracer | None) -> list[dict]:
    """Closed loop: start ops back to back until ``seconds`` have passed.

    With a tracer, odd ops are traced and even ones are not, so the trace
    overhead is measured within the run; at least one of each is run.
    """
    ops = []
    deadline = time.perf_counter() + seconds
    while not ops or time.perf_counter() < deadline or (trace is not None and len(ops) < 2):
        op_id = len(ops)
        traced = trace is not None and op_id % 2 == 1
        wl.prepare(inputs)
        raw, error = None, None
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            with trace.op(op_id) if traced else contextlib.nullcontext():
                start, start_cpu = time.perf_counter(), time.process_time()
                try:
                    raw = wl.run(inputs)
                except Exception:  # noqa: BLE001 - a failed op is counted, the run goes on
                    error = traceback.format_exc()
                elapsed, cpu = time.perf_counter() - start, time.process_time() - start_cpu
        warned = collections.Counter(
            f"{w.category.__module__.removeprefix('priorsid.')}.warnings.{w.category.__name__}"
            for w in caught
        )
        ops.append({
            "id": op_id,
            "seconds": elapsed,
            "cpu_s": cpu,
            "traced": traced,
            "error": error,
            "outcome": None if error else wl.collect(inputs, raw),
            "warnings": dict(warned),
        })
    return ops


def measure_setup(args) -> list[float]:
    """Seconds from a fresh process's first statement to generated inputs."""
    cmd = [sys.executable, __file__, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", "0", "--setup-only"] + (["--tiny"] if args.tiny else [])
    return [
        float(subprocess.run(cmd, capture_output=True, text=True, check=True, timeout=120).stdout)
        for _ in range(SETUP_REPEATS)
    ]


def _metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true", help="small inputs, for the harness self test")
    parser.add_argument("--setup-only", action="store_true", help="print the set-up seconds and exit")
    args = parser.parse_args(argv)

    try:
        workloads.import_priorsid()
    except (FileNotFoundError, ImportError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 2

    wl = workloads.make(args.workload, args.tiny)
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    work = workloads.ROOT / ".perfbench_work" / f"{tag}-{os.getpid()}"
    if args.setup_only:
        try:
            wl.generate(args.seed, work / "inputs")
            print(time.perf_counter() - T_START)
        finally:
            shutil.rmtree(work, ignore_errors=True)
        return 0

    setup_runs = [] if args.trace else measure_setup(args)
    try:
        inputs = wl.generate(args.seed, work / "inputs")

        # Untimed warm-up on a small instance of the same op, so lazy
        # imports and first-call set-up are done before timing.
        warm = workloads.make(args.workload, tiny=True)
        warm_inputs = warm.generate(args.seed, work / "warmup")
        warm.prepare(warm_inputs)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            warm.run(warm_inputs)

        trace = tracer.Tracer() if args.trace else None
        ops = run_ops(wl, inputs, args.seconds, trace)
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

        ref = wl.reference(inputs)
        first = passed = None
        for op in ops:
            if op["error"]:
                op["failures"] = [op["error"]]
                continue
            op["failures"] = wl.check(op["outcome"], first, ref)
            if first is None:
                first = op["outcome"]
            if passed is None and not op["failures"]:
                passed = op["outcome"]
        markov_rel_err = wl.markov_rel_err(inputs, passed) if passed is not None else None
    finally:
        shutil.rmtree(work, ignore_errors=True)

    failed = sum(1 for op in ops if op["failures"])
    for op in ops:
        for failure in op["failures"]:
            print(f"op {op['id']} failed: {failure}", file=sys.stderr)

    untraced = [op["seconds"] for op in ops if not op["traced"]]
    if args.trace:
        traced_ops = [op for op in ops if op["traced"]]
        metrics = {
            name: _metric(value, unit)
            for name, (value, unit) in tracer.layer_metrics(trace.spans, [op["id"] for op in traced_ops]).items()
        }
        for name in WARNING_METRICS:
            metrics[name] = _metric(statistics.median(op["warnings"].get(name, 0) for op in traced_ops), "count")
        metrics["estimate.markov_rel_err"] = _metric(markov_rel_err, "ratio")
        metrics["trace.overhead_s"] = _metric(
            statistics.median(op["seconds"] for op in traced_ops) - statistics.median(untraced), "s"
        )
    else:
        metrics = {
            "op_s.p50": _metric(statistics.median(untraced), "s"),
            "setup_s": _metric(statistics.median(setup_runs), "s"),
            "peak_rss_mb": _metric(peak_rss_mb, "MB"),
        }

    machine = machine_info()
    RESULTS.mkdir(parents=True, exist_ok=True)
    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
        "tiny": args.tiny, "machine": machine, "setup_runs_s": setup_runs,
        "ops": [{k: op[k] for k in ("id", "seconds", "cpu_s", "traced", "failures", "warnings")} for op in ops],
        "metrics": metrics,
    }
    if args.trace:
        record["functions_per_op"] = tracer.per_op_totals(trace.spans)
        (RESULTS / f"{tag}.spans.json").write_text(json.dumps(trace.spans))
    (RESULTS / f"{tag}.json").write_text(json.dumps(record, indent=1))

    print("machine: " + json.dumps(machine))
    print(f"{args.workload} seed {args.seed}: {len(ops)} ops, {failed} failed")
    print(f"  {'markov_rel_err (accuracy, not timed)':45s} {markov_rel_err!r} ratio")
    for name, metric in metrics.items():
        print(f"  {name:45s} {metric['value']!r} {metric['unit']}")
    print(json.dumps({"correct": failed == 0, "attempted": len(ops), "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
