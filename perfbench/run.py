"""Benchmark of vaisflow: end-to-end metrics per workload, per-layer metrics when traced.

Usage (from the repository root)::

    python3 perfbench/run.py --workload converge_n1_64 --seed 1 --seconds 25 --trace 0

The library is imported from ``src/`` next to this directory, never from an
installed copy; without it the benchmark exits with code 2.  One process
runs one workload as a closed loop with one client.  ``--trace 0`` reports
the end-to-end metrics; ``--trace 1`` alternates untraced and traced
requests and reports the per-layer metrics, the isolated layer calls and
the tracing overhead.  The last line of standard output is the result
object; the line before it holds the details (environment, drawn
parameters, raw per-request times and failures).
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORKDIR = ROOT / ".perfbench_work"

THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")

# Set-up repeats until it has taken this long (and at least three times).
SETUP_MIN_S = 1.0

# Layers that run while a workload is set up, traced once per traced run.
SETUP_LAYERS = (
    "flow.initial_state", "transverse.metric_from_potential", "transverse.ddbar",
    "transverse.log_det", "grid.diff1", "grid.diff2", "vaisman.build_chart",
)


def _nproc() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def _cache_sizes() -> dict:
    sizes = {}
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        try:
            level = (index / "level").read_text().strip()
            kind = (index / "type").read_text().strip()
            size = (index / "size").read_text().strip()
        except OSError:
            continue
        if kind != "Instruction":
            sizes[f"L{level}"] = size
    return sizes


def _git_commit() -> str | None:
    if not (ROOT / ".git").exists():  # do not report an enclosing repository's commit
        return None
    try:
        out = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.SubprocessError):
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def _src_digest() -> str:
    h = hashlib.sha256()
    for path in sorted((SRC / "vaisflow").glob("*.py")):
        h.update(path.name.encode())
        h.update(path.read_bytes())
    return h.hexdigest()


def _percentile(values, q: float) -> float:
    """Nearest-rank percentile; the maximum when there are fewer than 1/(1-q) values."""
    ordered = sorted(values)
    return ordered[max(1, math.ceil(len(ordered) * q)) - 1]


def _parse(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--profile", choices=("full", "smoke"), default="full",
                        help="grid sizes; 'smoke' is for the benchmark's own test")
    parser.add_argument("--corrupt", type=int, default=-1, metavar="K",
                        help="corrupt the output of request K before it is checked")
    return parser.parse_args(argv)


def _serve(args, workload, prepared, tracer):
    """The closed loop: requests until the next one would overrun ``--seconds``."""
    requests = []
    reference = None
    mid_holder: list = []
    sink = io.StringIO()
    start = time.perf_counter()
    index = 0
    while True:
        traced = tracer is not None and index % 2 == 1
        ctx = workload.before_request(index)
        problems: list[str] = []
        output = None
        if traced:
            tracer.install()
        t0 = time.perf_counter()
        try:
            with contextlib.redirect_stdout(sink):
                output = workload.request(prepared, ctx)
        except Exception:  # a request that raises is counted as failed
            problems.append(traceback.format_exc())
        finally:
            elapsed = time.perf_counter() - t0
            if traced:
                tracer.uninstall()
        sink.seek(0)
        sink.truncate()

        steps, final_t = 0, 0.0
        if output is not None:
            if index == args.corrupt:
                workload.corrupt(output)
            problems += workload.check(output)
            digest = workload.digest(output)
            if reference is None:
                reference = digest
            elif digest != reference:
                problems.append("output differs from the first request's")
            steps, final_t = workload.flow_facts(output)
        if tracer is not None and index == 0 and steps > 1:
            mid_holder = tracer.capture("flow.step", steps // 2)
        workload.after_request(index)

        requests.append({"s": elapsed, "traced": traced, "failures": problems,
                         "steps": steps, "final_t": final_t})
        index += 1
        total = time.perf_counter() - start
        typical = statistics.median(r["s"] for r in requests)
        if index >= 2 and total + typical > args.seconds:
            return requests, (mid_holder[0] if mid_holder else None)


def _per_layer(put, requests, tracer, setup_tracer, setup_traced_s, np):
    traced = [r for r in requests if r["traced"]]
    plain = [r["s"] for r in requests if not r["traced"]]
    n = len(traced)
    summary = tracer.summary()
    for name, layer in summary.items():
        put(f"{name}.self_s", layer["self_s"] / n, "s")
    for name in ("grid.diff1", "grid.diff2", "transverse.ddbar", "transverse.ricci",
                 "transverse.log_det", "transverse.metric_from_potential",
                 "snapshots.save_snapshot", "snapshots.load_metric_bundle"):
        put(f"{name}.calls", summary[name]["calls"] / n, "count")
    for name in ("grid.diff1", "grid.diff2"):
        layer = summary[name]
        points = layer["points"]
        put(f"{name}.ns_per_point", layer["self_s"] * 1e9 / points if points else 0.0, "ns")
        put(f"{name}.bytes_computed", layer["bytes"] / n, "B")
    for name in ("snapshots.save_snapshot", "snapshots.load_metric_bundle"):
        layer = summary[name]
        put(f"{name}.bytes", layer["bytes"] / n, "B")
        rate = layer["bytes"] / layer["self_s"] / 2**20 if layer["self_s"] > 0 else 0.0
        put(f"{name}.mib_per_s", rate, "MiB/s")
    step_ms = np.asarray(summary["flow.step"]["durations"]) * 1e3
    for q in (50, 99):
        put(f"flow.step.ms_p{q}", float(np.percentile(step_ms, q)) if step_ms.size else 0.0, "ms")
    put("flow.steps", traced[0]["steps"], "count")
    put("flow.final_t", traced[0]["final_t"], "1")

    traced_s = [r["s"] for r in traced]
    self_sum = sum(layer["self_s"] for layer in summary.values())
    put("trace.self_sum_frac", self_sum / sum(traced_s), "1")
    overhead = statistics.fmean(traced_s) - statistics.fmean(plain)
    put("trace.solve_s", statistics.fmean(traced_s), "s")
    put("trace.overhead_s", overhead, "s")
    put("trace.overhead_frac", overhead / statistics.fmean(plain), "1")

    setup_summary = setup_tracer.summary()
    for name in SETUP_LAYERS:
        put(f"setup.{name}.self_s", setup_summary[name]["self_s"], "s")
    put("setup.traced_s", setup_traced_s, "s")
    if self_sum > sum(traced_s):
        return [f"layer self times {self_sum:.6f} s exceed the traced solve time"]
    return []


def main(argv=None) -> int:
    args = _parse(argv)
    nproc = _nproc()
    for var in THREAD_VARS:
        os.environ[var] = str(nproc)
    os.environ["VAISFLOW_VERBOSITY"] = "quiet"

    if not (SRC / "vaisflow" / "__init__.py").is_file():
        print(f"error: no vaisflow sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import numpy as np
    import vaisflow
    from vaisflow import _kernels

    if Path(vaisflow.__file__).resolve().parent != (SRC / "vaisflow").resolve():
        print(f"error: imported vaisflow from {vaisflow.__file__}, not {SRC}", file=sys.stderr)
        return 2
    from tracing import Tracer
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}",
              file=sys.stderr)
        return 2

    workdir = WORKDIR / args.workload
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    workload = WORKLOADS[args.workload](args.seed, args.profile, workdir)
    setup_samples = []
    while len(setup_samples) < 3 or sum(setup_samples) < SETUP_MIN_S:
        t0 = time.perf_counter()
        prepared = workload.setup()
        setup_samples.append(time.perf_counter() - t0)

    setup_tracer = tracer = None
    setup_traced_s = 0.0
    if args.trace:
        setup_tracer = Tracer()
        with setup_tracer:
            t0 = time.perf_counter()
            workload.setup()
            setup_traced_s = time.perf_counter() - t0
        tracer = Tracer()

    requests, mid_state = _serve(args, workload, prepared, tracer)
    attempted = len(requests)
    failed = sum(1 for r in requests if r["failures"])
    plain = [r["s"] for r in requests if not r["traced"]]

    metrics: dict[str, dict] = {}

    def put(name, value, unit):
        metrics[name] = {"value": float(value), "unit": unit}

    run_failures = []
    if not args.trace:
        # Means, not medians: the core's speed switches between two levels in
        # phases of 10-20 s, and a median of short requests jumps between
        # them from run to run while the mean moves with the phase mix.
        put("setup_s", statistics.fmean(setup_samples), "s")
        put("solve_s", statistics.fmean(plain), "s")
        put("solve_s_p90", _percentile(plain, 0.9), "s")
        put("peak_rss_mib", resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MiB")
    else:
        run_failures = _per_layer(put, requests, tracer, setup_tracer, setup_traced_s, np)
        for name, value in workload.isolated(mid_state).items():
            put(name, value, "ms")
        tracer.save(workdir / "spans.npz")

    detail = {
        "workload": args.workload,
        "seed": args.seed,
        "profile": args.profile,
        "trace": args.trace,
        "params": workload.params,
        "client": "closed loop, one client",
        "requests": attempted,
        "failed_frac": failed / attempted,
        "failures": {str(i): r["failures"] for i, r in enumerate(requests) if r["failures"]},
        "run_failures": run_failures,
        "request_s": [r["s"] for r in requests],
        "request_traced": [r["traced"] for r in requests],
        "flow_steps": [r["steps"] for r in requests],
        "setup_samples_s": setup_samples,
        "array_bytes": workload.array_bytes(),
        "env": {
            "have_numba": bool(_kernels.HAVE_NUMBA),
            "python": platform.python_version(),
            "numpy": np.__version__,
            "nproc": nproc,
            "threads": {var: os.environ[var] for var in THREAD_VARS},
            "caches": _cache_sizes(),
            "git_commit": _git_commit(),
            "src_sha256": _src_digest(),
        },
    }
    (workdir / f"detail-trace{args.trace}.json").write_text(json.dumps(detail, indent=1))
    print(json.dumps({"detail": detail}))
    print(json.dumps({
        "correct": failed == 0 and not run_failures,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
