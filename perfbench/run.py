"""Benchmark runner for bosonlr.

Run from the root of a bosonlr checkout:

    python3 perfbench/run.py --workload presets --seed 0 --seconds 20 --trace 0

With ``--trace 0`` it prints the end-to-end metrics of the workload; with
``--trace 1`` the per-layer metrics of one traced pass, the tracing
overhead and the single-core speed-up.  The last line of standard output
is one JSON object: ``correct``, ``attempted``, ``failed`` and ``metrics``
(each ``{"value": ..., "unit": ...}``).  The line before it records the
environment.  See perfbench/README.md for the workloads and metrics.
"""

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time

WORKLOAD_NAMES = ("presets", "big-sector", "thermal-spectral")
SETUP_SAMPLES = 5
# BLAS threads stay fixed at one for every run and workload.  On a few
# shared cores a multi-threaded BLAS call waits for its slowest thread, so
# its time follows the host's load more than the program; the package's
# own sweep threads (``experiments._pmap``) already use every CPU.
BLAS_THREADS = 1
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
# per-experiment wall times of the presets workload, by runner key
EXPERIMENT_METRICS = {
    "lr": "lr_s",
    "local-approx": "local_approx_s",
    "cutoff": "cutoff_s",
    "moments": "moments_s",
    "kms": "kms_s",
}


def _metric(value, unit):
    return {"value": value, "unit": unit}


def _thread_env():
    return {var: str(BLAS_THREADS) for var in THREAD_VARS}


def _child(args, extra):
    """Run this script again in a child process and return its last line."""
    cmd = [sys.executable, os.path.abspath(__file__), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", "0"] + extra
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=170, check=False)
    if proc.returncode != 0:
        raise RuntimeError(f"{' '.join(extra)} child failed: {proc.stderr.strip()[-2000:]}")
    return proc.stdout.strip().splitlines()[-1]


def _make(workloads, args, root):
    scratch = os.path.join(root, ".perfbench")
    os.makedirs(scratch, exist_ok=True)
    return workloads.WORKLOADS[args.workload](args.seed, scratch)


def _setup_probe(args, root):
    """Import, input generation and the first warm-up call, timed from a
    fresh interpreter (the import is the part a warm process cannot redo)."""
    t0 = time.perf_counter()
    import workloads

    work = _make(workloads, args, root)
    work.warm_up()
    print(repr(time.perf_counter() - t0))


def _single_core_pass(args, root):
    """One untraced pass pinned to one CPU."""
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    import workloads

    work = _make(workloads, args, root)
    work.warm_up()
    gates = workloads.Gates()
    t0 = time.perf_counter()
    work.run_pass(gates)
    wall = time.perf_counter() - t0
    work.verify(gates)
    print(json.dumps({"wall_s": wall, "attempted": gates.attempted, "failed": gates.failed}))


def _git_revision(root):
    head = os.path.join(root, ".git", "HEAD")
    try:
        with open(head, encoding="utf-8") as fh:
            ref = fh.read().strip()
        if ref.startswith("ref: "):
            with open(os.path.join(root, ".git", ref[5:]), encoding="utf-8") as fh:
                return fh.read().strip()
        return ref
    except OSError:
        return "unknown"


def _source_lines(root):
    src = os.path.join(root, "src", "bosonlr")
    total = 0
    for name in sorted(os.listdir(src)):
        if name.endswith(".py"):
            with open(os.path.join(src, name), encoding="utf-8") as fh:
                total += sum(1 for _ in fh)
    return total


def environment(root):
    import numpy as np
    import scipy

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "cpu_count": os.cpu_count(),
        "affinity": sorted(os.sched_getaffinity(0)),
        "blas": blas.get("name"),
        "blas_version": blas.get("version"),
        "blas_thread_env": _thread_env(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "git_revision": _git_revision(root),
        "source_lines": _source_lines(root),
    }


def _peak_rss_mb():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _passes(work, gates, seconds, between=None):
    """Whole passes until the end of the next one would lie further past
    ``seconds`` than the end of the last one falls short of it; at least
    one.  A run so lasts about ``seconds``, however long a pass takes.
    ``between(share)``, if given, runs untimed after each pass with the
    share of ``seconds`` gone by (1 after the last pass).

    Also returns the peak RSS after the first pass: later passes creep up
    through heap fragmentation, and how many passes fit in a run depends on
    speed, so the peak at the end would mix memory with speed."""
    walls, cpus, parts, rss = [], [], {}, None
    start = time.perf_counter()
    while True:
        c0, t0 = time.process_time(), time.perf_counter()
        seconds_by_part = work.run_pass(gates)
        walls.append(time.perf_counter() - t0)
        cpus.append(time.process_time() - c0)
        rss = rss or _peak_rss_mb()
        for key, val in seconds_by_part.items():
            parts.setdefault(key, []).append(val)
        elapsed = time.perf_counter() - start
        last = elapsed + statistics.median(walls) / 2 >= seconds
        if between:
            between(1.0 if last else elapsed / seconds)
        if last:
            return walls, cpus, parts, rss


def _experiment_metrics(parts):
    return {
        metric: _metric(statistics.median(parts[key]) if key in parts else 0.0, "s")
        for key, metric in EXPERIMENT_METRICS.items()
    }


def _end_to_end(args, work, gates):
    setup = []

    def probe(share):
        # set-ups spread over the run meet the same changes in the host's
        # load as the passes, where a burst of them at the start meets one
        while len(setup) < SETUP_SAMPLES * share:
            setup.append(float(_child(args, ["--setup-probe"])))

    walls, _, _, rss = _passes(work, gates, args.seconds, probe)
    work.verify(gates)
    ok = (gates.attempted - gates.failed) / gates.attempted
    return {
        "setup_s": _metric(statistics.median(setup), "s"),
        "wall_s": _metric(statistics.median(walls), "s"),
        "peak_rss_mb": _metric(rss, "MB"),
        "ok_ops_frac": _metric(ok, "frac"),
    }, {"passes": len(walls), "setup_samples": setup, "walls": walls}


def _per_layer(args, work, gates):
    import tracer as tracing
    import workloads

    walls, cpus, parts, _ = _passes(work, gates, args.seconds)
    untraced = statistics.median(walls)
    tracer = tracing.Tracer()
    tracer.install()
    try:
        t0 = time.perf_counter()
        work.run_pass(gates)
        traced = time.perf_counter() - t0
    finally:
        tracer.uninstall()
    work.verify(gates)
    single = json.loads(_child(args, ["--single-core"]))
    gates.attempted += single["attempted"]
    gates.failed += single["failed"]
    summary = tracer.summary()
    metrics = layer_metrics(summary, workloads.experiments.RUNNERS)
    cpu = statistics.median(cpus)
    metrics.update(
        {
            "process.cpu_s": _metric(cpu, "s"),
            "process.cpu_util": _metric(cpu / untraced, "ratio"),
            "trace.untraced_wall_s": _metric(untraced, "s"),
            "trace.traced_wall_s": _metric(traced, "s"),
            "trace.overhead_s": _metric(traced - untraced, "s"),
            "trace.spans": _metric(len(tracer.spans), "count"),
            "parallel_speedup": _metric(single["wall_s"] / untraced, "ratio"),
            "failed_ops_frac": _metric(gates.failed / gates.attempted, "frac"),
        }
    )
    metrics.update(_experiment_metrics(parts))
    return metrics, {"passes": len(walls), "single_core_wall_s": single["wall_s"]}


# (metric, span name, statistic) read from the tracer summary
SPAN_METRICS = (
    ("fock.enumerate.calls", "fock.enumerate", "calls"),
    ("fock.enumerate.busy_s", "fock.enumerate", "busy_s"),
    ("operators.assemble.calls", "operators.assemble", "calls"),
    ("operators.assemble.busy_s", "operators.assemble", "busy_s"),
    ("operators.norm.calls", "operators.norm", "calls"),
    ("operators.norm.busy_s", "operators.norm", "busy_s"),
    ("dynamics.eigendecompose.calls", "dynamics.eigendecompose", "calls"),
    ("dynamics.eigendecompose.busy_s", "dynamics.eigendecompose", "busy_s"),
    ("dynamics.propagate.calls", "dynamics.propagate", "calls"),
    ("dynamics.propagate.busy_s", "dynamics.propagate", "busy_s"),
    ("dynamics.propagate.self_s", "dynamics.propagate", "self_s"),
    ("dynamics.evolve.calls", "dynamics.evolve", "calls"),
    ("dynamics.evolve.krylov_calls", "dynamics.krylov", "calls"),
    ("dynamics.evolve.krylov_busy_s", "dynamics.krylov", "busy_s"),
    ("dynamics.heisenberg_expectation.calls", "dynamics.heisenberg_expectation", "calls"),
    ("dynamics.heisenberg_expectation.busy_s", "dynamics.heisenberg_expectation", "busy_s"),
    ("dynamics.heisenberg_operator.calls", "dynamics.heisenberg_operator", "calls"),
    ("dynamics.heisenberg_operator.busy_s", "dynamics.heisenberg_operator", "busy_s"),
    ("thermal.two_point.calls", "thermal.two_point", "calls"),
    ("thermal.two_point.busy_s", "thermal.two_point", "busy_s"),
    ("thermal.two_point.self_s", "thermal.two_point", "self_s"),
    ("thermal.green_init.calls", "thermal.green_init", "calls"),
    ("thermal.green_init.busy_s", "thermal.green_init", "busy_s"),
    ("thermal.green_call.calls", "thermal.green_call", "calls"),
    ("thermal.green_call.busy_s", "thermal.green_call", "busy_s"),
    ("thermal.gibbs.calls", "thermal.gibbs", "calls"),
    ("thermal.gibbs.busy_s", "thermal.gibbs", "busy_s"),
    ("thermal.expectation.calls", "thermal.expectation", "calls"),
    ("thermal.expectation.busy_s", "thermal.expectation", "busy_s"),
    ("experiments.write_report.calls", "experiments.write_report", "calls"),
    ("experiments.write_report.busy_s", "experiments.write_report", "busy_s"),
)
COUNT_METRICS = (
    "fock.states",
    "operators.assemble.nnz",
    "dynamics.eigendecompose.dim3",
    "thermal.green_call.unique",
    "experiments.write_report.bytes",
)
LAYERS = ("lattice", "fock", "operators", "dynamics", "thermal", "experiments")


def layer_metrics(summary, runner_keys):
    """Every per-layer metric, zero where the workload never calls it."""
    out = {}
    for metric, span, stat in SPAN_METRICS:
        value = summary[stat].get(span, 0)
        out[metric] = _metric(value, "count" if stat == "calls" else "s")
    for metric in COUNT_METRICS:
        unit = "bytes" if metric.endswith("bytes") else "count"
        out[metric] = _metric(summary["counts"].get(metric, 0), unit)
    calls = summary["calls"].get("thermal.green_call", 0)
    unique = summary["counts"].get("thermal.green_call.unique", 0)
    out["thermal.green_call.unique_ratio"] = _metric(unique / calls if calls else 0.0, "ratio")
    for key in runner_keys:
        out[f"experiments.{key}.self_s"] = _metric(summary["self_s"].get(f"experiments.{key}", 0.0), "s")
    for layer in LAYERS:
        own = sum(v for name, v in summary["self_s"].items() if name.startswith(layer + "."))
        out[f"{layer}.self_s"] = _metric(own, "s")
    return out


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    parser.add_argument("--single-core", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "bosonlr", "__init__.py")):
        print("perfbench: no src/bosonlr here; run from the root of a bosonlr checkout",
              file=sys.stderr)
        return 2
    # set before numpy loads OpenBLAS; child processes inherit it
    os.environ.update(_thread_env())
    sys.path.insert(0, os.path.join(root, "src"))
    if args.setup_probe:
        _setup_probe(args, root)
        return 0
    if args.single_core:
        _single_core_pass(args, root)
        return 0

    import workloads

    work = _make(workloads, args, root)
    work.warm_up()
    gates = workloads.Gates()
    if args.trace:
        metrics, detail = _per_layer(args, work, gates)
    else:
        metrics, detail = _end_to_end(args, work, gates)
    for message in gates.messages:
        print(f"FAILED {message}", file=sys.stderr)
    env = environment(root)
    print(json.dumps({"workload": args.workload, "seed": args.seed, "environment": env, **detail}))
    print(json.dumps({
        "correct": gates.failed == 0,
        "attempted": gates.attempted,
        "failed": gates.failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
