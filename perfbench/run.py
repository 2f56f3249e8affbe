"""End-to-end benchmark of the rstokes command line.

usage: python3 perfbench/run.py --workload NAME --seconds S [--seed N] [--trace 0|1]

Run from the root of a source checkout (the directory holding src/rstokes).
A closed loop with one client: one CLI process at a time is spawned from
this process through launch.py, each timed from spawn to exit, until the
next op would end after --seconds.  Inputs come from workloads.generate and
depend only on the workload and the seed; every op's outputs are checked
(checks.py), and the CSVs of all ops must be byte-identical.

--trace 0 reports the end-to-end metrics (medians over ops):
  wall_s       process wall per op, spawn to exit
  setup_s      spawn until rstokes.cli is imported, per op
  peak_rss_mb  largest ru_maxrss of the op's CLI processes (MiB)
--trace 1 alternates untraced and traced ops and reports the per-layer
metrics of tracer.py (medians over traced ops), the import breakdown of a
``python -X importtime`` child, and the tracing overhead: trace.overhead_s
compares op walls and is within their noise at this run length, while
trace.wrapper_s is the wrappers' own time, measured inside the process.

The last line of stdout is one JSON object: correct, attempted, failed and
metrics.  A line before it carries the run record (versions, machine, ops).
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from typing import Dict, List

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import checks  # noqa: E402
import tracer  # noqa: E402
from workloads import DEFAULT_SEED, WORKLOADS, generate, op_argvs  # noqa: E402

MIN_OPS = 3
END_TO_END_UNITS = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MiB"}
PER_LAYER_UNITS = {
    **{m: ("count" if m.endswith("_calls") else "s") for m in tracer.SPAN_METRICS},
    "volterra.second_kind_madds": "madd.computed",
    "spectral.nodes": "count",
    "spectral.matrix_mb": "MiB.computed",
    "csvio.rows_written": "count",
    "csvio.bytes_written": "B",
    "nonlinear.sweeps": "count",
    "nonlinear.sweep_s": "s",
    "trace.spans": "count",
    "import.rstokes_s": "s",
    "import.scipy_signal_s": "s",
    "import.scipy_integrate_s": "s",
    "trace.overhead_s": "s",
    "trace.wrapper_s": "s",
}


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return args


def nproc() -> int:
    return len(os.sched_getaffinity(0))


def child_env(root: str) -> Dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.path.join(root, "src")
    # the client is one process; its BLAS uses no more threads than cores
    for key in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[key] = str(nproc())
    return env


def spawn(cmd: List[str], env: Dict[str, str], log_path: str):
    """Run cmd to completion; (spawned, exited, exit code, rusage)."""
    with open(log_path, "wb") as log:
        spawned = time.monotonic()
        proc = subprocess.Popen(cmd, stdout=log, stderr=subprocess.STDOUT, env=env)
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        exited = time.monotonic()
    proc.returncode = os.waitstatus_to_exitcode(status)
    return spawned, exited, proc.returncode, usage


def run_op(workload: str, gen_dir: str, op_dir: str, env, traced: bool) -> Dict:
    """One op: its CLI processes in order, timed; spans loaded when traced."""
    os.makedirs(op_dir)
    op = {"wall": 0.0, "setup": 0.0, "rss_mb": 0.0, "codes": [], "spans": []}
    for k, argv in enumerate(op_argvs(workload, gen_dir, op_dir)):
        stamp = os.path.join(op_dir, f"stamp{k}")
        trace_path = os.path.join(op_dir, f"spans{k}.json") if traced else "-"
        cmd = [sys.executable, os.path.join(HERE, "launch.py"), stamp, trace_path] + argv
        spawned, exited, code, usage = spawn(cmd, env, os.path.join(op_dir, f"log{k}"))
        op["wall"] += exited - spawned
        op["rss_mb"] = max(op["rss_mb"], usage.ru_maxrss / 1024.0)
        op["codes"].append(code)
        try:
            with open(stamp) as handle:
                op["setup"] += float(handle.read()) - spawned
        except (OSError, ValueError):
            op["setup"] = float("nan")
        if traced and code == 0:
            op["spans"].append(tracer.load(trace_path))
    return op


def iterations_rows(op_dir: str) -> int:
    for root, _, files in os.walk(op_dir):
        if "iterations.csv" in files:
            return len(checks.read_csv(os.path.join(root, "iterations.csv"))[1])
    return 0


def import_breakdown(env) -> Dict[str, float]:
    proc = subprocess.run(
        [sys.executable, "-X", "importtime", "-c", "import rstokes.cli"],
        env=env, capture_output=True, text=True, check=True,
    )
    return tracer.import_breakdown(proc.stderr)


def _cache_sizes() -> Dict[str, str]:
    out = {}
    base = "/sys/devices/system/cpu/cpu0/cache"
    try:
        for index in sorted(os.listdir(base)):
            with open(os.path.join(base, index, "level")) as handle:
                level = handle.read().strip()
            with open(os.path.join(base, index, "size")) as handle:
                size = handle.read().strip()
            if level in ("2", "3"):
                out[f"L{level}"] = size
    except OSError:
        pass
    return out


def run_record(root: str, args, ops: List[Dict]) -> Dict:
    import numpy as np
    import scipy

    commit = "unknown (not a git checkout)"
    if os.path.isdir(os.path.join(root, ".git")):
        proc = subprocess.run(["git", "-C", root, "rev-parse", "HEAD"],
                              capture_output=True, text=True)
        commit = proc.stdout.strip() or commit
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "commit": commit,
        "nproc": nproc(),
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": int(child_env(root)["OPENBLAS_NUM_THREADS"]),
        "caches": _cache_sizes(),
        "ops": len(ops),
        "per_op": [
            {k: op[k] for k in ("traced", "wall", "setup", "rss_mb", "sweeps", "problems")}
            for op in ops
        ],
    }


def _metric(value: float, unit: str) -> Dict:
    return {"value": value, "unit": unit}


def main(argv=None) -> int:
    args = parse_args(argv)
    # a terminated run still kills its CLI child and removes its work files
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "rstokes", "cli.py")):
        print("error: run from the root of an rstokes checkout (src/rstokes/cli.py "
              "not found)", file=sys.stderr)
        return 2
    # the inverse generator imports the library in this process
    sys.path.insert(0, os.path.join(root, "src"))

    run_dir = os.path.join(root, ".perfbench_work", f"run-{os.getpid()}")
    shutil.rmtree(run_dir, ignore_errors=True)
    env = child_env(root)
    try:
        gen_dir = os.path.join(run_dir, "inputs")
        facts = generate(args.workload, args.seed, gen_dir)
        reference = None
        if args.seed == DEFAULT_SEED:
            with open(os.path.join(HERE, "reference.json")) as handle:
                reference = json.load(handle)[args.workload]
        imports = import_breakdown(env) if args.trace else {}
        ops = measure(args, gen_dir, run_dir, env, facts, reference)
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)

    failed = sum(1 for op in ops if op["problems"])
    if args.trace:
        metrics = layer_summary(ops, imports)
    else:
        metrics = {
            "wall_s": statistics.median(op["wall"] for op in ops),
            "setup_s": statistics.median(op["setup"] for op in ops),
            "peak_rss_mb": statistics.median(op["rss_mb"] for op in ops),
        }
        metrics = {k: _metric(v, END_TO_END_UNITS[k]) for k, v in metrics.items()}

    record = run_record(root, args, ops)
    print("run record: " + json.dumps(record, sort_keys=True))
    print(json.dumps({"correct": failed == 0, "attempted": len(ops),
                      "failed": failed, "metrics": metrics}))
    return 0


def measure(args, gen_dir: str, run_dir: str, env, facts: Dict, reference) -> List[Dict]:
    """Closed loop of ops until the next one would end after args.seconds."""
    ops: List[Dict] = []
    first_digests = None
    started = time.monotonic()
    min_ops = 2 if args.trace else MIN_OPS
    while True:
        traced = bool(args.trace) and len(ops) % 2 == 1
        same_kind = [op["wall"] for op in ops if op["traced"] == traced]
        if len(ops) >= min_ops:
            expected = statistics.median(same_kind or [op["wall"] for op in ops])
            if time.monotonic() - started + expected > args.seconds:
                break
        op_dir = os.path.join(run_dir, f"op{len(ops)}")
        op = run_op(args.workload, gen_dir, op_dir, env, traced)
        op["traced"] = traced
        op["problems"] = checks.check_op(args.workload, op_dir, op["codes"], facts)
        op["sweeps"] = iterations_rows(op_dir)
        digests = checks.csv_digests(op_dir)
        if first_digests is None:
            first_digests = digests
        elif digests != first_digests:
            kind = "traced" if traced else "untraced"
            op["problems"].append(f"CSVs of this {kind} op differ from op 0's bytes")
        if reference is not None and not op["problems"]:
            actual = checks.extract_reference(args.workload, op_dir)
            op["problems"] += checks.compare_reference(actual, reference)
        shutil.rmtree(op_dir)
        ops.append(op)
        print(f"op {len(ops) - 1}: {'traced' if traced else 'untraced'} "
              f"wall {op['wall']:.4f} s setup {op['setup']:.4f} s "
              f"rss {op['rss_mb']:.1f} MiB sweeps {op['sweeps']} "
              f"{'; '.join(op['problems']) or 'ok'}", flush=True)
    return ops


def _median(values) -> float:
    values = list(values)
    return statistics.median(values) if values else 0.0


def layer_summary(ops: List[Dict], imports: Dict[str, float]) -> Dict:
    traced = [op for op in ops if op["traced"] and op["spans"]]
    untraced = [op for op in ops if not op["traced"]]
    per_op = [tracer.combine([tracer.layer_metrics(s) for s in op["spans"]])
              for op in traced]
    values = {}
    for name in PER_LAYER_UNITS:
        if name in imports:
            values[name] = imports[name]
        elif name == "trace.overhead_s":
            values[name] = (_median(op["wall"] for op in traced)
                            - _median(op["wall"] for op in untraced))
        else:
            values[name] = _median(m[name] for m in per_op)
    return {k: _metric(v, PER_LAYER_UNITS[k]) for k, v in values.items()}


if __name__ == "__main__":
    sys.exit(main())
