"""Benchmark runner: one workload (or all) end to end, or compare two runs.

    python3 perfbench/run.py --workload figure-cells --seed 1 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --trace 1
    python3 perfbench/run.py --compare parent.jsonl change.jsonl

A run sets up its workload several times (``setup_s`` is the median),
measures for ``--seconds`` (default: ``run_seconds``) with the program's
tracer off, checks every output against the recorded reference, and
prints each metric by name with its unit; timings are in ``ref`` units
of a reference kernel sampled while the work runs (``hostref.py``), and
``wall`` lines repeat them in host time.  ``--trace 1`` runs each unit
of work twice, untraced and with the tracer on, and reports the
per-layer metrics plus the tracing overhead.  The last line
of standard output is one JSON object:
``{"correct", "attempted", "failed", "metrics"}`` -- the end-to-end
metrics with ``--trace 0``, the per-layer metrics with ``--trace 1``.
A failed check prints the problems and exits with code 1.

Metric names, units and bounds come from ``BENCHMARK.json`` at the root
of the checkout; the program is imported from the checkout's ``src/``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import subprocess
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
SPEC_PATH = os.path.join(ROOT, "BENCHMARK.json")
WORKLOAD_NAMES = ("figure-cells", "capacity-sweep", "serve-zipf")
#: the ``ref``-unit timings in host time, and the reference kernel's own
WALL_UNITS = {"results_per_s": "1/s", "resp_p50_ms": "ms",
              "resp_p90_ms": "ms", "ref_ms": "ms"}


def load_spec() -> dict:
    with open(SPEC_PATH) as fh:
        return json.load(fh)


def environment() -> dict:
    """Host, CPU count, commit and library versions recorded per result."""
    import numpy

    sha = "unknown"
    if os.path.isdir(os.path.join(ROOT, ".git")):
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True, timeout=30)
        if done.returncode == 0:
            sha = done.stdout.strip()
    return {"host": platform.node(), "nproc": os.cpu_count(),
            "git_sha": sha, "python": platform.python_version(),
            "numpy": numpy.__version__}


def import_program() -> None:
    """Put the checkout's ``src/`` first on the path and import from it."""
    if not os.path.isdir(os.path.join(SRC, "repro")):
        raise SystemExit(f"perfbench: no program source at {SRC}")
    sys.path.insert(0, SRC)
    import repro

    if not os.path.abspath(repro.__file__).startswith(SRC + os.sep):
        raise SystemExit(f"perfbench: imported repro from {repro.__file__}, "
                         f"not from {SRC}")


def print_metrics(label: str, values: dict, entries: list) -> dict:
    """Print ``name value unit`` lines; return the result-line metrics."""
    out = {}
    for entry in entries:
        name, unit = entry["name"], entry["unit"]
        value = float(values.get(name, 0.0))
        note = "" if name in values else "  (layer not run here)"
        print(f"{label} {name} = {value:.6g} {unit}{note}")
        out[name] = {"value": value, "unit": unit}
    return out


def run_one(args, spec: dict) -> int:
    import workloads

    env = environment()
    print(f"env {json.dumps(env, sort_keys=True)}")
    workdir_root = os.path.join(HERE, ".work")
    os.makedirs(workdir_root, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=workdir_root)
    try:
        outcome = workloads.run_workload(
            args.workload, seed=args.seed, seconds=args.seconds,
            trace=bool(args.trace), size=args.size, workdir=workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    label = f"[{args.workload}]"
    end_to_end = print_metrics(label, outcome["end_to_end"], spec["end_to_end"])
    for name, value in outcome["wall"].items():
        print(f"{label} wall {name} = {value:.6g} {WALL_UNITS[name]}")
    error_rate = outcome["failed"] / outcome["attempted"]
    print(f"{label} error_rate = {error_rate:.6g} ratio "
          f"({outcome['failed']} of {outcome['attempted']} operations)")
    metrics = end_to_end
    if args.trace:
        metrics = print_metrics(label, outcome["layers"], spec["per_layer"])
    for problem in outcome["problems"]:
        print(f"{label} CHECK FAILED: {problem}")
    correct = not outcome["problems"]
    result = {"correct": correct, "attempted": outcome["attempted"],
              "failed": outcome["failed"], "metrics": metrics}
    if args.record:
        record = dict(result, workload=args.workload, seed=args.seed,
                      seconds=args.seconds, trace=args.trace, size=args.size,
                      env=env, end_to_end=end_to_end, wall=outcome["wall"])
        with open(args.record, "a") as fh:
            fh.write(json.dumps(record, sort_keys=True) + "\n")
    print(json.dumps(result, sort_keys=True))
    return 0 if correct else 1


def run_all(args) -> int:
    """Each workload in its own process, so each has its own peak RSS."""
    correct, attempted, failed, metrics = True, 0, 0, {}
    for name in WORKLOAD_NAMES:
        cmd = [sys.executable, os.path.abspath(__file__), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace), "--size", args.size]
        if args.record:
            cmd += ["--record", args.record]
        done = subprocess.run(cmd, capture_output=True, text=True)
        lines = done.stdout.splitlines()
        print("\n".join(lines[:-1]))
        sys.stderr.write(done.stderr)
        try:
            result = json.loads(lines[-1])
        except (IndexError, ValueError):
            print(f"[{name}] produced no result (exit {done.returncode})")
            return 1
        correct = correct and result["correct"] and done.returncode == 0
        attempted += result["attempted"]
        failed += result["failed"]
        metrics.update({f"{name}/{key}": value
                        for key, value in result["metrics"].items()})
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}, sort_keys=True))
    return 0 if correct else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=None,
                        help="measured time per run (default: run_seconds "
                             "from BENCHMARK.json)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "tiny"), default="full",
                        help="input size; tiny is for the smoke tests")
    parser.add_argument("--record", metavar="JSONL",
                        help="append the result, with its environment, here")
    parser.add_argument("--compare", nargs=2, metavar=("PARENT", "CHANGE"),
                        help="compare two --record files and exit")
    args = parser.parse_args(argv)
    spec = load_spec()
    if args.compare:
        import compare

        return compare.main(args.compare[0], args.compare[1], spec)
    if args.workload is None:
        parser.error("--workload or --compare is required")
    if args.seconds is None:
        args.seconds = spec["run_seconds"]
    if args.workload == "all":
        return run_all(args)
    import_program()
    return run_one(args, spec)


if __name__ == "__main__":
    sys.exit(main())
