"""The repo benchmark: cold grid, store-warm grid and served ``/predict``.

Run one workload::

    python3 perfbench/run.py --workload grid_cold --seed 3 --seconds 30 --trace 0

``--trace 0`` prints every end-to-end metric of ``BENCHMARK.json``;
``--trace 1`` runs with layer spans installed and prints every per-layer
metric instead.  The last stdout line is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the line before
it holds the machine and the run's details.  A broken correctness check
prints ``"correct": false`` and exits 1.

Run every workload of ``BENCHMARK.json``, untraced and traced, and
print a table (exit 1 when any check breaks)::

    python3 perfbench/run.py --workload all --trace 1

``serve_single`` is not in ``BENCHMARK.json`` (its check fails on a
known defect, see the README) and runs only when named.

See ``perfbench/README.md`` for what each metric and workload means.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import subprocess
import sys

from common import ROOT, WORK_ROOT, CheckFailed, machine, repo_src

#: Runnable by name but not part of ``BENCHMARK.json`` or ``--workload all``.
UNLISTED = ("serve_single",)


def load_spec() -> dict:
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as handle:
        return json.load(handle)


def run_workload(name: str, seed: int, seconds: float, trace: bool, work_dir) -> dict:
    from grid_workloads import grid_cold, grid_store_warm
    from serve_workloads import serve_workload

    if name == "grid_cold":
        return grid_cold(seed, seconds, trace, work_dir)
    if name == "grid_store_warm":
        return grid_store_warm(seed, seconds, trace, work_dir)
    rows = 1 if name == "serve_single" else 32
    return serve_workload(rows, seed, seconds, trace, work_dir)


def shape_metrics(spec: dict, result: dict, trace: bool) -> dict:
    """The contract's ``metrics`` object: every declared metric, with its unit."""
    if not trace:
        metrics = {}
        for entry in spec["end_to_end"]:
            value, unit = result["metrics"][entry["name"]]
            if unit != entry["unit"]:
                raise CheckFailed(f"{entry['name']} measured in {unit}, declared in {entry['unit']}")
            metrics[entry["name"]] = {"value": value, "unit": unit}
        return metrics
    layers = result["layers"]
    declared = {entry["name"] for entry in spec["per_layer"]}
    unknown = set(layers) - declared
    if unknown:
        raise CheckFailed(f"per-layer metrics missing from BENCHMARK.json: {sorted(unknown)}")
    # A layer the workload does not touch did no work: its metrics are 0.
    return {
        entry["name"]: {"value": float(layers.get(entry["name"], 0.0)), "unit": entry["unit"]}
        for entry in spec["per_layer"]
    }


def run_one(args, spec: dict) -> int:
    work_dir = WORK_ROOT / f"{args.workload}-{os.getpid()}"
    work_dir.mkdir(parents=True, exist_ok=True)
    error = None
    try:
        try:
            result = run_workload(args.workload, args.seed, args.seconds, bool(args.trace), work_dir)
        except CheckFailed as failure:
            error, result = failure, failure.result
        metrics = shape_metrics(spec, result, bool(args.trace)) if result is not None else {}
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
        try:
            WORK_ROOT.rmdir()
        except OSError:
            pass  # another run still uses it, or it is already gone
    if error is not None:
        print(f"perfbench: CHECK FAILED on {args.workload}: {error}", file=sys.stderr)
    for name, metric in metrics.items():
        print(f"{args.workload:16s} {name:32s} {metric['value']:>14.6g} {metric['unit']}")
    if result is not None:
        print(json.dumps({"machine": machine(), "workload": args.workload, "seed": args.seed,
                          "trace": args.trace, "details": result["details"]}))
    print(json.dumps({
        "correct": error is None,
        "attempted": int(result["attempted"]) if result is not None else 1,
        "failed": int(result["failed"]) if result is not None else 1,
        "metrics": metrics,
    }))
    return 0 if error is None else 1


def run_all(args, spec: dict) -> int:
    """Every ``BENCHMARK.json`` workload untraced (and traced with ``--trace 1``), as one table."""
    status = 0
    for workload in (entry["name"] for entry in spec["workloads"]):
        for trace in sorted({0, args.trace}):
            command = [sys.executable, __file__, "--workload", workload, "--seed", str(args.seed),
                       "--seconds", str(args.seconds), "--trace", str(trace)]
            completed = subprocess.run(command, capture_output=True, text=True, check=False)
            lines = completed.stdout.strip().splitlines()
            if completed.returncode != 0:
                status = 1
                print(f"\n== {workload} (trace {trace}) FAILED:\n{completed.stderr[-2000:]}")
            if len(lines) < 2:
                continue
            result = json.loads(lines[-1])
            details = json.loads(lines[-2])
            print(f"\n== {workload} (trace {trace}): correct={result['correct']} "
                  f"attempted={result['attempted']} failed={result['failed']} "
                  f"transport={details['details']['transport']} machine={details['machine']}")
            for name, metric in result["metrics"].items():
                print(f"   {name:32s} {metric['value']:>14.6g} {metric['unit']}")
    return status


def main(argv=None) -> int:
    repo_src()
    spec = load_spec()
    parser = argparse.ArgumentParser(description="The repo benchmark (see perfbench/README.md).")
    listed = [entry["name"] for entry in spec["workloads"]]
    parser.add_argument("--workload", required=True, choices=(*listed, *UNLISTED, "all"))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=float(spec["run_seconds"]))
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    return run_all(args, spec) if args.workload == "all" else run_one(args, spec)


if __name__ == "__main__":
    raise SystemExit(main())
