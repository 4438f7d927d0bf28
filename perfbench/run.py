"""Benchmark of ``delgen analyze`` and ``delgen stability``.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout. Each run starts worker.py as one
single-threaded Python process (OpenBLAS, OpenMP and MKL limited to one
thread) that imports delgen from ``src``, writes seeded point files and calls
``delgen.cli.main`` in-process. This process then checks every report with
checks.py, which uses numpy and scipy only, and prints the metrics. The last
line of standard output is one JSON object: ``correct``, ``attempted``,
``failed`` and ``metrics``. See README.md in this directory.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

from checks import check_analyze, check_stability, load_points, self_test
from layers import table
from workloads import WORKLOADS

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT = os.path.join(HERE, "out")
BUDGET_S = 170.0      # a run ends within this many seconds or fails
SETUP_SAMPLES = 5     # set-ups per untraced run; setup_s is their median


def metric_specs() -> dict:
    """Names and units of the end-to-end and per-layer metrics."""
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    return {key: {m["name"]: m["unit"] for m in spec[key]}
            for key in ("end_to_end", "per_layer")}


def spawn(args, run_dir: str, tag: str, deadline: float, *, setup_only: bool) -> dict:
    """Run one worker process to its end; return its result with its setup_s."""
    result = os.path.join(run_dir, f"{tag}.json")
    cmd = [sys.executable, os.path.join(HERE, "worker.py"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--dir", run_dir, "--result", result]
    if setup_only:
        cmd.append("--setup-only")
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1",
               MKL_NUM_THREADS="1", PYTHONHASHSEED="0")
    env.pop("PYTHONPATH", None)
    started = time.clock_gettime(time.CLOCK_MONOTONIC)
    proc = subprocess.run(cmd, cwd=ROOT, env=env, stdout=subprocess.DEVNULL,
                          timeout=max(1.0, deadline - time.monotonic()))
    if proc.returncode != 0:
        raise RuntimeError(f"worker {tag} exited with code {proc.returncode}")
    with open(result, encoding="utf-8") as fh:
        doc = json.load(fh)
    doc["setup_s"] = doc["setup_end"] - started
    return doc


def read_report(path: str):
    try:
        with open(path, encoding="utf-8") as fh:
            return json.load(fh)
    except (OSError, ValueError):
        return None


def check_call(verb: str, rec: dict):
    """(failures, report) of one timed or warm-up call."""
    doc = read_report(rec["out"]) if rec["code"] == 0 else None
    if rec["error"]:
        return [f"raised: {rec['error']}"], doc
    try:
        if verb == "analyze":
            return check_analyze(load_points(rec["in"]), doc, rec["code"]), doc
        return check_stability(rec["argv"], doc, rec["code"]), doc
    except (KeyError, IndexError, TypeError) as exc:  # a report missing a field
        return [f"report: {type(exc).__name__}: {exc}"], doc


def self_test_on(verb: str, rec: dict, report) -> list[str]:
    """Feed the checks corrupted copies of one passing call's report."""
    case = ((load_points(rec["in"]), report) if verb == "analyze"
            else (rec["argv"], report))
    return [f"self-test: checks accepted a corrupted report: {label}"
            for label in self_test(**{f"{verb}_case": case})]


def layer_metrics(doc: dict, specs: dict) -> dict:
    """Per-layer metrics of a traced run: calls and self_s from its spans file,
    work counts from the recorder. A name without a function part (for
    example ``perturb.self_s``) sums the module's functions."""
    with open(doc["spans_file"], encoding="utf-8") as fh:
        rows = table(json.load(fh))
    stats = {"calls": {n: c for n, c, _, _ in rows},
             "self_s": {n: own for n, _, _, own in rows}}
    values = {}
    for name, unit in specs.items():
        layer, _, stat = name.rpartition(".")
        if stat not in stats:
            value = doc["work"].get(name, 0)
        elif "." not in layer:
            value = sum(v for k, v in stats[stat].items() if k.startswith(layer + "."))
        else:
            value = stats[stat].get(layer, 0)
        values[name] = (value, unit)
    return values


def run(args) -> dict:
    deadline = time.monotonic() + BUDGET_S
    work = WORKLOADS[args.workload]
    run_dir = os.path.join(OUT, args.workload)
    shutil.rmtree(run_dir, ignore_errors=True)
    os.makedirs(run_dir)
    setups = []
    if not args.trace:
        for k in range(SETUP_SAMPLES - 1):
            setups.append(spawn(args, run_dir, f"setup-{k}", deadline,
                                setup_only=True)["setup_s"])
    doc = spawn(args, run_dir, "worker", deadline, setup_only=False)
    setups.append(doc["setup_s"])

    problems, _ = check_call(work.verb, doc["warmup"])
    problems = [f"warm-up call failed: {problems}"] if problems else []
    failed, seconds, tested = 0, [], False
    for rec in doc["calls"]:
        failures, report = check_call(work.verb, rec)
        if failures:
            failed += 1
            print(f"call {os.path.basename(rec['in'])} failed: {failures[:3]}")
        elif not tested:  # the first passing timed report, of the workload's size
            problems += self_test_on(work.verb, rec, report)
            tested = True
        seconds.append(rec["seconds"])
    if not tested:
        problems.append("self-test: no timed call passed its checks")
    attempted = len(doc["calls"])
    for line in problems:
        print(line)
    correct = not problems

    specs = metric_specs()
    if args.trace:
        values = layer_metrics(doc, specs["per_layer"])
        print(f"traced: {attempted} calls, {doc['spans']} spans, median call "
              f"{statistics.median(seconds):.4f} s, spans in {doc['spans_file']}")
    else:
        measured = {"setup_s": statistics.median(setups),
                    "call_s": statistics.median(seconds),
                    "peak_rss_mb": doc["peak_rss_mb"]}
        values = {name: (measured[name], unit)
                  for name, unit in specs["end_to_end"].items()}
        print(f"setup samples (s): {[round(s, 4) for s in setups]}")
        print(f"call seconds: {[round(s, 4) for s in seconds]}")
    for name, (value, unit) in values.items():
        print(f"{name} = {value:.6g} {unit}")
    print(f"{args.workload}: {attempted} calls attempted, {failed} failed")
    return {"correct": correct, "attempted": attempted, "failed": failed,
            "metrics": {name: {"value": value, "unit": unit}
                        for name, (value, unit) in values.items()}}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "delgen", "__init__.py")):
        print(f"run.py: no delgen sources under {ROOT}/src", file=sys.stderr)
        return 2
    try:
        result = run(args)
    except (RuntimeError, subprocess.TimeoutExpired) as exc:
        print(f"run.py: {exc}", file=sys.stderr)
        return 1
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
