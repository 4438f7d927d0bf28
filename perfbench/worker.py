"""The measured process: one single-threaded Python process calling delgen.

Set-up imports delgen from the checkout's ``src``, writes the workload's
seeded point files and makes one untimed warm-up call on a dataset outside
the timed set. The timed calls then run ``delgen.cli.main`` in-process, each
on a dataset no earlier call has read. Reports go to files that run.py checks
afterwards; this process only records exit codes, seconds per call and peak
memory. With ``--trace 1`` it wraps delgen's public functions and records
spans instead.

Usage (run.py starts it): worker.py --workload NAME --seed N --seconds S
    --trace 0|1 --dir OUT --result FILE [--setup-only]
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import sys
import time

import numpy as np

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")


def monotonic() -> float:
    """CLOCK_MONOTONIC, comparable with the starting process's reading."""
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def make(delgen, spec: dict, path: str) -> None:
    """Write the dataset that ``spec`` (a workloads.plan entry) describes."""
    if spec["kind"] == "grid":
        pts = delgen.datasets.grid_points(spec["side"], spec["dim"],
                                          spec["jitter"], spec["seed"])
    else:
        pts = delgen.datasets.uniform_points(spec["n"], spec["dim"], spec["seed"])
    pts = pts * np.asarray(spec.get("mirror", 1.0))
    delgen.fileio.write_points(path, pts, header=json.dumps(spec, sort_keys=True))


def call(cli, argv: list[str]) -> dict:
    """One in-process delgen call, from argv to the written report."""
    error = None
    start = time.perf_counter()
    try:
        code = cli.main(argv)
    except SystemExit as exc:  # argparse rejects the command line
        code = exc.code
    except Exception as exc:  # a raising call counts as failed, not fatal
        code, error = None, f"{type(exc).__name__}: {exc}"
    seconds = time.perf_counter() - start
    return {"argv": argv, "code": code, "seconds": seconds, "error": error}


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--dir", required=True)
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--result", required=True)
    args = ap.parse_args()

    sys.path.insert(0, SRC)
    import delgen
    import delgen.cli as cli

    from workloads import WARMUP, WORKLOADS, call_argv, plan

    if not os.path.abspath(delgen.__file__).startswith(SRC + os.sep):
        print(f"worker: delgen imported from {delgen.__file__}, not {SRC}",
              file=sys.stderr)
        return 2
    work = WORKLOADS[args.workload]

    recorder = None
    if args.trace:
        from spans import Recorder, install

        recorder = Recorder()
        install(recorder)
        recorder.active = True

    specs = plan(work.name, args.seed)
    inputs = []
    for i, spec in enumerate(specs):
        path = os.path.join(args.dir, f"in-{i:03d}.txt")
        make(delgen, spec, path)
        inputs.append(path)
    warm_in = os.path.join(args.dir, "warmup.txt")
    make(delgen, WARMUP, warm_in)

    if recorder is not None:
        recorder.active = False
    warm_out = os.path.join(args.dir, "warmup.json")
    warmup = call(cli, call_argv(work.verb, warm_in, warm_out, seeds=1))
    warmup.update({"in": warm_in, "out": warm_out})

    setup_end = monotonic()
    result = {"setup_end": setup_end, "warmup": warmup}
    if not args.setup_only:
        if recorder is not None:
            recorder.active = True
        calls = []
        limit = work.trace_calls if recorder is not None else len(inputs)
        start = time.perf_counter()
        for i, infile in enumerate(inputs[:limit]):
            # Start no round of calls that the median call so far says would
            # end after the measuring time; the first round always runs.
            if recorder is None and i and i % work.calls_per_round == 0:
                typical = statistics.median(c["seconds"] for c in calls)
                ahead = work.calls_per_round * typical
                if time.perf_counter() - start + ahead > args.seconds:
                    break
            outfile = os.path.join(args.dir, f"out-{i:03d}.json")
            argv = call_argv(work.verb, infile, outfile,
                             root_seed=specs[i]["seed"])
            rec = call(cli, argv)
            rec.update({"in": infile, "out": outfile})
            calls.append(rec)
        result["calls"] = calls
        result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        if recorder is not None:
            recorder.active = False
            spans_path = os.path.join(args.dir, "spans.json")
            recorder.dump(spans_path)
            result["spans_file"] = spans_path
            result["spans"] = len(recorder.spans)
            result["work"] = dict(recorder.work)
    with open(args.result, "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
