"""The benchmark's workloads: which datasets each reads and which delgen verb
it times. Shared by run.py and the measured process (worker.py); imports
nothing from delgen, so run.py and its checks stay independent of the program.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

MODELS = "uniform,radial,adversarial,relaxation,metric"
FRACTIONS = ("0.5", "1.0")
STABILITY_SEEDS = 2

# The untimed warm-up call reads this dataset, which no timed call reads:
# a jittered 2-D grid of side 9 (81 points) with a fixed seed.
WARMUP = {"kind": "grid", "side": 9, "dim": 2, "jitter": 0.2, "seed": 7}

# analyze-grid reads a catalogue of GRID_ROWS x GRID_ROW_LEN seeded grids; the
# run's seed picks the row. A scan of rows 0-29 found three grids, listed as
# (row, index), on which delgen's eps sits below the supremum it estimates by
# more than the check's cover, so their reports fail the epsilon check. They
# leave their rows and instead close every round of analyze-grid, round k
# reading KNOWN_EPS_FAILURES[k % 3] in mirror image MIRRORS[k // 3]: each run
# then fails one call in GRID_ROUND, whatever its seed and length. Every other
# grid a run can read passed every check.
GRID_ROWS = 20
GRID_ROW_LEN = 48
GRID_ROUND = 6
KNOWN_EPS_FAILURES = ((15, 14), (20, 44), (27, 13))
MIRRORS = ((1.0, 1.0), (-1.0, 1.0))


@dataclass(frozen=True)
class Workload:
    name: str
    verb: str            # "analyze" or "stability"
    dataset: dict        # generator parameters, without the seed
    pool: int            # datasets written at set-up; bounds the timed calls
    trace_calls: int     # the traced run makes exactly this many calls
    calls_per_round: int = 1  # a run makes whole rounds of calls
    seeded: bool = True  # False: every seed reads the datasets of seed 0


WORKLOADS = {
    w.name: w
    for w in (
        Workload("analyze-grid", "analyze",
                 {"kind": "grid", "side": 15, "dim": 2, "jitter": 0.2},
                 pool=len(KNOWN_EPS_FAILURES) * len(MIRRORS) * GRID_ROUND,
                 trace_calls=2 * GRID_ROUND,
                 calls_per_round=GRID_ROUND),
        # The next two make one call per run, and a call's time follows its
        # dataset through the eroded-boundary sweep: on a cloud its cost is
        # set by the closest pair (one sampling_parameters call took 1.1 to
        # 6.1 s over 40 clouds, and analyze makes two), on the 3-D grid by
        # the boundary (calls of 19 to 31 s over ten grids). So every run
        # reads the same datasets, and call_s follows the program, not the draw.
        Workload("analyze-cloud", "analyze",
                 {"kind": "uniform", "n": 4000, "dim": 2},
                 pool=6, trace_calls=1, seeded=False),
        Workload("analyze-3d", "analyze",
                 {"kind": "grid", "side": 9, "dim": 3, "jitter": 0.05},
                 pool=6, trace_calls=1, seeded=False),
        Workload("stability-grid", "stability",
                 {"kind": "grid", "side": 11, "dim": 2, "jitter": 0.2},
                 pool=48, trace_calls=12),
    )
}


def dataset_seed(seed: int, workload: str, index: int) -> int:
    """Seed of the index-th dataset of a run; distinct per workload."""
    key = sorted(WORKLOADS).index(workload)
    return int(np.random.SeedSequence((int(seed), key, index)).generate_state(1)[0]
               % (2**31))


def plan(workload: str, seed: int) -> list[dict]:
    """Generator parameters of every timed dataset of a run, in call order.

    Each entry is the workload's dataset parameters plus ``seed`` and, for
    the known failures of analyze-grid, ``mirror`` (per-axis signs applied
    to the generated points).
    """
    work = WORKLOADS[workload]
    if not work.seeded:
        seed = 0
    if workload != "analyze-grid":
        return [dict(work.dataset, seed=dataset_seed(seed, workload, i))
                for i in range(work.pool)]
    row = int(seed) % GRID_ROWS
    passing = [i for i in range(GRID_ROW_LEN) if (row, i) not in KNOWN_EPS_FAILURES]
    out = []
    for k in range(work.pool // GRID_ROUND):
        for i in passing[k * (GRID_ROUND - 1):(k + 1) * (GRID_ROUND - 1)]:
            out.append(dict(work.dataset, seed=dataset_seed(row, workload, i)))
        known_row, known_index = KNOWN_EPS_FAILURES[k % len(KNOWN_EPS_FAILURES)]
        out.append(dict(work.dataset, seed=dataset_seed(known_row, workload, known_index),
                        mirror=list(MIRRORS[k // len(KNOWN_EPS_FAILURES)])))
    return out


def call_argv(verb: str, infile: str, outfile: str, *, seeds: int = STABILITY_SEEDS,
              root_seed: int = 0) -> list[str]:
    """The delgen command line of one call."""
    argv = [verb, "--in", infile, "--out", outfile]
    if verb == "stability":
        argv += ["--models", MODELS, "--seeds-count", str(seeds),
                 "--seed", str(root_seed)]
        for frac in FRACTIONS:
            argv += ["--budget-fraction", frac]
    return argv
