"""Per-layer table of a spans file written by a traced run.

    python3 perfbench/layers.py perfbench/out/<workload>/spans.json

Prints, per layer, the number of spans, their summed duration and their self
time (duration minus the time covered by child spans), largest self time
first. Covers every wrapped function, including those the per-layer metrics
of BENCHMARK.json leave out.
"""

from __future__ import annotations

import json
import sys
from collections import defaultdict


def table(doc: dict) -> list[tuple[str, int, float, float]]:
    layers = doc["layers"]
    spans = doc["spans"]
    child = [0.0] * len(spans)
    for layer, start, end, parent in spans:
        if parent >= 0:
            child[parent] += end - start
    calls: dict[str, int] = defaultdict(int)
    total: dict[str, float] = defaultdict(float)
    own: dict[str, float] = defaultdict(float)
    for (layer, start, end, _), inner in zip(spans, child):
        name = layers[layer]
        calls[name] += 1
        total[name] += end - start
        own[name] += end - start - inner
    return sorted(((n, calls[n], total[n], own[n]) for n in calls),
                  key=lambda row: -row[3])


def main(argv: list[str]) -> int:
    with open(argv[1], encoding="utf-8") as fh:
        rows = table(json.load(fh))
    print(f"{'layer':44} {'calls':>8} {'total_s':>10} {'self_s':>10}")
    for name, calls, total, own in rows:
        print(f"{name:44} {calls:8d} {total:10.4f} {own:10.4f}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
