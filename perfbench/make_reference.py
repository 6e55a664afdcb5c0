"""Record the reference outputs the benchmark's checks compare against.

    python3 perfbench/make_reference.py

Run this only at a commit whose outputs are known to be right: the
checks then hold every later commit to exactly these outputs.  Cell
counters and capacity-sweep rows do not depend on the volume's values
(the kernels' access streams are data-independent), so one reference
serves every ``--seed``; this script recomputes them under a second
seed and refuses to write if they differ.  Serving payloads do depend
on the seed, so they are recorded for the fixed golden session.
"""

from __future__ import annotations

import json
import os
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

import checks  # noqa: E402
import workloads  # noqa: E402
from repro.experiments.harness import clear_caches, prepare_cell, simulate_prepared  # noqa: E402
from repro.experiments.sweep import capacity_sweep  # noqa: E402


def cell_reference(size, seed: int) -> dict:
    clear_caches()
    out = {}
    for cell in workloads.figure_cells(size, seed):
        prepared = prepare_cell(cell)
        lines = sum(int(w.chunk.lines.size) for w in prepared.works)
        out[checks.cell_label(cell)] = checks.cell_summary(
            simulate_prepared(cell, prepared), lines)
    return out


def capacity_reference(size, seed: int) -> dict:
    base = workloads.bilateral_cell(size, seed)
    return {lay: capacity_sweep(base.with_layout(lay), size.capacities)
            for lay in workloads.SWEEP_LAYOUTS}


def golden_reference(size) -> list:
    with tempfile.TemporaryDirectory() as tmp:
        digests, problems = workloads.golden_digests(size, tmp)
    if problems:
        raise SystemExit("golden session: " + "; ".join(problems))
    return digests


def main() -> int:
    reference = {}
    for name, size in workloads.SIZES.items():
        cells = cell_reference(size, 0)
        capacity = capacity_reference(size, 0)
        if cell_reference(size, 1) != cells \
                or capacity_reference(size, 1) != capacity:
            print(f"{name}: outputs depend on the seed; not recording")
            return 1
        reference[name] = {"cells": cells, "capacity": capacity,
                           "serve_golden": golden_reference(size)}
        print(f"{name}: {len(cells)} cells, {len(capacity)} sweeps, "
              f"{len(reference[name]['serve_golden'])} golden payloads")
    with open(checks.REFERENCE_PATH, "w") as fh:
        json.dump(reference, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
