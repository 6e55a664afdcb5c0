"""Correctness checks for the benchmark's outputs.

Every check returns a list of problem strings (empty = correct), so the
runner can report all of them at once and the tests can feed corrupted
outputs in and expect a non-empty list.  None of these run inside a
timed region.
"""

from __future__ import annotations

import hashlib
import json
import os
from typing import Dict, List, Sequence

import numpy as np

REFERENCE_PATH = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                              "reference.json")


def load_reference(size: str) -> dict:
    """The recorded reference outputs for one input size."""
    with open(REFERENCE_PATH) as fh:
        return json.load(fh)[size]


def cell_label(cell) -> str:
    """Stable name of one experiment cell, used as its reference key."""
    if hasattr(cell, "stencil"):
        params = f"bilateral/{cell.stencil}-{cell.pencil}-{cell.stencil_order}"
    else:
        params = f"volrend/vp{cell.viewpoint}"
    return f"{cell.platform.name}/{params}/T{cell.n_threads}/{cell.layout}"


def cell_summary(result, lines: int) -> dict:
    """The exact outputs of one cell: counters, lines per level, accesses."""
    return {
        "counters": {k: float(v) for k, v in sorted(result.counters.items())},
        "level_served": {k: float(v)
                         for k, v in sorted(result.sim.level_served.items())},
        "n_accesses": int(result.sim.n_accesses),
        "lines": int(lines),
    }


def cell_problems(label: str, summary: dict, reference: Dict[str, dict]
                  ) -> List[str]:
    """``summary`` must equal the recorded one for ``label``, exactly."""
    want = reference.get(label)
    if want is None:
        return [f"{label}: no reference recorded"]
    problems = []
    for key in ("counters", "level_served", "n_accesses", "lines"):
        if summary[key] != want[key]:
            problems.append(f"{label}: {key} {summary[key]!r} != "
                            f"reference {want[key]!r}")
    return problems


def rows_problems(name: str, rows: Sequence[dict],
                  reference_rows: Sequence[dict]) -> List[str]:
    """Capacity-sweep rows must equal their recorded reference exactly."""
    got = [dict(sorted(r.items())) for r in rows]
    want = [dict(sorted(r.items())) for r in reference_rows]
    if len(got) != len(want):
        return [f"{name}: {len(got)} rows != reference {len(want)}"]
    return [f"{name} row {i}: {g!r} != reference {w!r}"
            for i, (g, w) in enumerate(zip(got, want)) if g != w]


def expected_payload(query, dense: np.ndarray):
    """The dense slice a bbox or slab query must return (None otherwise)."""
    if query.kind == "bbox":
        return dense[tuple(slice(a, b) for a, b in zip(query.lo, query.hi))]
    if query.kind == "slab":
        index = [slice(None)] * 3
        index[query.axis] = slice(query.start, query.stop)
        return dense[tuple(index)]
    return None


def payload_problems(query, data: np.ndarray, dense: np.ndarray) -> List[str]:
    """A bbox/slab payload must equal the dense slice of the source volume."""
    want = expected_payload(query, dense)
    if want is None or (data.shape == want.shape
                        and np.array_equal(data, want)):
        return []
    return [f"{query!r}: payload differs from the dense slice"]


def digest(data: np.ndarray) -> str:
    """SHA-256 over a payload's dtype, shape and bytes."""
    h = hashlib.sha256(f"{data.dtype.str}{data.shape}".encode())
    h.update(np.ascontiguousarray(data).tobytes())
    return h.hexdigest()


def digest_problems(digests: Sequence[str], reference: Sequence[str]
                    ) -> List[str]:
    """Golden-session payload digests must equal the recorded ones."""
    if len(digests) != len(reference):
        return [f"golden session: {len(digests)} payloads != reference "
                f"{len(reference)}"]
    return [f"golden query {i}: digest {g[:12]} != reference {w[:12]}"
            for i, (g, w) in enumerate(zip(digests, reference)) if g != w]
