#!/usr/bin/env python3
"""Time the cache replay backends on a real kernel stream.

Replays a 64^3 bilateral-filter r3 pencil stream (the acceptance
workload) through unscaled platform-sized caches with the scalar and
vector backends and gates the vector speedup at 3x.  It then replays
the stream through the scaled-by-64 Ivy Bridge geometries (L1 2x8, L2
8x8, TLB 16x4) the way the engine feeds them, in blocks of
``engine._BLOCK_LINES`` lines split over 24 per-core instances, and
reports ``auto`` (the reuse-window LRU kernel, one call per block for
all instances) beside ``scalar``; that table is advisory.

Run:  python scripts/bench_replay.py [--shape 64] [--repeat 3]
"""

from __future__ import annotations

import argparse
import os
import sys
import time

import numpy as np

sys.path.insert(0, os.path.join(os.path.dirname(os.path.abspath(__file__)),
                                os.pardir, "src"))

from repro.core.grid import Grid  # noqa: E402
from repro.core.registry import make_layout  # noqa: E402
from repro.data.synthetic import mri_phantom  # noqa: E402
from repro.kernels.bilateral import BilateralFilter3D, BilateralSpec  # noqa: E402
from repro.memsim.address import AddressSpace  # noqa: E402
from repro.memsim.cache import Cache, CacheConfig, access_instances  # noqa: E402
from repro.memsim.engine import _BLOCK_LINES  # noqa: E402
from repro.parallel.pencil import Pencil  # noqa: E402


def kernel_stream(shape: tuple) -> np.ndarray:
    """Line-address stream of r3 zyx pencils through a Morton grid."""
    dense = mri_phantom(shape, noise=0.05, seed=0)
    grid = Grid.from_dense(dense, make_layout("morton", shape))
    filt = BilateralFilter3D(BilateralSpec(radius=3, stencil_order="zyx"))
    space = AddressSpace(64)
    mid = (shape[0] // 2, shape[1] // 2)
    chunks = [filt.pencil_trace(grid, Pencil(axis=2, fixed=(mid[0] + d, mid[1])),
                                space)
              for d in range(4)]
    return np.concatenate([c.lines for c in chunks])


def replay_time(lines: np.ndarray, cfg: CacheConfig, backend: str,
                repeat: int, quantum: int = 0) -> float:
    """Best-of-`repeat` wall time to push the stream through one cache.

    ``quantum=0`` replays the whole trace in one call (the locality-
    analysis / single-thread replay case the vector backend targets);
    a positive quantum chunks like the engine's interleaver, where
    per-call overhead shrinks the vector advantage."""
    step = quantum if quantum > 0 else lines.size
    best = float("inf")
    for _ in range(repeat):
        cache = Cache(cfg, seed=0, backend=backend)
        t0 = time.perf_counter()
        for pos in range(0, lines.size, step):
            cache.access_lines(lines[pos:pos + step])
        best = min(best, time.perf_counter() - t0)
    return best


def block_replay_time(lines: np.ndarray, cfg: CacheConfig, backend: str,
                      repeat: int, instances: int = 24) -> float:
    """Best-of-`repeat` wall time to replay ``lines`` as the engine does:
    one level call per block of ``_BLOCK_LINES`` lines, each instance
    fed its own contiguous share of the block."""
    best = float("inf")
    for _ in range(repeat):
        caches = [Cache(cfg, seed=i, backend=backend)
                  for i in range(instances)]
        t0 = time.perf_counter()
        for pos in range(0, lines.size, _BLOCK_LINES):
            block = lines[pos:pos + _BLOCK_LINES]
            bounds = np.linspace(0, block.size, instances + 1).astype(int)
            access_instances(caches, block, bounds.tolist())
        best = min(best, time.perf_counter() - t0)
    return best


def scaled_table(lines: np.ndarray, repeat: int) -> None:
    """Scaled Ivy Bridge geometries, ``auto`` beside ``scalar``."""
    pages = lines // (4096 // 64)
    pages = pages[np.flatnonzero(np.diff(pages, prepend=-1))]
    geometries = [
        (CacheConfig("L1", 2 * 8 * 64, ways=8), lines),
        (CacheConfig("L2", 8 * 8 * 64, ways=8), lines),
        (CacheConfig("TLB", 64 * 4096, line_bytes=4096, ways=4), pages),
    ]
    print(f"\nscaled-by-64 Ivy Bridge, blocks of {_BLOCK_LINES} lines over "
          f"24 instances (advisory)")
    print(f"{'cache':<10} {'geometry':>9} {'scalar':>10} {'auto':>10} "
          f"{'speedup':>8}")
    for cfg, stream in geometries:
        t_scalar = block_replay_time(stream, cfg, "scalar", repeat)
        t_auto = block_replay_time(stream, cfg, "auto", repeat)
        geometry = f"{cfg.n_sets}x{cfg.ways}"
        print(f"{cfg.name:<10} {geometry:>9} {t_scalar * 1e3:>8.1f}ms "
              f"{t_auto * 1e3:>8.1f}ms {t_scalar / t_auto:>7.2f}x")


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--shape", type=int, default=64)
    ap.add_argument("--repeat", type=int, default=3)
    ap.add_argument("--quantum", type=int, default=0,
                    help="chunk size per access_lines call "
                         "(0 = whole trace in one call, the default)")
    args = ap.parse_args()
    shape = (args.shape,) * 3

    print(f"generating bilateral r3 stream at {shape} ...", file=sys.stderr)
    lines = kernel_stream(shape)
    print(f"{lines.size} line accesses\n")

    # unscaled platform-like geometries (full-size volumes need full-size
    # caches; the scaled()/64 experiment configs have too few sets for
    # batching to matter and auto-select the scalar path there)
    configs = [
        CacheConfig("L1", 32 * 1024, ways=8),            # 64 sets
        CacheConfig("L2", 256 * 1024, ways=8),           # 512 sets
        CacheConfig("L3-slice", 2 * 1024 * 1024, ways=16),  # 2048 sets
    ]
    worst = float("inf")
    print(f"{'cache':<10} {'sets':>6} {'scalar':>10} {'vector':>10} "
          f"{'speedup':>8}")
    for cfg in configs:
        t_scalar = replay_time(lines, cfg, "scalar", args.repeat,
                               args.quantum)
        t_vector = replay_time(lines, cfg, "vector", args.repeat,
                               args.quantum)
        speedup = t_scalar / t_vector
        worst = min(worst, speedup)
        print(f"{cfg.name:<10} {cfg.n_sets:>6} {t_scalar * 1e3:>8.1f}ms "
              f"{t_vector * 1e3:>8.1f}ms {speedup:>7.2f}x")

    rate = lines.size / replay_time(lines, configs[1], "vector", 1)
    print(f"\nvector replay throughput: {rate / 1e6:.1f} M lines/s")
    print(f"worst-case speedup {worst:.2f}x "
          f"({'PASS' if worst >= 3.0 else 'BELOW'} the 3x acceptance bar)")
    scaled_table(lines, args.repeat)
    return 0 if worst >= 3.0 else 1


if __name__ == "__main__":
    sys.exit(main())
