"""Block replay equals the per-batch schedule walk, exactly.

:meth:`SimulationEngine.run` replays blocks of rounds level by level;
``replay_oracle.per_batch_run`` walks the same schedule one batch at a
time.  Results and final cache state must agree bit for bit, on every
policy, backend, scope and hierarchy option.
"""

from __future__ import annotations

from dataclasses import replace
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.memsim.engine as engine_mod
from repro.instrument import trace
from repro.memsim import (
    CacheConfig,
    LevelSpec,
    PlatformSpec,
    PrefetchConfig,
    SimulationEngine,
    ThreadWork,
    TraceChunk,
    fully_associative_spec,
    scaled_ivybridge,
)

from .replay_oracle import machine_state, per_batch_run

POLICIES = ("lru", "fifo", "plru", "random", "direct")


@st.composite
def level_specs(draw, index: int, prefetch: bool):
    policy = draw(st.sampled_from(POLICIES))
    ways = 1 if policy == "direct" else draw(st.sampled_from((1, 2, 4)))
    n_sets = draw(st.sampled_from((1, 2, 4, 64)))
    return LevelSpec(
        CacheConfig(f"L{index + 1}", n_sets * ways * 64, ways=ways,
                    replacement=policy),
        scope=draw(st.sampled_from(("core", "socket", "machine"))),
        latency_cycles=float(draw(st.integers(1, 40))),
        prefetch=PrefetchConfig(degree=draw(st.integers(1, 2)))
        if prefetch else None,
    )


@st.composite
def platforms(draw):
    n_levels = draw(st.integers(1, 3))
    prefetch_at = draw(st.sampled_from((None,) + tuple(range(n_levels))))
    levels = tuple(draw(level_specs(i, prefetch_at == i))
                   for i in range(n_levels))
    n_sockets = draw(st.integers(1, 2))
    tlb = draw(st.sampled_from(
        (None, CacheConfig("TLB", 4 * 2 * 256, line_bytes=256, ways=2))))
    return PlatformSpec(
        name="block-prop",
        n_cores=n_sockets * draw(st.integers(1, 3)),
        n_sockets=n_sockets,
        smt=4,
        freq_ghz=1.0,
        levels=levels,
        # every cost term stays a multiple of 0.5 cycles (230 / 4 = 57.5)
        mem_latency_cycles=float(draw(st.sampled_from((100, 230)))),
        mem_parallelism=float(draw(st.sampled_from((1, 2, 4)))),
        counters={f"{lv.cache.name}_{kind}": (lv.cache.name, kind)
                  for lv in levels for kind in ("accesses", "misses")}
        | ({"TLB_misses": ("TLB", "misses")} if tlb else {}),
        tlb=tlb,
        tlb_miss_cycles=30.0,
        inclusive=draw(st.booleans()),
    )


@st.composite
def workloads(draw, n_cores: int):
    n_threads = draw(st.integers(0, 5))
    works = []
    for tid in range(n_threads):
        n = draw(st.sampled_from((0, 1, 17, 150, 300)))
        span = draw(st.sampled_from((8, 64, 600)))
        lines = draw(st.lists(st.integers(0, span), min_size=n, max_size=n))
        works.append(ThreadWork(
            tid, draw(st.integers(0, n_cores - 1)),
            TraceChunk(lines=np.array(lines, dtype=np.int64),
                       collapsed_hits=draw(st.integers(0, 3)),
                       n_ops=draw(st.integers(0, 1000)))))
    return works


def assert_same(a, b):
    assert a.counters == b.counters
    assert a.level_served == b.level_served
    assert a.per_thread_cycles == b.per_thread_cycles
    assert a.runtime_seconds == b.runtime_seconds
    assert a.n_accesses == b.n_accesses


@given(data=st.data(), spec=platforms(),
       backend=st.sampled_from(("scalar", "vector", "auto")),
       quantum=st.integers(1, 512),
       block_lines=st.sampled_from((1, 5, 64, engine_mod._BLOCK_LINES)))
@settings(max_examples=120)
def test_block_replay_matches_per_batch_oracle(data, spec, backend, quantum,
                                               block_lines):
    block = SimulationEngine(spec, quantum=quantum, seed=3, backend=backend)
    oracle = SimulationEngine(spec, quantum=quantum, seed=3, backend=backend)
    with mock.patch.object(engine_mod, "_BLOCK_LINES", block_lines):
        # a second run continues the first's warm state
        for reset in (True, False):
            works = data.draw(workloads(spec.n_cores))
            assert_same(block.run(works, reset=reset),
                        per_batch_run(oracle, works, reset=reset))
            assert machine_state(block.machine) == machine_state(
                oracle.machine)


def _ivybridge_works(n_threads=4, n_lines=3000):
    rng = np.random.default_rng(7)
    return [ThreadWork(t, t, TraceChunk(
        lines=rng.integers(0, 4000, n_lines).astype(np.int64),
        collapsed_hits=5 * t, n_ops=100)) for t in range(n_threads)]


class TestPerLevelAttribution:
    def test_level_lines_equal_counters_minus_credits(self):
        spec = scaled_ivybridge(64)
        works = _ivybridge_works()
        eng = SimulationEngine(spec)
        tracer = trace.enable(trace.Tracer())
        try:
            eng.run(works)
        finally:
            trace.disable()
        (rec,) = [r for r in tracer.records if r["name"] == "engine.replay"]
        counters = rec["counters"]
        credits = sum(w.chunk.collapsed_hits for w in works)
        for li, name in enumerate(spec.level_names()):
            accesses = eng.machine.level_stats(name).accesses
            assert counters[f"{name}_lines"] == accesses - (
                credits if li == 0 else 0)
            assert counters[f"{name}_s"] > 0
        assert counters["TLB_lines"] == eng.machine.level_stats("TLB").accesses
        assert counters["TLB_s"] > 0


class TestOneCostFormula:
    @pytest.mark.parametrize("scope", ["core", "machine"])
    def test_stack_and_replay_runtimes_identical(self, scope):
        spec = fully_associative_spec(256, n_cores=4, scope=scope,
                                      mem_latency_cycles=230.0)
        works = _ivybridge_works()
        stack = SimulationEngine(spec, backend="stack")
        assert stack.uses_stack
        priced = stack.run(works)
        replayed = SimulationEngine(spec, backend="auto").run(works)
        assert priced.runtime_seconds == replayed.runtime_seconds
        assert priced.per_thread_cycles == replayed.per_thread_cycles
        assert priced.counters == replayed.counters


def test_per_batch_platform_rejects_a_multi_batch_block():
    spec = replace(scaled_ivybridge(64), inclusive=True)
    machine = SimulationEngine(spec).machine
    lines = np.arange(8, dtype=np.int64)
    with pytest.raises(ValueError, match="one batch at a time"):
        machine.replay([lines], [0, 0], [0, 0], [0, 4], [4, 8],
                       [[0] for _ in range(5)])
