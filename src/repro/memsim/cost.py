"""Cycle-level cost model: turn service counts into simulated runtime.

The paper reports wall-clock runtime and argues it tracks memory-system
utilization.  Our substitute makes that coupling explicit: each access
costs the latency of the level that served it (DRAM latency is divided
by the platform's memory-level parallelism), and each kernel operation
adds a fixed compute cost.  Runtime is the slowest thread's cycle count
divided by the clock — the shape of layout-vs-layout comparisons then
emerges entirely from where the accesses were served.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict

from .hierarchy import PlatformSpec, ServiceCounts

__all__ = ["CostModel"]


@dataclass(frozen=True)
class CostModel:
    """Parameters converting service counts to cycles.

    Attributes
    ----------
    cpi_compute : float
        Compute cycles charged per kernel *operation* (the kernels report
        an op count per work item: stencil taps for the filter, sample
        compositing steps for the renderer).
    issue_cycles_per_access : float
        Pipeline cost of issuing a load, charged on top of the serving
        level's latency.  Keeps runtimes sane when everything hits L1.
    """

    cpi_compute: float = 1.0
    issue_cycles_per_access: float = 0.5

    def access_cycles(self, counts: ServiceCounts, spec: PlatformSpec) -> float:
        """Cycles spent on memory for one batch of service counts."""
        latencies: Dict[str, float] = {
            level.cache.name: level.latency_cycles for level in spec.levels
        }
        cycles = 0.0
        for name, served in counts.per_level.items():
            cycles += served * latencies[name]
        cycles += counts.mem * spec.mem_latency_cycles / spec.mem_parallelism
        cycles += counts.total * self.issue_cycles_per_access
        cycles += counts.tlb_misses * spec.tlb_miss_cycles
        return cycles

    def thread_cycles(self, counts: ServiceCounts, n_ops: int,
                      spec: PlatformSpec) -> float:
        """One thread's cycles from its whole-run service totals.

        Every replay and pricing path charges a thread through this one
        formula.  The totals are integers and every cost term of the
        shipped presets is a multiple of 0.5 cycles, so one evaluation
        equals the sum over the thread's batches bit for bit.
        """
        return self.access_cycles(counts, spec) + self.compute_cycles(n_ops)

    def compute_cycles(self, n_ops: int) -> float:
        """Cycles spent on arithmetic for ``n_ops`` kernel operations."""
        return n_ops * self.cpi_compute

    def seconds(self, cycles: float, spec: PlatformSpec) -> float:
        """Convert cycles to seconds at the platform clock."""
        return cycles / (spec.freq_ghz * 1e9)
