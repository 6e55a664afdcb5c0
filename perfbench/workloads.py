"""The benchmark's workloads: set-up, timed passes, traced passes, checks.

Each workload is one process, one Python thread of load: cells run in
the calling process (the ``workers=1`` path of the figure drivers) and
serving runs one event loop with a concurrency bound of 2.  Layers are
timed from outside, around their public calls; where a driver hides a
call (``capacity_sweep``), the traced pass reads the spans the program
already emits.  End-to-end times are reported in ``ref`` units, as
multiples of the reference kernel sampled while each unit of work ran
(``hostref``); every timing inside the measurement is taken on the
clock ``HostRef.now``, which leaves the sampling out.  METHOD.md says
why each workload is here and which layer metric should move which
end-to-end metric.
"""

from __future__ import annotations

import asyncio
import contextlib
import os
import resource
import shutil
import statistics
import sys
import time
from dataclasses import dataclass, field, replace
from typing import Callable, Dict, List, Optional, Tuple

import numpy as np

from repro.data.synthetic import combustion_field
from repro.experiments import sweep as _sweep
from repro.experiments.config import BilateralCell, VolrendCell, default_ivybridge
from repro.experiments.harness import clear_caches, prepare_cell, simulate_prepared
from repro.instrument import trace as _trace
from repro.resilience.policy import RetryPolicy
from repro.serve import (
    ChunkStore,
    ReliabilityConfig,
    VolumeServer,
    arrival_times,
    cache_crosscheck,
    generate_queries,
)

import checks
import hostref
from hostref import HostRef


@dataclass(frozen=True)
class Size:
    """Input size of every workload; ``tiny`` exists for the smoke tests."""

    shape: int
    threads: int
    image_size: int
    viewpoints: Tuple[int, ...]
    capacities: Tuple[int, ...]
    serve_shape: int
    serve_cache: int
    closed_queries: int
    count_queries: int
    golden_queries: int


SIZES = {
    "full": Size(shape=64, threads=24, image_size=256, viewpoints=(2,),
                 capacities=(16, 64, 256, 1024, 4096, 16384, 65536),
                 serve_shape=64, serve_cache=32, closed_queries=384,
                 count_queries=512,
                 golden_queries=48),
    "tiny": Size(shape=16, threads=4, image_size=64, viewpoints=(0, 2),
                 capacities=(16, 64, 256),
                 serve_shape=32, serve_cache=8, closed_queries=32,
                 count_queries=64,
                 golden_queries=16),
}

#: the a/z layout pair of the paper's figures
LAYOUTS = ("array", "morton")
#: layouts whose miss-ratio curves the capacity sweep prices
SWEEP_LAYOUTS = ("array", "morton", "hilbert")
#: serving geometry: 64^3 in hilbert order, chunk 8, 4 chunks/segment
SERVE_ORDER = "hilbert"
SERVE_CHUNK = 8
SERVE_CHUNKS_PER_SEGMENT = 4
#: seeded queries generated per run; loops cycle through them
QUERY_POOL = 8192
#: queries per user session; each session draws its own Zipf popularity
SESSION_QUERIES = 8
#: open-loop Poisson rate, about a quarter of the closed-loop throughput
OPEN_RATE = 80.0
SERVE_CONCURRENCY = 2
#: length of the open-loop window in each closed/open round
OPEN_WINDOW_S = 4.0
#: volume and query seed of the golden session whose digests are recorded
GOLDEN_SEED = 0


def percentile(values, q: float) -> float:
    return float(np.percentile(np.asarray(values, dtype=np.float64), q))


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


@dataclass
class Measurement:
    """What the timed part of one run yields."""

    end_to_end: Dict[str, float]
    #: the same figures in host seconds, printed beside them
    wall: Dict[str, float]
    layers: Dict[str, float]
    attempted: int
    failed: int


@dataclass
class Item:
    """One timed unit of work -- a cell, a curve -- and what it produced."""

    key: str
    traced: bool
    seconds: float
    out: tuple
    #: ``HostRef.now`` when it started and ended
    span: Tuple[float, float] = (0.0, 0.0)


@contextlib.contextmanager
def traced():
    """Enable a fresh program tracer for the block and yield it."""
    tracer = _trace.enable(_trace.Tracer())
    try:
        yield tracer
    finally:
        _trace.disable()


def maybe_traced(on: bool):
    return traced() if on else contextlib.nullcontext()


def span_seconds(tracer, *names: str,
                 where: Callable[[dict], bool] = lambda rec: True) -> float:
    return sum(rec["dur"] for rec in tracer.records
               if rec["name"] in names and where(rec))


def paired_order(index: int, trace: bool) -> Tuple[bool, ...]:
    """Tracer settings for the ``index``-th unit: untraced alone, or a
    back-to-back untraced/traced pair whose order alternates, so the
    host's drift falls on both sides alike."""
    if not trace:
        return (False,)
    return (False, True) if index % 2 == 0 else (True, False)


def item_passes(items, run_item: Callable[[object, bool], Item],
                seconds: float, trace: bool, ref: HostRef,
                between: Callable[[], None]) -> List[List[Item]]:
    """Passes over ``items`` while the next is expected to end in ``seconds``.

    Each item records when it ran, to read it in ``ref`` units.  With
    ``trace`` every item runs as a pair (``paired_order``).
    ``between`` runs after each pass.  At least one pass runs.
    """
    passes, walls = [], []
    start = ref.now()
    while not walls or (ref.now() - start
                        + statistics.mean(walls) <= seconds):
        t0 = ref.now()
        done = []
        for i, item in enumerate(items):
            for on in paired_order(i + len(passes), trace):
                a = ref.now()
                it = run_item(item, on)
                it.span = (a, ref.now())
                done.append(it)
        passes.append(done)
        between()
        walls.append(ref.now() - t0)
    return passes


def median_times(passes: List[List[Item]], ref: Optional[HostRef]
                 ) -> Dict[str, float]:
    """Each item's median untraced time over the passes: in ``ref``
    units of the samples taken while it ran, or in seconds (no ``ref``)."""
    times: Dict[str, List[float]] = {}
    for done in passes:
        for it in done:
            if not it.traced:
                times.setdefault(it.key, []).append(
                    it.seconds / ref.factor(*it.span) if ref else it.seconds)
    return {key: statistics.median(v) for key, v in times.items()}


def tracing_overhead(pairs: List[Tuple[float, float]]) -> float:
    """Median over (untraced, traced) times of the same work, minus 1."""
    return statistics.median(t / u for u, t in pairs) - 1.0


def item_pairs(passes: List[List[Item]]) -> List[Tuple[float, float]]:
    """(untraced, traced) times of each item within each pass."""
    pairs = []
    for done in passes:
        sides: Dict[str, Dict[bool, float]] = {}
        for it in done:
            sides.setdefault(it.key, {})[it.traced] = it.seconds
        pairs += [(d[False], d[True]) for d in sides.values()]
    return pairs


def item_metrics(passes: List[List[Item]], results_per_item: int,
                 ref: HostRef) -> Tuple[Dict[str, float], Dict[str, float]]:
    """The end-to-end metrics of a cell workload from median item times,
    in ``ref`` units and in host seconds."""
    figures = []
    for by, scale, rate, resp in ((ref, 1.0, "results_per_ref", "_ref"),
                                  (None, 1e3, "results_per_s", "_ms")):
        times = median_times(passes, by)
        resp_times = [t * scale for t in times.values()]
        figures.append({rate: results_per_item * len(times)
                        / sum(times.values()),
                        "resp_p50" + resp: percentile(resp_times, 50),
                        "resp_p90" + resp: percentile(resp_times, 90)})
    return figures[0], figures[1]


class Workload:
    """Base: ``setup`` (repeated), ``measure`` (timed), ``problems``."""

    #: set-ups before the measurement; ``measure`` runs one more after
    #: each of its passes or rounds, so that the set-ups sample the host
    #: across the whole run, and setup_s is the median of them all
    setup_reps = 3
    #: the reference kernel that does this workload's kind of work
    ref_kernel: Callable[[], int] = staticmethod(hostref.lru_walk)

    def __init__(self, size: str, seed: int, workdir: str):
        self.size = SIZES[size]
        self.reference = checks.load_reference(size)
        self.seed = seed
        self.workdir = workdir
        self.found: List[str] = []
        #: samples the host while ``measure`` runs; its clock times the work
        self.ref = HostRef(type(self).ref_kernel)
        self.setups: List[Dict[str, float]] = []

    def timed_setup(self) -> None:
        """One more set-up, timed with the host sampling paused."""
        with self.ref.paused():
            self.setups.append(self.setup())

    def setup(self, trace: bool = False) -> Dict[str, float]:
        raise NotImplementedError

    def measure(self, seconds: float, trace: bool) -> Measurement:
        raise NotImplementedError

    def problems(self) -> List[str]:
        return list(self.found)


# -- experiment cells ---------------------------------------------------------

def bilateral_cell(size: Size, seed: int) -> BilateralCell:
    """Figure 2's r5 pz zyx cell, built as ``figure2`` builds its base."""
    return BilateralCell(
        platform=default_ivybridge(64), shape=(size.shape,) * 3,
        affinity="compact", pencils_per_thread=2, seed=seed,
        stencil="r5", pencil="pz", stencil_order="zyx",
        n_threads=size.threads)


def figure_cells(size: Size, seed: int) -> list:
    """The figure-2/figure-5 slice, both layouts, scaled-by-64 Ivy Bridge."""
    bil = bilateral_cell(size, seed)
    vol = VolrendCell(
        platform=default_ivybridge(64), shape=(size.shape,) * 3,
        image_size=size.image_size, affinity="compact", tiles_per_thread=1,
        ray_step=2, seed=seed, n_threads=size.threads)
    cells = [bil.with_layout(lay) for lay in LAYOUTS]
    for vp in size.viewpoints:
        cells += [replace(vol, viewpoint=vp).with_layout(lay)
                  for lay in LAYOUTS]
    return cells


def warm_cells(cells) -> None:
    """Build every dataset and grid the cells need (the harness caches)."""
    seen = set()
    for cell in cells:
        key = (type(cell), cell.layout)
        if key not in seen:
            seen.add(key)
            prepare_cell(cell)


def raw_counts(result) -> Dict[str, int]:
    """Counters and memory lines of one cell before extrapolation."""
    scale = result.sim.count_scale
    return {
        "memsim.l1_misses": round(result.counters["PAPI_L1_TCM"] / scale),
        "memsim.l2_misses": round(result.counters["PAPI_L2_TCM"] / scale),
        "memsim.l3_accesses": round(result.counters["PAPI_L3_TCA"] / scale),
        "memsim.mem_lines": round(result.sim.level_served["MEM"] / scale),
    }


class CellWorkload(Workload):
    """Experiment cells through ``prepare_cell`` + ``simulate_prepared``."""

    make_cells: Callable[[Size, int], list]

    def __init__(self, size: str, seed: int, workdir: str):
        super().__init__(size, seed, workdir)
        self.cells = type(self).make_cells(self.size, seed)

    def setup(self, trace: bool = False) -> Dict[str, float]:
        clear_caches()
        if not trace:
            t0 = time.perf_counter()
            warm_cells(self.cells)
            return {"setup_s": time.perf_counter() - t0}
        with traced() as tracer:
            warm_cells(self.cells)
        return {"core.pack_s": span_seconds(tracer, "cell.setup")}

    def _run(self, cell, trace: bool) -> Item:
        now = self.ref.now
        with maybe_traced(trace):
            t0 = now()
            prepared = prepare_cell(cell)
            t1 = now()
            result = simulate_prepared(cell, prepared)
            t2 = now()
        lines = sum(int(w.chunk.lines.size) for w in prepared.works)
        return Item(checks.cell_label(cell), trace, t2 - t0,
                    (t1 - t0, t2 - t1, lines, result))

    def measure(self, seconds: float, trace: bool) -> Measurement:
        passes = item_passes(self.cells, self._run, seconds, trace,
                             self.ref, self.timed_setup)
        for done in passes:
            for it in done:
                _, _, lines, result = it.out
                self.found += checks.cell_problems(
                    it.key, checks.cell_summary(result, lines),
                    self.reference["cells"])
        layers: Dict[str, float] = {}
        if trace:
            outs = [[it.out for it in done if it.traced] for done in passes]
            layers["kernels.trace_s"] = statistics.mean(
                sum(o[0] for o in done) for done in outs)
            layers["memsim.replay_s"] = statistics.mean(
                sum(o[1] for o in done) for done in outs)
            layers["kernels.lines"] = sum(o[2] for o in outs[0])
            layers["memsim.lines_per_s"] = (layers["kernels.lines"]
                                            / layers["memsim.replay_s"])
            for o in outs[0]:
                for name, value in raw_counts(o[3]).items():
                    layers[name] = layers.get(name, 0) + value
            layers["instrument.overhead"] = tracing_overhead(
                item_pairs(passes))
        done = sum(len(p) for p in passes)
        end_to_end, wall = item_metrics(passes, 1, self.ref)
        return Measurement(end_to_end=end_to_end, wall=wall, layers=layers,
                           attempted=done, failed=0)


class FigureCells(CellWorkload):
    make_cells = staticmethod(figure_cells)


# -- capacity sweep -----------------------------------------------------------

@contextlib.contextmanager
def histogram_stores():
    """Collect the HistogramStores ``capacity_sweep`` creates.

    The sweep builds its store internally; wrapping the module global it
    builds it from lets the traced pass read the store's own hit/miss
    counters.  This couples to ``_run_capacity_sweep``'s internals: if
    the store is ever built elsewhere, nothing is collected and
    ``stackdist.hist_reuse`` reads 0 with a warning.
    """
    created = []
    original = _sweep.HistogramStore

    def make(*args, **kwargs):
        store = original(*args, **kwargs)
        created.append(store)
        return store

    _sweep.HistogramStore = make
    try:
        yield created
    finally:
        _sweep.HistogramStore = original


def capacity_cells(size: Size, seed: int) -> list:
    """The scaled r5 pz zyx cell in each layout whose curve is priced."""
    base = bilateral_cell(size, seed)
    return [base.with_layout(lay) for lay in SWEEP_LAYOUTS]


class CapacitySweep(CellWorkload):
    """``capacity_sweep`` of the bilateral cell, one call per layout."""

    make_cells = staticmethod(capacity_cells)
    # stack distances and trace generation are numpy sorts, not loops
    ref_kernel = staticmethod(hostref.walk_and_sort)

    def _run(self, cell, trace: bool) -> Item:
        watch = histogram_stores() if trace else contextlib.nullcontext([])
        with maybe_traced(trace) as tracer, watch as stores:
            t0 = self.ref.now()
            rows = _sweep.capacity_sweep(cell, self.size.capacities)
            seconds = self.ref.now() - t0
        return Item(cell.layout, trace, seconds, (rows, tracer, stores))

    def measure(self, seconds: float, trace: bool) -> Measurement:
        passes = item_passes(self.cells, self._run, seconds, trace,
                             self.ref, self.timed_setup)
        for done in passes:
            for it in done:
                self.found += checks.rows_problems(
                    f"capacity {it.key}", it.out[0],
                    self.reference["capacity"][it.key])
        layers: Dict[str, float] = {}
        if trace:
            outs = [[it.out for it in done if it.traced] for done in passes]
            layers["kernels.trace_s"] = statistics.mean(
                sum(span_seconds(o[1], "cell.setup", "cell.trace_gen")
                    for o in done) for done in outs)
            layers["stackdist.price_s"] = statistics.mean(
                sum(span_seconds(o[1], "engine.replay",
                                 where=lambda rec: rec["attrs"].get("backend")
                                 == "stack")
                    for o in done) for done in outs)
            # the sweep generates each layout's trace once; generation is
            # deterministic, so counting a fresh preparation is exact
            layers["kernels.lines"] = sum(
                int(w.chunk.lines.size)
                for cell in self.cells for w in prepare_cell(cell).works)
            stores = [st for done in outs for o in done for st in o[2]]
            hits = sum(st.hits for st in stores)
            lookups = hits + sum(st.misses for st in stores)
            if not lookups:
                # histogram_stores() sees only stores built through the
                # module name; a sweep that gets its store another way
                # leaves nothing to count
                print("perfbench: no HistogramStore lookup observed in "
                      "capacity_sweep; stackdist.hist_reuse reads 0",
                      file=sys.stderr)
            layers["stackdist.hist_reuse"] = hits / lookups if lookups else 0.0
            layers["instrument.overhead"] = tracing_overhead(
                item_pairs(passes))
        rows = len(self.size.capacities)
        done = sum(len(p) for p in passes)
        end_to_end, wall = item_metrics(passes, rows, self.ref)
        return Measurement(end_to_end=end_to_end, wall=wall, layers=layers,
                           attempted=rows * done, failed=0)


# -- serving ------------------------------------------------------------------

class TimedReader:
    """``VolumeServer(reader=...)`` hook: counts and times store reads."""

    def __init__(self, store: ChunkStore, clock: Callable[[], float]):
        self.store = store
        self.clock = clock
        self.reads = 0
        self.seconds = 0.0

    def __call__(self, seg: int, policy) -> np.ndarray:
        t0 = self.clock()
        try:
            return self.store.read_segment(seg, policy=policy)
        finally:
            self.seconds += self.clock() - t0
            self.reads += 1


@dataclass
class LoopStats:
    service: List[float] = field(default_factory=list)
    self_time: List[float] = field(default_factory=list)
    response: List[float] = field(default_factory=list)
    late: List[float] = field(default_factory=list)
    failed: int = 0


def session_queries(shape, seed: int) -> list:
    """The query stream: consecutive seeded sessions of the default mix.

    ``generate_queries`` makes one random viewpoint the Zipf favourite
    of a whole stream, and viewpoints differ in the box they fetch, so a
    single stream's cost depends on its seed.  Many short sessions, each
    with its own favourite, average that out.
    """
    queries = []
    for k in range(QUERY_POOL // SESSION_QUERIES):
        queries += generate_queries(shape, SESSION_QUERIES,
                                    seed=seed * QUERY_POOL + k)
    return queries


def build_store(path: str, shape, seed: int):
    """Volume, ``ChunkStore.create`` and ``ChunkStore.open``, each timed."""
    t0 = time.perf_counter()
    dense = combustion_field(shape, seed=seed)
    t1 = time.perf_counter()
    ChunkStore.create(path, dense, order=SERVE_ORDER, chunk=SERVE_CHUNK,
                      chunks_per_segment=SERVE_CHUNKS_PER_SEGMENT)
    t2 = time.perf_counter()
    store = ChunkStore.open(path, origin=dense)
    t3 = time.perf_counter()
    return dense, store, {"setup_s": t3 - t0, "store.create_s": t2 - t1,
                          "store.open_s": t3 - t2}


def make_server(store: ChunkStore, size: Size, reader=None) -> VolumeServer:
    """A server with the LRU cache and the reliability ``repro serve`` uses."""
    reliability = ReliabilityConfig(
        deadline_s=None, max_inflight=None,
        retry=RetryPolicy(max_retries=2, backoff_base=0.01))
    return VolumeServer(store, cache=f"lru:capacity={size.serve_cache}",
                        reliability=reliability, reader=reader)


def cache_problems(server: VolumeServer) -> List[str]:
    check = cache_crosscheck(server.cache)
    return [f"cache crosscheck: {m}" for m in check.mismatches()]


def golden_digests(size: Size, workdir: str) -> Tuple[List[str], List[str]]:
    """Payload digests of the fixed-seed golden session, and its problems."""
    shape = (size.serve_shape,) * 3
    _, store, _ = build_store(os.path.join(workdir, "golden"), shape,
                              GOLDEN_SEED)
    server = make_server(store, size)
    digests = []
    for q in generate_queries(shape, size.golden_queries, seed=GOLDEN_SEED):
        r = server.serve(q)
        digests.append(checks.digest(r.data) if r.ok else "failed")
    return digests, cache_problems(server)


class ServeZipf(Workload):
    """A seeded session against a hilbert-ordered chunk store."""

    # a set-up is ~0.35 s of query generation and ~0.25 s of fsync-bound
    # writes whose time drifts with the host's disk load; more
    # repetitions steady the median
    setup_reps = 5

    def __init__(self, size: str, seed: int, workdir: str):
        super().__init__(size, seed, workdir)
        self.shape = (self.size.serve_shape,) * 3
        self.queries: List = []
        self.store: Optional[ChunkStore] = None
        self.dense: Optional[np.ndarray] = None
        self.servers: List[VolumeServer] = []
        self.reps = 0

    def setup(self, trace: bool = False) -> Dict[str, float]:
        """Generate the query stream and build a store; the first ones
        serve, later stores are removed."""
        if trace:
            return {}
        self.reps += 1
        t0 = time.perf_counter()
        queries = session_queries(self.shape, self.seed)
        generate_s = time.perf_counter() - t0
        path = os.path.join(self.workdir, f"store-{self.reps}")
        dense, store, timings = build_store(path, self.shape, self.seed)
        if self.store is None:
            self.queries, self.dense, self.store = queries, dense, store
        else:
            shutil.rmtree(path)
        timings["setup_s"] += generate_s
        return timings

    def _check_result(self, q, r, stats: LoopStats) -> None:
        if not r.ok:
            stats.failed += 1
        else:
            self.found += checks.payload_problems(q, r.data, self.dense)

    def _server(self, reader=None) -> VolumeServer:
        # crosschecked in problems(), after peak RSS is read: the check's
        # arrays grow with the access log, not with the serving
        server = make_server(self.store, self.size, reader)
        self.servers.append(server)
        return server

    # -- loops ----------------------------------------------------------------

    def _closed_window(self, k: int, trace: bool) -> Dict[bool, Tuple[
            LoopStats, Optional[TimedReader]]]:
        """One client sends the ``k``-th block of ``closed_queries``
        queries of the stream back to back through ``VolumeServer.serve``,
        to a fresh server.  Consecutive windows take consecutive blocks,
        so a run samples hundreds of sessions, not the same few.

        With ``trace`` each query also goes to a second fresh server with
        the tracer on, right before or after it (``paired_order``); both
        servers read through the ``TimedReader`` hook, so the two sides
        differ by the tracer only.  Returns each side's stats and reader.
        """
        sides = (False, True) if trace else (False,)
        readers = {on: TimedReader(self.store, self.ref.now) if trace
                   else None for on in sides}
        servers = {on: self._server(readers[on]) for on in sides}
        stats = {on: LoopStats() for on in sides}
        n = self.size.closed_queries
        first = k * n % len(self.queries)
        for i, q in enumerate(self.queries[first:first + n]):
            for on in paired_order(i, trace):
                reader = readers[on]
                read_before = reader.seconds if reader is not None else 0.0
                with maybe_traced(on):
                    t0 = self.ref.now()
                    r = servers[on].serve(q)
                    dt = self.ref.now() - t0
                stats[on].service.append(dt)
                if reader is not None:
                    stats[on].self_time.append(
                        dt - (reader.seconds - read_before))
                self._check_result(q, r, stats[on])
        return {on: (stats[on], readers[on]) for on in sides}

    async def _open_window(self, server: VolumeServer, offsets,
                           stats: LoopStats) -> None:
        """Release queries at their due offsets; time each from its due time."""
        loop = asyncio.get_running_loop()
        sem = asyncio.Semaphore(SERVE_CONCURRENCY)
        now = self.ref.now

        async def one(q, due: float) -> None:
            t_start = now()
            r = await server.query(q, sem)
            t_end = now()
            stats.response.append(t_end - due)
            stats.service.append(t_end - t_start)
            # a slice comparison costs ~10 us against ~4 ms of service,
            # and keeping payloads for later would inflate peak RSS
            self._check_result(q, r, stats)

        tasks = []
        start = now()
        for offset in offsets:
            due = start + float(offset)
            # poll rather than sleep: an idle process's wake-up delay is
            # the host scheduler's, and on a shared host it swamps the
            # server's own response time
            while now() < due:
                await asyncio.sleep(0)
            q = self.queries[len(stats.late) % len(self.queries)]
            stats.late.append(now() - due)
            tasks.append(loop.create_task(one(q, due)))
        await asyncio.gather(*tasks)

    def _count_pass(self) -> Dict[str, float]:
        """Exact per-layer counts over a fixed prefix of the queries."""
        reader = TimedReader(self.store, self.ref.now)
        server = self._server(reader)
        stats = LoopStats()
        results = []
        for q in self.queries[:self.size.count_queries]:
            r = server.serve(q)
            self._check_result(q, r, stats)
            results.append(r)
        ok = [r for r in results if r.ok]
        cache = server.cache
        return {
            "cache.gets": cache.accesses,
            "cache.hit_ratio": cache.hits / cache.accesses,
            "store.reads": reader.reads,
            "serve.segments_per_query": float(np.mean(
                [r.segments_touched for r in ok])),
            "serve.utilization": (sum(r.bytes_returned for r in ok)
                                  / sum(r.bytes_touched for r in ok)),
        }

    def measure(self, seconds: float, trace: bool) -> Measurement:
        """Rounds of one closed-loop window and one open-loop window.

        Alternating lets both loops sample the whole run.  Each window's
        times are read in ``ref`` units of the samples taken while it
        ran.  With ``trace`` each closed-window query
        runs untraced and traced (``_closed_window``) and the open
        windows alternate between an untraced and a traced server.
        """
        window = OPEN_WINDOW_S
        arrivals = arrival_times(
            int(OPEN_RATE * (seconds + 3 * window)) + 1, profile="steady",
            rate=OPEN_RATE, seed=self.seed)
        closed: Dict[bool, List[Tuple[LoopStats, Optional[TimedReader]]]] = {
            False: [], True: []}
        opened = {False: LoopStats(), True: LoopStats()}
        open_servers = {False: self._server()}
        if trace:
            open_servers[True] = self._server()
        ref = self.ref
        closed_spans: List[Tuple[float, float]] = []
        open_spans: List[Tuple[float, float]] = []  # per untraced response
        rounds: List[float] = []
        start = ref.now()
        while len(rounds) < (2 if trace else 1) or (
                ref.now() - start + statistics.mean(rounds) <= seconds):
            t0 = ref.now()
            k = len(rounds)
            for on, side in self._closed_window(k, trace).items():
                closed[on].append(side)
            t1 = ref.now()
            closed_spans.append((t0, t1))
            offsets = [a - k * window for a in arrivals
                       if k * window <= a < (k + 1) * window]
            on = trace and k % 2 == 1
            with maybe_traced(on):
                asyncio.run(self._open_window(open_servers[on], offsets,
                                              opened[on]))
            t2 = ref.now()
            if not on:
                open_spans += [(t1, t2)] * (
                    len(opened[False].response) - len(open_spans))
            self.timed_setup()
            rounds.append(ref.now() - t0)
        layers: Dict[str, float] = {}
        if trace:
            layers.update(self._count_pass())
            windows = [st for st, _ in closed[True]]
            readers = [rd for _, rd in closed[True]]
            layers["store.read_ms"] = (sum(rd.seconds for rd in readers)
                                       / sum(rd.reads for rd in readers)
                                       * 1e3)
            layers["server.service_ms"] = percentile(
                [d for st in windows for d in st.service], 50) * 1e3
            layers["server.self_ms"] = percentile(
                [d for st in windows for d in st.self_time], 50) * 1e3
            traced_open = opened[True]
            layers["server.queue_ms"] = float(np.mean(np.subtract(
                traced_open.response, traced_open.service))) * 1e3
            layers["loadgen.late_ms"] = percentile(traced_open.late, 90) * 1e3
            layers["instrument.overhead"] = tracing_overhead(
                [(sum(u.service), sum(t.service)) for (u, _), (t, _)
                 in zip(closed[False], closed[True])])
        windows = [sum(st.service) for st, _ in closed[False]]
        queries = sum(len(st.service) for st, _ in closed[False])
        response = opened[False].response
        response_ref = np.divide(
            response, [ref.factor(*span) for span in open_spans])
        every = [st for side in closed.values() for st, _ in side]
        every += opened.values()
        return Measurement(
            end_to_end={
                "results_per_ref": queries / sum(
                    np.divide(windows, [ref.factor(*span)
                                        for span in closed_spans])),
                "resp_p50_ref": percentile(response_ref, 50),
                "resp_p90_ref": percentile(response_ref, 90)},
            wall={"results_per_s": queries / sum(windows),
                  "resp_p50_ms": percentile(response, 50) * 1e3,
                  "resp_p90_ms": percentile(response, 90) * 1e3},
            layers=layers,
            attempted=sum(len(st.service) for st in every),
            failed=sum(st.failed for st in every))

    def problems(self) -> List[str]:
        found = list(self.found)
        for server in self.servers:
            found += cache_problems(server)
        digests, golden_problems = golden_digests(self.size, self.workdir)
        return (found + golden_problems + checks.digest_problems(
            digests, self.reference["serve_golden"]))


WORKLOADS = {
    "figure-cells": FigureCells,
    "capacity-sweep": CapacitySweep,
    "serve-zipf": ServeZipf,
}


def run_workload(name: str, *, seed: int, seconds: float, trace: bool,
                 size: str, workdir: str) -> dict:
    """Set up, measure for ``seconds``, then check.

    Returns the end-to-end metrics (always), the per-layer metrics the
    workload's layers produce (``trace`` only: the measurement then
    runs each unit of work untraced and traced, back to back, and the
    tracing overhead compares the two), the operation counts and the
    correctness problems found.
    """
    workload = WORKLOADS[name](size, seed, workdir)
    for _ in range(workload.setup_reps):
        workload.timed_setup()
    with workload.ref:
        measured = workload.measure(seconds, trace=trace)
    setup = {key: statistics.median(r[key] for r in workload.setups)
             for key in workload.setups[0]}
    measured.wall["ref_ms"] = statistics.median(workload.ref.samples) * 1e3
    end_to_end = dict(measured.end_to_end, setup_s=setup.pop("setup_s"),
                      peak_rss_mb=peak_rss_mb())
    layers: Dict[str, float] = {}
    if trace:
        layers.update(setup)
        layers.update(workload.setup(trace=True))
        layers.update(measured.layers)
    return {"end_to_end": end_to_end, "wall": measured.wall, "layers": layers,
            "attempted": measured.attempted, "failed": measured.failed,
            "problems": workload.problems()}
