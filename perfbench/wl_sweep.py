"""``paper-sweep``: reproduce every figure point through ``run_sweep``.

The points are the paper suite's Figures 6-10 grid (75 points, the
same grid ``benchmarks/conftest.py`` builds) plus the section 7.8
seed study (5 workloads x 4 seeds x baseline/SENSS), at scales sized
for a 2-core host. Each iteration makes one **cold** pass into an
empty ``ResultCache`` with 2 workers, then **warm** passes that only
read the cache. Warm results must equal cold ones, every iteration
must equal the first, and a seeded sample of points must equal an
in-process ``run_point``. Cold-pass times are reference-host seconds
(``harness.HostSpeed``, probed throughout each pass with the workers
yielding to the probe).
"""

from __future__ import annotations

import multiprocessing
import pickle
import random
import shutil
import time

from harness import (import_setup, median, memory_references,
                     peak_rss_mb, trace_overhead, Window)

from repro.config import e6000_config
from repro.sim.sweep import (ResultCache, SweepPoint, SweepTimings,
                             run_point, run_sweep)
from repro.workloads.registry import SPLASH2_NAMES, clear_memo, generate

#: figure-grid scale (the suite's 0.5 scaled down) and the seed
#: study's (the suite's 0.3 by the same factor)
GRID_SCALE = 0.1
SEED_STUDY_SCALE = 0.06
SEED_STUDY_SEEDS = 4
WORKERS = 2
WARM_PASSES = 50
SAMPLED_POINTS = 3
#: a cold pass runs for ~10 s; probe the host's speed this often inside
SAMPLE_EVERY_S = 0.25


def _baseline(cpus: int, l2_mb: int):
    return e6000_config(num_processors=cpus, l2_mb=l2_mb,
                        senss_enabled=False)


def _senss(cpus: int, l2_mb: int, auth_interval: int = 100,
           num_masks=None):
    return e6000_config(num_processors=cpus, l2_mb=l2_mb,
                        auth_interval=auth_interval).with_masks(num_masks)


def sweep_points(seed: int):
    def point(name, config):
        return SweepPoint(name, config, scale=GRID_SCALE, seed=seed)

    points = []
    for l2_mb in (1, 4):
        for cpus in (2, 4):
            for name in SPLASH2_NAMES:
                points.append(point(name, _baseline(cpus, l2_mb)))
                points.append(point(name, _senss(cpus, l2_mb)))
    for name in SPLASH2_NAMES:
        for masks in (4, 2, 1):
            points.append(point(name, _senss(4, 4, num_masks=masks)))
        for interval in (32, 10, 1):
            points.append(point(name, _senss(4, 4,
                                             auth_interval=interval)))
        points.append(point(name, _senss(4, 1).with_memprotect(
            encryption_enabled=True, integrity_enabled=True)))
    for name in SPLASH2_NAMES:
        for offset in range(SEED_STUDY_SEEDS):
            for config in (_baseline(4, 1), _senss(4, 1)):
                points.append(SweepPoint(name, config,
                                         scale=SEED_STUDY_SCALE,
                                         seed=seed + offset))
    return points


def _settle(limit_s: float = 10.0) -> None:
    """Wait until the cold pass's worker processes have exited:
    ``run_sweep`` returns before its pool finishes shutting down, and
    warm passes timed during that teardown swung by 30% between runs."""
    deadline = time.perf_counter() + limit_s
    while multiprocessing.active_children() \
            and time.perf_counter() < deadline:
        time.sleep(0.01)


def _iteration(ctx, points, index):
    cache_dir = ctx.scratch / f"cache-{index}"
    cache = ResultCache(cache_dir)
    timings = SweepTimings()
    with ctx.spans.span("run_sweep.cold", "sim.sweep"):
        results, cold_s = ctx.host.timed(
            lambda: run_sweep(points, cache=cache, max_workers=WORKERS,
                              timings=timings),
            SAMPLE_EVERY_S, yield_children=True)
    _settle()
    warm_s = []
    for _ in range(WARM_PASSES):
        with ctx.spans.span("run_sweep.warm", "sim.sweep") as warm:
            again = run_sweep(points, cache=cache, max_workers=WORKERS)
        warm_s.append(warm.seconds)
        ctx.check(again == results,
                  f"paper-sweep seed {ctx.seed}: warm pass != cold pass")
    shutil.rmtree(cache_dir, ignore_errors=True)
    return results, cold_s, warm_s, timings


def run(ctx) -> dict:
    points = sweep_points(ctx.seed)
    setup_s = import_setup(["repro.sim.sweep", "repro.workloads.registry"],
                           ctx.env, ctx.root, ctx.host)
    window = Window(ctx.seconds, min_iterations=2)
    first = None
    cold_s, warm_s, timings = [], [], []
    while window.more():
        with ctx.iteration(len(cold_s)) as whole:
            results, cold, warm, timing = _iteration(ctx, points,
                                                     len(cold_s))
        window.record(whole.seconds)
        cold_s.append(cold)
        warm_s.extend(warm)
        timings.append(timing)
        if first is None:
            first = results
        ctx.check(results == first,
                  f"paper-sweep seed {ctx.seed}: cold pass differs from "
                  "the first")
    ctx.spans.enabled = ctx.trace
    rss_mb = peak_rss_mb()
    rng = random.Random(ctx.seed)
    for index in rng.sample(range(len(points)), SAMPLED_POINTS):
        with ctx.spans.span("run_point", "sim.sweep"):
            direct = run_point(points[index])
        ctx.check(direct == first[index],
                  f"paper-sweep seed {ctx.seed}: point {index} "
                  f"({points[index].workload}) != in-process run_point")

    count = len(points)
    references = sum(memory_references(result) for result in first)
    share_ok = 1 - len(ctx.failures) / max(1, ctx.attempted)
    cold_rate = median([count / s for s in cold_s])
    metrics = {
        "setup_s": setup_s,
        "peak_rss_mb": rss_mb,
        "accesses_per_s": median([references / s for s in cold_s]),
        "cold_points_per_s": cold_rate,
        "goodput_jobs_per_s": cold_rate * share_ok,
        "cells_per_s": cold_rate,
    }
    if not ctx.trace:
        return metrics
    layers = _direct_layers(ctx, points, first)
    layers.update({
        # Warm passes read ~115 small files each in ~50 ms; their rate
        # swung by up to 0.56 (IQR/median) over ten runs on a shared
        # host, too much for a gated end-to-end metric.
        "sweep.warm_points_per_s": count / median(warm_s),
        "sweep.wall_s": median([t.wall_s for t in timings]),
        "sweep.worker_s": median([t.run_s for t in timings]),
        "sweep.cache_s": median([t.cache_s for t in timings]),
        "sweep.worker_utilization": median(
            [t.run_s / (t.wall_s * max(1, t.workers)) for t in timings]),
        "sweep.points_retried": median([t.points_retried
                                        for t in timings]),
        "obs.trace_overhead_frac": trace_overhead(window.durations),
    })
    return layers


def _direct_layers(ctx, points, results) -> dict:
    """Layers that run inside the sweep's worker processes, called
    here directly on the same inputs."""
    spans = ctx.spans
    clear_memo()
    traces = sorted({(p.workload, p.config.num_processors, p.scale,
                      p.seed) for p in points})
    generate_s, accesses = 0.0, 0
    for name, cpus, scale, seed in traces:
        with spans.span("generate", "workloads", workload=name) as gen:
            workload = generate(name, cpus, scale=scale, seed=seed)
        generate_s += gen.seconds
        accesses += workload.total_accesses
    clear_memo()
    with spans.span("pickle round trip", "sim.sweep"):
        point_bytes = pickle.dumps(points)
        result_bytes = pickle.dumps(results)
        pickle.loads(point_bytes)
        pickle.loads(result_bytes)
    cache_dir = ctx.scratch / "direct-cache"
    cache = ResultCache(cache_dir)
    with spans.span("ResultCache.store", "sim.sweep") as store:
        for point, result in zip(points, results):
            cache.store(point, result)
    with spans.span("ResultCache.load", "sim.sweep") as load:
        loaded = [cache.load(point) for point in points]
    ctx.check(loaded == list(results),
              f"paper-sweep seed {ctx.seed}: ResultCache round trip "
              "changed a result")
    size = sum(path.stat().st_size for path in cache_dir.glob("*.json"))
    shutil.rmtree(cache_dir, ignore_errors=True)
    return {
        "workloads.generate_s": generate_s,
        "workloads.generate_calls": len(traces),
        "workloads.accesses": accesses,
        "sweep.ipc_bytes": len(point_bytes) + len(result_bytes),
        "resultcache.store_s": store.seconds,
        "resultcache.load_s": load.seconds,
        "resultcache.bytes": size,
    }
