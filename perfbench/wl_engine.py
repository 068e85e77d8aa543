"""``engine``: serial in-process points, the way a ``repro run`` user
pays for them.

Each pass runs 12 points — hit-heavy (fft, lu; 4P, 1 MB L2) and
miss-heavy (ocean, radix; 4P, 64 KB L2), each as baseline, SENSS and
SENSS + integrated memory protection — through the public path
``generate`` -> ``build_system`` -> ``SmpSystem.run`` with the
workload memo cleared first, on the default engine selection.
Results are checked against committed golden digests for the dev and
held-out seeds and, on any seed, against the first pass and one
reference-engine run. Point times are reference-host seconds
(``harness.HostSpeed``, probed between points).
"""

from __future__ import annotations

import json
from pathlib import Path

from harness import (import_setup, median, peak_rss_mb, result_digest,
                     trace_overhead, Window)

from repro.config import KB, e6000_config
from repro.sim.sweep import build_system
from repro.workloads.registry import clear_memo, generate

SCALE = 0.2
CPUS = 4
#: (workload, regime): hit-heavy on a 1 MB L2, miss-heavy on 64 KB
WORKLOADS = (("fft", "hit"), ("lu", "hit"),
             ("ocean", "miss"), ("radix", "miss"))
MODES = ("baseline", "senss", "integrated")
#: the layer each mode's extra run time is charged to
MODE_LAYER = {"baseline": "smp", "senss": "core",
              "integrated": "memprotect"}
DEV_SEED = 1
HELDOUT_SEED = 2
GOLDEN_FILE = "golden_engine.json"


def config_for(regime: str, mode: str):
    config = e6000_config(num_processors=CPUS, l2_mb=1,
                          senss_enabled=mode != "baseline")
    if regime == "miss":
        config = config.with_l2_size(64 * KB)
    if mode == "integrated":
        config = config.with_memprotect(encryption_enabled=True,
                                        integrity_enabled=True)
    return config


def points():
    return [(name, regime, mode) for name, regime in WORKLOADS
            for mode in MODES]


def point_id(name: str, regime: str, mode: str) -> str:
    return f"{name}/{regime}/{mode}"


def _one_pass(spans, host, seed: int):
    """Run every point once; returns a list of per-point records, their
    times in reference-host seconds (``harness.HostSpeed``)."""
    records = []
    before = host.probe()
    for name, regime, mode in points():
        clear_memo()
        with spans.span("generate", "workloads", workload=name) as gen:
            workload = generate(name, CPUS, scale=SCALE, seed=seed)
        config = config_for(regime, mode)
        with spans.span("build_system", "smp", mode=mode) as build:
            system = build_system(config)
        with spans.span("SmpSystem.run", MODE_LAYER[mode],
                        workload=name, mode=mode) as run:
            result = system.run(workload)
        after = host.probe()
        factor = host.rescale(1.0, (before, after))
        before = after
        records.append({
            "id": point_id(name, regime, mode), "regime": regime,
            "mode": mode, "accesses": workload.total_accesses,
            "generate_s": gen.seconds * factor,
            "build_s": build.seconds * factor,
            "run_s": run.seconds * factor,
            "backend": getattr(system, "engine_backend", "scalar"),
            "digest": result_digest(result), "stats": result.stats})
    return records


def _load_goldens(seed: int):
    path = Path(__file__).parent / GOLDEN_FILE
    goldens = json.loads(path.read_text())
    if goldens.get("scale") != SCALE:
        return None
    return goldens["seeds"].get(str(seed))


def _layers(records) -> dict:
    """Per-layer metrics of one pass."""
    def total(key, **match):
        return sum(r[key] for r in records
                   if all(r[k] == v for k, v in match.items()))

    def stat(name, **match):
        return sum(r["stats"].get(name, 0) for r in records
                   if all(r[k] == v for k, v in match.items()))

    def cpu_stat(field, **match):
        return sum(stat(f"cpu{cpu}.{field}", **match)
                   for cpu in range(CPUS))

    layers = {
        "workloads.generate_s": total("generate_s"),
        "workloads.generate_calls": len(records),
        "workloads.accesses": total("accesses"),
        "smp.build_s": total("build_s"),
        "smp.vector_points": sum(1 for r in records
                                 if r["backend"] == "vector"),
        "cache.l1_hit_rate": cpu_stat("l1_hit") / total("accesses"),
        "cache.l2_hit_rate": cpu_stat("l2_hit") / (
            cpu_stat("l2_hit") + cpu_stat("l2_miss")),
        "bus.transactions": stat("bus.transactions"),
        "bus.cache_to_cache": stat("bus.cache_to_cache"),
        "coherence.invalidations": stat("coherence.invalidations"),
        "senss.protected_messages": stat("senss.protected_messages"),
        "bus.tx.Auth00": stat("bus.tx.Auth00"),
        "memprotect.hash_fetches": stat("memprotect.hash_fetches"),
    }
    pad_hits = stat("memprotect.pad_cache_hits")
    pad_probes = pad_hits + stat("memprotect.pad_cache_misses")
    layers["memprotect.pad_cache_hit_rate"] = \
        pad_hits / pad_probes if pad_probes else 0.0
    for regime in ("hit", "miss"):
        base = total("run_s", regime=regime, mode="baseline")
        senss = total("run_s", regime=regime, mode="senss")
        integrated = total("run_s", regime=regime, mode="integrated")
        layers[f"smp.run_s.{regime}"] = base
        layers[f"smp.ns_per_access.{regime}"] = base * 1e9 / total(
            "accesses", regime=regime, mode="baseline")
        layers[f"core.senss_s.{regime}"] = senss - base
        layers[f"memprotect.integrated_s.{regime}"] = integrated - senss
    return layers


def run(ctx) -> dict:
    setup_s = import_setup(["repro.workloads.registry",
                            "repro.sim.sweep", "repro.smp.system"],
                           ctx.env, ctx.root, ctx.host)
    goldens = _load_goldens(ctx.seed)
    window = Window(ctx.seconds, min_iterations=3)
    passes = []
    while window.more():
        with ctx.iteration(len(passes)) as whole:
            records = _one_pass(ctx.spans, ctx.host, ctx.seed)
        window.record(whole.seconds)
        passes.append(records)
        expected = goldens or {r["id"]: r["digest"] for r in passes[0]}
        for record in records:
            ctx.check(record["digest"] == expected.get(record["id"]),
                      f"engine {record['id']} seed {ctx.seed}: digest "
                      f"{record['digest'][:12]} != expected")
    ctx.spans.enabled = ctx.trace
    rss_mb = peak_rss_mb()
    _reference_check(ctx, passes[0])

    pass_s = [sum(r["generate_s"] + r["build_s"] + r["run_s"]
                  for r in records) for records in passes]
    accesses = sum(r["accesses"] for r in passes[0])
    count = len(passes[0])
    points_per_s = median([count / s for s in pass_s])
    metrics = {
        "setup_s": setup_s,
        "peak_rss_mb": rss_mb,
        "accesses_per_s": median([accesses / s for s in pass_s]),
        "cold_points_per_s": points_per_s,
        "goodput_jobs_per_s": points_per_s * (
            1 - len(ctx.failures) / max(1, ctx.attempted)),
        "cells_per_s": points_per_s,
    }
    if not ctx.trace:
        return metrics
    per_pass = [_layers(records) for records in passes]
    layers = {name: median([p[name] for p in per_pass])
              for name in per_pass[0]}
    layers["obs.trace_overhead_frac"] = trace_overhead(window.durations)
    return layers


def _reference_check(ctx, records) -> None:
    """One point per run (rotating with the seed) against the layered
    reference engine, the executable spec of the fast path."""
    name, regime, mode = points()[ctx.seed % len(points())]
    workload = generate(name, CPUS, scale=SCALE, seed=ctx.seed)
    with ctx.spans.span("SmpSystem.run_reference", MODE_LAYER[mode]):
        reference = build_system(config_for(regime, mode)) \
            .run_reference(workload)
    fast = {r["id"]: r["digest"] for r in records}
    ident = point_id(name, regime, mode)
    ctx.check(result_digest(reference) == fast[ident],
              f"engine {ident} seed {ctx.seed}: fast path != "
              "run_reference")


def make_goldens(directory: Path) -> None:
    """Write golden digests for the dev and held-out seeds from the
    reference engine, after checking the fast path agrees."""
    seeds = {}
    for seed in (DEV_SEED, HELDOUT_SEED):
        digests = {}
        for name, regime, mode in points():
            workload = generate(name, CPUS, scale=SCALE, seed=seed)
            config = config_for(regime, mode)
            reference = build_system(config).run_reference(workload)
            fast = build_system(config).run(workload)
            if result_digest(fast) != result_digest(reference):
                raise SystemExit(f"fast path != reference on "
                                 f"{name}/{regime}/{mode} seed {seed}")
            digests[point_id(name, regime, mode)] = \
                result_digest(reference)
        seeds[str(seed)] = digests
    (directory / GOLDEN_FILE).write_text(json.dumps(
        {"scale": SCALE, "cpus": CPUS, "dev_seed": DEV_SEED,
         "heldout_seed": HELDOUT_SEED, "seeds": seeds},
        indent=1, sort_keys=True) + "\n")
