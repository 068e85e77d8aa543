"""``campaign``: a fault campaign over every bus fault kind and every
recovery policy, forking cells from the shared clean prefix.

Runs ``run_campaign(kinds=FaultKind.BUS, policies=POLICIES,
fork=True)`` on the CLI's default workload (ocean, 4P) at a scale and
trigger where every cell's fault fires and is detected; the check is
``triggered == detected == cells`` with ``all_detected``, and every
iteration's report must equal the first. The workload memo is cleared
before each campaign, as a ``repro faults`` user pays generation.
Campaign times are reference-host seconds (``harness.HostSpeed``).
"""

from __future__ import annotations

from harness import (import_setup, median, peak_rss_mb, trace_overhead,
                     Window)

from repro.faults.campaign import campaign_config, run_campaign
from repro.faults.plan import FaultKind
from repro.faults.recovery import POLICIES
from repro.sim.checkpoint import (CheckpointStore, capture, family_key,
                                  fork_point, restore)
from repro.sim.sweep import SweepPoint
from repro.workloads.registry import clear_memo, generate

WORKLOAD = "ocean"
CPUS = 4
SCALE = 0.05
#: protected-message index every cell's fault fires on; on ocean 4P
#: at this scale a trigger of 400 still fired on every seed tried
TRIGGER = 200
CAPTURE_REPEATS = 5
#: a campaign runs for ~10 s; probe the host's speed this often inside
SAMPLE_EVERY_S = 0.25


def _campaign(seed: int, policies=POLICIES):
    return run_campaign(kinds=FaultKind.BUS, policies=policies,
                        workload=WORKLOAD, cpus=CPUS, scale=SCALE,
                        seed=seed, fork=True, trigger=TRIGGER)


def run(ctx) -> dict:
    setup_s = import_setup(["repro.faults.campaign",
                            "repro.sim.checkpoint"], ctx.env, ctx.root,
                           ctx.host)
    window = Window(ctx.seconds, min_iterations=2)
    campaign_s, reports = [], []
    while window.more():
        clear_memo()
        with ctx.iteration(len(campaign_s)) as whole:
            with ctx.spans.span("run_campaign", "faults"):
                report, seconds = ctx.host.timed(
                    lambda: _campaign(ctx.seed), SAMPLE_EVERY_S)
        window.record(whole.seconds)
        campaign_s.append(seconds)
        reports.append(report)
        entries = report["entries"]
        cells = len(entries)
        triggered = sum(1 for entry in entries if entry["triggered"])
        detected = sum(1 for entry in entries if entry["detected"])
        ctx.check(cells == len(FaultKind.BUS) * len(POLICIES)
                  and triggered == detected == cells
                  and report["all_detected"],
                  f"campaign seed {ctx.seed}: {cells} cells, "
                  f"{triggered} triggered, {detected} detected")
        ctx.check(entries == reports[0]["entries"],
                  f"campaign seed {ctx.seed}: report differs from the "
                  "first iteration")
    ctx.spans.enabled = ctx.trace

    cells = len(reports[0]["entries"])
    accesses = generate(WORKLOAD, CPUS, scale=SCALE,
                        seed=ctx.seed).total_accesses
    cell_rate = median([cells / s for s in campaign_s])
    forked = reports[0]["forked_cells"]
    share_ok = 1 - len(ctx.failures) / max(1, ctx.attempted)
    metrics = {
        "setup_s": setup_s,
        "peak_rss_mb": peak_rss_mb(),
        "accesses_per_s": median([cells * accesses / s
                                  for s in campaign_s]),
        "cold_points_per_s": cell_rate,
        "goodput_jobs_per_s": cell_rate * share_ok,
        "cells_per_s": cell_rate,
    }
    if not ctx.trace:
        return metrics
    layers = _direct_layers(ctx)
    entries = reports[0]["entries"]
    layers.update({
        "faults.triggered": sum(1 for e in entries if e["triggered"]),
        "faults.detected": sum(1 for e in entries if e["detected"]),
        "checkpoint.forked_cells": forked,
        "faults.cell_s": max(0.0, (median(campaign_s)
                                   - layers["faults.prefix_s"]
                                   - layers["workloads.generate_s"]) / cells),
        "obs.trace_overhead_frac": trace_overhead(window.durations),
    })
    return layers


def _direct_layers(ctx) -> dict:
    """The campaign's clean prefix alone (no cells), and checkpoint
    capture/restore called directly on the campaign's machine."""
    spans = ctx.spans
    clear_memo()
    with spans.span("generate", "workloads", workload=WORKLOAD):
        workload, generate_s = ctx.host.timed(lambda: generate(
            WORKLOAD, CPUS, scale=SCALE, seed=ctx.seed))
    with spans.span("run_campaign (prefix only)", "faults"):
        _, prefix_s = ctx.host.timed(
            lambda: _campaign(ctx.seed, policies=()), SAMPLE_EVERY_S)

    point = SweepPoint(WORKLOAD, campaign_config(cpus=CPUS), scale=SCALE,
                       seed=ctx.seed)
    store = CheckpointStore(ctx.scratch / "checkpoints")
    with spans.span("fork_point (emit seam snapshot)", "sim.checkpoint"):
        fork_point(point, None, workload=workload, store=store)
    snapshot = store.best(family_key(point), workload)
    ctx.check(snapshot is not None,
              f"campaign seed {ctx.seed}: no seam snapshot stored")
    restore_s, capture_s = [], []
    for _ in range(CAPTURE_REPEATS):
        with spans.span("checkpoint.restore", "sim.checkpoint") as span:
            system, clocks, cursors, counters = restore(snapshot)
        restore_s.append(span.seconds)
        with spans.span("checkpoint.capture", "sim.checkpoint") as span:
            again = capture(system, workload, point, clocks, cursors,
                            counters, tag="bench")
        capture_s.append(span.seconds)
    ctx.check(again.meta["digests"] == snapshot.meta["digests"],
              f"campaign seed {ctx.seed}: restore/capture moved the "
              "snapshot's trace cursors")
    return {
        "workloads.generate_s": generate_s,
        "workloads.generate_calls": 1,
        "workloads.accesses": workload.total_accesses,
        "faults.prefix_s": prefix_s,
        "checkpoint.capture_s": median(capture_s),
        "checkpoint.restore_s": median(restore_s),
        "checkpoint.snapshot_bytes": len(snapshot.blob),
    }
