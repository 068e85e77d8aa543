"""``serve``: a ``repro serve`` subprocess under an open-loop load.

The server runs with 2 warm workers, a journal (``--state-dir``), a
result cache, a checkpoint store and a point timeout, all in fresh
directories. Two tenants, one client thread and one connection each,
submit jobs on a seeded Poisson schedule (a fixed number of arrivals
spread uniformly at random over the window) at one fixed offered
rate, a little over a quarter of the rate at which the 2 workers
saturate on a 2-core host. Each job holds 1-3 points; each point is either fresh
(radix, barnes or lu x baseline/SENSS x a small scale set x a trace
seed, walked so larger scales can fork from smaller ones) or a repeat
of an earlier job's point from either tenant. A job's latency runs
from its due time to the server's finish time; a refused or failed
job counts as the whole window. Served results must equal an
in-process ``run_point`` on a seeded sample, and every repeat must
equal its first answer.
"""

from __future__ import annotations

import itertools
import os
import random
import re
import signal
import subprocess
import sys
import threading
import time
from pathlib import Path

from harness import median, memory_references, percentile, Spans

from repro.config import e6000_config
from repro.errors import BackpressureError, ServeError
from repro.serve.client import ServeClient
from repro.sim.sweep import SweepPoint, point_key, run_point

WORKERS = 2
#: fft and ocean traces keep one size below scale 0.5, ten times the
#: cost of these three, so they would make service time bimodal
FAMILY_WORKLOADS = ("radix", "barnes", "lu")
SCALES = (0.01, 0.02, 0.03)
TENANTS = ("tenant-a", "tenant-b")
#: offered jobs per second over both tenants. The workers saturate
#: near 50 jobs/s on a 2-core host; at 45-60% of saturation, queueing
#: amplified the host's own speed swings and p95 latency moved by
#: 30-60% between runs.
RATE_PER_S = 14.0
LATENCY_LIMIT_MS = 250.0
POINT_TIMEOUT_S = 60.0
BOOTS = 3
SAMPLED_POINTS = 3
#: trace-seed offset of the warm-up jobs, past any family the
#: schedule reaches
WARM_UP_SEED = 900
_LISTENING = re.compile(r"listening on http://[^:]+:(\d+)")


def _fresh_points(seed: int):
    """Fresh points in a staggered walk over checkpoint families.

    Family ``f`` is one (workload, baseline/SENSS, trace seed); step
    ``t`` emits family ``t`` at the smallest scale, ``t - 1`` at the
    next and so on, so each family grows smallest scale first (larger
    scales can fork from its snapshots) and any run of consecutive
    fresh points mixes every scale and workload evenly.
    """
    for step in itertools.count():
        for lag, scale in enumerate(SCALES):
            family = step - lag
            if family < 0:
                continue
            name = FAMILY_WORKLOADS[family % len(FAMILY_WORKLOADS)]
            senss = family // len(FAMILY_WORKLOADS) % 2 == 1
            config = e6000_config(num_processors=4, l2_mb=1,
                                  senss_enabled=senss)
            yield SweepPoint(name, config, scale=scale,
                             seed=seed * 1000
                             + family // (2 * len(FAMILY_WORKLOADS)))


def schedule(seed: int, seconds: float):
    """Jobs as dicts: tenant, due offset (s) and points, in due order.

    The mix is balanced, not sampled: job sizes 1, 2 and 3 in equal
    numbers; 1- and 2-point jobs take every count of fresh points
    equally often, and 3-point jobs are all-repeat or all-fresh, so
    half of all points are repeats. The classes are sized so that the
    median job has one fresh point and the 95th percentile falls
    inside the all-fresh 3-point jobs, not on a class boundary. A seed
    shuffles that mix, draws the arrival times and picks which earlier
    point each repeat names; every seed offers the same work.
    """
    rng = random.Random(seed)
    count = max(1, round(RATE_PER_S * seconds / len(TENANTS))) \
        * len(TENANTS)
    fresh_counts = {1: (0, 1), 2: (0, 1, 2), 3: (0, 3)}
    patterns = []
    for index in range(count):
        size = 1 + index % 3
        choices = fresh_counts[size]
        fresh_count = choices[index // 3 % len(choices)]
        patterns.append([False] * fresh_count
                        + [True] * (size - fresh_count))
    rng.shuffle(patterns)
    offsets = sorted(rng.uniform(0.0, seconds) for _ in range(count))
    tenants = [TENANTS[index % len(TENANTS)] for index in range(count)]
    rng.shuffle(tenants)
    fresh = _fresh_points(seed)
    history = []
    jobs = []
    for tenant, offset, pattern in zip(tenants, offsets, patterns):
        job = {"tenant": tenant, "offset": offset, "points": []}
        for repeat in pattern:
            if repeat and history:
                point = rng.choice(history)
            else:
                point = next(fresh)
                history.append(point)
            job["points"].append(point)
        jobs.append(job)
    return jobs


class _Server:
    """One ``repro serve`` subprocess with its own state directories."""

    def __init__(self, ctx, name: str):
        base = ctx.scratch / name
        base.mkdir()
        self.log = base / "server.log"
        argv = [sys.executable, "-m", "repro", "serve", "--port", "0",
                "--workers", str(WORKERS),
                "--cache-dir", str(base / "cache"),
                "--state-dir", str(base / "state"),
                "--checkpoint-dir", str(base / "checkpoints"),
                "--point-timeout", str(POINT_TIMEOUT_S)]
        start = time.perf_counter()
        with open(self.log, "w") as log:
            self.proc = subprocess.Popen(argv, cwd=str(ctx.root),
                                         env=ctx.env,
                                         stdout=subprocess.DEVNULL,
                                         stderr=log,
                                         start_new_session=True)
        try:
            self.port = self._port(deadline=start + 60)
            self.client = ServeClient(port=self.port, timeout=30.0)
            self._ready(deadline=start + 60)
        except BaseException:
            self.stop()
            raise
        self.boot_s = time.perf_counter() - start

    def _port(self, deadline: float) -> int:
        while time.perf_counter() < deadline:
            match = _LISTENING.search(self.log.read_text())
            if match:
                return int(match.group(1))
            if self.proc.poll() is not None:
                break
            time.sleep(0.005)
        raise RuntimeError("repro serve did not start: "
                           + self.log.read_text()[-2000:])

    def _ready(self, deadline: float) -> None:
        while time.perf_counter() < deadline:
            try:
                if self.client.readyz().get("ready"):
                    return
            except (ServeError, OSError):
                pass
            time.sleep(0.005)
        raise RuntimeError("repro serve never became ready")

    def peak_rss_mb(self) -> float:
        status = Path(f"/proc/{self.proc.pid}/status").read_text()
        match = re.search(r"VmHWM:\s+(\d+) kB", status)
        return int(match.group(1)) / 1024.0

    def stop(self) -> None:
        """Drain and stop the server, then end anything left in its
        session (its worker processes)."""
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
            try:
                self.proc.wait(timeout=30)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        try:
            os.killpg(self.proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass


def _tenant(client, spans, jobs, origin: float,
            traced_from: float) -> None:
    """Send one tenant's jobs on schedule, never waiting for results.
    Jobs due from ``traced_from`` seconds on record spans."""
    untraced = Spans(enabled=False)
    for job in jobs:
        due = origin + job["offset"]
        delay = due - time.time()
        if delay > 0:
            time.sleep(delay)
        job["due"] = due
        job["lag_s"] = time.time() - due
        job["traced"] = spans.enabled and job["offset"] >= traced_from
        recorder = spans if job["traced"] else untraced
        with recorder.span("ServeClient.submit", "serve",
                           tenant=job["tenant"]) as submit:
            try:
                job["id"] = client.submit(job["points"],
                                          tenant=job["tenant"])["id"]
            except BackpressureError:
                job["rejected"] = True
            except (ServeError, OSError) as exc:
                job["error"] = f"{type(exc).__name__}: {exc}"
        job["rtt_s"] = submit.seconds


def _drive(ctx, server, jobs) -> float:
    """Run the open loop; returns its epoch start. The traced run
    records spans for the second half of the schedule only, so it
    measures its own overhead on submit round trips."""
    origin = time.time() + 0.1
    traced_from = ctx.seconds / 2
    threads = [threading.Thread(
        target=_tenant,
        args=(ServeClient(port=server.port, timeout=30.0), ctx.spans,
              [job for job in jobs if job["tenant"] == tenant], origin,
              traced_from))
        for tenant in TENANTS]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    return origin


def _warm_up(server, seed: int) -> None:
    """Run every fresh-point kind once per worker before the window, so
    lazy imports and first-run allocation in the workers are not
    timed (a long-running server pays them once). The warm-up family
    seeds are never used by the schedule."""
    for offset in range(WORKERS):
        points = [SweepPoint(name, e6000_config(num_processors=4, l2_mb=1,
                                                senss_enabled=senss),
                             scale=SCALES[0],
                             seed=seed * 1000 + WARM_UP_SEED + offset)
                  for name in FAMILY_WORKLOADS for senss in (False, True)]
        server.client.wait(server.client.submit(points,
                                                tenant="warm-up")["id"])


def _await_terminal(client, jobs, deadline_s: float = 120.0) -> dict:
    """Poll the job list until every accepted job is terminal."""
    wanted = {job["id"] for job in jobs if "id" in job}
    deadline = time.perf_counter() + deadline_s
    while True:
        listed = {entry["id"]: entry for entry in client.jobs()}
        if all(listed.get(ident, {}).get("state")
               in ("done", "failed", "cancelled") for ident in wanted):
            return listed
        if time.perf_counter() > deadline:
            raise RuntimeError("serve jobs did not finish in time")
        time.sleep(0.05)


def run(ctx) -> dict:
    jobs = schedule(ctx.seed, ctx.seconds)
    boots = []
    for index in range(BOOTS - 1):
        server = _Server(ctx, f"boot-{index}")
        boots.append(server.boot_s)
        server.stop()
    server = _Server(ctx, "load")
    boots.append(server.boot_s)
    ctx.spans.enabled = ctx.trace
    try:
        _warm_up(server, ctx.seed)
        with ctx.spans.span("open loop", "bench"):
            origin = _drive(ctx, server, jobs)
        client = server.client
        listed = _await_terminal(client, jobs)
        served = _collect(ctx, client, jobs, listed)
        metrics_payload = client.metrics()
        layers = _layers(ctx, client, jobs, listed, metrics_payload) \
            if ctx.trace else {}
        rss_mb = server.peak_rss_mb()
    finally:
        server.stop()
    _verify(ctx, served)

    window_ms = 1e3 * ctx.seconds
    # Rates are over the measured stretch, first due time to last
    # finish, so they fall when the server ends behind schedule.
    elapsed = max((job["summary"]["finished_s"] - origin
                   for job in jobs if job.get("ok")), default=ctx.seconds)
    latencies = [job.get("latency_ms", window_ms) for job in jobs]
    good = sum(1 for job in jobs
               if job.get("latency_ms", window_ms) <= LATENCY_LIMIT_MS
               and job.get("ok"))
    done = sum(1 for job in jobs if job.get("ok"))
    counters = metrics_payload["counters"]
    references = sum(memory_references(result)
                     for job in jobs for result in job.get("results", ())
                     if result is not None)
    metrics = {
        "setup_s": median(boots),
        "peak_rss_mb": rss_mb,
        "accesses_per_s": references / elapsed,
        "cold_points_per_s": counters["serve.points_executed"] / elapsed,
        "goodput_jobs_per_s": good / elapsed,
        "cells_per_s": done / elapsed,
    }
    if not ctx.trace:
        return metrics
    # Host speed swings on a shared 2-core machine move these by
    # 20-50% between runs, too much for a gated metric; goodput holds
    # the latency limit instead.
    layers["serve.latency_p50_ms"] = median(latencies)
    layers["serve.latency_p95_ms"] = percentile(latencies, 0.95)
    return layers


def _collect(ctx, client, jobs, listed) -> dict:
    """Fetch every job's results; returns point key -> results seen."""
    served = {}
    for job in jobs:
        ok = ctx.check("id" in job,
                       f"serve seed {ctx.seed}: job refused or lost: "
                       f"{job.get('error', 'HTTP 429')}")
        if not ok:
            continue
        entry = listed[job["id"]]
        job["summary"] = entry
        if not ctx.check(entry["state"] == "done",
                         f"serve seed {ctx.seed}: {job['id']} ended "
                         f"{entry['state']}"):
            continue
        job["ok"] = True
        job["latency_ms"] = 1e3 * (entry["finished_s"] - job["due"])
        job["results"] = client.results(job["id"])
        for point, result in zip(job["points"], job["results"]):
            served.setdefault(point_key(point), (point, []))[1] \
                .append(result)
    return served


def _verify(ctx, served) -> None:
    for key, (point, results) in served.items():
        ctx.check(all(result == results[0] for result in results),
                  f"serve seed {ctx.seed}: repeats of {point.workload} "
                  f"scale {point.scale} disagree")
    rng = random.Random(ctx.seed)
    keys = sorted(served)
    for key in rng.sample(keys, min(SAMPLED_POINTS, len(keys))):
        point, results = served[key]
        with ctx.spans.span("run_point", "sim.sweep"):
            direct = run_point(point)
        ctx.check(direct == results[0],
                  f"serve seed {ctx.seed}: served {point.workload} "
                  f"scale {point.scale} != in-process run_point")


def _layers(ctx, client, jobs, listed, payload) -> dict:
    accepted = [job for job in jobs if "id" in job]
    summaries = [listed[job["id"]] for job in accepted]
    executed_us = 0
    for job in accepted:
        with ctx.spans.span("ServeClient.stream_events", "serve"):
            for event in client.stream_events(job["id"]):
                if event.get("name") == "point_done" \
                        and event["args"].get("source") == "executed":
                    executed_us += event.get("dur", 0)
    first = min(entry["created_s"] for entry in summaries)
    last = max(entry["finished_s"] for entry in summaries)
    traced = [job["rtt_s"] for job in jobs if job["traced"]]
    untraced = [job["rtt_s"] for job in jobs if not job["traced"]]
    counters = payload["counters"]
    return {
        "serve.queue_wait_ms": median(
            [1e3 * (s["started_s"] - s["created_s"]) for s in summaries]),
        "serve.exec_ms": median(
            [1e3 * (s["finished_s"] - s["started_s"]) for s in summaries]),
        "serve.http_rtt_ms": 1e3 * median([job["rtt_s"] for job in jobs]),
        "serve.cache_hit_rate": payload["cache"]["hit_rate"],
        "serve.deduped": counters["serve.points_deduped"],
        "serve.workers_busy_frac": executed_us / 1e6
        / (WORKERS * max(1e-9, last - first)),
        "serve.rejected": sum(1 for job in jobs if job.get("rejected")),
        "serve.retries": payload["resilience"]["retries"],
        "serve.worker_restarts": payload["resilience"]["worker_restarts"],
        "serve.generator_lag_ms": 1e3 * median(
            [job["lag_s"] for job in jobs]),
        "serve.checkpoint_hits": payload["checkpoints"]["hits"],
        "obs.trace_overhead_frac": median(traced) / median(untraced) - 1
        if traced and untraced else 0.0,
    }
