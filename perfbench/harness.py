"""Shared pieces of the benchmark: spans, run windows, statistics,
set-up timing and the environment record.

Nothing here imports ``repro``; ``run.py`` puts the checkout's
``src/`` on ``sys.path`` before any workload module is loaded.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import math
import os
import platform
import resource
import signal
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path
from typing import Dict, List, Optional, Sequence


def median(values: Sequence[float]) -> float:
    return float(statistics.median(values))


def percentile(values: Sequence[float], share: float) -> float:
    """Nearest-rank percentile (``share`` in 0..1) of a sample."""
    ordered = sorted(values)
    rank = math.ceil(round(share * len(ordered), 9))
    return float(ordered[min(max(rank, 1), len(ordered)) - 1])


#: seconds one probe takes on the reference host; see ``HostSpeed``
PROBE_REFERENCE_S = 0.01


def _probe_work() -> int:
    """Fixed interpreter-bound work: integer arithmetic and dict stores,
    the mix the simulator's inner loop is made of."""
    table = {}
    value = 0
    for index in range(50_000):
        table[index & 1023] = value
        value = (value * 31 + index) & 0xFFFFFF
    return value


#: nice value of child processes while ``HostSpeed`` samples beside them
CHILD_NICE = 10


def _lower_children(done: set) -> None:
    """Set every child process of this process not in ``done`` to
    ``CHILD_NICE``, and add it to ``done``."""
    for listing in Path("/proc/self/task").glob("*/children"):
        try:
            pids = [int(pid) for pid in listing.read_text().split()]
        except OSError:
            continue
        for pid in pids:
            if pid in done:
                continue
            done.add(pid)
            try:
                os.setpriority(os.PRIO_PROCESS, pid, CHILD_NICE)
            except OSError:
                pass  # already gone


class HostSpeed:
    """Rescales host seconds to seconds on a reference host.

    On a shared host the speed of a core swings by up to 2x within
    minutes with the neighbours' load, so a wall-clock rate measured
    in one run says as much about them as about the program: over
    eight runs of the engine on one seed, passes per second spread
    0.27 (IQR/median). So each timed unit of work is accompanied by
    short probes of fixed work (``_probe_work``) on the same thread,
    and its seconds are scaled by the mean of ``PROBE_REFERENCE_S`` /
    probe seconds: the time the unit would have taken on a host that
    runs the probe in ``PROBE_REFERENCE_S``. Rescaled, the engine's
    rate spread 0.04 over five seeds. A change to the program moves the
    rescaled time as it moves the wall time; the probe is benchmark
    code and does not change with the program.
    """

    def __init__(self):
        self.samples: List[float] = []

    def probe(self) -> float:
        """Run one probe now; returns its wall seconds."""
        start = time.perf_counter()
        _probe_work()
        seconds = time.perf_counter() - start
        self.samples.append(seconds)
        return seconds

    @staticmethod
    def rescale(seconds: float, probes: Sequence[float]) -> float:
        """Reference-host seconds of a unit that took ``seconds`` while
        the given probes took theirs."""
        return seconds * statistics.fmean(
            PROBE_REFERENCE_S / probe for probe in probes)

    def timed(self, function, sample_every: Optional[float] = None,
              yield_children: bool = False):
        """Call ``function`` between two probes; returns its result and
        its reference-host seconds.

        With ``sample_every``, a probe also runs ``sample_every`` wall
        seconds after the start or the last probe inside the call (from a ``SIGALRM`` handler on
        this thread) and its time is taken out of the unit's: for units
        of many seconds, whose ends alone miss how the host's speed
        moved in between. With ``yield_children``, each probe first
        lowers the priority of this process's child processes (worker
        pools) to ``CHILD_NICE``, so that a probe running beside busy
        workers on every core measures the host's speed rather than
        its share of the cores; the probes cost the workers about
        ``PROBE_REFERENCE_S / sample_every`` of one core.
        """
        probes = [self.probe()]
        inside: List[float] = []
        niced: set = set()
        stopped = False

        def on_alarm(signum, frame):
            if stopped:  # delivered as the call ended
                return
            if yield_children:
                _lower_children(niced)
            inside.append(self.probe())
            # re-armed one-shot, so a slow probe never nests in another
            signal.setitimer(signal.ITIMER_REAL, sample_every)

        if sample_every:
            previous = signal.signal(signal.SIGALRM, on_alarm)
            signal.setitimer(signal.ITIMER_REAL, sample_every)
        start = time.perf_counter()
        try:
            value = function()
        finally:
            seconds = time.perf_counter() - start
            stopped = True
            if sample_every:
                signal.setitimer(signal.ITIMER_REAL, 0)
                signal.signal(signal.SIGALRM, previous)
        probes += inside
        probes.append(self.probe())
        return value, self.rescale(seconds - sum(inside), probes)

    def relative_speed(self) -> float:
        """Host speed over the run relative to the reference host
        (wall rate = reference rate x this)."""
        return PROBE_REFERENCE_S / median(self.samples) \
            if self.samples else 1.0


def peak_rss_mb() -> float:
    """Peak resident set of this process, in MiB (Linux: KiB units)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


class Window:
    """The measured stretch of one run.

    An iteration is started only while at least ``fit`` of a typical
    iteration still fits before the deadline, so a run overshoots its
    window by a fraction of one iteration at most; ``min_iterations``
    always run.
    """

    def __init__(self, seconds: float, min_iterations: int = 1,
                 fit: float = 0.6):
        self.start = time.perf_counter()
        self.deadline = self.start + seconds
        self.min_iterations = min_iterations
        self.fit = fit
        self.durations: List[float] = []

    def more(self) -> bool:
        if len(self.durations) < self.min_iterations:
            return True
        typical = median(self.durations)
        return time.perf_counter() + self.fit * typical < self.deadline

    def record(self, seconds: float) -> None:
        self.durations.append(seconds)


class _Span:
    """One timed call; recorded only when its recorder is enabled."""

    __slots__ = ("owner", "name", "layer", "args", "start", "seconds",
                 "id", "parent")

    def __init__(self, owner: "Spans", name: str, layer: str,
                 args: dict):
        self.owner = owner
        self.name = name
        self.layer = layer
        self.args = args
        self.seconds = 0.0

    def __enter__(self) -> "_Span":
        if self.owner.enabled:
            self.owner._push(self)
        self.start = time.perf_counter()
        return self

    def __exit__(self, *exc) -> None:
        end = time.perf_counter()
        self.seconds = end - self.start
        if self.owner.enabled:
            self.owner._pop(self, end)


class Spans:
    """Timer for every call the benchmark makes into a layer, and, in
    the traced run, an in-memory span recorder.

    ``span()`` always measures its block (``.seconds``); while
    ``enabled`` it also records the name, the ``src/repro`` layer the
    call enters, start, end, parent span and thread. Spans stay in
    memory until the run writes them out.
    """

    def __init__(self, enabled: bool):
        self.enabled = enabled
        self.origin = time.perf_counter()
        self.records: List[dict] = []
        self._local = threading.local()
        self._ids = itertools.count(1)
        self._lock = threading.Lock()

    def span(self, name: str, layer: str, **args) -> _Span:
        return _Span(self, name, layer, args)

    def _push(self, span: _Span) -> None:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        with self._lock:
            span.id = next(self._ids)
        span.parent = stack[-1] if stack else 0
        stack.append(span.id)

    def _pop(self, span: _Span, end: float) -> None:
        self._local.stack.pop()
        self.records.append({
            "id": span.id, "parent": span.parent, "name": span.name,
            "layer": span.layer, "start": span.start - self.origin,
            "end": end - self.origin, "tid": threading.get_ident(),
            "args": span.args})

    def self_times(self) -> Dict[str, float]:
        """Seconds per layer of span duration not covered by children.

        Children of one span never overlap (each thread nests its own
        spans), so their coverage is the sum of their durations.
        """
        covered: Dict[int, float] = {}
        for record in self.records:
            covered[record["parent"]] = covered.get(record["parent"], 0.0) \
                + record["end"] - record["start"]
        totals: Dict[str, float] = {}
        for record in self.records:
            own = record["end"] - record["start"] \
                - covered.get(record["id"], 0.0)
            totals[record["layer"]] = totals.get(record["layer"], 0.0) \
                + max(0.0, own)
        return totals

    def perfetto(self) -> dict:
        """Chrome trace-event JSON, loadable by ui.perfetto.dev."""
        threads: Dict[int, int] = {}
        events = []
        for record in sorted(self.records, key=lambda r: r["start"]):
            tid = threads.setdefault(record["tid"], len(threads) + 1)
            events.append({
                "name": record["name"], "cat": record["layer"],
                "ph": "X", "pid": 1, "tid": tid,
                "ts": round(record["start"] * 1e6, 3),
                "dur": round((record["end"] - record["start"]) * 1e6, 3),
                "args": dict(record["args"], id=record["id"],
                             parent=record["parent"])})
        return {"traceEvents": events, "displayTimeUnit": "ms"}


def import_setup(modules: Sequence[str], env: Dict[str, str], cwd: Path,
                 host: HostSpeed, repeats: int = 5) -> float:
    """Set-up a user pays before the first simulation: median
    reference-host seconds (``HostSpeed``) of ``repeats`` fresh
    interpreters importing the workload's public modules and building
    the default machine."""
    code = ("import " + ", ".join(modules) + "\n"
            "from repro.config import SystemConfig\n"
            "from repro.sim.sweep import build_system\n"
            "build_system(SystemConfig())\n")
    samples = []
    for _ in range(repeats):
        _, seconds = host.timed(lambda: subprocess.run(
            [sys.executable, "-c", code], env=env, cwd=str(cwd),
            check=True, stdout=subprocess.DEVNULL, timeout=60))
        samples.append(seconds)
    return median(samples)


def source_digest(src: Path) -> str:
    """sha256 over the package sources (the checkout is not a git
    repository, so this stands in for the revision)."""
    digest = hashlib.sha256()
    for path in sorted(src.rglob("*.py")):
        digest.update(str(path.relative_to(src)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()


def environment(root: Path) -> dict:
    """What the result depends on besides the code under test."""
    git_rev: Optional[str] = None
    if (root / ".git").exists():
        try:
            git_rev = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=str(root),
                capture_output=True, text=True, timeout=10,
                check=True).stdout.strip()
        except (OSError, subprocess.SubprocessError):
            git_rev = None
    try:
        import numpy  # noqa: F401
        numpy_ok = True
    except ImportError:
        numpy_ok = False
    return {
        "git_rev": git_rev,
        "src_sha256": source_digest(root / "src"),
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy_ok,
        "platform": platform.platform(),
    }


def result_digest(result) -> str:
    """Content digest of a SimulationResult (cycles + every stat)."""
    payload = {"workload": result.workload, "num_cpus": result.num_cpus,
               "cycles": result.cycles,
               "per_cpu_cycles": list(result.per_cpu_cycles),
               "stats": dict(result.stats)}
    canonical = json.dumps(payload, sort_keys=True)
    return hashlib.sha256(canonical.encode()).hexdigest()


def memory_references(result) -> int:
    """Memory references a result simulated: every access is an L1
    hit or goes to the L2, where it hits or misses."""
    total = 0
    for cpu in range(result.num_cpus):
        for field in ("l1_hit", "l2_hit", "l2_miss"):
            total += result.stats.get(f"cpu{cpu}.{field}", 0)
    return total


class Context:
    """Everything a workload module needs from the runner."""

    def __init__(self, root: Path, scratch: Path, seed: int,
                 seconds: float, trace: bool, env: Dict[str, str]):
        self.root = root
        self.scratch = scratch
        self.seed = seed
        self.seconds = seconds
        self.trace = trace
        self.env = env
        self.spans = Spans(enabled=False)
        self.host = HostSpeed()
        self.attempted = 0
        self.failures: List[str] = []

    def check(self, ok: bool, what: str) -> bool:
        """Count one verified operation; a wrong output is a failure."""
        self.attempted += 1
        if not ok:
            self.failures.append(what)
        return ok

    def iteration(self, index: int) -> "_Span":
        """The root span of one measured iteration. In the traced run,
        odd iterations record spans and even ones do not, so the run
        itself yields the traced/untraced wall ratio."""
        self.spans.enabled = self.trace and index % 2 == 1
        return self.spans.span("iteration", "bench", index=index)


def trace_overhead(walls: Sequence[float]) -> float:
    """Traced wall / untraced wall - 1 over alternating iterations
    (see ``Context.iteration``); 0.0 with fewer than two."""
    untraced = walls[0::2]
    traced = walls[1::2]
    if not traced:
        return 0.0
    return median(traced) / median(untraced) - 1.0
