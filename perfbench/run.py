"""Run one benchmark workload against the checkout's ``src/repro``.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload engine --seed 1 --seconds 20 --trace 0

``--trace 0`` measures with spans off and prints every end-to-end
metric named in ``BENCHMARK.json``; ``--trace 1`` is the separate
traced run: it records spans around the benchmark's calls into each
layer, writes them to ``.perfbench_out/`` (a Perfetto-loadable trace
plus a per-layer JSON) and prints every per-layer metric. The last
line of standard output is always the JSON result::

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

Every workload runs in this fresh process against empty stores under
``.perfbench_tmp/`` (removed on exit); ``REPRO_*`` variables are
scrubbed so no run warms or steers another. ``perfbench/README.md``
documents the workloads and metrics.
"""

from __future__ import annotations

import argparse
import importlib
import json
import os
import shutil
import sys
import tempfile
import time
from pathlib import Path

import harness

WORKLOADS = {
    "engine": "wl_engine",
    "paper-sweep": "wl_sweep",
    "serve": "wl_serve",
    "campaign": "wl_campaign",
}


def _parse(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--make-goldens", action="store_true",
                        help="engine only: rewrite "
                             "perfbench/golden_engine.json for the dev "
                             "and held-out seeds from the reference "
                             "engine, then exit")
    return parser.parse_args(argv)


def _prepare(root: Path, workload: str) -> Path:
    """Scrub steering variables, point imports at ``src/`` and give
    the run its own scratch directory inside the checkout."""
    src = root / "src"
    if not (src / "repro" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no src/repro under {root}; run "
                         "from the root of a checkout")
    for name in list(os.environ):
        if name.startswith("REPRO_"):
            del os.environ[name]
    scratch = root / ".perfbench_tmp" / f"{workload}-{os.getpid()}"
    scratch.mkdir(parents=True, exist_ok=True)
    os.environ["TMPDIR"] = str(scratch)
    tempfile.tempdir = None
    os.environ["PYTHONPATH"] = str(src)
    os.environ["PYTHONDONTWRITEBYTECODE"] = "1"
    sys.path.insert(0, str(src))
    import repro
    if not Path(repro.__file__).resolve().is_relative_to(src.resolve()):
        raise SystemExit(f"perfbench: imported repro from "
                         f"{repro.__file__}, not from {src}")
    return scratch


def _write_trace(root: Path, args, ctx, environment: dict,
                 metrics: dict) -> None:
    out = root / ".perfbench_out"
    out.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}"
    (out / f"{stem}.perfetto.json").write_text(
        json.dumps(ctx.spans.perfetto()))
    self_times = ctx.spans.self_times()
    (out / f"{stem}.layers.json").write_text(json.dumps({
        "workload": args.workload, "seed": args.seed,
        "environment": environment,
        "self_time_s": self_times,
        "metrics": metrics}, indent=1, sort_keys=True))


def main(argv=None) -> int:
    args = _parse(argv)
    root = Path.cwd()
    spec = json.loads((root / "BENCHMARK.json").read_text())
    scratch = _prepare(root, args.workload)
    ctx = harness.Context(root, scratch, args.seed, args.seconds,
                          bool(args.trace), dict(os.environ))
    started = time.perf_counter()
    try:
        module = importlib.import_module(WORKLOADS[args.workload])
        if args.make_goldens:
            module.make_goldens(Path(__file__).parent)
            return 0
        values = module.run(ctx)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
        try:
            scratch.parent.rmdir()  # only if no other run is using it
        except OSError:
            pass
    environment = harness.environment(root)
    listed = spec["per_layer"] if args.trace else spec["end_to_end"]
    if args.trace:
        # Layers a workload does not reach read 0 (README.md).
        layers = {entry["name"]: 0 for entry in listed}
        layers.update(values)
        bench_s = ctx.spans.self_times().get("bench", 0.0)
        roots = [r for r in ctx.spans.records if r["layer"] == "bench"]
        covered = sum(r["end"] - r["start"] for r in roots)
        layers["obs.unattributed_frac"] = \
            bench_s / covered if covered else 0.0
        if not ctx.host.samples:  # serve times nothing in-process
            ctx.host.probe()
        layers["obs.host_speed"] = ctx.host.relative_speed()
        values = layers
        _write_trace(root, args, ctx, environment, values)
    missing = [entry["name"] for entry in listed
               if entry["name"] not in values]
    if missing:
        raise SystemExit(f"perfbench: {args.workload} produced no "
                         f"value for {missing}")
    print(json.dumps({"environment": environment,
                      "wall_s": round(time.perf_counter() - started, 3)}))
    for entry in listed:
        print(f"{entry['name']:<32} {values[entry['name']]:>16.6g} "
              f"{entry['unit']}")
    for failure in ctx.failures[:20]:
        print(f"FAILED: {failure}")
    result = {
        "correct": not ctx.failures,
        "attempted": max(1, ctx.attempted),
        "failed": len(ctx.failures),
        "metrics": {entry["name"]: {"value": values[entry["name"]],
                                    "unit": entry["unit"]}
                    for entry in listed},
    }
    print(json.dumps(result))
    return 0 if not ctx.failures else 1


if __name__ == "__main__":
    sys.exit(main())
