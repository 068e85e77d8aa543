"""Pin the exact bytes of every generated trace.

Simulation goldens cover only a handful of configurations, so a
generator that drifts by one gap shows up late or not at all. This
test holds a sha256 over the three columns of every SPLASH-2 model
over (cpus, scale, seed) and of every microbenchmark, against
``tests/data/trace_digests.json``.

The data is a golden, not a cache: regenerate it (``PYTHONPATH=src
python tests/workloads/test_trace_digests.py --write``) only for a
deliberate change to what a generator emits, and say so in the change.
"""

from __future__ import annotations

import hashlib
import json
import sys
from pathlib import Path

import pytest

from repro.workloads import micro
from repro.workloads.registry import SPLASH2_NAMES, generate

DATA = Path(__file__).resolve().parents[1] / "data" / "trace_digests.json"

CPUS = (1, 2, 4, 8)
SCALES = (0.05, 0.2, 0.5)
SEEDS = (0, 1, 2)

MICRO_CASES = {
    "false_sharing": lambda: micro.false_sharing(),
    "false_sharing/4": lambda: micro.false_sharing(num_cpus=4),
    "ping_pong": lambda: micro.ping_pong(),
    "producer_consumer": lambda: micro.producer_consumer(),
    "producer_consumer/4": lambda: micro.producer_consumer(num_cpus=4),
    "private_stream": lambda: micro.private_stream(),
    "private_stream/4": lambda: micro.private_stream(num_cpus=4),
    "pad_churn": lambda: micro.pad_churn(),
    "pad_churn/4": lambda: micro.pad_churn(num_cpus=4),
    "snc_stream": lambda: micro.snc_stream(),
}


def trace_digest(workload) -> str:
    """sha256 over each CPU's length and little-endian columns."""
    digest = hashlib.sha256()
    for trace in workload.traces:
        digest.update(len(trace).to_bytes(8, "little"))
        for column in trace.columns():
            if sys.byteorder != "little":
                column = column[:]
                column.byteswap()
            digest.update(column.tobytes())
    return digest.hexdigest()


def splash_key(name: str, cpus: int, scale: float, seed: int) -> str:
    return f"{name}/{cpus}P/scale={scale}/seed={seed}"


def splash_cases():
    return [(name, cpus, scale, seed) for name in SPLASH2_NAMES
            for cpus in CPUS for scale in SCALES for seed in SEEDS]


def compute_all() -> dict:
    splash = {splash_key(*case): trace_digest(generate(*case))
              for case in splash_cases()}
    return {"splash2": splash,
            "micro": {key: trace_digest(make())
                      for key, make in MICRO_CASES.items()}}


@pytest.fixture(scope="module")
def pinned():
    return json.loads(DATA.read_text())


@pytest.mark.parametrize("name", SPLASH2_NAMES)
def test_splash2_traces_match_pinned_digests(pinned, name):
    mismatched = [splash_key(*case) for case in splash_cases()
                  if case[0] == name
                  and trace_digest(generate(*case))
                  != pinned["splash2"][splash_key(*case)]]
    assert not mismatched, f"trace bytes drifted: {mismatched}"


@pytest.mark.parametrize("key", sorted(MICRO_CASES))
def test_micro_traces_match_pinned_digests(pinned, key):
    assert trace_digest(MICRO_CASES[key]()) == pinned["micro"][key]


def test_pinned_data_covers_every_case(pinned):
    assert len(pinned["splash2"]) == 180
    assert set(pinned["splash2"]) == {splash_key(*case)
                                      for case in splash_cases()}
    assert set(pinned["micro"]) == set(MICRO_CASES)


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit("usage: test_trace_digests.py --write")
    DATA.write_text(json.dumps(compute_all(), indent=1, sort_keys=True)
                    + "\n")
    print(f"wrote {DATA}")
