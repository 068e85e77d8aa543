"""Workload trace file I/O.

A trace-driven simulator is only as useful as the traces you can feed
it; this module defines a simple, diff-able text format so users can
bring traces captured elsewhere (pin tools, other simulators) or
archive generated ones.

Format (one record per line, ``#`` comments ignored)::

    # workload: my_trace
    # cpus: 2
    # meta key=value            (optional, repeatable)
    0 R 0x10000000 3
    0 W 0x10000040 1
    1 R 0x10000000 12

Columns: CPU id, R/W, byte address (hex or decimal), compute gap.
Records may be interleaved in any order; per-CPU program order is the
order of that CPU's records in the file.
"""

from __future__ import annotations

from pathlib import Path
from typing import Dict, Union

from ..errors import TraceError
from ..smp.trace import ColumnarTrace, Workload


def save_workload(workload: Workload,
                  path: Union[str, Path]) -> None:
    """Write a workload in the text trace format."""
    path = Path(path)
    lines = [f"# workload: {workload.name}",
             f"# cpus: {workload.num_cpus}"]
    for key, value in sorted(workload.metadata.items()):
        lines.append(f"# meta {key}={value}")
    for cpu, trace in enumerate(workload.traces):
        for access in trace:
            op = "W" if access.is_write else "R"
            lines.append(f"{cpu} {op} {access.address:#x} "
                         f"{access.gap}")
    path.write_text("\n".join(lines) + "\n")


def _parse_int(token: str, line_number: int) -> int:
    try:
        return int(token, 0)
    except ValueError:
        raise TraceError(
            f"line {line_number}: bad integer {token!r}") from None


def load_workload(path: Union[str, Path]) -> Workload:
    """Read a workload from the text trace format."""
    path = Path(path)
    if not path.exists():
        raise TraceError(f"trace file {path} does not exist")
    name = path.stem
    declared_cpus = None
    metadata: Dict[str, str] = {}
    traces: Dict[int, ColumnarTrace] = {}

    for line_number, raw in enumerate(path.read_text().splitlines(),
                                      start=1):
        line = raw.strip()
        if not line:
            continue
        if line.startswith("#"):
            body = line[1:].strip()
            if body.startswith("workload:"):
                name = body.split(":", 1)[1].strip()
            elif body.startswith("cpus:"):
                declared_cpus = _parse_int(
                    body.split(":", 1)[1].strip(), line_number)
            elif body.startswith("meta "):
                key, _, value = body[5:].partition("=")
                metadata[key.strip()] = value.strip()
            continue
        fields = line.split()
        if len(fields) != 4:
            raise TraceError(
                f"line {line_number}: expected 'cpu R|W address gap', "
                f"got {raw!r}")
        cpu = _parse_int(fields[0], line_number)
        if cpu < 0:
            raise TraceError(
                f"line {line_number}: cpu id must be non-negative, "
                f"got {cpu}")
        op = fields[1].upper()
        if op not in ("R", "W"):
            raise TraceError(
                f"line {line_number}: op must be R or W, got "
                f"{fields[1]!r}")
        address = _parse_int(fields[2], line_number)
        gap = _parse_int(fields[3], line_number)
        traces.setdefault(cpu, ColumnarTrace()).append(
            op == "W", address, gap)

    if not traces:
        raise TraceError(f"trace file {path} contains no records")
    num_cpus = max(traces) + 1
    if declared_cpus is not None:
        if declared_cpus < num_cpus:
            raise TraceError(
                f"header declares {declared_cpus} cpus but records "
                f"reference cpu {num_cpus - 1}")
        num_cpus = declared_cpus
    ordered = [traces.get(cpu, ColumnarTrace())
               for cpu in range(num_cpus)]
    # Workload rejects empty machines but tolerates an idle CPU only
    # with at least one access; give idle CPUs an empty list (allowed).
    return Workload(name, ordered, dict(metadata))
