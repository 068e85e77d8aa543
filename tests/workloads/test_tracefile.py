"""Trace file I/O tests."""

import pytest

from repro.errors import TraceError
from repro.smp.trace import MemoryAccess
from repro.workloads.registry import generate
from repro.workloads.tracefile import load_workload, save_workload


def test_roundtrip(tmp_path):
    original = generate("lu", 2, scale=0.05)
    path = tmp_path / "lu.trace"
    save_workload(original, path)
    loaded = load_workload(path)
    assert loaded.traces == original.traces
    assert loaded.name == original.name
    assert loaded.metadata["scale"] == "0.05"


def test_hand_written_file(tmp_path):
    path = tmp_path / "hand.trace"
    path.write_text("""
# workload: hand
# cpus: 2
# meta source=manual
0 R 0x1000 3
1 W 4096 0
0 w 0x1040 2
""")
    workload = load_workload(path)
    assert workload.name == "hand"
    assert workload.num_cpus == 2
    assert workload.metadata == {"source": "manual"}
    assert workload.traces[0] == [MemoryAccess(False, 0x1000, 3),
                                  MemoryAccess(True, 0x1040, 2)]
    assert workload.traces[1] == [MemoryAccess(True, 4096, 0)]


def test_name_defaults_to_stem(tmp_path):
    path = tmp_path / "mystery.trace"
    path.write_text("0 R 0x0 0\n")
    assert load_workload(path).name == "mystery"


def test_loaded_trace_runs(tmp_path):
    from repro.config import e6000_config
    from repro.smp.system import SmpSystem
    save_workload(generate("fft", 2, scale=0.05),
                  tmp_path / "fft.trace")
    workload = load_workload(tmp_path / "fft.trace")
    result = SmpSystem(e6000_config(num_processors=2,
                                    senss_enabled=False)).run(workload)
    assert result.total_bus_transactions > 0


def test_missing_file():
    with pytest.raises(TraceError):
        load_workload("/nonexistent/file.trace")


def test_empty_file(tmp_path):
    path = tmp_path / "empty.trace"
    path.write_text("# nothing here\n")
    with pytest.raises(TraceError):
        load_workload(path)


def test_malformed_records(tmp_path):
    for bad in ("0 R 0x1000", "0 X 0x1000 1", "0 R zzz 1",
                "q R 0x1000 1"):
        path = tmp_path / "bad.trace"
        path.write_text(bad + "\n")
        with pytest.raises(TraceError):
            load_workload(path)


def test_negative_cpu_id_is_rejected_with_its_line(tmp_path):
    path = tmp_path / "bad.trace"
    path.write_text("0 R 0x100 1\n-1 W 0x200 2\n")
    with pytest.raises(TraceError, match="line 2: cpu id"):
        load_workload(path)


def test_declared_cpu_mismatch(tmp_path):
    path = tmp_path / "bad.trace"
    path.write_text("# cpus: 1\n1 R 0x0 0\n")
    with pytest.raises(TraceError):
        load_workload(path)


def test_declared_cpus_pad_idle_processors(tmp_path):
    path = tmp_path / "idle.trace"
    path.write_text("# cpus: 3\n0 R 0x0 0\n")
    workload = load_workload(path)
    assert workload.num_cpus == 3
    assert workload.traces[2] == []
