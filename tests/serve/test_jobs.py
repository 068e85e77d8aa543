"""Job wire format: request validation and lossless round-trips."""

import pytest

from repro.config import KB, config_from_dict, config_to_dict, \
    e6000_config
from repro.errors import ConfigError, ServeError
from repro.serve.jobs import job_request_dict, parse_job_request, \
    point_from_dict, point_to_dict, result_from_dict, result_to_dict
from repro.sim.sweep import SweepPoint, point_key
from repro.smp.metrics import SimulationResult


class TestConfigRoundTrip:
    def test_default_round_trips(self):
        config = e6000_config(num_processors=8, l2_mb=4,
                              auth_interval=32)
        assert config_from_dict(config_to_dict(config)) == config

    def test_rich_config_round_trips(self):
        config = e6000_config().with_masks(4).with_l2_size(64 * KB)
        config = config.with_memprotect(encryption_enabled=True,
                                        integrity_enabled=True,
                                        pad_cache_entries=16)
        assert config_from_dict(config_to_dict(config)) == config

    def test_partial_dict_uses_defaults(self):
        config = config_from_dict({"num_processors": 8})
        assert config.num_processors == 8
        assert config == e6000_config(num_processors=8,
                                      auth_interval=100)

    def test_unknown_field_rejected(self):
        with pytest.raises(ConfigError, match="unknown fields"):
            config_from_dict({"num_procesors": 8})

    def test_unknown_nested_field_rejected(self):
        # the legacy "engine" key is dropped only at the top level
        for section in ({"auth_intervall": 10}, {"engine": "vector"}):
            with pytest.raises(ConfigError, match="unknown"):
                config_from_dict({"senss": section})

    def test_invalid_value_rejected(self):
        with pytest.raises(ConfigError):
            config_from_dict({"num_processors": 0})

    def test_legacy_engine_key_dropped(self):
        """Payloads written while the config had an engine-backend
        knob carry a top-level "engine"; it is accepted and ignored."""
        payload = config_to_dict(e6000_config())
        for backend in ("auto", "scalar", "vector"):
            assert config_from_dict({**payload, "engine": backend}) \
                == e6000_config()


class TestPointRoundTrip:
    def test_point_round_trips_to_same_key(self):
        point = SweepPoint("ocean", e6000_config(num_processors=4),
                           scale=0.25, seed=7)
        rebuilt = point_from_dict(point_to_dict(point))
        assert rebuilt == point
        assert point_key(rebuilt) == point_key(point)

    def test_minimal_point(self):
        point = point_from_dict({"workload": "fft"})
        assert point.scale == 1.0 and point.seed == 0

    @pytest.mark.parametrize("payload,match", [
        ({}, "workload"),
        ({"workload": "fft", "scale": 0}, "scale"),
        ({"workload": "fft", "seed": "zero"}, "seed"),
        ({"workload": "fft", "extra": 1}, "unknown"),
        ("fft", "object"),
    ])
    def test_bad_points_rejected(self, payload, match):
        with pytest.raises(ServeError, match=match):
            point_from_dict(payload)

    def test_legacy_engine_key_keeps_point_key(self):
        point = SweepPoint("fft", e6000_config(num_processors=2),
                           scale=0.05, seed=1)
        payload = point_to_dict(point)
        legacy = {**payload,
                  "config": {**payload["config"], "engine": "vector"}}
        assert point_key(point_from_dict(legacy)) == point_key(point)

    def test_bad_config_maps_to_serve_error(self):
        with pytest.raises(ServeError, match="unknown"):
            point_from_dict({"workload": "fft",
                             "config": {"bogus": 1}})


class TestResultRoundTrip:
    def test_result_round_trips(self):
        result = SimulationResult(workload="fft", num_cpus=2,
                                  cycles=123, per_cpu_cycles=[123, 99],
                                  stats={"bus.transactions": 5})
        rebuilt = result_from_dict(result_to_dict(result))
        assert rebuilt == result

    def test_none_passes_through(self):
        assert result_from_dict(None) is None


class TestJobRequest:
    def _points(self):
        return [{"workload": "fft", "scale": 0.05}]

    def test_valid_request(self):
        spec = parse_job_request({"tenant": "alice", "weight": 2,
                                  "points": self._points()})
        assert spec.tenant == "alice" and spec.weight == 2
        assert len(spec.points) == 1

    def test_defaults(self):
        spec = parse_job_request({"points": self._points()})
        assert spec.tenant == "default" and spec.weight == 1
        assert spec.record is False

    def test_record_flag(self):
        spec = parse_job_request({"points": self._points(),
                                  "record": True})
        assert spec.record is True

    def test_record_must_be_bool(self):
        with pytest.raises(ServeError, match="record"):
            parse_job_request({"points": self._points(),
                               "record": "yes"})

    @pytest.mark.parametrize("payload,match", [
        ([], "object"),
        ({"points": []}, "non-empty"),
        ({"points": "fft"}, "non-empty|points"),
        ({"points": [{"workload": "fft"}], "tenant": ""}, "tenant"),
        ({"points": [{"workload": "fft"}], "tenant": "a/b"}, "tenant"),
        ({"points": [{"workload": "fft"}], "weight": 0}, "weight"),
        ({"points": [{"workload": "fft"}], "weight": True}, "weight"),
        ({"points": [{"workload": "fft"}], "priority": 1}, "unknown"),
    ])
    def test_bad_requests_rejected(self, payload, match):
        with pytest.raises(ServeError, match=match):
            parse_job_request(payload)

    def test_helper_builds_parseable_request(self):
        points = [SweepPoint("fft", e6000_config(), scale=0.1,
                             seed=seed) for seed in range(2)]
        spec = parse_job_request(job_request_dict(
            points, tenant="bob", weight=3))
        assert spec.points == tuple(points)

    def test_helper_carries_record_flag(self):
        points = [SweepPoint("fft", e6000_config(), scale=0.1)]
        plain = job_request_dict(points)
        assert "record" not in plain
        spec = parse_job_request(job_request_dict(points, record=True))
        assert spec.record is True
