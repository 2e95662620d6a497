"""Tests for repro.runtime.cache — hits, misses, invalidation, disk."""

import json
import math
import sys
import threading

import pytest

from repro.core.serialize import assessment_to_json
from repro.runtime.cache import ResultCache
from repro.runtime.jobs import CalibrationJob, NodeSpec, WorldSpec


def _key(**overrides):
    defaults = dict(node=NodeSpec("n0", "rooftop"), seed=95)
    defaults.update(overrides)
    return CalibrationJob(**defaults).content_key()


class TestMemoryCache:
    def test_miss_then_hit(self, make_assessment):
        cache = ResultCache()
        key = _key()
        assert cache.get(key) is None
        cache.put(key, make_assessment("n0"))
        assert cache.get(key).node_id == "n0"
        assert cache.hits == 1
        assert cache.misses == 1

    def test_config_change_misses(self, make_assessment):
        # Content addressing: a changed node config is a different
        # key, so stale results can never be returned for it.
        cache = ResultCache()
        cache.put(_key(), make_assessment("n0"))
        assert (
            cache.get(_key(node=NodeSpec("n0", "indoor"))) is None
        )
        assert cache.get(_key(seed=96)) is None
        assert (
            cache.get(_key(world=WorldSpec(n_aircraft=3))) is None
        )


class TestDiskCache:
    def test_persists_across_instances(self, tmp_path, make_assessment):
        key = _key()
        original = make_assessment("n0")
        ResultCache(tmp_path).put(key, original)

        fresh = ResultCache(tmp_path)
        restored = fresh.get(key)
        assert restored is not None
        assert assessment_to_json(restored) == assessment_to_json(
            original
        )
        assert fresh.hits == 1

    def test_corrupt_entry_is_a_miss(self, tmp_path, make_assessment):
        key = _key()
        ResultCache(tmp_path).put(key, make_assessment("n0"))
        (tmp_path / f"{key}.json").write_text("{not json")
        assert ResultCache(tmp_path).get(key) is None

    def test_key_mismatch_is_a_miss(self, tmp_path, make_assessment):
        # An entry renamed/copied to the wrong key must not be served.
        key_a, key_b = _key(), _key(seed=96)
        ResultCache(tmp_path).put(key_a, make_assessment("n0"))
        payload = json.loads((tmp_path / f"{key_a}.json").read_text())
        (tmp_path / f"{key_b}.json").write_text(json.dumps(payload))
        assert ResultCache(tmp_path).get(key_b) is None

    def test_no_tmp_files_left_behind(self, tmp_path, make_assessment):
        cache = ResultCache(tmp_path)
        for i in range(3):
            cache.put(_key(seed=i), make_assessment("n0"))
        assert not list(tmp_path.glob("*.tmp"))
        assert len(list(tmp_path.glob("*.json"))) == 3

    def test_concurrent_writers_of_one_key(self, tmp_path, make_assessment):
        # Campaigns sharing a directory may finish the same job at once;
        # no writer may see another's temp file vanish under it.
        key = _key()
        assessment = make_assessment("n0")
        caches = [ResultCache(tmp_path) for _ in range(4)]
        start = threading.Barrier(len(caches))
        errors = []

        def write(cache):
            start.wait()
            try:
                for _ in range(200):
                    cache.put(key, assessment)
            except Exception as exc:
                errors.append(exc)

        threads = [
            threading.Thread(target=write, args=(c,)) for c in caches
        ]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert errors == []
        assert not list(tmp_path.glob("*.tmp"))
        assert ResultCache(tmp_path).get(key).node_id == "n0"


class TestDiskFaults:
    """Stored entries a crash or a bad writer can leave: all misses."""

    def _stored(self, tmp_path, make_assessment):
        key = _key()
        ResultCache(tmp_path).put(key, make_assessment("n0"))
        return key, tmp_path / f"{key}.json"

    @pytest.mark.parametrize("payload", ["[]", "3", '"x"', "null"])
    def test_non_object_envelope_is_a_miss(
        self, tmp_path, make_assessment, payload
    ):
        key, path = self._stored(tmp_path, make_assessment)
        path.write_text(payload)
        assert ResultCache(tmp_path).get(key) is None

    def test_mis_shaped_scan_is_a_miss(self, tmp_path, make_assessment):
        key, path = self._stored(tmp_path, make_assessment)
        envelope = json.loads(path.read_text())
        envelope["assessment"]["report"]["scan"] = []
        path.write_text(json.dumps(envelope))
        assert ResultCache(tmp_path).get(key) is None

    @staticmethod
    def _with_event_count(path, n_events):
        """Rewrite the stored scan's collision stats around ``n_events``."""
        envelope = json.loads(path.read_text())
        envelope["assessment"]["report"]["scan"]["collision_stats"] = {
            "n_events": n_events,
            "n_contested": 0,
            "n_captured": 0,
            "n_garbled": 0,
        }
        path.write_text(json.dumps(envelope))

    @pytest.mark.parametrize("n_events", [math.inf, math.nan, 1.5, "7"])
    def test_corrupt_count_is_a_miss(
        self, tmp_path, make_assessment, n_events
    ):
        key, path = self._stored(tmp_path, make_assessment)
        self._with_event_count(path, n_events)
        if n_events == math.inf:
            assert '"n_events": Infinity' in path.read_text()
        assert ResultCache(tmp_path).get(key) is None

    @pytest.mark.parametrize("n_events", [7, 7.0])
    def test_integral_count_hits(self, tmp_path, make_assessment, n_events):
        key, path = self._stored(tmp_path, make_assessment)
        self._with_event_count(path, n_events)
        restored = ResultCache(tmp_path).get(key)
        assert restored.report.scan.collision_stats.n_events == 7
        assert type(restored.report.scan.collision_stats.n_events) is int

    def test_truncated_entry_is_a_miss(self, tmp_path, make_assessment):
        key, path = self._stored(tmp_path, make_assessment)
        text = path.read_text()
        path.write_text(text[: len(text) // 2])
        assert ResultCache(tmp_path).get(key) is None

    def test_wrong_format_is_a_miss(self, tmp_path, make_assessment):
        key, path = self._stored(tmp_path, make_assessment)
        envelope = json.loads(path.read_text())
        envelope["format"] = envelope["format"] + 1
        path.write_text(json.dumps(envelope))
        assert ResultCache(tmp_path).get(key) is None

    def test_stale_tmp_beside_complete_entry(
        self, tmp_path, make_assessment
    ):
        # A kill between the temp write and the rename leaves a partial
        # ``.tmp`` next to the last complete entry; the entry still hits.
        key, path = self._stored(tmp_path, make_assessment)
        text = path.read_text()
        path.with_suffix(".json.tmp").write_text(text[: len(text) // 3])
        fresh = ResultCache(tmp_path)
        restored = fresh.get(key)
        assert restored is not None
        assert restored.node_id == "n0"
        assert fresh.hits == 1
