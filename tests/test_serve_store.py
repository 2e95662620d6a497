"""Serve store: columnar projection, pagination, snapshot swap."""

import json
import threading

import numpy as np
import pytest

import repro.serve.store as store_module
from repro.serve.app import SpectrumApp
from repro.serve.cache import ResponseCache
from repro.serve.columns import FleetColumns
from repro.serve.http import Request
from repro.serve.store import DriftStatus, FleetSnapshot, FleetStore
from repro.serve.synthetic import synthetic_fleet


@pytest.fixture(scope="module")
def fleet():
    return synthetic_fleet(200, seed=42)


@pytest.fixture(scope="module")
def snapshot(fleet):
    network, drift = fleet
    return FleetSnapshot(
        network, failures=network.failures, drift=drift, generation=1
    )


class TestColumns:
    def test_rows_align_with_assessments(self, fleet, snapshot):
        network, _ = fleet
        cols = snapshot.columns
        assert cols.n_nodes == len(network)
        for node_id in list(network)[:20]:
            i = cols.index[node_id]
            a = network[node_id]
            row = cols.summary[i]
            assert row["trust"] == pytest.approx(
                a.trust.trust_score()
            )
            assert row["overall"] == pytest.approx(
                a.report.overall_score()
            )
            assert row["n_observations"] == len(
                a.report.scan.observations
            )

    def test_band_matrix_matches_measurements(self, fleet, snapshot):
        network, _ = fleet
        cols = snapshot.columns
        node_id = next(iter(network))
        i = cols.index[node_id]
        for m in network[node_id].report.profile.measurements:
            j = cols.band_labels.index(m.label)
            assert cols.band_measured_dbm[i, j] == pytest.approx(
                m.measured
            )
            assert bool(cols.band_decoded[i, j]) == m.decoded

    def test_content_hash_is_deterministic(self, fleet):
        network, _ = fleet
        a = FleetColumns.build(network).content_hash()
        b = FleetColumns.build(network).content_hash()
        assert a == b

    def test_content_hash_sees_data_changes(self, fleet):
        network, _ = fleet
        base = FleetColumns.build(network).content_hash()
        smaller = dict(network)
        smaller.pop(next(iter(smaller)))
        assert FleetColumns.build(smaller).content_hash() != base


class TestPagination:
    def test_pages_cover_every_node_once(self, snapshot):
        seen = []
        cursor = 0
        while True:
            page = snapshot.page_nodes(cursor=cursor, limit=33)
            seen.extend(item["node_id"] for item in page.items)
            if page.next_cursor is None:
                break
            cursor = page.next_cursor
        assert seen == sorted(snapshot.assessments)

    def test_cursor_past_end_is_empty_not_error(self, snapshot):
        page = snapshot.page_nodes(cursor=10_000_000, limit=10)
        assert page.items == []
        assert page.next_cursor is None
        assert page.total == snapshot.n_nodes

    def test_cursor_at_exact_end(self, snapshot):
        n = snapshot.n_nodes
        page = snapshot.page_nodes(cursor=n, limit=10)
        assert page.items == []
        assert page.next_cursor is None

    def test_filters_and_sort(self, snapshot):
        page = snapshot.page_nodes(
            min_trust=0.5, sort="overall", descending=True, limit=1000
        )
        trusts = [item["trust"] for item in page.items]
        assert all(t >= 0.5 for t in trusts)
        overalls = [item["scores"]["overall"] for item in page.items]
        assert overalls == sorted(overalls, reverse=True)

    def test_invalid_cursor_and_limit_raise(self, snapshot):
        with pytest.raises(ValueError):
            snapshot.page_nodes(cursor=-1)
        with pytest.raises(ValueError):
            snapshot.page_nodes(limit=0)


class TestEmptyFleet:
    def test_empty_snapshot_answers_everything(self):
        snapshot = FleetSnapshot({})
        assert snapshot.n_nodes == 0
        page = snapshot.page_nodes()
        assert page.items == [] and page.total == 0
        assert page.next_cursor is None
        assert snapshot.band_summary() == []
        assert snapshot.drift_rows() == []
        summary = snapshot.fleet_summary()
        assert summary["nodes"] == 0
        assert summary["trust"] is None
        assert snapshot.node_detail("anyone") is None
        assert snapshot.fov_map("anyone") is None

    def test_empty_store_serves_generation_zero(self):
        store = FleetStore()
        assert store.current().generation == 0
        assert store.current().n_nodes == 0


class TestQueries:
    def test_node_detail_round_trips_through_serialize(
        self, fleet, snapshot
    ):
        network, _ = fleet
        node_id = next(iter(network))
        detail = snapshot.node_detail(node_id)
        assert detail["node_id"] == node_id
        assert detail["report"]["node_id"] == node_id
        assert "drift" in detail

    def test_fov_map_shape(self, fleet, snapshot):
        network, _ = fleet
        node_id = next(iter(network))
        fov = snapshot.fov_map(node_id)
        assert len(fov["open_flags"]) == 36
        assert fov["open_fraction"] == pytest.approx(
            network[node_id].report.fov.open_fraction()
        )

    def test_trust_page_is_worst_first(self, snapshot):
        page = snapshot.page_trust(limit=1000)
        trusts = [item["trust"] for item in page.items]
        assert trusts == sorted(trusts)

    def test_band_power_is_strongest_first(self, snapshot):
        page = snapshot.page_band_power("adsb-1090", limit=1000)
        values = [item["measured_dbm"] for item in page.items]
        assert values == sorted(values, reverse=True)

    def test_unknown_band_is_none(self, snapshot):
        assert snapshot.page_band_power("nope-42") is None

    def test_band_min_dbm_filter(self, snapshot):
        page = snapshot.page_band_power(
            "adsb-1090", min_dbm=-70.0, limit=1000
        )
        assert all(
            item["measured_dbm"] >= -70.0 for item in page.items
        )

    def test_fleet_summary_counts_failures_and_drift(
        self, fleet, snapshot
    ):
        network, drift = fleet
        summary = snapshot.fleet_summary()
        assert summary["failures"] == len(network.failures)
        assert summary["drifting_nodes"] == len(drift)
        assert summary["nodes"] == len(network)


class TestSwap:
    def test_swap_bumps_generation_and_keeps_old_readable(self):
        network, drift = synthetic_fleet(20, seed=1)
        store = FleetStore()
        old = store.current()
        store.publish(network, failures=network.failures, drift=drift)
        new = store.current()
        assert new.generation == old.generation + 1
        # The swapped-out snapshot still answers queries.
        assert old.page_nodes().total == 0
        assert new.page_nodes().total == len(network)

    def test_concurrent_swap_during_in_flight_reads(self):
        """Readers paging an old snapshot never see a swap mid-page."""
        gens = [
            synthetic_fleet(50, seed=s)[0] for s in range(4)
        ]
        store = FleetStore()
        store.publish(gens[0])
        errors = []
        stop = threading.Event()

        def reader():
            while not stop.is_set():
                snapshot = store.current()
                expected = snapshot.n_nodes
                cursor, seen = 0, 0
                while True:
                    page = snapshot.page_nodes(cursor=cursor, limit=7)
                    seen += len(page.items)
                    if page.next_cursor is None:
                        break
                    cursor = page.next_cursor
                if seen != expected:
                    errors.append((seen, expected))
                    return

        threads = [
            threading.Thread(target=reader) for _ in range(4)
        ]
        for t in threads:
            t.start()
        for _ in range(25):
            for network in gens:
                store.publish(network)
        stop.set()
        for t in threads:
            t.join()
        assert errors == []
        # 1 seed snapshot + 100 publishes, bounded history retained.
        assert len(store.history()) == 4
        assert store.current() is store.history()[-1]

    def test_same_data_same_etag_across_generations(self):
        network, _ = synthetic_fleet(10, seed=5)
        store = FleetStore()
        first = store.publish(network)
        second = store.publish(network)
        assert second.generation == first.generation + 1
        assert second.etag == first.etag


class TestPublishRace:
    """Concurrent publishes get unique generations, swapped in order.

    Both tests hold a publish inside the snapshot build, after it has
    read the current generation, so the interleaving that lost a
    generation is forced rather than left to the scheduler.
    """

    def test_two_publishers_get_distinct_generations(self, monkeypatch):
        barrier = threading.Barrier(2, timeout=0.5)

        class Rendezvous(FleetSnapshot):
            def __init__(self, *args, **kwargs):
                # Serialized publishes never meet here: the first one
                # times the barrier out, the second finds it broken.
                try:
                    barrier.wait()
                except threading.BrokenBarrierError:
                    pass
                super().__init__(*args, **kwargs)

        fleets = [synthetic_fleet(30, seed=s)[0] for s in (1, 2)]
        store = FleetStore()
        monkeypatch.setattr(store_module, "FleetSnapshot", Rendezvous)
        threads = [
            threading.Thread(target=store.publish, args=(network,))
            for network in fleets
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=10.0)
            assert not t.is_alive()
        generations = [s.generation for s in store.history()]
        assert generations == [0, 1, 2]
        assert store.current().generation == 2

    def test_cached_fleet_answer_follows_the_last_swap(self, monkeypatch):
        """A body cached between two racing swaps is not served after.

        The large fleet's publish is held mid-build while the small one
        publishes and ``/v1/fleet`` is cached; then the large one
        finishes. Whichever swap lands last, the answer must describe
        the current snapshot.
        """
        small = synthetic_fleet(50, seed=3)[0]
        large = synthetic_fleet(70, seed=4)[0]
        held = threading.Event()
        release = threading.Event()

        class HoldLarge(FleetSnapshot):
            def __init__(self, assessments, **kwargs):
                if assessments is large:
                    held.set()
                    release.wait(timeout=5.0)
                super().__init__(assessments, **kwargs)

        store = FleetStore()
        app = SpectrumApp(
            store, cache=ResponseCache(ttl_s=60.0, clock=lambda: 0.0)
        )
        monkeypatch.setattr(store_module, "FleetSnapshot", HoldLarge)

        def fleet_body():
            request = Request("GET", "/v1/fleet", {}, {})
            return json.loads(app.handle(request).body)

        publish_large = threading.Thread(
            target=store.publish, args=(large,)
        )
        publish_large.start()
        assert held.wait(timeout=5.0)
        publish_small = threading.Thread(
            target=store.publish, args=(small,)
        )
        publish_small.start()
        publish_small.join(timeout=1.0)
        fleet_body()  # caches whatever is current between the swaps
        release.set()
        for t in (publish_large, publish_small):
            t.join(timeout=10.0)
            assert not t.is_alive()
        current = store.current()
        answer = fleet_body()
        assert answer["generation"] == current.generation == 2
        assert answer["nodes"] == current.n_nodes


class TestDriftStatus:
    def test_drift_rows_most_recent_first(self):
        network, _ = synthetic_fleet(5, seed=2)
        drift = {
            "a": DriftStatus("a", 1, last_detected_at_s=10.0),
            "b": DriftStatus("b", 2, last_detected_at_s=99.0),
            "c": DriftStatus("c", 1, last_detected_at_s=None),
        }
        snapshot = FleetSnapshot(network, drift=drift)
        rows = snapshot.drift_rows()
        assert [r["node_id"] for r in rows[:2]] == ["b", "a"]

    def test_summary_row_carries_drift_events(self):
        network, _ = synthetic_fleet(3, seed=2)
        node_id = sorted(network)[0]
        snapshot = FleetSnapshot(
            network, drift={node_id: DriftStatus(node_id, 4)}
        )
        i = snapshot.columns.index[node_id]
        assert snapshot.node_row(i)["drift_events"] == 4


def test_abs_power_nan_renders_as_none():
    network, _ = synthetic_fleet(30, seed=9)
    snapshot = FleetSnapshot(network)
    nan_rows = np.isnan(snapshot.columns.summary["abs_power_dbm"])
    assert nan_rows.all()  # synthetic fleet carries no abs_power
    assert snapshot.node_row(0)["abs_power_dbm"] is None
