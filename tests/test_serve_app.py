"""The query API: routing, caching semantics, error handling."""

import json
import threading

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.serve.app import SpectrumApp
from repro.serve.cache import ResponseCache
from repro.serve.http import Request
from repro.serve.store import FleetSnapshot, FleetStore
from repro.serve.synthetic import synthetic_fleet


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now


def build_app(n_nodes=60, seed=4, ttl_s=5.0, clock=None):
    network, drift = synthetic_fleet(n_nodes, seed=seed)
    store = FleetStore(
        snapshot=FleetSnapshot(
            network,
            failures=network.failures,
            drift=drift,
            generation=1,
        )
    )
    cache = ResponseCache(
        ttl_s=ttl_s, clock=clock or FakeClock()
    )
    return SpectrumApp(store, cache=cache)


def get(app, path, query=None, headers=None):
    return app.handle(
        Request("GET", path, query or {}, headers or {})
    )


def body(response):
    return json.loads(response.body)


@pytest.fixture()
def app():
    return build_app()


class TestRouting:
    def test_unknown_path_404(self, app):
        assert get(app, "/v2/everything").status == 404

    def test_unknown_node_404(self, app):
        assert get(app, "/v1/nodes/ghost-node").status == 404

    def test_unknown_band_404(self, app):
        assert get(app, "/v1/bands/uhf-nope").status == 404

    def test_post_405(self, app):
        assert app.handle(Request("POST", "/v1/nodes")).status == 405

    def test_trailing_slash_is_tolerated(self, app):
        assert get(app, "/v1/nodes/").status == 200

    def test_healthz(self, app):
        payload = body(get(app, "/v1/healthz"))
        assert payload["status"] == "ok"
        assert payload["nodes"] > 0


class TestParams:
    def test_bad_cursor_400(self, app):
        assert get(app, "/v1/nodes", {"cursor": "x"}).status == 400

    def test_negative_cursor_400(self, app):
        assert get(app, "/v1/nodes", {"cursor": "-3"}).status == 400

    def test_limit_over_max_400(self, app):
        assert (
            get(app, "/v1/nodes", {"limit": "99999"}).status == 400
        )

    def test_bad_sort_400(self, app):
        assert get(app, "/v1/nodes", {"sort": "height"}).status == 400

    def test_bad_bool_400(self, app):
        assert (
            get(app, "/v1/nodes", {"outdoor": "maybe"}).status == 400
        )

    def test_error_body_is_json(self, app):
        response = get(app, "/v1/nodes", {"cursor": "x"})
        assert "error" in body(response)


EMPTY_APP = SpectrumApp(FleetStore())


class TestErrorBodies:
    @settings(max_examples=150, deadline=None)
    @given(
        segment=st.text(min_size=1).filter(lambda s: "/" not in s)
    )
    @example(segment="a\\q")
    @example(segment="a\nb")
    @example(segment='say "hi"')
    def test_every_4xx_body_round_trips_the_message(self, segment):
        for path, message in (
            ("/v1/nodes/" + segment, "no such node: " + segment),
            ("/v1/nodes/" + segment + "/fov", "no such node: " + segment),
            ("/v1/bands/" + segment, "no such band: " + segment),
            ("/v9/" + segment, "no such endpoint: /v9/" + segment),
        ):
            response = get(EMPTY_APP, path)
            assert response.status == 404
            assert body(response) == {"error": message}
        for name in ("cursor", "limit", "min_trust", "outdoor"):
            response = get(EMPTY_APP, "/v1/nodes", {name: segment})
            if 400 <= response.status < 500:
                payload = body(response)
                assert set(payload) == {"error"}
                assert payload["error"].startswith(name)


class TestPaginationWalk:
    def test_walk_covers_fleet_exactly_once(self, app):
        seen = []
        cursor = 0
        while True:
            payload = body(
                get(
                    app,
                    "/v1/nodes",
                    {"cursor": str(cursor), "limit": "17"},
                )
            )
            seen.extend(i["node_id"] for i in payload["items"])
            if payload["next_cursor"] is None:
                break
            cursor = payload["next_cursor"]
        store_nodes = sorted(
            app.store.current().assessments
        )
        assert seen == store_nodes

    def test_cursor_past_end_is_200_empty(self, app):
        payload = body(
            get(app, "/v1/nodes", {"cursor": "1000000"})
        )
        assert payload["items"] == []
        assert payload["next_cursor"] is None


class TestCaching:
    def test_etag_roundtrip_304(self, app):
        first = get(app, "/v1/nodes", {"limit": "5"})
        assert first.status == 200 and first.etag
        second = get(
            app,
            "/v1/nodes",
            {"limit": "5"},
            {"if-none-match": first.etag},
        )
        assert second.status == 304
        assert second.body == b""
        assert second.etag == first.etag

    def test_different_query_different_entry(self, app):
        a = get(app, "/v1/nodes", {"limit": "5"})
        b = get(app, "/v1/nodes", {"limit": "6"})
        assert a.etag != b.etag

    def test_stale_etag_revalidation_after_ttl(self):
        clock = FakeClock()
        app = build_app(ttl_s=2.0, clock=clock)
        first = get(app, "/v1/nodes", {"limit": "5"})
        clock.now += 10.0  # entry expires; data unchanged
        second = get(
            app,
            "/v1/nodes",
            {"limit": "5"},
            {"if-none-match": first.etag},
        )
        # Recomputed body is identical -> same strong ETag -> 304.
        assert second.status == 304
        assert app.metrics.count("serve_cache_misses") >= 2

    def test_snapshot_swap_changes_etag_and_body(self, app):
        first = get(app, "/v1/fleet")
        network, _ = synthetic_fleet(10, seed=99)
        app.store.publish(network)
        second = get(
            app, "/v1/fleet", headers={"if-none-match": first.etag}
        )
        assert second.status == 200
        assert second.etag != first.etag
        assert body(second)["nodes"] == len(network)

    def test_cache_hit_skips_recompute(self, app):
        get(app, "/v1/nodes", {"limit": "5"})
        hits_before = app.metrics.count("serve_cache_hits")
        get(app, "/v1/nodes", {"limit": "5"})
        assert app.metrics.count("serve_cache_hits") == hits_before + 1

    def test_metrics_endpoint_never_cached(self, app):
        first = get(app, "/v1/metrics")
        second = get(app, "/v1/metrics")
        assert first.etag is None and second.etag is None
        # The second body reflects the first request having happened
        # (counters are recorded after dispatch, so the first body
        # predates its own request's counter).
        assert body(second)["metrics"]["serve_requests"] >= 1

    @pytest.mark.parametrize(
        "header",
        (
            "{tag}",
            "W/{tag}",
            '"zz", {tag}',
            '"zz",W/{tag}',
            "*",
            " * ",
        ),
    )
    def test_if_none_match_forms_that_match_304(self, app, header):
        first = get(app, "/v1/fleet")
        second = get(
            app,
            "/v1/fleet",
            headers={"if-none-match": header.format(tag=first.etag)},
        )
        assert second.status == 304
        assert second.body == b""
        assert second.etag == first.etag

    @pytest.mark.parametrize(
        "header",
        (
            '"zz"',
            'W/"zz", "yy"',
            "{bare}",
            "{tag_prefix}",
        ),
    )
    def test_if_none_match_forms_that_miss_200(self, app, header):
        first = get(app, "/v1/fleet")
        value = header.format(
            bare=first.etag.strip('"'), tag_prefix=first.etag[:-2] + '"'
        )
        second = get(app, "/v1/fleet", headers={"if-none-match": value})
        assert second.status == 200
        assert second.body == first.body

    def test_star_does_not_turn_a_404_into_a_304(self, app):
        response = get(
            app, "/v1/nodes/ghost-node", headers={"if-none-match": "*"}
        )
        assert response.status == 404

    def test_cache_control_header_carries_ttl(self, app):
        response = get(app, "/v1/nodes")
        assert response.cache_control == "max-age=5"


class TestEndpoints:
    def test_fleet_summary_shape(self, app):
        payload = body(get(app, "/v1/fleet"))
        assert set(payload) >= {
            "nodes",
            "failures",
            "trust",
            "quality",
            "bands",
            "drifting_nodes",
        }

    def test_node_detail_matches_store(self, app):
        node_id = sorted(app.store.current().assessments)[0]
        payload = body(get(app, f"/v1/nodes/{node_id}"))
        assert payload["node_id"] == node_id
        assert "trust" in payload and "report" in payload

    def test_fov_endpoint(self, app):
        node_id = sorted(app.store.current().assessments)[0]
        payload = body(get(app, f"/v1/nodes/{node_id}/fov"))
        assert len(payload["open_flags"]) == 36

    def test_trust_filter(self, app):
        payload = body(
            get(
                app,
                "/v1/trust",
                {"untrustworthy": "true", "limit": "1000"},
            )
        )
        assert all(not i["trustworthy"] for i in payload["items"])

    def test_band_listing_and_power(self, app):
        bands = body(get(app, "/v1/bands"))["items"]
        assert [b["label"] for b in bands] == [
            "fm-98.5",
            "tv-566",
            "adsb-1090",
            "lte-1850",
        ]
        power = body(
            get(app, "/v1/bands/adsb-1090", {"decoded": "true"})
        )
        assert all(i["decoded"] for i in power["items"])

    def test_drift_endpoint(self, app):
        payload = body(get(app, "/v1/drift"))
        drifting = app.store.current().drift
        assert len(payload["items"]) == len(drifting)


class TestEmptyFleetApp:
    def test_every_endpoint_works_on_empty_store(self):
        app = SpectrumApp(FleetStore())
        for path in (
            "/v1/fleet",
            "/v1/nodes",
            "/v1/trust",
            "/v1/drift",
            "/v1/bands",
            "/v1/metrics",
            "/v1/healthz",
        ):
            assert get(app, path).status == 200
        assert get(app, "/v1/nodes/any").status == 404


class TestConcurrentAccess:
    def test_parallel_queries_during_swaps(self):
        app = build_app(n_nodes=40)
        fleets = [synthetic_fleet(40, seed=s)[0] for s in (7, 8)]
        errors = []
        stop = threading.Event()

        def query():
            while not stop.is_set():
                response = get(app, "/v1/nodes", {"limit": "11"})
                if response.status != 200:
                    errors.append(response.status)
                    return
                payload = body(response)
                if len(payload["items"]) > 11:
                    errors.append("overfull page")
                    return

        threads = [
            threading.Thread(target=query) for _ in range(4)
        ]
        for t in threads:
            t.start()
        for _ in range(20):
            for network in fleets:
                app.store.publish(network)
        stop.set()
        for t in threads:
            t.join()
        assert errors == []
