"""Serve query path vs a row-by-row oracle: byte-identical responses.

The snapshot answers filtered, sorted queries from memoised full-column
sort orders and builds page rows from column slices. This suite keeps
the straightforward implementation as an in-test oracle — a stable
argsort of the selected subset on every request, one scalar row at a
time — and checks both agree on every page and every response byte,
including ties, NaN cells and cursors past the end. Page bodies are
joined from memoised row fragments, so each is also checked against
the whole-page ``json.dumps`` renderer the fragment join replaced, and
each node row is checked to be built and encoded once per snapshot.
It also pins the one-pass column build to a per-row record-writing
oracle.
"""

import dataclasses
import json
import threading
from typing import Any, Dict, List, Optional

import numpy as np
import pytest

from repro.core.abs_power import AbsolutePowerCalibration
from repro.core.frequency import FrequencyProfile
from repro.core.report import ClaimViolation
from repro.serve import store as store_module
from repro.serve.app import SORTABLE, SpectrumApp, _page_body
from repro.serve.columns import SUMMARY_DTYPE, FleetColumns, _band_union
from repro.serve.http import Request
from repro.serve.store import FleetSnapshot, FleetStore, Page
from repro.serve.synthetic import synthetic_fleet

SEEDS = (0, 1, 2)
N_NODES = 300


def _vary(network, seed):
    """Add what the synthetic fleet lacks: abs power, violations, gaps.

    Every third node gets an absolute-power calibration (every ninth
    one without an estimate, which must still read as NaN), every
    seventh a claim violation, and every eleventh loses its last two
    band measurements so the band matrices hold NaN cells.
    """
    out = type(network)()
    out.failures.update(network.failures)
    for k, node_id in enumerate(sorted(network)):
        a = network[node_id]
        changes: Dict[str, Any] = {}
        if k % 3 == 0:
            changes["abs_power"] = AbsolutePowerCalibration(
                full_scale_dbm_estimate=(
                    None if k % 9 == 0 else -20.0 - (k * 7 + seed) % 31
                ),
                spread_db=1.0,
                anchor_label=None,
                anchor_bearing_deg=None,
                n_signals=2,
                reliable=True,
            )
        if k % 7 == 0:
            changes["claim_violations"] = [
                ClaimViolation("outdoor", "fov too narrow")
            ]
        if k % 11 == 0:
            report = a.report
            profile = FrequencyProfile(
                node_id=node_id,
                measurements=report.profile.measurements[:-2],
            )
            changes["report"] = dataclasses.replace(
                report, profile=profile, band_grades=[]
            )
        out[node_id] = dataclasses.replace(a, **changes)
    return out


def _fleet(seed, failure_fraction=0.005):
    network, drift = synthetic_fleet(
        N_NODES, seed=seed, failure_fraction=failure_fraction
    )
    return _vary(network, seed), drift


@pytest.fixture(scope="module", params=SEEDS)
def snapshot(request):
    network, drift = _fleet(request.param)
    return FleetSnapshot(
        network, failures=network.failures, drift=drift, generation=3
    )


# ----------------------------------------------------------------------
# the oracle: the straightforward implementation, kept verbatim in shape


def oracle_columns(assessments) -> FleetColumns:
    node_ids = tuple(sorted(assessments))
    n = len(node_ids)
    summary = np.zeros(n, dtype=SUMMARY_DTYPE)
    installations: List[str] = []
    band_keys = _band_union(assessments)
    band_index = {label: j for j, (label, _) in enumerate(band_keys)}
    b = len(band_keys)
    measured = np.full((n, b), np.nan)
    expected = np.full((n, b), np.nan)
    excess = np.full((n, b), np.nan)
    decoded = np.zeros((n, b), dtype=bool)
    for i, node_id in enumerate(node_ids):
        a = assessments[node_id]
        report = a.report
        scan = report.scan
        row = summary[i]
        row["trust"] = a.trust.trust_score()
        row["overall"] = report.overall_score()
        row["directional"] = report.directional_score()
        row["frequency"] = report.frequency_score()
        row["open_fraction"] = report.fov.open_fraction()
        row["outdoor"] = report.classification.outdoor
        row["outdoor_probability"] = (
            report.classification.outdoor_probability
        )
        row["n_violations"] = len(a.claim_violations)
        row["n_ghosts"] = len(scan.ghost_icaos)
        row["n_observations"] = len(scan.observations)
        row["n_received"] = sum(1 for o in scan.observations if o.received)
        row["decoded_messages"] = scan.decoded_message_count
        row["abs_power_dbm"] = (
            a.abs_power.full_scale_dbm_estimate
            if a.abs_power is not None
            else np.nan
        )
        installations.append(report.classification.installation)
        for m in report.profile.measurements:
            j = band_index[m.label]
            measured[i, j] = m.measured
            expected[i, j] = m.expected
            if m.excess_attenuation_db is not None:
                excess[i, j] = m.excess_attenuation_db
            decoded[i, j] = m.decoded
    return FleetColumns(
        node_ids=node_ids,
        index={node_id: i for i, node_id in enumerate(node_ids)},
        summary=summary,
        installations=np.asarray(installations, dtype=str),
        band_labels=tuple(label for label, _ in band_keys),
        band_freq_hz=np.asarray(
            [freq for _, freq in band_keys], dtype=np.float64
        ),
        band_measured_dbm=measured,
        band_expected_dbm=expected,
        band_excess_db=excess,
        band_decoded=decoded,
    )


def oracle_node_row(snap: FleetSnapshot, i: int) -> Dict[str, Any]:
    cols = snap.columns
    row = cols.summary[i]
    node_id = cols.node_ids[i]
    abs_power = float(row["abs_power_dbm"])
    drift = snap.drift.get(node_id)
    return {
        "node_id": node_id,
        "trust": float(row["trust"]),
        "scores": {
            "overall": float(row["overall"]),
            "directional": float(row["directional"]),
            "frequency": float(row["frequency"]),
        },
        "open_fraction": float(row["open_fraction"]),
        "installation": str(cols.installations[i]),
        "outdoor": bool(row["outdoor"]),
        "outdoor_probability": float(row["outdoor_probability"]),
        "violations": int(row["n_violations"]),
        "ghosts": int(row["n_ghosts"]),
        "observations": int(row["n_observations"]),
        "received": int(row["n_received"]),
        "decoded_messages": int(row["decoded_messages"]),
        "abs_power_dbm": abs_power if not np.isnan(abs_power) else None,
        "drift_events": drift.events if drift is not None else 0,
    }


def oracle_paginate(selected, cursor, limit, row) -> Page:
    total = len(selected)
    next_cursor = cursor + limit
    return Page(
        fragments=[
            json.dumps(row(int(i)), separators=(",", ":"))
            for i in selected[cursor : cursor + limit]
        ],
        next_cursor=next_cursor if next_cursor < total else None,
        total=total,
    )


def oracle_page_nodes(
    snap: FleetSnapshot,
    cursor: int = 0,
    limit: int = 100,
    min_trust: Optional[float] = None,
    max_trust: Optional[float] = None,
    min_overall: Optional[float] = None,
    installation: Optional[str] = None,
    outdoor: Optional[bool] = None,
    sort: str = "node_id",
    descending: bool = False,
) -> Page:
    cols = snap.columns
    s = cols.summary
    mask = np.ones(cols.n_nodes, dtype=bool)
    if min_trust is not None:
        mask &= s["trust"] >= min_trust
    if max_trust is not None:
        mask &= s["trust"] <= max_trust
    if min_overall is not None:
        mask &= s["overall"] >= min_overall
    if installation is not None:
        mask &= cols.installations == installation
    if outdoor is not None:
        mask &= s["outdoor"] == outdoor
    selected = np.nonzero(mask)[0]
    if sort != "node_id":
        selected = selected[np.argsort(s[sort][selected], kind="stable")]
    if descending:
        selected = selected[::-1]
    return oracle_paginate(
        selected, cursor, limit, lambda i: oracle_node_row(snap, i)
    )


def oracle_page_trust(
    snap: FleetSnapshot,
    cursor: int = 0,
    limit: int = 100,
    untrustworthy_only: bool = False,
    threshold: float = 0.5,
) -> Page:
    cols = snap.columns
    order = np.argsort(cols.summary["trust"], kind="stable")
    if untrustworthy_only:
        order = order[cols.summary["trust"][order] < threshold]

    def row(i):
        node_id = cols.node_ids[i]
        trust = snap.assessments[node_id].trust
        return {
            "node_id": node_id,
            "trust": trust.trust_score(),
            "trustworthy": trust.is_trustworthy(threshold),
            "checks": [
                {
                    "name": c.name,
                    "passed": c.passed,
                    "score": c.score,
                    "detail": c.detail,
                }
                for c in trust.checks
            ],
        }

    return oracle_paginate(order, cursor, limit, row)


def oracle_page_band_power(
    snap: FleetSnapshot,
    label: str,
    cursor: int = 0,
    limit: int = 100,
    min_dbm: Optional[float] = None,
    decoded_only: bool = False,
) -> Page:
    cols = snap.columns
    j = cols.band_labels.index(label)
    measured = cols.band_measured_dbm[:, j]
    mask = ~np.isnan(measured)
    if min_dbm is not None:
        mask &= measured >= min_dbm
    if decoded_only:
        mask &= cols.band_decoded[:, j]
    selected = np.nonzero(mask)[0]
    order = np.argsort(measured[selected], kind="stable")[::-1]
    selected = selected[order]

    def row(i):
        excess = float(cols.band_excess_db[i, j])
        return {
            "node_id": cols.node_ids[i],
            "measured_dbm": float(measured[i]),
            "expected_dbm": float(cols.band_expected_dbm[i, j]),
            "excess_db": excess if not np.isnan(excess) else None,
            "decoded": bool(cols.band_decoded[i, j]),
        }

    return oracle_paginate(selected, cursor, limit, row)


# ----------------------------------------------------------------------


def parent_page_body(snap: FleetSnapshot, page: Page) -> bytes:
    """The whole-page renderer the fragment join replaced."""
    return json.dumps(
        {**page.to_dict(), "generation": snap.generation},
        separators=(",", ":"),
    ).encode()


def _assert_same(snap, got, want):
    assert got == want
    assert _page_body(snap, got) == _page_body(snap, want)
    assert _page_body(snap, got) == parent_page_body(snap, want)


def _cursors(total):
    return sorted({0, 7, total // 2, max(total - 1, 0), total, total + 50})


NODE_FILTERS = (
    {},
    {"min_trust": 0.5},
    {"max_trust": 0.8},
    {"min_overall": 0.45},
    {"installation": "window"},
    {"installation": "nowhere"},
    {"outdoor": True},
    {"outdoor": False},
    {"min_trust": 0.2, "max_trust": 0.99, "outdoor": False},
)


class TestFixtureHasTheHardCases:
    def test_ties_and_nan_are_present(self, snapshot):
        s = snapshot.columns.summary
        n = snapshot.n_nodes
        for field in ("frequency", "open_fraction", "trust", "overall"):
            assert len(np.unique(s[field])) < n, field
        nan_power = np.isnan(s["abs_power_dbm"])
        assert nan_power.any() and not nan_power.all()
        measured = snapshot.columns.band_measured_dbm
        assert np.isnan(measured).any()
        ties = [
            len(np.unique(col[~np.isnan(col)])) < (~np.isnan(col)).sum()
            for col in measured.T
        ]
        assert any(ties)
        assert np.isnan(snapshot.columns.band_excess_db).any()


class TestPagesMatchOracle:
    @pytest.mark.parametrize("sort", SORTABLE)
    def test_page_nodes(self, snapshot, sort):
        for filters in NODE_FILTERS:
            for descending in (False, True):
                total = oracle_page_nodes(
                    snapshot, sort=sort, **filters
                ).total
                for cursor in _cursors(total):
                    for limit in (1, 25, 1000):
                        kwargs = dict(
                            cursor=cursor,
                            limit=limit,
                            sort=sort,
                            descending=descending,
                            **filters,
                        )
                        _assert_same(
                            snapshot,
                            snapshot.page_nodes(**kwargs),
                            oracle_page_nodes(snapshot, **kwargs),
                        )

    @pytest.mark.parametrize("untrustworthy_only", (False, True))
    @pytest.mark.parametrize("threshold", (0.5, 0.95))
    def test_page_trust(self, snapshot, untrustworthy_only, threshold):
        kwargs: Dict[str, Any] = dict(
            untrustworthy_only=untrustworthy_only, threshold=threshold
        )
        total = oracle_page_trust(snapshot, **kwargs).total
        assert total > 0
        for cursor in _cursors(total):
            for limit in (1, 40, 1000):
                _assert_same(
                    snapshot,
                    snapshot.page_trust(cursor, limit, **kwargs),
                    oracle_page_trust(snapshot, cursor, limit, **kwargs),
                )

    def test_page_band_power(self, snapshot):
        for label in snapshot.columns.band_labels:
            for filters in (
                {},
                {"min_dbm": -75.0},
                {"decoded_only": True},
                {"min_dbm": -70.0, "decoded_only": True},
            ):
                total = oracle_page_band_power(
                    snapshot, label, **filters
                ).total
                for cursor in _cursors(total):
                    for limit in (1, 30, 1000):
                        _assert_same(
                            snapshot,
                            snapshot.page_band_power(
                                label, cursor, limit, **filters
                            ),
                            oracle_page_band_power(
                                snapshot, label, cursor, limit, **filters
                            ),
                        )

    def test_node_row_matches_scalar_row(self, snapshot):
        for i in range(snapshot.n_nodes):
            assert snapshot.node_row(i) == oracle_node_row(snapshot, i)

    def test_items_decode_to_the_oracle_rows(self, snapshot):
        page = snapshot.page_nodes(limit=1000)
        assert page.items == [
            oracle_node_row(snapshot, i) for i in range(snapshot.n_nodes)
        ]
        assert page.to_dict()["items"] == page.items

    def test_nan_abs_power_rows_render_null(self, snapshot):
        nan_rows = np.nonzero(
            np.isnan(snapshot.columns.summary["abs_power_dbm"])
        )[0]
        for i in nan_rows.tolist():
            page = snapshot.page_nodes(cursor=i, limit=1)
            want = oracle_page_nodes(snapshot, cursor=i, limit=1)
            _assert_same(snapshot, page, want)
            assert page.items[0]["abs_power_dbm"] is None
            assert b'"abs_power_dbm":null' in _page_body(snapshot, page)


class TestEmptyFleetPages:
    def test_every_page_matches_the_parent_renderer(self):
        snap = FleetSnapshot({}, generation=2)
        assert snap._node_json == []
        for sort in SORTABLE:
            for descending in (False, True):
                for cursor in (0, 5):
                    kwargs = dict(
                        cursor=cursor, sort=sort, descending=descending
                    )
                    _assert_same(
                        snap,
                        snap.page_nodes(**kwargs),
                        oracle_page_nodes(snap, **kwargs),
                    )
        for untrustworthy_only in (False, True):
            _assert_same(
                snap,
                snap.page_trust(untrustworthy_only=untrustworthy_only),
                oracle_page_trust(
                    snap, untrustworthy_only=untrustworthy_only
                ),
            )
        assert _page_body(snap, snap.page_nodes()) == (
            b'{"items":[],"next_cursor":null,"total":0,"generation":2}'
        )


class TestColumnsMatchOracle:
    @pytest.mark.parametrize(
        "fleet",
        ("normal", "with_failures", "empty"),
    )
    def test_build_is_byte_identical(self, fleet):
        if fleet == "empty":
            network = {}
        else:
            network, _ = _fleet(
                5, failure_fraction=0.3 if fleet == "with_failures" else 0.0
            )
            assert bool(network.failures) == (fleet == "with_failures")
        got = FleetColumns.build(network)
        want = oracle_columns(network)
        assert got.node_ids == want.node_ids
        assert got.index == want.index
        assert got.band_labels == want.band_labels
        for name in (
            "summary",
            "installations",
            "band_freq_hz",
            "band_measured_dbm",
            "band_expected_dbm",
            "band_excess_db",
            "band_decoded",
        ):
            a, b = getattr(got, name), getattr(want, name)
            assert a.dtype == b.dtype and a.shape == b.shape, name
            assert a.tobytes() == b.tobytes(), name
        assert got.content_hash() == want.content_hash()


class TestMemoisedOrders:
    def _queries(self, snap):
        bands = snap.columns.band_labels
        out = []
        for sort in SORTABLE:
            for descending in (False, True):
                kwargs = dict(
                    sort=sort, descending=descending, min_overall=0.3, limit=50
                )
                out.append(("nodes", kwargs))
        out.append(("trust", dict(untrustworthy_only=True)))
        out.append(("trust", dict(cursor=20, limit=20)))
        for label in bands:
            out.append(("band", dict(label=label, min_dbm=-80.0)))
        return out

    def _run(self, snap, queries, oracle=False):
        pages = []
        for kind, kwargs in queries:
            if kind == "nodes":
                fn = oracle_page_nodes if oracle else FleetSnapshot.page_nodes
            elif kind == "trust":
                fn = oracle_page_trust if oracle else FleetSnapshot.page_trust
            else:
                fn = (
                    oracle_page_band_power
                    if oracle
                    else FleetSnapshot.page_band_power
                )
            pages.append(_page_body(snap, fn(snap, **kwargs)))
        return pages

    def test_threads_on_a_fresh_snapshot_agree(self):
        network, drift = _fleet(4)
        snap = FleetSnapshot(network, drift=drift, generation=1)
        assert snap._orders == {}
        assert set(snap._node_json) == {None}
        queries = self._queries(snap)
        barrier = threading.Barrier(8)
        results: List[List[bytes]] = [[] for _ in range(8)]

        def reader(k):
            barrier.wait()
            results[k] = self._run(snap, queries)

        threads = [
            threading.Thread(target=reader, args=(k,)) for k in range(8)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        want = self._run(snap, queries, oracle=True)
        assert all(r == want for r in results)
        filled = [
            i for i, fragment in enumerate(snap._node_json) if fragment
        ]
        assert filled
        for i in filled:
            assert snap._node_json[i] == json.dumps(
                oracle_node_row(snap, i), separators=(",", ":")
            )

    def test_publish_serves_new_data_not_old_orders(self):
        store = FleetStore()
        fleets = [_fleet(seed) for seed in (5, 6)]
        store.publish(fleets[0][0], drift=fleets[0][1])
        old = store.current()
        queries = self._queries(old)
        old_pages = self._run(old, queries)
        assert old._orders  # the old snapshot memoised its orders
        old_fragments = list(old._node_json)
        assert any(old_fragments)
        store.publish(fleets[1][0], drift=fleets[1][1])
        new = store.current()
        assert new is not old and new._orders == {}
        assert set(new._node_json) == {None}
        new_pages = self._run(new, queries)
        assert new_pages == self._run(new, queries, oracle=True)
        assert new_pages != old_pages
        # The old snapshot still answers from its own data.
        assert self._run(old, queries) == old_pages
        assert old._node_json == old_fragments

    def test_memo_holds_one_entry_per_key(self):
        network, drift = _fleet(7)
        store = FleetStore(FleetSnapshot(network, drift=drift))
        app = SpectrumApp(store)
        snap = store.current()
        bands = snap.columns.band_labels
        for _ in range(3):
            for sort in SORTABLE:
                for order in ("asc", "desc"):
                    for extra in ({}, {"min_trust": "0.3"}):
                        query = {"sort": sort, "order": order, **extra}
                        response = app.handle(
                            Request("GET", "/v1/nodes", query)
                        )
                        assert response.status == 200
            for query in ({}, {"untrustworthy": "true"}):
                response = app.handle(Request("GET", "/v1/trust", query))
                assert response.status == 200
            for label in bands:
                for query in ({}, {"decoded": "true"}):
                    response = app.handle(
                        Request("GET", "/v1/bands/" + label, query)
                    )
                    assert response.status == 200
        allowed = (
            {key for key in SORTABLE if key != "node_id"}
            | {"trust"}
            | {("band", j) for j in range(len(bands))}
        )
        assert set(snap._orders) == allowed
        assert len(snap._orders) == len(SORTABLE) - 1 + len(bands)
        assert snap.order("trust") is snap.order("trust")


class TestRowFragments:
    def _overlapping_queries(self):
        for _ in range(2):
            for sort in SORTABLE:
                for descending in (False, True):
                    for filters in NODE_FILTERS:
                        for cursor in (0, 10):
                            yield dict(
                                cursor=cursor,
                                limit=25,
                                sort=sort,
                                descending=descending,
                                **filters,
                            )

    def test_each_row_is_built_and_encoded_once(self, monkeypatch):
        network, drift = _fleet(8)
        snap = FleetSnapshot(network, drift=drift, generation=1)
        built: List[int] = []
        encoded: List[Any] = []
        node_rows = snap.node_rows
        encode = store_module.json_fragment

        def counting_rows(idx):
            built.extend(idx.tolist())
            return node_rows(idx)

        def counting_encode(row):
            encoded.append(row)
            return encode(row)

        monkeypatch.setattr(snap, "node_rows", counting_rows)
        monkeypatch.setattr(store_module, "json_fragment", counting_encode)
        served = 0
        for kwargs in self._overlapping_queries():
            got = snap.page_nodes(**kwargs)
            served += len(got.fragments)
            assert _page_body(snap, got) == parent_page_body(
                snap, oracle_page_nodes(snap, **kwargs)
            )
        assert len(built) == len(set(built))
        assert len(encoded) == len(built)
        filled = {i for i, f in enumerate(snap._node_json) if f is not None}
        assert filled == set(built)
        # The queries overlap, so far more rows were served than built.
        assert served > 2 * len(built)
