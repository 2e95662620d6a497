"""The query API: routes, parameter parsing, caching, metrics.

`SpectrumApp` is a pure request->response function over a
:class:`~repro.serve.store.FleetStore` — no sockets, no event loop —
which is what makes the service testable and benchmarkable at memory
speed. :mod:`repro.serve.server` mounts it on asyncio; the load
generator calls it directly.

Endpoints (all GET, all JSON):

- ``/v1/fleet`` — fleet overview (counts, trust/quality stats).
- ``/v1/nodes`` — paginated node assessments; filters
  ``min_trust``/``max_trust``/``min_overall``/``installation``/
  ``outdoor``, ordering ``sort``/``order``, cursor pagination
  ``cursor``/``limit``.
- ``/v1/nodes/{id}`` — one node's full serialized assessment.
- ``/v1/nodes/{id}/fov`` — one node's field-of-view sector map.
- ``/v1/trust`` — trust scores with per-check detail, worst first
  (``untrustworthy=true`` filters to the rejects).
- ``/v1/drift`` — per-node drift status from the stream engine.
- ``/v1/bands`` — fleet-wide per-band statistics.
- ``/v1/bands/{label}`` — per-node power in one band, strongest
  first (``min_dbm``, ``decoded=true`` filters).
- ``/v1/metrics`` — service counters and latency percentiles
  (never cached).
- ``/v1/healthz`` — liveness + current snapshot generation.

Every cacheable response carries a strong ETag; ``If-None-Match``
revalidation (weak comparison over a tag list, or ``*``) returns 304
without a body. Cached entries live for the cache TTL or until a
snapshot swap, whichever ends first.
"""

from __future__ import annotations

import time
from typing import Any, Callable, Dict, List, Optional, Tuple

from repro.core.metrics import MetricsRegistry
from repro.serve.cache import ResponseCache
from repro.serve.http import (
    Request,
    Response,
    etag_matches,
    json_error,
    split_path,
)
from repro.serve.store import FleetSnapshot, FleetStore, Page, json_fragment

#: Columns the node listing may sort on.
SORTABLE = (
    "node_id",
    "trust",
    "overall",
    "directional",
    "frequency",
    "open_fraction",
    "decoded_messages",
)


class ParamError(ValueError):
    """A query parameter failed validation (-> 400)."""


def _json_body(payload: Any) -> bytes:
    return json_fragment(payload).encode()


class SpectrumApp:
    """Routes requests over the fleet store; owns cache + metrics."""

    def __init__(
        self,
        store: FleetStore,
        cache: Optional[ResponseCache] = None,
        metrics: Optional[MetricsRegistry] = None,
        default_limit: int = 100,
        max_limit: int = 1000,
    ) -> None:
        self.store = store
        self.metrics = (
            metrics if metrics is not None else MetricsRegistry()
        )
        self.cache = (
            cache
            if cache is not None
            else ResponseCache(metrics=self.metrics)
        )
        # One registry per app: cache hit/miss counters must land in
        # the same summary the /v1/metrics endpoint reports.
        self.cache.metrics = self.metrics
        self.default_limit = default_limit
        self.max_limit = max_limit
        # (name, pattern, handler, cacheable); "*" matches one segment.
        self._routes: List[
            Tuple[
                str,
                Tuple[str, ...],
                Callable[[Request, FleetSnapshot, Tuple[str, ...]], Response],
                bool,
            ]
        ] = [
            ("fleet", ("v1", "fleet"), self._get_fleet, True),
            ("nodes", ("v1", "nodes"), self._get_nodes, True),
            ("node", ("v1", "nodes", "*"), self._get_node, True),
            ("fov", ("v1", "nodes", "*", "fov"), self._get_fov, True),
            ("trust", ("v1", "trust"), self._get_trust, True),
            ("drift", ("v1", "drift"), self._get_drift, True),
            ("bands", ("v1", "bands"), self._get_bands, True),
            ("band", ("v1", "bands", "*"), self._get_band, True),
            ("metrics", ("v1", "metrics"), self._get_metrics, False),
            ("healthz", ("v1", "healthz"), self._get_healthz, False),
        ]

    # ------------------------------------------------------------------
    # dispatch

    def handle(self, request: Request) -> Response:
        """One request in, one response out; never raises."""
        started = time.perf_counter()
        name = "unrouted"
        try:
            name, response = self._dispatch(request)
        except ParamError as exc:
            response = json_error(400, str(exc))
        except Exception as exc:  # noqa: BLE001 - API must not die
            self.metrics.incr("serve_errors")
            response = json_error(500, f"internal error: {exc}")
        self.metrics.incr("serve_requests")
        self.metrics.incr(f"serve_status_{response.status // 100}xx")
        self.metrics.observe(
            f"serve_{name}_s", time.perf_counter() - started
        )
        return response

    def _dispatch(self, request: Request) -> Tuple[str, Response]:
        if request.method != "GET":
            return "unrouted", json_error(
                405, f"method not allowed: {request.method}"
            )
        segments = split_path(request.path)
        for name, pattern, handler, cacheable in self._routes:
            params = _match(pattern, segments)
            if params is None:
                continue
            if cacheable:
                return name, self._cached(request, handler, params)
            return name, handler(
                request, self.store.current(), params
            )
        return "unrouted", json_error(
            404, f"no such endpoint: {request.path}"
        )

    def _cached(
        self,
        request: Request,
        handler: Callable[
            [Request, FleetSnapshot, Tuple[str, ...]], Response
        ],
        params: Tuple[str, ...],
    ) -> Response:
        snapshot = self.store.current()
        key = _cache_key(request)
        entry = self.cache.lookup(key, snapshot.generation)
        if entry is None:
            response = handler(request, snapshot, params)
            if response.status != 200:
                return response
            entry = self.cache.store(
                key,
                response.body,
                response.content_type,
                snapshot.generation,
            )
        max_age = f"max-age={self.cache.ttl_s:g}"
        if_none_match = request.if_none_match
        if if_none_match == entry.etag or etag_matches(
            if_none_match, entry.etag
        ):
            self.metrics.incr("serve_not_modified")
            return Response(
                status=304, etag=entry.etag, cache_control=max_age
            )
        return Response(
            status=200,
            body=entry.body,
            content_type=entry.content_type,
            etag=entry.etag,
            cache_control=max_age,
        )

    # ------------------------------------------------------------------
    # handlers

    def _get_fleet(
        self,
        request: Request,
        snapshot: FleetSnapshot,
        params: Tuple[str, ...],
    ) -> Response:
        return Response(body=_json_body(snapshot.fleet_summary()))

    def _get_nodes(
        self,
        request: Request,
        snapshot: FleetSnapshot,
        params: Tuple[str, ...],
    ) -> Response:
        q = request.query
        sort = q.get("sort", "node_id")
        if sort not in SORTABLE:
            raise ParamError(
                f"sort must be one of {', '.join(SORTABLE)}: {sort}"
            )
        order = q.get("order", "asc")
        if order not in ("asc", "desc"):
            raise ParamError(f"order must be asc or desc: {order}")
        page = snapshot.page_nodes(
            cursor=self._cursor(q),
            limit=self._limit(q),
            min_trust=_opt_float(q, "min_trust"),
            max_trust=_opt_float(q, "max_trust"),
            min_overall=_opt_float(q, "min_overall"),
            installation=q.get("installation"),
            outdoor=_opt_bool(q, "outdoor"),
            sort=sort,
            descending=order == "desc",
        )
        return Response(body=_page_body(snapshot, page))

    def _get_node(
        self,
        request: Request,
        snapshot: FleetSnapshot,
        params: Tuple[str, ...],
    ) -> Response:
        detail = snapshot.node_detail(params[0])
        if detail is None:
            return json_error(404, f"no such node: {params[0]}")
        return Response(body=_json_body(detail))

    def _get_fov(
        self,
        request: Request,
        snapshot: FleetSnapshot,
        params: Tuple[str, ...],
    ) -> Response:
        fov = snapshot.fov_map(params[0])
        if fov is None:
            return json_error(404, f"no such node: {params[0]}")
        return Response(body=_json_body(fov))

    def _get_trust(
        self,
        request: Request,
        snapshot: FleetSnapshot,
        params: Tuple[str, ...],
    ) -> Response:
        q = request.query
        threshold = _opt_float(q, "threshold")
        page = snapshot.page_trust(
            cursor=self._cursor(q),
            limit=self._limit(q),
            untrustworthy_only=_opt_bool(q, "untrustworthy") or False,
            threshold=0.5 if threshold is None else threshold,
        )
        return Response(body=_page_body(snapshot, page))

    def _get_drift(
        self,
        request: Request,
        snapshot: FleetSnapshot,
        params: Tuple[str, ...],
    ) -> Response:
        return Response(
            body=_json_body(
                {
                    "generation": snapshot.generation,
                    "items": snapshot.drift_rows(),
                }
            )
        )

    def _get_bands(
        self,
        request: Request,
        snapshot: FleetSnapshot,
        params: Tuple[str, ...],
    ) -> Response:
        return Response(
            body=_json_body(
                {
                    "generation": snapshot.generation,
                    "items": snapshot.band_summary(),
                }
            )
        )

    def _get_band(
        self,
        request: Request,
        snapshot: FleetSnapshot,
        params: Tuple[str, ...],
    ) -> Response:
        q = request.query
        page = snapshot.page_band_power(
            params[0],
            cursor=self._cursor(q),
            limit=self._limit(q),
            min_dbm=_opt_float(q, "min_dbm"),
            decoded_only=_opt_bool(q, "decoded") or False,
        )
        if page is None:
            return json_error(404, f"no such band: {params[0]}")
        return Response(body=_page_body(snapshot, page))

    def _get_metrics(
        self,
        request: Request,
        snapshot: FleetSnapshot,
        params: Tuple[str, ...],
    ) -> Response:
        return Response(
            body=_json_body(
                {
                    "generation": snapshot.generation,
                    "metrics": self.metrics.summary(),
                }
            )
        )

    def _get_healthz(
        self,
        request: Request,
        snapshot: FleetSnapshot,
        params: Tuple[str, ...],
    ) -> Response:
        return Response(
            body=_json_body(
                {
                    "status": "ok",
                    "generation": snapshot.generation,
                    "nodes": snapshot.n_nodes,
                }
            )
        )

    # ------------------------------------------------------------------
    # parameter helpers

    def _cursor(self, q: Dict[str, str]) -> int:
        cursor = _opt_int(q, "cursor")
        if cursor is None:
            return 0
        if cursor < 0:
            raise ParamError(f"cursor must be >= 0: {cursor}")
        return cursor

    def _limit(self, q: Dict[str, str]) -> int:
        limit = _opt_int(q, "limit")
        if limit is None:
            return self.default_limit
        if not 1 <= limit <= self.max_limit:
            raise ParamError(
                f"limit must be in [1, {self.max_limit}]: {limit}"
            )
        return limit


# ----------------------------------------------------------------------
# module helpers


def _match(
    pattern: Tuple[str, ...], segments: Tuple[str, ...]
) -> Optional[Tuple[str, ...]]:
    """Wildcard captures when ``segments`` fits ``pattern``, else None."""
    if len(pattern) != len(segments):
        return None
    params: List[str] = []
    for want, got in zip(pattern, segments):
        if want == "*":
            params.append(got)
        elif want != got:
            return None
    return tuple(params)


def _cache_key(request: Request) -> str:
    query = "&".join(
        f"{k}={v}" for k, v in sorted(request.query.items())
    )
    return request.path + "?" + query


def _page_body(snapshot: FleetSnapshot, page: Page) -> bytes:
    """A page's body, joined from its row fragments.

    Byte-identical to ``_json_body({**page.to_dict(), "generation": g})``
    without decoding or re-encoding a row.
    """
    next_cursor = "null" if page.next_cursor is None else page.next_cursor
    return (
        '{"items":['
        + ",".join(page.fragments)
        + f'],"next_cursor":{next_cursor},"total":{page.total},'
        f'"generation":{snapshot.generation}}}'
    ).encode()


def _opt_int(q: Dict[str, str], name: str) -> Optional[int]:
    raw = q.get(name)
    if raw is None:
        return None
    try:
        return int(raw)
    except ValueError:
        raise ParamError(f"{name} must be an integer: {raw!r}") from None


def _opt_float(q: Dict[str, str], name: str) -> Optional[float]:
    raw = q.get(name)
    if raw is None:
        return None
    try:
        return float(raw)
    except ValueError:
        raise ParamError(f"{name} must be a number: {raw!r}") from None


def _opt_bool(q: Dict[str, str], name: str) -> Optional[bool]:
    raw = q.get(name)
    if raw is None:
        return None
    if raw.lower() in ("1", "true", "yes"):
        return True
    if raw.lower() in ("0", "false", "no"):
        return False
    raise ParamError(f"{name} must be true or false: {raw!r}")
