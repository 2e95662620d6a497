"""`repro.serve` — the spectrum-data query service over the fleet.

The crowd-sourced network only pays off when its assessments are
queryable at scale: this package is the "sensors → ingest → storage
→ public API" backend over everything the repo can produce. The
pieces, bottom up:

- :mod:`repro.serve.columns` — the read-optimized columnar
  projection (numpy record arrays) of a fleet's assessments.
- :mod:`repro.serve.store` — immutable :class:`FleetSnapshot` +
  atomically swapped :class:`FleetStore`; all query logic.
- :mod:`repro.serve.cache` — ETag/TTL response caching.
- :mod:`repro.serve.app` — the HTTP-agnostic request router
  (:class:`SpectrumApp`), also the benchmark's entry point.
- :mod:`repro.serve.server` — the asyncio HTTP/1.1 front end with
  bounded concurrency.
- :mod:`repro.serve.loader` — feeds stores from batch network
  evaluations, runtime campaigns, and the live stream gateway.
- :mod:`repro.serve.synthetic` — fleet fabrication at 10k-node
  scale for load tests.
"""

from repro.serve.app import SpectrumApp
from repro.serve.cache import CacheEntry, ResponseCache, body_etag
from repro.serve.columns import FleetColumns
from repro.serve.http import Request, Response
from repro.serve.loader import (
    attach_gateway,
    drift_statuses,
    publish_gateway,
    snapshot_from_network,
    store_from_gateway,
    store_from_json,
    store_from_network,
)
from repro.serve.server import SpectrumServer, run_server
from repro.serve.store import (
    DriftStatus,
    FleetSnapshot,
    FleetStore,
    Page,
)
from repro.serve.synthetic import synthetic_fleet

__all__ = [
    "CacheEntry",
    "DriftStatus",
    "FleetColumns",
    "FleetSnapshot",
    "FleetStore",
    "Page",
    "Request",
    "Response",
    "ResponseCache",
    "SpectrumApp",
    "SpectrumServer",
    "attach_gateway",
    "body_etag",
    "drift_statuses",
    "publish_gateway",
    "run_server",
    "snapshot_from_network",
    "store_from_gateway",
    "store_from_json",
    "store_from_network",
    "synthetic_fleet",
]
