"""Allocation-as-a-service: the compile→allocate→evaluate pipeline
behind a JSON HTTP API.

The package layers, bottom up:

* :mod:`repro.service.protocol` — request/response schemas, the error
  taxonomy (HTTP status per error class), and content fingerprints for
  request deduplication;
* :mod:`repro.service.pipeline` — the worker-side compute: a picklable
  job dict in, a JSON result dict out, with per-process memos
  mirroring :mod:`repro.engine.jobs`;
* :mod:`repro.service.batcher` — micro-batching dispatcher with
  in-flight deduplication, bounded admission (backpressure), and
  per-request timeouts;
* :mod:`repro.service.httpd` — hand-rolled HTTP/1.1 on asyncio
  streams (stdlib only, no ``http.server``): the server, the one
  keep-alive client exchange, and the front-door lifecycle the server
  and the cluster coordinator share;
* :mod:`repro.service.server` — the service itself: routing, result
  memo + :class:`repro.engine.cache.DiskCache` reuse, metrics,
  graceful drain;
* :mod:`repro.service.client` — sync and async client libraries;
* :mod:`repro.service.loadgen` — the load-generator benchmark behind
  ``repro loadgen``;
* :mod:`repro.service.cluster` — the scale-out tier: a consistent-hash
  routing coordinator over N shard servers (``repro cluster``).
"""

from .client import AsyncServiceClient, ServiceClient, ServiceError
from .cluster import ClusterConfig, ClusterCoordinator, ConsistentHashRing
from .server import ServiceConfig, ServiceServer

__all__ = [
    "AsyncServiceClient",
    "ClusterConfig",
    "ClusterCoordinator",
    "ConsistentHashRing",
    "ServiceClient",
    "ServiceConfig",
    "ServiceError",
    "ServiceServer",
]
