"""Multi-tenant serving layer over the shared simulated Session.

The front-door the ROADMAP's "serves heavy traffic from millions of
users" north star asks for, in the shape the TensorFlow whitepaper
motivates: many concurrent clients multiplexed onto one session, with
request admission, micro-batching of compatible requests into single
plan-cached executions, and per-tenant accounting.

Pipeline::

    clients --submit--> AdmissionController --batches--> worker
        --one Session.run per micro-batch--> scatter --> futures

One worker thread per server — one DES driver per Session; scale out
with more servers, not more workers.

* :class:`~repro.serving.server.ModelServer` — the front-door.
* :class:`~repro.serving.admission.AdmissionController` — bounded queue,
  per-tenant quotas, deadline-aware typed rejection.
* :class:`~repro.serving.batcher.MicroBatcher` /
  :class:`~repro.serving.batcher.ServingSignature` — batch-axis
  gather/scatter over named graph entry points (byte-identical to
  unbatched execution).
* :class:`~repro.serving.accounting.TenantAccountant` — per-tenant
  RunMetadata attribution (requests, occupancy, cache hits, queue wait,
  deadline rejections).
"""

from repro.serving.accounting import TenantAccountant, TenantStats
from repro.serving.admission import AdmissionController, AdmissionPolicy
from repro.serving.batcher import MicroBatcher, ServingSignature
from repro.serving.request import PendingRequest, ServingFuture, ServingResponse
from repro.serving.server import ModelServer, ServingConfig

__all__ = [
    "AdmissionController",
    "AdmissionPolicy",
    "MicroBatcher",
    "ModelServer",
    "PendingRequest",
    "ServingConfig",
    "ServingFuture",
    "ServingResponse",
    "ServingSignature",
    "TenantAccountant",
    "TenantStats",
]
