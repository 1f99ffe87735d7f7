"""The serving front-door: many concurrent clients, one shared Session.

``ModelServer`` is the multi-tenant entry point the ROADMAP's
"millions of users" direction calls for: client threads submit fetch
requests against registered signatures; an admission controller applies
back-pressure, quotas, and deadline-aware rejection; one worker thread
coalesces compatible requests into micro-batches and executes each
batch as *one* plan-cached ``Session.run``; results scatter back
row-for-row, and every run's ``RunMetadata`` is attributed to the
tenants that rode it.

One DES driver per Session: the discrete-event simulator drive
serializes on the Session, so a second worker thread on the same
Session only adds lock hand-offs (it was slower in every cell of the
``BENCH_serving.json`` sweep). Scale out with more servers, not more
workers. The Session itself stays thread-safe — client threads may
share it with the server — and the whole TF-style stack below (plan
cache, optimizer, executor lanes, simnet) is reused unchanged.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass
from typing import Any, Optional, Sequence, Union

from repro.core.metadata import RunMetadata
from repro.core.session import Session, SessionConfig
from repro.core.tensor import Tensor
from repro.errors import (
    AlreadyExistsError,
    CancelledError,
    DeadlineExceededError,
    FailedPreconditionError,
    InvalidArgumentError,
    NotFoundError,
    ReproError,
)
from repro.serving.accounting import TenantAccountant, TenantStats
from repro.serving.admission import AdmissionController, AdmissionPolicy
from repro.serving.batcher import MicroBatcher, ServingSignature
from repro.serving.request import (
    PendingRequest,
    ServingFuture,
    ServingResponse,
    now,
)

__all__ = ["ModelServer", "ServingConfig"]


@dataclass
class ServingConfig:
    """Front-door knobs (admission + batching)."""

    # Admission (see AdmissionPolicy).
    max_queue: int = 256
    per_tenant_quota: Optional[int] = None
    # Micro-batching: requests per coalesced run, and how long a
    # partially filled batch lingers for same-signature stragglers.
    max_batch_size: int = 8
    batch_window_ms: float = 0.0
    # Deadline applied to requests that do not carry their own (None =
    # requests without an explicit deadline never expire).
    default_deadline_ms: Optional[float] = None


class ModelServer:
    """Admission -> micro-batcher -> shared Session -> scatter."""

    def __init__(
        self,
        session: Optional[Session] = None,
        graph=None,
        config: Optional[ServingConfig] = None,
        session_config: Optional[SessionConfig] = None,
    ):
        if session is not None and session_config is not None:
            raise FailedPreconditionError(
                "pass either an existing session or a session_config for "
                "a private one, not both"
            )
        self.config = config or ServingConfig()
        if self.config.max_batch_size < 1:
            # A worker asked for a batch of zero requests gets none and
            # asks again forever while the request stays queued.
            raise InvalidArgumentError(
                f"ServingConfig.max_batch_size must be >= 1, got "
                f"{self.config.max_batch_size}"
            )
        self.session = session or Session(
            graph=graph, config=session_config
        )
        self._signatures: dict[str, ServingSignature] = {}
        self._admission = AdmissionController(
            AdmissionPolicy(
                max_queue=self.config.max_queue,
                per_tenant_quota=self.config.per_tenant_quota,
            )
        )
        self._accountant = TenantAccountant()
        self._worker: Optional[threading.Thread] = None
        self._started = False
        self._stopped = False
        self._batch_runs = 0
        self._batched_rows = 0
        self._state_lock = threading.Lock()

    # -- signatures --------------------------------------------------------
    def register_signature(
        self,
        name: str,
        inputs: dict[str, Tensor],
        outputs: Union[Tensor, Sequence[Tensor]],
    ) -> ServingSignature:
        """Expose a named entry point of the shared graph.

        ``inputs`` maps request field names to placeholders whose leading
        dimension is the batch axis; ``outputs`` are the tensors every
        request fetches. All signatures share one Session — and therefore
        one plan cache, whose per-signature entries are exactly TF's
        cached-subgraph-per-signature serving design.
        """
        if name in self._signatures:
            raise AlreadyExistsError(f"signature {name!r} already registered")
        signature = ServingSignature(name, inputs, outputs)
        for tensor in signature.outputs:
            if tensor.graph is not self.session.graph:
                raise FailedPreconditionError(
                    f"signature {name!r} outputs belong to a different "
                    f"graph than the serving session"
                )
        self._signatures[name] = signature
        return signature

    def signature(self, name: str) -> ServingSignature:
        signature = self._signatures.get(name)
        if signature is None:
            raise NotFoundError(
                f"no signature {name!r}; registered: "
                f"{sorted(self._signatures)}"
            )
        return signature

    # -- lifecycle ---------------------------------------------------------
    def start(self) -> "ModelServer":
        with self._state_lock:
            if self._started:
                return self
            if self._stopped:
                raise FailedPreconditionError(
                    "ModelServer cannot restart after stop(); build a new one"
                )
            if not self._signatures:
                raise FailedPreconditionError(
                    "register at least one signature before start()"
                )
            self._started = True
            self._worker = threading.Thread(
                target=self._serve_loop, name="serving-worker", daemon=True
            )
            self._worker.start()
        return self

    def stop(self, drain: bool = True) -> None:
        """Shut the front-door.

        ``drain=True`` serves everything already admitted before the
        worker exits; ``drain=False`` cancels queued requests (their
        futures fail with :class:`~repro.errors.CancelledError`).
        """
        with self._state_lock:
            if self._stopped:
                return
            self._stopped = True
        cancelled = self._admission.close(cancel_pending=not drain)
        for pending in cancelled:
            self._accountant.record_failure(pending.tenant)
            pending.future._fail(
                CancelledError(
                    f"serving shut down before the request from tenant "
                    f"{pending.tenant!r} was dispatched"
                )
            )
        if self._worker is not None:
            self._worker.join()

    def __enter__(self) -> "ModelServer":
        return self.start()

    def __exit__(self, *exc_info) -> None:
        self.stop(drain=True)

    # -- client side -------------------------------------------------------
    def submit_async(
        self,
        tenant: str,
        signature: str,
        inputs: dict[str, Any],
        deadline_ms: Optional[float] = None,
    ) -> ServingFuture:
        """Admit one request; returns its future or raises the rejection."""
        sig = self.signature(signature)
        arrays, rows = sig.validate_inputs(inputs)
        self._accountant.record_submitted(tenant)
        if deadline_ms is None:
            deadline_ms = self.config.default_deadline_ms
        submitted_at = now()
        pending = PendingRequest(
            tenant=tenant,
            signature=sig,
            inputs=arrays,
            rows=rows,
            deadline_at=(
                submitted_at + deadline_ms / 1e3
                if deadline_ms is not None
                else None
            ),
            submitted_at=submitted_at,
        )
        try:
            self._admission.offer(pending)
        except ReproError as exc:
            self._accountant.record_rejection(
                tenant, getattr(exc, "admission_reason", "error")
            )
            raise
        return pending.future

    def submit(
        self,
        tenant: str,
        signature: str,
        inputs: dict[str, Any],
        deadline_ms: Optional[float] = None,
        timeout: Optional[float] = None,
    ) -> ServingResponse:
        """Blocking :meth:`submit_async`."""
        return self.submit_async(
            tenant, signature, inputs, deadline_ms
        ).result(timeout)

    # -- worker side -------------------------------------------------------
    def _serve_loop(self) -> None:
        admission = self._admission
        config = self.config
        while True:
            batch = admission.next_batch(
                config.max_batch_size, config.batch_window_ms / 1e3
            )
            if batch is None:
                return  # closed and drained
            live: list[PendingRequest] = []
            at = now()
            for pending in batch:
                if pending.expired(at):
                    self._accountant.record_rejection(
                        pending.tenant, "deadline"
                    )
                    waited = (at - pending.submitted_at) * 1e3
                    pending.future._fail(
                        DeadlineExceededError(
                            f"request from tenant {pending.tenant!r} "
                            f"waited {waited:.1f} ms in the admission "
                            f"queue, exceeding its "
                            f"{pending.deadline_ms:.1f} ms deadline"
                        )
                    )
                else:
                    live.append(pending)
            if not live:
                continue
            self._run_batch(live)

    def _run_batch(self, live: list[PendingRequest]) -> None:
        signature = live[0].signature
        feed, sizes = MicroBatcher.assemble(signature, live)
        feed_dict = {
            signature.inputs[label]: value for label, value in feed.items()
        }
        metadata = RunMetadata()
        started = now()
        try:
            results = self.session.run(
                signature.outputs, feed_dict=feed_dict, run_metadata=metadata
            )
        except BaseException as exc:  # propagate to every rider
            for pending in live:
                self._accountant.record_failure(pending.tenant)
                pending.future._fail(exc)
            return
        run_wall = now() - started
        outputs = MicroBatcher.scatter(signature, results, sizes)
        batch_size = len(live)
        batch_rows = sum(sizes)
        with self._state_lock:
            self._batch_runs += 1
            self._batched_rows += batch_rows
        for pending, rows in zip(live, outputs):
            queue_wait = (pending.dequeued_at or started) - pending.submitted_at
            self._accountant.record_completion(
                pending.tenant,
                batch_size=batch_size,
                plan_cache_hit=metadata.plan_cache_hit,
                queue_wait_s=queue_wait,
                run_wall_s=run_wall,
                sim_time_s=metadata.wall_time,
            )
            pending.future._complete(
                ServingResponse(
                    outputs=rows,
                    tenant=pending.tenant,
                    signature=signature.name,
                    batch_size=batch_size,
                    batch_rows=batch_rows,
                    queue_wait_s=queue_wait,
                    run_wall_s=run_wall,
                    plan_cache_hit=metadata.plan_cache_hit,
                    metadata=metadata,
                )
            )
        self._accountant.record_batch(p.tenant for p in live)

    # -- introspection -----------------------------------------------------
    def tenant_stats(self, tenant: Optional[str] = None):
        """Per-tenant accounting (one tenant, or ``{tenant: stats}``)."""
        return self._accountant.snapshot(tenant)

    def stats(self) -> dict:
        """Server-wide counters plus the shared plan cache's pressure."""
        totals: TenantStats = self._accountant.totals()
        with self._state_lock:
            batch_runs = self._batch_runs
            batched_rows = self._batched_rows
        return {
            "signatures": sorted(self._signatures),
            "queue_depth": self._admission.depth(),
            "batch_runs": batch_runs,
            "batched_rows": batched_rows,
            "requests_submitted": totals.submitted,
            "requests_completed": totals.completed,
            "requests_failed": totals.failed,
            "rejected_queue_full": totals.rejected_queue_full,
            "rejected_quota": totals.rejected_quota,
            "rejected_deadline": totals.rejected_deadline,
            "mean_batch_occupancy": (
                totals.completed / batch_runs if batch_runs else 0.0
            ),
            "plan_cache": self.session.plan_cache_info(),
        }
