"""The fleet router: N engine replicas behind one serving surface.

:class:`FleetRouter` duck-types :class:`~repro.serving.service.PredictionService`
(``predict`` / ``predict_batch`` / ``health`` / ``stats`` / ``metrics`` /
``metrics_prometheus``), so the existing :class:`~repro.serving.service.RestServer`
fronts a whole fleet unchanged.  What it adds over one engine:

* **Prefix-affinity scheduling** — prompts are reduced to a bucket key
  (:func:`~repro.fleet.affinity.prefix_bucket`) and routed over a
  consistent-hash ring, so requests sharing a prompt head land on the
  replica that already holds their K/V prefix.  ``policy="round_robin"``
  is the baseline the benchmark compares against.
* **Fleet-level admission control** — ``max_inflight`` bounds concurrent
  dispatches across the whole fleet; excess load sheds with the same
  typed 503 + Retry-After contract the per-engine service uses, *before*
  any replica is touched.
* **Failover** — one routing loop (:meth:`FleetRouter._route`) serves
  every routed request kind.  A dispatch that finds its replica dead
  (:class:`~repro.errors.WorkerUnavailableError`) marks it dead, drains
  it, rebalances the ring and re-dispatches the request to the next
  replica in the key's preference order: the request is re-enqueued, not
  dropped.  A replica that answers 503 *spills* to the next preference
  without being declared dead; only when every live replica is saturated
  does the fleet itself shed.
* **Streaming passthrough** — :meth:`predict_stream` routes exactly like
  :meth:`predict` (affinity, failover, spill) *until the first event
  flows*; after first byte, replica death surfaces as an in-band
  ``error`` event, never a silent re-dispatch that could duplicate
  delivered tokens.
* **Session affinity** — :meth:`session_create` routes by prefix bucket
  and pins the session to the replica holding its warm KV slab.  The
  fleet session id names that owner (``w0.s0000``: replica id, ``.``,
  the replica's own id), so ids minted by different replicas never
  collide; extends ride the ``session id -> worker`` map, and a dead
  owner converts to a crisp :class:`~repro.errors.SessionNotFoundError`
  (``sessions_lost`` counter) so editors re-create instead of hanging.
* **Heartbeat liveness** — :meth:`heartbeat_tick` probes every replica on
  the shared :mod:`repro.faults.clock`; a replica whose last successful
  probe is older than ``heartbeat_timeout_s`` is declared wedged, killed
  (aborting its in-flight work so KV slabs free), and removed from the
  ring.  With a ``spawner`` the router replaces dead replicas, re-adding
  capacity under the same membership/rebalance path.
* **Distributed observability** — with tracing enabled the router mints a
  :class:`~repro.obs.distributed.TraceContext` per request and propagates
  it to workers, whose span trees parent under the router's root span
  (``fleet.predict``, ``fleet.predict_stream``, ...); with a
  :class:`~repro.obs.distributed.FleetCollector` attached, every
  heartbeat tick also drains replica telemetry
  (spans / Prometheus / profiles) for fleet-wide merging.  Every router
  counter lives in the metrics registry; :meth:`stats` reads it there.

Every liveness decision and dispatch runs through the PR 5 fault seams
(``fleet.spawn`` / ``fleet.heartbeat`` / ``fleet.dispatch``), so a seeded
:class:`~repro.faults.FaultInjector` can kill replicas mid-decode, lose
heartbeats or fail spawns — deterministically, replayably.
"""

from __future__ import annotations

import itertools
import threading
from contextlib import nullcontext

from repro.errors import (
    DeadlineExceededError,
    FleetError,
    InjectedFault,
    ServiceOverloadedError,
    ServingError,
    SessionNotFoundError,
    WorkerUnavailableError,
)
from repro.faults import clock
from repro.faults.inject import fire
from repro.fleet.affinity import HashRing, prefix_bucket
from repro.obs import Observability
from repro.obs.distributed import (
    FleetCollector,
    TraceContext,
    TraceIdAllocator,
    router_span_ref,
)
from repro.obs.export import prometheus_exposition

ROUTING_POLICIES = ("affinity", "round_robin")


ROUTING_POLICIES = ("affinity", "round_robin")
#: Virtual nodes per replica on the consistent-hash ring.
VNODES = 64
#: ``Retry-After`` hint (seconds) on fleet 503s no replica supplied one for.
SHED_RETRY_AFTER_S = 0.5
#: Prefix of the trace ids the router mints (``t-00000001``, ...).
TRACE_PREFIX = "t"
#: Joins the owning replica's id to its own session id into the fleet
#: session id (``w0.s0000``).  Path-safe, so it rides ``/v1/sessions/{id}``.
SESSION_ID_SEP = "."

#: ``stats()`` key -> the registry counter it reads.
STATS_COUNTERS = {
    "requests": "fleet.requests",
    "batch_requests": "fleet.batch_requests",
    "stream_requests": "fleet.streams",
    "session_creates": "fleet.session_creates",
    "session_extends": "fleet.session_extends",
    "sessions_lost": "fleet.sessions_lost",
    "shed_requests": "fleet.shed",
    "failovers": "fleet.failovers",
    "spills": "fleet.spills",
    "rebalances": "fleet.rebalances",
    "heartbeat_misses": "fleet.heartbeat_misses",
    "workers_lost": "fleet.workers_lost",
    "respawns": "fleet.respawns",
    "spawn_failures": "fleet.spawn_failures",
}


def _require_text(value, what: str) -> None:
    if not isinstance(value, str) or not value.strip():
        raise ServingError(f"{what} must be a non-empty string")


class FleetRouter:
    """Spread requests over replicas; keep serving through replica death."""

    def __init__(
        self,
        workers=None,
        *,
        policy: str = "affinity",
        max_inflight: int | None = None,
        heartbeat_timeout_s: float = 5.0,
        spawner=None,
        obs: Observability | None = None,
        collector: FleetCollector | None = None,
    ):
        if policy not in ROUTING_POLICIES:
            raise FleetError(f"unknown policy {policy!r} (known: {ROUTING_POLICIES})")
        if max_inflight is not None and max_inflight < 1:
            raise FleetError(f"max_inflight must be >= 1, got {max_inflight}")
        self.policy = policy
        self.max_inflight = max_inflight
        self.heartbeat_timeout_s = heartbeat_timeout_s
        self.spawner = spawner
        self._workers: dict[str, object] = {}
        self._dead: dict[str, str] = {}  # worker id -> reason
        self._ring = HashRing(vnodes=VNODES)
        self._last_heartbeat: dict[str, float] = {}
        self._rr_index = 0
        #: Session affinity: fleet session id -> (owner worker id, its session id).
        self._sessions: dict[str, tuple[str, str]] = {}
        self._lock = threading.RLock()
        self._heartbeat_thread: threading.Thread | None = None
        self._heartbeat_stop = threading.Event()
        # -- observability: the registry is the only ledger --
        self.obs = obs if obs is not None else Observability()
        #: Telemetry aggregation (None = off): polled every heartbeat tick.
        self.collector = collector
        self._trace_ids = TraceIdAllocator(prefix=TRACE_PREFIX)
        metrics = self.obs.metrics
        self._counters = {key: metrics.counter(name) for key, name in STATS_COUNTERS.items()}
        self._g_live = metrics.gauge("fleet.live_workers")
        self._g_inflight = metrics.gauge("fleet.inflight")
        self._h_dispatch = metrics.histogram("fleet.dispatch_s")
        for worker in workers or ():
            self.add_worker(worker)

    def _count(self, *keys: str, amount: int = 1) -> None:
        for key in keys:
            self._counters[key].inc(amount)

    # -- membership ----------------------------------------------------------

    @property
    def live_worker_ids(self) -> list[str]:
        with self._lock:
            return sorted(self._workers)

    @property
    def dead_worker_ids(self) -> list[str]:
        with self._lock:
            return sorted(self._dead)

    def add_worker(self, worker) -> None:
        """Join a replica: ring membership, heartbeat baseline, rebalance."""
        with self._lock:
            worker_id = worker.worker_id
            if worker_id in self._workers:
                raise FleetError(f"worker {worker_id!r} already joined")
            self._workers[worker_id] = worker
            self._ring.add(worker_id)
            self._last_heartbeat[worker_id] = clock.now()
            self._dead.pop(worker_id, None)
            self._count("rebalances")
            self._g_live.set(len(self._workers))

    def remove_worker(self, worker_id: str, reason: str = "removed") -> None:
        """Leave / declare dead: drain the replica, rebalance its buckets."""
        with self._lock:
            self._mark_dead_locked(worker_id, reason)

    def _mark_dead_locked(self, worker_id: str, reason: str) -> None:
        worker = self._workers.pop(worker_id, None)
        if worker is None:
            return  # a concurrent dispatch already reaped it
        self._ring.remove(worker_id)
        self._last_heartbeat.pop(worker_id, None)
        self._dead[worker_id] = reason
        self._count("rebalances")
        if reason != "removed":
            self._count("workers_lost")
        self._g_live.set(len(self._workers))
        # Sessions pinned to this replica died with its arena: forget the
        # affinity mappings so later extends get a crisp 404 (and the
        # plugin's create-on-miss fallback a fresh replica), not a hang.
        orphaned = [sid for sid, (owner, _) in self._sessions.items() if owner == worker_id]
        for sid in orphaned:
            del self._sessions[sid]
        if orphaned:
            self._count("sessions_lost", amount=len(orphaned))
        # Drain: abort whatever the replica still holds.  For an in-process
        # replica this cancels live engine rows (freeing KV slabs); for a
        # process replica it terminates the child.  Requests currently
        # blocked on the replica surface WorkerUnavailableError in their
        # dispatching threads and re-enqueue through the failover path.
        kill = getattr(worker, "kill", None)
        if kill is not None:
            try:
                kill()
            except Exception:
                pass  # the replica is being declared dead; failures to drain are moot

    def _on_worker_failure(self, worker_id: str, reason: str) -> None:
        with self._lock:
            self._mark_dead_locked(worker_id, reason)
        self._count("failovers")

    def _respawn_locked(self, dead_id: str) -> None:
        if self.spawner is None:
            return
        try:
            replacement = self.spawner(dead_id)
        except (InjectedFault, FleetError, ServingError):
            self._count("spawn_failures")
            return
        if replacement is not None:
            self.add_worker(replacement)
            self._count("respawns")

    def _touch(self, worker_id: str) -> None:
        """A replica answered: that counts as a heartbeat."""
        with self._lock:
            if worker_id in self._workers:
                self._last_heartbeat[worker_id] = clock.now()

    # -- one request ---------------------------------------------------------

    def _shed(self, reason: str, retry_after_s: float | None = None) -> ServiceOverloadedError:
        self._count("shed_requests")
        retry_after = retry_after_s if retry_after_s is not None else SHED_RETRY_AFTER_S
        return ServiceOverloadedError(
            f"fleet overloaded ({reason}); retry after {retry_after}s",
            retry_after_s=retry_after,
        )

    def _try_admit(self) -> bool:
        with self._lock:
            if self.max_inflight is not None and self._g_inflight.value >= self.max_inflight:
                return False
            self._g_inflight.inc()
            return True

    def _release_admission(self) -> None:
        self._g_inflight.dec()

    def _trace_for(self, inbound: TraceContext | None) -> TraceContext | None:
        """The downstream context for one request: adopt or mint.

        An ``inbound`` context (a client that already traces, or the REST
        front door forwarding the propagation headers) keeps its trace id
        end to end; without one the router mints its own when tracing is
        enabled, and returns None otherwise.  Either way ``parent_span``
        names the router's root span
        (:func:`~repro.obs.distributed.router_span_ref`), so a worker
        adopting the context parents its span tree under the router's.
        """
        if inbound is not None:
            trace_id = inbound.trace_id
        elif self.obs.tracer.enabled:
            with self._lock:
                trace_id = self._trace_ids.allocate()
        else:
            return None
        return TraceContext(trace_id=trace_id, parent_span=router_span_ref(trace_id))

    def _serve(self, name: str, inbound, deadline_s, route, hold: bool = False, **attrs):
        """Run one fleet request: admission, trace, root span, then ``route``.

        Sheds with the fleet 503 when ``max_inflight`` dispatches are
        already running.  Otherwise adopts ``inbound`` or mints a trace
        context, activates it, opens the root span ``name`` and calls
        ``route(hop)``, which returns ``(worker_id, failovers, result)``.
        ``hop()`` gives the keywords of one call to a replica: the
        deadline left and the trace context.

        Returns ``(result, stamp)``, where ``stamp`` holds the ``worker``,
        ``failovers`` and ``trace_id`` fields, each only when set, for the
        caller to put on its payload.  With ``hold`` a successful call
        keeps its admission slot and the caller releases it with
        :meth:`_release_admission` (a stream, when it ends).
        """
        if not self._try_admit():
            raise self._shed("fleet admission queue full")
        held = False
        try:
            deadline_at = clock.now() + deadline_s if deadline_s is not None else None
            context = self._trace_for(inbound)

            def hop() -> dict:
                remaining = None
                if deadline_at is not None:
                    remaining = deadline_at - clock.now()
                    if remaining <= 0:
                        raise DeadlineExceededError("deadline exhausted before a replica answered")
                return {"deadline_s": remaining, "trace_context": context}

            activation = (
                self.obs.tracer.activate(inbound.trace_id, inbound.parent_span)
                if inbound is not None
                else nullcontext()
            )
            with activation, self.obs.tracer.span(name, **attrs) as span:
                if context is not None:
                    span.set(trace_id=context.trace_id, span_ref=router_span_ref(context.trace_id))
                worker_id, failovers, result = route(hop)
                span.set(worker=worker_id, failovers=failovers)
            held = hold
        finally:
            if not held:
                self._release_admission()
        trace_id = context.trace_id if context is not None else None
        stamp = {"worker": worker_id, "failovers": failovers, "trace_id": trace_id}
        return result, {key: value for key, value in stamp.items() if value}

    def _candidates(self, key: str) -> list[str]:
        """Live replicas in dispatch-preference order for ``key``."""
        with self._lock:
            if self.policy == "affinity":
                return self._ring.preference(prefix_bucket(key))
            ordered = sorted(self._workers)
            if not ordered:
                return []
            start = self._rr_index % len(ordered)
            self._rr_index += 1
            return ordered[start:] + ordered[:start]

    def _route(self, key: str, call, **seam):
        """Run ``call(worker)`` on the best replica for ``key``, failing over.

        The one routing loop every routed request kind goes through.  A
        dead replica (:class:`~repro.errors.WorkerUnavailableError`, or an
        injected ``fleet.dispatch`` fault) is declared dead — drained,
        dropped from the ring — and the call re-runs against the
        survivors: the request is re-enqueued, never dropped.  A
        saturated replica (503) *spills* to the next preference without a
        membership change.  When no candidate is left the fleet sheds,
        carrying the replicas' own retry hint.  ``seam`` rides along to
        the fault seam.  Returns ``(worker_id, failovers, result)``.
        """
        failovers = 0
        overloaded: set[str] = set()
        last_overload: ServiceOverloadedError | None = None
        while True:
            for worker_id in self._candidates(key):
                if worker_id in overloaded:
                    continue
                with self._lock:
                    worker = self._workers.get(worker_id)
                if worker is None:
                    continue  # raced with a heartbeat-driven removal
                started = clock.now()
                try:
                    fire("fleet.dispatch", worker=worker_id, **seam)
                    result = call(worker)
                except (WorkerUnavailableError, InjectedFault):
                    self._on_worker_failure(worker_id, "dispatch_failed")
                    failovers += 1
                    break  # membership changed: recompute the candidates
                except ServiceOverloadedError as error:
                    last_overload = error
                    overloaded.add(worker_id)
                    self._count("spills")
                    continue
                self._h_dispatch.observe(clock.now() - started)
                self._touch(worker_id)
                return worker_id, failovers, result
            else:
                if not self.live_worker_ids:
                    raise self._shed("no live replicas")
                raise self._shed(
                    "every live replica is saturated",
                    retry_after_s=last_overload.retry_after_s if last_overload else None,
                )

    def predict(
        self,
        prompt: str,
        max_new_tokens: int | None = None,
        deadline_s: float | None = None,
        trace_context: TraceContext | None = None,
    ) -> dict:
        """One completion through the fleet (the ``/v1/completions`` body).

        With tracing enabled the router mints a fleet trace context for
        the request — or adopts an inbound one (``trace_context``, e.g.
        forwarded propagation headers when a :class:`RestServer` fronts
        the fleet; see :meth:`_trace_for`) — carries it to the worker,
        and echoes the trace id back as ``"trace_id"``.
        """
        _require_text(prompt, "prompt")
        payload, stamp = self._serve(
            "fleet.predict",
            trace_context,
            deadline_s,
            lambda hop: self._route(
                prompt, lambda worker: worker.predict(prompt, max_new_tokens, **hop())
            ),
        )
        self._count("requests")
        return {**payload, **stamp}

    def predict_stream(
        self,
        prompt: str,
        max_new_tokens: int | None = None,
        deadline_s: float | None = None,
        trace_context: TraceContext | None = None,
    ):
        """Streamed completion through the fleet: ``(event, data)`` tuples.

        Routing follows :meth:`predict` — affinity preference, failover on
        a dead replica, spill on an overloaded one — but *only until the
        first event arrives*.  Once a byte has flowed to the caller a
        replay could duplicate delivered tokens, so mid-stream replica
        death surfaces as an in-band ``error`` event (status 503) and the
        replica is declared dead for subsequent requests; it is never
        silently re-dispatched.  The stream holds its admission slot
        until it ends.
        """
        _require_text(prompt, "prompt")
        return self._stream(prompt, max_new_tokens, deadline_s, trace_context)

    def _stream(self, prompt, max_new_tokens, deadline_s, inbound):
        def open_stream(worker, hop):
            inner = worker.predict_stream(prompt, max_new_tokens, **hop())
            return inner, next(inner, None)

        (inner, first), stamp = self._serve(
            "fleet.predict_stream",
            inbound,
            deadline_s,
            lambda hop: self._route(
                prompt, lambda worker: open_stream(worker, hop), stream=True
            ),
            hold=True,
        )
        self._count("stream_requests", "requests")
        worker_id = stamp["worker"]
        try:
            for event, data in itertools.chain([first] if first is not None else [], inner):
                if event in ("done", "error"):
                    data = {**data, **stamp}
                yield event, data
        except (WorkerUnavailableError, InjectedFault):
            # Died mid-stream: bytes already flowed, so no failover —
            # report in-band and declare the replica dead.
            self._on_worker_failure(worker_id, "stream_failed")
            yield (
                "error",
                {
                    "error": f"replica {worker_id} died mid-stream",
                    "status": 503,
                    "worker": worker_id,
                },
            )
        finally:
            close = getattr(inner, "close", None)
            if close is not None:
                close()
            self._release_admission()

    def predict_batch(
        self,
        prompts: list[str],
        max_new_tokens: int | None = None,
        deadline_s: float | None = None,
        trace_context: TraceContext | None = None,
    ) -> dict:
        """Batched completions, grouped per replica so each group decodes
        through its replica's continuous batcher in one pass.

        Groups whose replica dies mid-dispatch are re-enqueued and
        re-grouped over the survivors; no prompt is dropped by a
        membership change.
        """
        if not isinstance(prompts, list) or not prompts:
            raise ServingError("prompts must be a non-empty list of strings")
        for prompt in prompts:
            _require_text(prompt, "every prompt")
        started = clock.now()
        merged, stamp = self._serve(
            "fleet.predict_batch",
            trace_context,
            deadline_s,
            lambda hop: (None, 0, self._dispatch_batch(prompts, max_new_tokens, hop)),
            batch_size=len(prompts),
        )
        self._count("requests", amount=len(prompts))
        self._count("batch_requests")
        merged["latency_ms"] = (clock.now() - started) * 1000.0
        merged["batch_size"] = len(prompts)
        return {**merged, **stamp}

    def _dispatch_batch(self, prompts: list[str], max_new_tokens, hop) -> dict:
        completions: list[str | None] = [None] * len(prompts)
        cached: list[bool] = [False] * len(prompts)
        degraded: list[bool] = [False] * len(prompts)
        workers: list[str | None] = [None] * len(prompts)
        decoded = 0
        pending = list(enumerate(prompts))
        bounce_budget = None  # set on first full-overload sweep
        while pending:
            groups: dict[str, list[tuple[int, str]]] = {}
            for index, prompt in pending:
                candidates = self._candidates(prompt)
                if not candidates:
                    raise self._shed("no live replicas")
                groups.setdefault(candidates[0], []).append((index, prompt))
            pending = []
            for worker_id, items in groups.items():
                with self._lock:
                    worker = self._workers.get(worker_id)
                if worker is None:
                    pending.extend(items)  # membership changed mid-grouping
                    continue
                group_prompts = [prompt for _, prompt in items]
                try:
                    fire("fleet.dispatch", worker=worker_id, batch=len(items))
                    payload = worker.predict_batch(group_prompts, max_new_tokens, **hop())
                except (WorkerUnavailableError, InjectedFault):
                    self._on_worker_failure(worker_id, "dispatch_failed")
                    pending.extend(items)  # re-enqueue the whole group
                    continue
                except ServiceOverloadedError as error:
                    # Spill the whole group; bounded so a fully saturated
                    # fleet sheds instead of spinning.
                    self._count("spills")
                    if bounce_budget is None:
                        bounce_budget = max(1, len(self.live_worker_ids))
                    bounce_budget -= 1
                    if bounce_budget <= 0:
                        raise self._shed(
                            "every live replica is saturated",
                            retry_after_s=error.retry_after_s,
                        ) from error
                    pending.extend(items)
                    continue
                for (index, _prompt), completion, was_cached, was_degraded in zip(
                    items, payload["completions"], payload["cached"], payload["degraded"]
                ):
                    completions[index] = completion
                    cached[index] = was_cached
                    degraded[index] = was_degraded
                    workers[index] = worker_id
                decoded += payload.get("decoded", 0)
                self._touch(worker_id)
        return {
            "completions": completions,
            "cached": cached,
            "degraded": degraded,
            "workers": workers,
            "decoded": decoded,
        }

    # -- sessions ------------------------------------------------------------

    def session_create(
        self,
        buffer: str,
        max_new_tokens: int | None = None,
        deadline_s: float | None = None,
        trace_context: TraceContext | None = None,
    ) -> dict:
        """Open a keystroke session on the replica owning the buffer's
        prefix bucket, then pin the session there (session affinity).

        Creation routes like :meth:`predict` — failover and spill apply,
        because no state exists yet.  Every replica numbers its own
        sessions, so the returned ``session_id`` names the owner too
        (``w0.s0000``); every subsequent extend lands on that owner, and
        callers never need to know fleet topology.
        """
        _require_text(buffer, "buffer")
        payload, stamp = self._serve(
            "fleet.session_create",
            trace_context,
            deadline_s,
            lambda hop: self._route(
                buffer,
                lambda worker: worker.session_create(buffer, max_new_tokens, **hop()),
                session=True,
            ),
        )
        owner, local_id = stamp["worker"], payload["session_id"]
        session_id = f"{owner}{SESSION_ID_SEP}{local_id}"
        with self._lock:
            self._sessions[session_id] = (owner, local_id)
        self._count("session_creates", "requests")
        return {**payload, **stamp, "session_id": session_id}

    def session_extend(
        self,
        session_id: str,
        buffer: str,
        max_new_tokens: int | None = None,
        deadline_s: float | None = None,
        trace_context: TraceContext | None = None,
    ) -> dict:
        """Extend a session on its owning replica (affinity-pinned).

        An unknown session — never created, already closed, owner dead,
        or evicted replica-side — raises
        :class:`~repro.errors.SessionNotFoundError`; callers (the editor
        plugin, the REST 404 mapping) treat that as "re-create"."""
        _require_text(buffer, "buffer")
        with self._lock:
            pinned = self._sessions.get(session_id)
        if pinned is None:
            raise SessionNotFoundError(session_id)
        owner, local_id = pinned
        payload, stamp = self._serve(
            "fleet.session_extend",
            trace_context,
            deadline_s,
            lambda hop: self._pinned(
                session_id,
                owner,
                lambda worker: worker.session_extend(local_id, buffer, max_new_tokens, **hop()),
            ),
        )
        self._count("session_extends", "requests")
        return {**payload, **stamp, "session_id": session_id}

    def session_close(self, session_id: str) -> dict:
        """Release a session wherever it lives; idempotent."""
        with self._lock:
            pinned = self._sessions.pop(session_id, None)
        if pinned is None:
            return {"session_id": session_id, "closed": False}
        owner, local_id = pinned
        try:
            _, _, payload = self._pinned(
                session_id, owner, lambda worker: worker.session_close(local_id)
            )
        except SessionNotFoundError:
            payload = {"closed": False}
        return {**payload, "session_id": session_id, "worker": owner}

    def _pinned(self, session_id: str, owner: str, call):
        """Run ``call(worker)`` on the replica holding the session's warm
        KV slab.  No failover: the slab lives only there.

        A dead owner or a replica-side miss raises
        :class:`SessionNotFoundError` and drops the mapping, counted once
        in ``sessions_lost`` (by the death-time purge or here, never
        both).  Returns ``(owner, 0, result)``, the shape of :meth:`_route`.
        """
        with self._lock:
            worker = self._workers.get(owner)
        try:
            if worker is None:
                raise SessionNotFoundError(session_id)
            try:
                fire("fleet.dispatch", worker=owner, session=True)
                result = call(worker)
            except (WorkerUnavailableError, InjectedFault) as error:
                self._on_worker_failure(owner, "dispatch_failed")
                raise SessionNotFoundError(session_id) from error
            except SessionNotFoundError as error:  # evicted replica-side: name the fleet id
                raise SessionNotFoundError(session_id) from error
        except SessionNotFoundError:
            with self._lock:
                lost = self._sessions.pop(session_id, None) is not None
            if lost:
                self._count("sessions_lost")
            raise
        self._touch(owner)
        return owner, 0, result

    @property
    def sessions(self):
        """Duck-type marker: the fleet always speaks the session API (the
        editor plugin checks ``backend.sessions is not None``)."""
        return self._sessions

    # -- liveness ------------------------------------------------------------

    def heartbeat_tick(self) -> list[str]:
        """Probe every replica; declare dead any past its heartbeat deadline.

        Returns the ids declared dead this tick.  A probe failure (dead
        process, injected ``fleet.heartbeat`` fault) does not refresh the
        replica's ``last_heartbeat``; the declaration happens only once
        the deadline lapses, so one lost probe under a generous timeout
        is survivable — exactly how production heartbeating behaves, and
        exactly testable under a :class:`~repro.faults.FakeClock`.

        With a :class:`~repro.obs.distributed.FleetCollector` attached,
        each successfully probed replica is also telemetry-polled on this
        tick — liveness and collection ride the same faults-clock cadence,
        so seeded chaos runs collect deterministically.
        """
        with self._lock:
            probes = list(self._workers.items())
        for worker_id, worker in probes:
            try:
                fire("fleet.heartbeat", worker=worker_id)
                worker.heartbeat()
            except (WorkerUnavailableError, InjectedFault, ServingError):
                self._count("heartbeat_misses")
            else:
                with self._lock:
                    if worker_id in self._workers:
                        self._last_heartbeat[worker_id] = clock.now()
                if self.collector is not None:
                    self.collector.poll(worker_id, worker)
        newly_dead: list[str] = []
        now = clock.now()
        with self._lock:
            for worker_id in list(self._workers):
                if now - self._last_heartbeat[worker_id] >= self.heartbeat_timeout_s:
                    self._mark_dead_locked(worker_id, "heartbeat_timeout")
                    newly_dead.append(worker_id)
            for worker_id in newly_dead:
                self._respawn_locked(worker_id)
        return newly_dead

    def start_heartbeats(self, interval_s: float = 1.0) -> None:
        """Run :meth:`heartbeat_tick` on a background thread (serve mode)."""
        if self._heartbeat_thread is not None:
            raise FleetError("heartbeat loop already running")
        self._heartbeat_stop.clear()

        def loop() -> None:
            while not self._heartbeat_stop.wait(interval_s):
                self.heartbeat_tick()

        self._heartbeat_thread = threading.Thread(target=loop, daemon=True)
        self._heartbeat_thread.start()

    def stop(self) -> None:
        """Stop heartbeats and every worker this router still holds."""
        if self._heartbeat_thread is not None:
            self._heartbeat_stop.set()
            self._heartbeat_thread.join(timeout=5)
            self._heartbeat_thread = None
        with self._lock:
            workers = list(self._workers.values())
        for worker in workers:
            stop = getattr(worker, "stop", None)
            if stop is not None:
                try:
                    stop()
                except Exception:
                    pass

    # -- introspection -------------------------------------------------------

    def health(self) -> dict:
        with self._lock:
            live = len(self._workers)
            dead = sorted(self._dead)
        return {
            "status": "ok" if live else "unavailable",
            "model": "fleet",
            "policy": self.policy,
            "live_workers": live,
            "dead_workers": dead,
        }

    def stats(self) -> dict:
        """Fleet-wide ``/v1/stats``: router counters, per-replica stats,
        and cross-replica aggregates (prefix-cache hit rate, decode
        tokens, resident KV bytes) a dashboard wants in one number.

        The router's numbers are read from its metrics registry, so this
        view, ``/v1/metrics`` and the Prometheus exposition cannot
        disagree."""
        with self._lock:
            report = {
                "policy": self.policy,
                "live_workers": sorted(self._workers),
                "dead_workers": dict(self._dead),
                "max_inflight": self.max_inflight,
                "inflight": int(self._g_inflight.value),
                "live_sessions": len(self._sessions),
            }
            workers = list(self._workers.items())
        report.update((key, counter.value) for key, counter in self._counters.items())
        per_worker: dict[str, dict] = {}
        aggregate = {
            "requests": 0,
            "decode_tokens": 0,
            "prefill_tokens": 0,
            "kv_arena_bytes_in_use": 0,
            "prefix_cache": {"hits": 0, "misses": 0, "tokens_reused": 0},
        }
        for worker_id, worker in workers:
            try:
                worker_stats = worker.stats()
            except (WorkerUnavailableError, ServingError):
                per_worker[worker_id] = {"status": "unreachable"}
                continue
            per_worker[worker_id] = worker_stats
            # `or 0` throughout: a replica may legitimately report None
            # for a counter it has no data for (fresh fleet, engine not
            # yet attached, all requests shed) — aggregate as zero rather
            # than poisoning the sums and the derived rates below.
            aggregate["requests"] += worker_stats.get("requests") or 0
            engine = worker_stats.get("engine") or {}
            aggregate["decode_tokens"] += engine.get("decode_tokens") or 0
            aggregate["prefill_tokens"] += engine.get("prefill_tokens") or 0
            aggregate["kv_arena_bytes_in_use"] += (engine.get("kv_arena") or {}).get(
                "bytes_in_use"
            ) or 0
            prefix = engine.get("prefix_cache") or {}
            for key in ("hits", "misses", "tokens_reused"):
                aggregate["prefix_cache"][key] += prefix.get(key) or 0
        scanned = aggregate["prefix_cache"]["hits"] + aggregate["prefix_cache"]["misses"]
        aggregate["prefix_cache"]["hit_rate"] = (
            aggregate["prefix_cache"]["hits"] / scanned if scanned else 0.0
        )
        # Token-weighted hit rate (the byte-hit-ratio of caching literature):
        # the fraction of prompt tokens served from cached K/V instead of
        # prefilled.  More honest than per-lookup hit_rate, which counts a
        # 3-token partial match the same as a 100-token playbook head.
        prompt_tokens = aggregate["prefill_tokens"] + aggregate["prefix_cache"]["tokens_reused"]
        aggregate["prefix_cache"]["token_reuse_rate"] = (
            aggregate["prefix_cache"]["tokens_reused"] / prompt_tokens if prompt_tokens else 0.0
        )
        report["aggregate"] = aggregate
        report["workers"] = per_worker
        return report

    def metrics(self) -> dict:
        """The fleet ``/v1/metrics`` payload: router registry + fleet stats."""
        tracer = self.obs.tracer
        return {
            "metrics": self.obs.metrics.snapshot(),
            "tracing": {
                "enabled": tracer.enabled,
                "spans_buffered": len(tracer),
                "spans_recorded": tracer.total_recorded,
            },
            "fleet": self.stats(),
        }

    def metrics_prometheus(self) -> str:
        """Prometheus text exposition of the router's own registry."""
        return prometheus_exposition(self.obs.metrics)

    def fleet_prometheus(self) -> str:
        """Fleet-wide exposition: every collected replica's samples under
        ``replica="<id>"`` labels plus the router's own under
        ``replica="router"``.  Falls back to the router's own exposition
        when no collector is attached."""
        if self.collector is None:
            return self.metrics_prometheus()
        return self.collector.merged_prometheus(extra={"router": self.metrics_prometheus()})

    def collect_telemetry(self) -> dict | None:
        """Force one collector poll of every live replica, outside the
        heartbeat cadence (e.g. a final drain before rendering a merged
        trace).  Returns the collector's stats, or None without one."""
        if self.collector is None:
            return None
        with self._lock:
            workers = list(self._workers.items())
        for worker_id, worker in workers:
            self.collector.poll(worker_id, worker)
        return self.collector.stats()

    def telemetry(self) -> dict:
        """The router's own ``/v1/telemetry`` drain (mirrors the service's).

        Contains the *router's* spans and exposition; per-replica
        telemetry lives in the attached collector (``collector`` key when
        one is present).
        """
        payload = {
            "spans": [span.to_dict() for span in self.obs.tracer.drain()],
            "metrics_prometheus": self.metrics_prometheus(),
            "profile": None,
        }
        if self.collector is not None:
            payload["collector"] = self.collector.stats()
        return payload
