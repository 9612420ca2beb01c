"""Fleet launcher: one router process in front of two replica processes.

Mirrors ``repro fleet serve``: :data:`WORKERS`
:class:`~repro.fleet.ProcessWorker` replicas built from :data:`SPEC`, a
:class:`~repro.fleet.FleetRouter` with heartbeats, and a
:class:`~repro.serving.RestServer` in front.  Once serving it prints one
JSON line ``{"url": ..., "pids": [router, replica, ...]}`` and runs until
SIGTERM (or until its parent dies).

With ``--trace-dir`` the router and every replica wrap the program's
public methods with :mod:`probes` shims before serving: the replicas start
through :func:`replica_main`.  Recording starts on SIGUSR1; at SIGTERM each
process writes its spans to a JSON file in the trace directory.  Without
it nothing is wrapped.

Run as ``python3 e2ebench/fleet.py [--trace-dir DIR]``.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import signal
import sys
import threading

import probes

#: Replica model: the 350M preset (dim 64, 2 layers, 4 heads) with its
#: 192-token window, seeded random weights (fixed, part of the system).
SPEC = {"seed": 0, "n_positions": 192, "dim": 64, "n_layers": 2, "n_heads": 4,
        "max_new_tokens": 64}
WORKERS = 2
POLICY = "affinity"
HEARTBEAT_TIMEOUT_S = 5.0


def _prompts(args, kwargs) -> dict:
    return {"rows": len(args[1])}


def _shape(args, kwargs) -> dict:
    ids = args[1]
    return {"rows": int(ids.shape[0]), "tokens": int(ids.shape[1])}


def install_router_probes(recorder: probes.Recorder) -> None:
    """Time every request entry point of the router and of its worker handles."""
    from repro.fleet import FleetRouter, ProcessWorker

    for owner in (FleetRouter, ProcessWorker):
        for attr in ("predict", "predict_batch", "session_create", "session_extend"):
            probes.wrap(recorder, owner, attr, attrs=probes.trace_id_of)
        probes.wrap(recorder, owner, "session_close")
        probes.wrap(recorder, owner, "predict_stream", attrs=probes.trace_id_of, generator=True)


def install_replica_probes(recorder: probes.Recorder, service, engine) -> None:
    """Time the service, session, engine, nn and tokenizer layers of one replica."""
    import repro.engine.batcher as batcher
    from repro.engine import InferenceEngine
    from repro.engine.batched_decode import DecodingBatch
    from repro.nn.kv_arena import KVCache
    from repro.nn.transformer import DecoderLM
    from repro.serving.service import PredictionService
    from repro.serving.session import SessionManager
    from repro.tokenizer.bpe import BpeTokenizer

    for attr in ("predict", "predict_batch", "session_create", "session_extend"):
        probes.wrap(recorder, PredictionService, attr, attrs=probes.trace_id_of)
    probes.wrap(recorder, PredictionService, "session_close")
    probes.wrap(
        recorder, PredictionService, "predict_stream", attrs=probes.trace_id_of, generator=True
    )
    probes.wrap(recorder, SessionManager, "create")
    probes.wrap(recorder, SessionManager, "extend")
    probes.wrap(recorder, InferenceEngine, "complete_batch_detailed")
    probes.wrap(recorder, InferenceEngine, "stream_ids", generator=True)
    probes.wrap(recorder, DecodingBatch, "admit_prompts", attrs=_prompts)
    probes.wrap(recorder, DecodingBatch, "step", attrs=lambda args, kwargs: {"rows": len(args[0])})
    probes.wrap(recorder, batcher, "prefill_single", name="batched_decode.prefill_single")
    probes.wrap(recorder, DecoderLM, "forward_incremental", attrs=_shape)
    probes.wrap(recorder, KVCache, "append")
    probes.wrap(recorder, BpeTokenizer, "encode")
    engine._lock = probes.TimedLock(engine._lock, recorder, "engine.lock_wait")
    if service.sessions is not None:
        service.sessions._lock = probes.TimedLock(
            service.sessions._lock, recorder, "session.lock_wait"
        )


def _watch_parent(stop: threading.Event, parent: int) -> None:
    """Block until ``stop`` is set or the process that started us is gone."""
    while not stop.wait(0.5):
        if os.getppid() != parent:
            return


def replica_main(spec, port_queue, *, trace_dir: str, parent: int) -> None:
    """Traced replica child entry: build the service, wrap it, serve REST.

    Stands in for ``repro.fleet.worker._process_worker_main``, so that the
    router's own :class:`~repro.fleet.ProcessWorker` starts it; it writes its
    spans to ``<trace_dir>/replica-<pid>.json`` when terminated.
    """
    from repro.fleet import build_service
    from repro.serving.service import RestServer

    recorder = probes.Recorder()
    service, engine = build_service(spec)
    install_replica_probes(recorder, service, engine)
    stop = threading.Event()
    signal.signal(signal.SIGUSR1, lambda *_: setattr(recorder, "enabled", True))
    signal.signal(signal.SIGTERM, lambda *_: stop.set())
    server = RestServer(service, host="127.0.0.1", port=0).start()
    port_queue.put(server.address[1])
    _watch_parent(stop, parent)
    recorder.dump(os.path.join(trace_dir, f"replica-{os.getpid()}.json"))
    os._exit(0)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--trace-dir", default=None)
    args = parser.parse_args(argv)

    import repro.fleet.worker as worker_module
    from repro.fleet import FleetRouter, ProcessWorker, WorkerSpec
    from repro.serving import RestServer

    spec = WorkerSpec(**SPEC)
    recorder = probes.Recorder()
    if args.trace_dir:
        install_router_probes(recorder)
        worker_module._process_worker_main = functools.partial(
            replica_main, trace_dir=args.trace_dir, parent=os.getpid()
        )

    def make(worker_id: str):
        return ProcessWorker(worker_id, spec).start()

    parent = os.getppid()
    stop = threading.Event()
    signal.signal(signal.SIGTERM, lambda *_: stop.set())
    signal.signal(signal.SIGUSR1, lambda *_: setattr(recorder, "enabled", True))
    workers = [make(f"w{index}") for index in range(WORKERS)]
    router = FleetRouter(
        workers, policy=POLICY, heartbeat_timeout_s=HEARTBEAT_TIMEOUT_S, spawner=make
    )
    router.start_heartbeats(interval_s=HEARTBEAT_TIMEOUT_S / 2.0)
    server = RestServer(router, host="127.0.0.1", port=0).start()
    pids = [os.getpid()] + [worker._process.pid for worker in workers]
    print(json.dumps({"url": server.url, "pids": pids}), flush=True)
    try:
        _watch_parent(stop, parent)
    finally:
        server.stop()
        router.stop()
        if args.trace_dir:
            recorder.dump(os.path.join(args.trace_dir, "router.json"))
    return 0


if __name__ == "__main__":
    sys.exit(main())
