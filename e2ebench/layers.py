"""Per-layer metrics from a traced run: spans, fleet counters and op counts.

Every workload reports every name in :data:`PER_LAYER`; a layer the
workload never enters reads 0 (no calls, no time).  Self times and
durations come from :mod:`probes` spans, counts from ``/v1/stats``
deltas or the load generator's own tally.
"""

from __future__ import annotations

import glob
import json
import os

from calibrate import factor_within
from probes import by_name, median, quantile

OP_KINDS = ("session_create", "session_extend", "session_close", "stream", "completion",
            "batch", "train_step", "eval_sample")

#: Every per-layer metric, with its unit.
PER_LAYER: dict[str, str] = {
    # serving path, client -> router -> replica
    "serving.http.router_ms_p50": "ms",
    "fleet.router.self_ms_p50": "ms",
    "fleet.worker.hop_ms_p50": "ms",
    "fleet.affinity.prefix_reuse_share": "fraction",
    "fleet.router.failed_ops": "count",
    "fleet.router.sessions_lost": "count",
    "fleet.router.spills": "count",
    "serving.service.self_ms_p50": "ms",
    "serving.service.cache_hits": "count",
    "serving.session.create_ms_p50": "ms",
    "serving.session.extend_ms_p50": "ms",
    "serving.session.reused_share": "fraction",
    "serving.stream.first_event_ms_p50": "ms",
    "engine.queue_wait_ms_p99": "ms",
    "engine.prefill_ms_p50": "ms",
    "engine.prefill_tokens": "count",
    "engine.decode_step_ms_p50": "ms",
    "engine.rows_per_step_mean": "rows",
    "engine.decode_tokens": "count",
    "engine.prefix_cache.hit_share": "fraction",
    "nn.forward_incremental_ms_p50": "ms",
    "nn.kv_arena.append_s": "s",
    "nn.kv_arena.reserved_over_used": "ratio",
    "tokenizer.encode_ms_p50": "ms",
    # training and evaluation path
    "nn.loss_and_backward_ms_p50": "ms",
    "nn.attention.backward_s": "s",
    "nn.optim.adam_step_s": "s",
    "nn.softmax_s": "s",
    "nn.cross_entropy_s": "s",
    "nn.gelu_s": "s",
    "tokenizer.train_s": "s",
    "dataset.build_s": "s",
    "training.pretrain_s": "s",
    "training.finetune_s": "s",
    "training.validation_s": "s",
    "eval.complete_ms_p50": "ms",
    "eval.generated_tokens": "count",
    "metrics.score_ms_p50": "ms",
    # fleet counter deltas over the measured window
    "stats.prefill_tokens": "count",
    "stats.decode_tokens": "count",
    "stats.prefix_cache.hits": "count",
    "stats.prefix_cache.tokens_reused": "count",
    "stats.session.reused_tokens": "count",
    "stats.session.prefilled_tokens": "count",
    "stats.shed": "count",
    "stats.spills": "count",
    "stats.failovers": "count",
    "stats.cache_hits": "count",
    "stats.arena.bytes_reserved": "bytes",
    "stats.arena.bytes_in_use": "bytes",
    # load generator
    "loadgen.lateness_ms_p90": "ms",
    # trace accounting
    "trace.closure_share": "fraction",
    "trace.overhead_share": "fraction",
}
for _kind in OP_KINDS:
    PER_LAYER[f"ops.{_kind}.sent"] = "count"
    PER_LAYER[f"ops.{_kind}.failed"] = "count"


def _ms(seconds: list[float], q: float = 0.5) -> float:
    return quantile(seconds, q) * 1000.0


def _durations(spans: list[list]) -> list[float]:
    return [span[1] for span in spans]


def op_counts(ops) -> dict:
    counts = {}
    for kind in OP_KINDS:
        mine = [op for op in ops if op.kind == kind]
        counts[f"ops.{kind}.sent"] = len(mine)
        counts[f"ops.{kind}.failed"] = sum(1 for op in mine if not op.ok)
    return counts


def _share(part: float, whole: float) -> float:
    return part / whole if whole else 0.0


def serving_layers(result: dict) -> dict:
    """Per-layer metrics of one traced serving run (see ``serving.run``)."""
    trace_dir = result["trace_dir"]
    with open(os.path.join(trace_dir, "router.json"), encoding="utf-8") as handle:
        router = json.load(handle)
    replica: list[list] = []
    for path in sorted(glob.glob(os.path.join(trace_dir, "replica-*.json"))):
        with open(path, encoding="utf-8") as handle:
            replica.extend(json.load(handle))

    def by_trace(spans: list[list], prefix: str) -> dict[str, list[list]]:
        table: dict[str, list[list]] = {}
        for span in spans:
            trace = (span[4] or {}).get("trace")
            if span[0].startswith(prefix) and trace:
                table.setdefault(trace, []).append(span)
        return table

    routed = by_trace(router, "FleetRouter.")
    handles = by_trace(router, "ProcessWorker.")
    served = by_trace(replica, "PredictionService.")
    ops = result["ops"]
    http, hops, inside, rtt = [], [], 0.0, 0.0
    for op in ops:
        rtt += op.rtt_ms / 1000.0
        if op.trace not in routed:
            continue
        router_span = routed[op.trace][0]
        http.append(op.rtt_ms / 1000.0 - router_span[1])
        service = sum(span[1] for span in served.get(op.trace, ()))
        if op.trace in handles and op.trace in served:
            hops.append(sum(span[1] for span in handles[op.trace]) - service)
        inside += router_span[2] + service

    names = by_name(replica)
    router_names = by_name(router)
    prefill = names.get("DecodingBatch.admit_prompts", []) + names.get(
        "batched_decode.prefill_single", []) + [
        span for span in names.get("DecoderLM.forward_incremental", [])
        if span[3].rsplit("/", 1)[-1].startswith("SessionManager.") and span[4]["tokens"] > 1
    ]
    steps = names.get("DecodingBatch.step", [])
    waits = names.get("engine.lock_wait", []) + names.get("session.lock_wait", [])
    streams = [span[4]["first_event_s"] for span in names.get("PredictionService.predict_stream", [])
               if "first_event_s" in (span[4] or {})]
    stats = result["stats"]

    def nominal_rtt_ms(window: dict, window_ops) -> float:
        """Median round trip of a window's good ops, at nominal host speed."""
        factor = factor_within(result["speed"], window["start"],
                               window["start"] + window["seconds"])
        return median([op.rtt_ms for op in window_ops if op.ok]) * factor

    quiet = nominal_rtt_ms(result["quiet_window"], result["quiet_ops"])
    loud = nominal_rtt_ms(result["window"], ops)
    layers = {
        "serving.http.router_ms_p50": _ms(http),
        "fleet.router.self_ms_p50": _ms([span[2] for name, spans in router_names.items()
                                         if name.startswith("FleetRouter.") for span in spans]),
        "fleet.worker.hop_ms_p50": _ms(hops),
        "fleet.affinity.prefix_reuse_share": _share(
            stats["stats.prefix_cache.tokens_reused"],
            stats["stats.prefix_cache.tokens_reused"] + stats["stats.prefill_tokens"]),
        "fleet.router.failed_ops": sum(1 for op in result["quiet_ops"] + ops if not op.ok),
        "fleet.router.sessions_lost": stats["stats.sessions_lost"],
        "fleet.router.spills": stats["stats.spills"],
        "serving.service.self_ms_p50": _ms([span[2] for name, spans in names.items()
                                            if name.startswith("PredictionService.")
                                            for span in spans]),
        "serving.service.cache_hits": stats["stats.cache_hits"],
        "serving.session.create_ms_p50": _ms(_durations(names.get("SessionManager.create", []))),
        "serving.session.extend_ms_p50": _ms(_durations(names.get("SessionManager.extend", []))),
        "serving.session.reused_share": _share(
            stats["stats.session.reused_tokens"],
            stats["stats.session.reused_tokens"] + stats["stats.session.prefilled_tokens"]),
        "serving.stream.first_event_ms_p50": _ms(streams),
        "engine.queue_wait_ms_p99": _ms(_durations(waits), 0.99),
        "engine.prefill_ms_p50": _ms(_durations(prefill)),
        "engine.prefill_tokens": stats["stats.prefill_tokens"]
        + stats["stats.session.prefilled_tokens"],
        "engine.decode_step_ms_p50": _ms(_durations(steps)),
        "engine.rows_per_step_mean": _share(sum(span[4]["rows"] for span in steps), len(steps)),
        "engine.decode_tokens": stats["stats.decode_tokens"] + stats["stats.session.decode_tokens"],
        "engine.prefix_cache.hit_share": _share(stats["stats.prefix_cache.hits"],
                                                stats["stats.prefix_cache.lookups"]),
        "nn.forward_incremental_ms_p50": _ms(_durations(names.get("DecoderLM.forward_incremental", []))),
        "nn.kv_arena.append_s": sum(_durations(names.get("KVCache.append", []))),
        "nn.kv_arena.reserved_over_used": _share(stats["stats.arena.bytes_reserved"],
                                                 stats["stats.arena.peak_bytes_in_use"]),
        "tokenizer.encode_ms_p50": _ms(_durations(names.get("BpeTokenizer.encode", []))),
        "loadgen.lateness_ms_p90": quantile([(op.sent - op.due) * 1000.0 for op in ops], 0.9),
        "trace.closure_share": _share(inside, rtt),
        "trace.overhead_share": _share(loud - quiet, quiet),
    }
    layers.update({key: value for key, value in stats.items() if key in PER_LAYER})
    layers.update(op_counts(result["quiet_ops"] + ops))
    return layers


def pipeline_layers(outcome: dict) -> dict:
    """Per-layer metrics of one traced pipeline run (see ``pipeline.run``)."""
    names = by_name(outcome["spans"])
    traced, quiet = outcome["traced"], outcome["result"]
    passes = outcome["eval_passes"]

    def total(*labels: str) -> float:
        return sum(span[1] for label in labels for span in names.get(label, []))

    # The first evaluation is the pipeline's full pass; the rest time latency.
    stages = total("training.pretrain", "training.finetune") + names["eval.evaluate"][0][1]
    steps = len(names.get("DecoderLM.loss_and_backward", []))
    layers = {
        "nn.loss_and_backward_ms_p50": _ms(_durations(names.get("DecoderLM.loss_and_backward", []))),
        "nn.attention.backward_s": total("CausalSelfAttention.backward"),
        "nn.optim.adam_step_s": total("Adam.step"),
        "nn.softmax_s": total("nn.softmax"),
        "nn.cross_entropy_s": total("nn.cross_entropy"),
        "nn.gelu_s": total("nn.gelu"),
        "tokenizer.train_s": total("BpeTokenizer.train"),
        "tokenizer.encode_ms_p50": _ms(_durations(names.get("BpeTokenizer.encode", []))),
        "dataset.build_s": total("dataset.build_default_corpora", "dataset.build_galaxy_corpus",
                                 "dataset.split_corpus", "dataset.build_finetune_dataset"),
        "training.pretrain_s": total("training.pretrain"),
        "training.finetune_s": total("training.finetune"),
        "training.validation_s": total("training.validation_bleu"),
        "eval.complete_ms_p50": _ms(_durations(
            [span for span in names.get("WisdomModel.complete", [])
             if span[3].endswith("eval.evaluate")])),
        "eval.generated_tokens": sum(span[4]["tokens"] for span in
                                     names.get("sampling.generate_greedy", [])
                                     if "eval.evaluate/" in span[3]) / passes,
        "metrics.score_ms_p50": _ms(_durations(names.get("EvalReport.add", []))),
        # The calibration kernels run inside the stage spans, outside pipeline_s.
        "trace.closure_share": _share(stages - traced["calibration_s"], traced["pipeline_s"]),
        "trace.overhead_share": _share(traced["nominal_pipeline_s"] - quiet["nominal_pipeline_s"],
                                       quiet["nominal_pipeline_s"]),
        "ops.train_step.sent": steps,
        "ops.eval_sample.sent": traced["outputs"]["eval_count"],
    }
    return layers
