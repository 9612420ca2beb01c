"""The repository's benchmark: one command, three workloads.

    python3 e2ebench/run.py --workload {keystroke,playbook_batch,pipeline}
                            --seed N --seconds S --trace {0,1}

Run from the root of a checkout.  ``--trace 0`` measures the end-to-end
metrics with nothing wrapped, timed ones at nominal host speed
(``calibrate.py``); ``--trace 1`` is a separate run that wraps the
program's public functions from outside and reports the per-layer
metrics.  Both check the program's outputs.  Human-readable lines come
first; the last line of standard output is one JSON object::

    {"correct": bool, "attempted": int, "failed": int,
     "metrics": {name: {"value": number, "unit": str}, ...}}

The exit status is 0 when every output check passed, 1 when one failed
(the JSON line is still printed), 2 when the run could not be made at
all: no program to measure, or no real-time priority for the host-speed
probe (``calibrate.py``).  See README.md in this directory for why each
workload exists.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import tempfile
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("keystroke", "playbook_batch", "pipeline")

#: End-to-end metrics: every workload reports each, with its own meaning
#: (README.md): time to first result, a throughput, set-up and memory.
END_TO_END = {
    "setup_s": "s",
    "ttft_ms_p50": "ms",
    "ttft_ms_p90": "ms",
    "throughput_per_s": "1/s",
    "peak_rss_mb": "MiB",
}


def _emit(correct: bool, attempted: int, failed: int, values: dict, units: dict) -> None:
    metrics = {name: {"value": float(values[name]), "unit": unit} for name, unit in units.items()}
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}), flush=True)


def _table(rows: dict, units: dict) -> None:
    for name, value in rows.items():
        print(f"  {name:<40} {value:>14.6g} {units.get(name, '')}")


def _named(title: str, named: dict) -> None:
    print(title)
    _table({name: value for name, (value, _) in named.items()},
           {name: unit for name, (_, unit) in named.items()})


def _serving(args, layers_module) -> tuple[bool, int, int, dict]:
    import serving

    result = serving.run(ROOT, args.workload, args.seed, args.seconds, bool(args.trace))
    ops = result["quiet_ops"] + result["ops"]
    counts = layers_module.op_counts(ops)
    print("operations (sent / failed) by kind:")
    for kind in layers_module.OP_KINDS:
        if counts[f"ops.{kind}.sent"]:
            print(f"  {kind:<16} {counts[f'ops.{kind}.sent']:>6} / {counts[f'ops.{kind}.failed']}")
    errors = sorted({op.error.split(":")[0] for op in ops if not op.ok})
    if errors:
        print("failure kinds:", ", ".join(errors))
    print("fleet /v1/stats deltas over the measured window:")
    _table(result["stats"], {})
    for problem in result["problems"]:
        print("CHECK FAILED:", problem)
    if args.trace:
        values = layers_module.serving_layers(result)
    else:
        values, named = serving.e2e_metrics(args.workload, result)
        setups = ", ".join(f"{t:.3f}" for t in serving.setup_times(result))
        _named(f"{args.workload} as measured (set-up runs: {setups} s):", named)
    failed = sum(1 for op in ops if not op.ok)
    return not result["problems"], len(ops), failed, values


def _pipeline(args, layers_module) -> tuple[bool, int, int, dict]:
    import pipeline

    outcome = pipeline.run(bool(args.trace))
    result = outcome["result"]
    print(f"pipeline outputs: {json.dumps(result['outputs'])}")
    for problem in outcome["problems"]:
        print("CHECK FAILED:", problem)
    if args.trace:
        values = layers_module.pipeline_layers(outcome)
    else:
        values, named = pipeline.e2e_metrics(outcome)
        setups = ", ".join(f"{t:.3f}" for t in outcome["setup_times"])
        _named(f"pipeline as measured (set-up runs: {setups} s):", named)
    attempted = result["train_steps"] + len(result["eval_latencies_s"])
    return not outcome["problems"], attempted, 0, values


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description="Run one benchmark workload.")
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "repro", "__init__.py")):
        print(f"error: no program to measure: {ROOT}/src/repro is missing", file=sys.stderr)
        return 2

    import env

    env.pin(ROOT)
    scratch = os.path.join(ROOT, ".bench_out")
    os.makedirs(scratch, exist_ok=True)
    tempfile.tempdir = os.environ["TMPDIR"] = scratch  # children inherit it
    import calibrate
    import layers

    print("env", json.dumps(env.fingerprint(ROOT), sort_keys=True))
    print(f"workload {args.workload} seed {args.seed} seconds {args.seconds:g} trace {args.trace}")
    started = time.perf_counter()
    runner = _pipeline if args.workload == "pipeline" else _serving
    try:
        correct, attempted, failed, values = runner(args, layers)
    except calibrate.Unmeasurable as error:
        print(f"error: {error}", file=sys.stderr)
        return 2
    print(f"run took {time.perf_counter() - started:.1f} s")
    if args.trace:
        units = layers.PER_LAYER
        values = {name: values.get(name, 0) for name in units}
        print("per-layer:")
        _table(values, units)
    else:
        units = END_TO_END
    _emit(correct, attempted, failed, values, units)
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
