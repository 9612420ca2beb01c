"""The ``pipeline`` workload: the paper's train-then-evaluate path, one process.

Set-up builds the pretraining corpora, the shared BPE tokenizer and the
fine-tune dataset.  The measured part pretrains one ``Wisdom-Ansible``
350M card, fine-tunes it, and scores a fixed test sample with the four
paper metrics.  The work and its inputs are fixed (corpora seed
:data:`DATA_SEED`), so the final losses and scores can be checked against
the stored reference in ``reference.json``.

``python3 e2ebench/pipeline.py --write-reference`` recomputes the
reference; do that only when the workload itself changes.
"""

from __future__ import annotations

import argparse
import json
import math
import functools
import os
import sys
import time

import calibrate
import env
import probes

#: Seed of the corpora, the initial weights and the training order.  It is
#: the same for every run: with the corpus drawn per run seed, eval latency
#: moved by a tenth to a fifth between seeds, from the inputs alone.
DATA_SEED = 0
CORPORA_SCALE = 0.0002
GALAXY_SCALE = 0.003
PRETRAIN_EPOCHS = 2
PRETRAIN_BATCHES = 8
PRETRAIN_LR = 2e-3
FINETUNE_EPOCHS = 2
FINETUNE_SAMPLES = 128
FINETUNE_LR = 3e-3
VALIDATION_SUBSET = 6
EVAL_SAMPLES = 100
EVAL_TOKENS = 32
EVAL_REPEATS = 5
SETUP_REPEATS = 5
CARD = "Wisdom-Ansible"

#: Stored-reference tolerances: relative for losses (float32 training
#: reordered by a faster kernel drifts far less), absolute score points.
LOSS_RTOL = 1e-3
SCORE_ATOL = 2.0

REFERENCE = os.path.join(os.path.dirname(os.path.abspath(__file__)), "reference.json")


def build_inputs() -> dict:
    """Corpora, tokenizer and fine-tune dataset."""
    from repro.dataset import build_finetune_dataset, build_galaxy_corpus, split_corpus
    from repro.model import build_default_corpora, build_tokenizer
    from repro.utils.rng import SeededRng

    rng = SeededRng(DATA_SEED)
    corpora = build_default_corpora(rng.child("pretrain"), scale=CORPORA_SCALE)
    tokenizer = build_tokenizer(corpora)
    galaxy = build_galaxy_corpus(rng.child("galaxy"), scale=GALAXY_SCALE)
    splits = split_corpus(galaxy, rng.child("split"))
    dataset = build_finetune_dataset(splits.train, splits.validation, splits.test)
    return {"corpora": corpora, "tokenizer": tokenizer, "dataset": dataset}


def _kernel_mark(sink: list, tokens: int = 0) -> None:
    """Time one ``matmul`` kernel; append ``(start, end, tokens)``."""
    started = time.perf_counter()
    calibrate.KERNELS["matmul"]()
    sink.append((started, time.perf_counter(), tokens))


def _counting(method, sink: list):
    """Instance-level shim on ``loss_and_backward``: before each training
    step, that is after the last step's update and this step's batching,
    times one ``matmul`` kernel (:func:`_kernel_mark`) with the step's
    target tokens."""
    def shim(ids, targets, ignore_index=-1):
        _kernel_mark(sink, int((targets != ignore_index).sum()))
        return method(ids, targets, ignore_index)
    return shim


def nominal_seconds(marks: list[tuple]) -> float:
    """Wall time between consecutive kernel marks, each stretch taken to
    nominal host speed by the kernels on either side of it."""
    return sum((after[0] - before[1])
               * calibrate.to_nominal("matmul", [before[1] - before[0], after[1] - after[0]])
               for before, after in zip(marks, marks[1:]))


def sample_latencies(model, samples: list, report) -> tuple[list[float], list[float], bool]:
    """Score each eval sample alone, :data:`EVAL_REPEATS` times.

    One ``evaluate`` call over one sample is that sample's whole loop body:
    completion, truncation, snippet and the four metrics.  A ``decode``
    kernel runs between calls, and each call is taken to nominal host speed
    by the kernels on either side.  Returns each sample's latency (median of
    its passes) at nominal speed and as measured, and whether every call
    scored its sample as ``report``, the full pass, did.
    """
    from repro.eval import evaluate

    nominal: list[list[float]] = [[] for _ in samples]
    measured: list[list[float]] = [[] for _ in samples]
    agree = True
    kernel = calibrate.kernel_s("decode")
    for _ in range(EVAL_REPEATS):
        for index, sample in enumerate(samples):
            started = time.perf_counter()
            alone = evaluate(model, [sample], max_new_tokens=EVAL_TOKENS)
            seconds = time.perf_counter() - started
            after = calibrate.kernel_s("decode")
            nominal[index].append(seconds * calibrate.to_nominal("decode", [kernel, after]))
            measured[index].append(seconds)
            kernel = after
            agree = agree and alone.samples == report.samples[index:index + 1]
    return ([probes.median(times) for times in nominal],
            [probes.median(times) for times in measured], agree)


def run_pipeline(inputs: dict) -> dict:
    """Pretrain, fine-tune and evaluate; returns stage times and outputs.

    Training throughput is the target tokens of every step over the
    pretrain and fine-tune wall time (batching, clipping, Adam and
    validation included, the kernels left out), each stretch between two
    kernels taken to nominal host speed by those two.  Then
    :func:`sample_latencies` times the eval sample once more, sample by
    sample.
    """
    from repro.eval import evaluate
    from repro.model import CARDS_BY_NAME, transformer_config
    from repro.model.lm import WisdomModel
    from repro.nn.parameter import numpy_rng
    from repro.nn.transformer import DecoderLM
    from repro.training import finetune, pretrain
    from repro.utils.rng import derive_seed

    card = CARDS_BY_NAME[CARD]
    tokenizer, dataset = inputs["tokenizer"], inputs["dataset"]
    network = DecoderLM(
        transformer_config(tokenizer.vocab_size, card.size, card.context_window),
        numpy_rng(derive_seed(DATA_SEED, "init", card.name)),
    )
    marks: list[tuple] = []
    network.loss_and_backward = _counting(network.loss_and_backward, marks)
    model = WisdomModel(card.name, tokenizer, network, card.size.label, card.context_window)

    _kernel_mark(marks)
    started = marks[0][1]
    pretrained = pretrain(
        network, inputs["corpora"].for_card(card, warm_start=False), tokenizer,
        epochs=PRETRAIN_EPOCHS, learning_rate=PRETRAIN_LR,
        seed=derive_seed(DATA_SEED, "pretrain", card.name),
        max_batches_per_epoch=PRETRAIN_BATCHES,
    )
    pretrain_done, pretrain_steps = time.perf_counter(), len(marks) - 1
    tuned = finetune(
        model, dataset.train[:FINETUNE_SAMPLES], dataset.validation,
        epochs=FINETUNE_EPOCHS, learning_rate=FINETUNE_LR, seed=DATA_SEED,
        validation_subset=VALIDATION_SUBSET,
    )
    _kernel_mark(marks)
    train_done, eval_started = marks[-1][:2]
    report = evaluate(model, dataset.test, max_samples=EVAL_SAMPLES, max_new_tokens=EVAL_TOKENS)
    finished = time.perf_counter()
    latencies, raw_latencies, agree = sample_latencies(
        model, dataset.test[:EVAL_SAMPLES], report)
    kernels_s = sum(end - start for start, end, _ in marks[1:-1])
    pretrain_kernels_s = sum(end - start for start, end, _ in marks[1:1 + pretrain_steps])
    train_tokens = sum(tokens for _, _, tokens in marks)
    nominal_train_s = nominal_seconds(marks)
    train_s = train_done - started - kernels_s
    return {
        "pipeline_s": train_s + finished - eval_started,
        "train_s": train_s,
        "pretrain_s": pretrain_done - started - pretrain_kernels_s,
        "finetune_s": train_done - pretrain_done - (kernels_s - pretrain_kernels_s),
        "eval_s": finished - eval_started,
        "calibration_s": kernels_s,
        "train_tokens": train_tokens,
        "train_steps": len(marks) - 2,
        "train_tokens_per_s": train_tokens / nominal_train_s,
        "eval_latencies_s": latencies,
        "raw_eval_latencies_s": raw_latencies,
        "host_speed": nominal_train_s / train_s,
        "nominal_pipeline_s": nominal_train_s + sum(latencies),
        "eval_repeats_agree": agree,
        "outputs": {
            "pretrain_loss": pretrained.final_loss,
            "finetune_loss": tuned.final_loss,
            "eval_count": report.count,
            "schema_correct": report.schema_correct,
            "exact_match": report.exact_match,
            "bleu": report.bleu,
            "ansible_aware": report.ansible_aware,
        },
    }


def check_result(result: dict) -> list[str]:
    """Problems with one run: outputs off the reference, repeated scoring
    that disagrees, or training that the throughput cannot be taken from."""
    problems = check_outputs(result["outputs"])
    if not result["eval_repeats_agree"]:
        problems.append("scoring a sample alone differed from the full evaluation pass")
    if not result["train_steps"]:
        problems.append("no training step reached DecoderLM.loss_and_backward: "
                        "training throughput cannot be measured")
    return problems


def check_outputs(outputs: dict) -> list[str]:
    """Compare one run's losses and scores against the stored reference."""
    with open(REFERENCE, encoding="utf-8") as handle:
        expected = json.load(handle)
    problems = []
    for key in ("pretrain_loss", "finetune_loss"):
        if not math.isclose(outputs[key], expected[key], rel_tol=LOSS_RTOL):
            problems.append(f"{key} {outputs[key]!r} != reference {expected[key]!r}")
    if outputs["eval_count"] != expected["eval_count"]:
        problems.append(f"eval_count {outputs['eval_count']} != {expected['eval_count']}")
    for key in ("schema_correct", "exact_match", "bleu", "ansible_aware"):
        if abs(outputs[key] - expected[key]) > SCORE_ATOL:
            problems.append(f"{key} {outputs[key]!r} != reference {expected[key]!r}")
    return problems


def install_probes(recorder: probes.Recorder) -> None:
    """Time the training, nn, tokenizer, dataset, eval and metric layers."""
    import repro.dataset as dataset
    import repro.eval as evaluation
    import repro.model as model
    import repro.model.lm as lm
    import repro.nn.attention as attention
    import repro.nn.transformer as transformer
    import repro.training as training
    from repro.metrics.report import EvalReport
    from repro.nn.optim import Adam
    from repro.tokenizer.bpe import BpeTokenizer

    finetune_module = sys.modules["repro.training.finetune"]
    wrap = functools.partial(probes.wrap, recorder)
    wrap(model, "build_default_corpora", name="dataset.build_default_corpora")
    wrap(dataset, "build_galaxy_corpus", name="dataset.build_galaxy_corpus")
    wrap(dataset, "split_corpus", name="dataset.split_corpus")
    wrap(dataset, "build_finetune_dataset", name="dataset.build_finetune_dataset")
    wrap(BpeTokenizer, "train")
    wrap(BpeTokenizer, "encode")
    wrap(training, "pretrain", name="training.pretrain")
    wrap(training, "finetune", name="training.finetune")
    wrap(finetune_module, "validation_bleu", name="training.validation_bleu")
    wrap(transformer.DecoderLM, "loss_and_backward")
    wrap(attention.CausalSelfAttention, "backward")
    wrap(Adam, "step")
    wrap(attention, "softmax", name="nn.softmax")
    wrap(attention, "softmax_inplace", name="nn.softmax")
    wrap(transformer, "cross_entropy", name="nn.cross_entropy")
    wrap(transformer, "gelu", name="nn.gelu")
    wrap(evaluation, "evaluate", name="eval.evaluate")
    wrap(lm.WisdomModel, "complete")
    wrap(lm, "generate_greedy", name="sampling.generate_greedy",
         after=lambda result: {"tokens": len(result.token_ids)})
    wrap(EvalReport, "add")


def run(trace: bool) -> dict:
    """One run of the workload; with ``trace`` an untraced then a traced pass."""
    inputs, setup_s, setup_times = measure_setup()
    result = run_pipeline(inputs)
    problems = check_result(result)
    # The full pass, then each sample alone once per repeat.
    outcome = {"setup_s": setup_s, "setup_times": setup_times, "result": result,
               "problems": problems, "eval_passes": 1 + EVAL_REPEATS}
    if trace:
        recorder = probes.Recorder()
        install_probes(recorder)
        recorder.enabled = True
        traced = run_pipeline(build_inputs())
        recorder.enabled = False
        problems.extend(check_result(traced))
        outcome.update(traced=traced, spans=recorder.spans)
    return outcome


def peak_rss_mb() -> float:
    with open("/proc/self/status", encoding="ascii") as status:
        for line in status:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError("no VmHWM in /proc/self/status")


def measure_setup() -> tuple[dict, list[float], list[float]]:
    """Build the inputs :data:`SETUP_REPEATS` times, with the host-speed probe
    running; returns the last inputs and each build's seconds, at nominal
    host speed and as measured."""
    spans, inputs = [], None
    probe = calibrate.SpeedProbe()
    try:
        for _ in range(SETUP_REPEATS):
            started = time.perf_counter()
            inputs = build_inputs()
            spans.append((started, time.perf_counter()))
        speed = probe.stop()
    except BaseException:
        probe.kill()
        raise
    return inputs, [(end - start) * calibrate.factor_within(speed, start, end)
                    for start, end in spans], [end - start for start, end in spans]


def e2e_metrics(outcome: dict) -> tuple[dict, dict]:
    """The end-to-end metrics of one untraced run, at nominal host speed, and
    the pipeline's own names for its numbers (as measured) with units."""
    result = outcome["result"]
    latencies = [seconds * 1000.0 for seconds in result["eval_latencies_s"]]
    raw_latencies = [seconds * 1000.0 for seconds in result["raw_eval_latencies_s"]]
    values = {
        "setup_s": probes.median(outcome["setup_s"]),
        "ttft_ms_p50": probes.quantile(latencies, 0.5),
        "ttft_ms_p90": probes.quantile(latencies, 0.9),
        "throughput_per_s": result["train_tokens_per_s"],
        "peak_rss_mb": peak_rss_mb(),
    }
    named = {
        "pipeline_s": (result["pipeline_s"], "s"),
        "pretrain_s": (result["pretrain_s"], "s"),
        "finetune_s": (result["finetune_s"], "s"),
        "eval_s": (result["eval_s"], "s"),
        "train_tokens_per_s": (result["train_tokens"] / result["train_s"], "tok/s"),
        "eval_sample_ms_p50": (probes.quantile(raw_latencies, 0.5), "ms"),
        "eval_sample_ms_p90": (probes.quantile(raw_latencies, 0.9), "ms"),
        "setup_s": (probes.median(outcome["setup_times"]), "s"),
        "host_speed": (result["host_speed"], "x nominal, in training"),
        "peak_rss_mb": (values["peak_rss_mb"], "MiB"),
    }
    return values, named


def write_reference() -> None:
    result = run_pipeline(build_inputs())
    print(json.dumps(result["outputs"]), f"{result['pipeline_s']:.1f}s", flush=True)
    with open(REFERENCE, "w", encoding="utf-8") as handle:
        json.dump(result["outputs"], handle, indent=1, sort_keys=True)
        handle.write("\n")


if __name__ == "__main__":
    parser = argparse.ArgumentParser(description="Recompute the pipeline references.")
    parser.add_argument("--write-reference", action="store_true", required=True)
    parser.parse_args()
    env.pin(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
    write_reference()
