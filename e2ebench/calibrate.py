"""Host-speed calibration: frozen reference kernels timed beside the work.

The benchmark runs on shared VMs whose speed swings by up to 2x within
seconds, from load outside the VM, for every process on it alike.  A fixed
kernel timed next to the work slows by the same factor, so the time the
work would take on a host where the kernel takes :data:`NOMINAL_S` is::

    raw_seconds * NOMINAL_S[kind] / kernel_seconds

Every timed end-to-end number is reported at that nominal host speed; the
raw numbers are printed beside them.  The kernels are benchmark code, so a
change to the program moves the work and never the reference.  Two
kernels, because they track different work: ``decode`` is a Python loop of
small numpy operations, as in incremental decoding, tokenising and request
handling; ``matmul`` is a dense forward and backward chain, as in a
training step.

Where the work cannot be interleaved with a kernel (set-up, a fleet of
processes), :class:`SpeedProbe` runs this module as a process that times
one ``decode`` kernel every :data:`PROBE_INTERVAL_S`, on each core in
turn, at real-time priority so that it never waits for a core the
benchmark's own processes hold; without that priority there is no run.
For each kernel it keeps the wall time plus how late the probe woke for
it, and the thread CPU time.  A factor from the former scales wall-clock
numbers: it takes the mean, so that
time the host takes the VM's cores away (steal) and the delay in waking
an idle core, which a request crossing several processes pays at every
hop, count as they do for the work.  A factor from CPU time scales
numbers counted in CPU seconds, which neither inflates.
"""

from __future__ import annotations

import json
import os
import signal
import statistics
import subprocess
import sys
import threading
import time

import numpy as np

#: Seconds one call of each kernel takes on the reference host (a 2-core
#: x86 VM at its faster speed).  Only the ratio to a measurement matters.
NOMINAL_S = {"decode": 0.002, "matmul": 0.007}
PROBE_INTERVAL_S = 0.1

_DIM = 64
_VOCAB = 512
_DECODE_STEPS = 16
_rng = np.random.default_rng(20231017)
_LAYERS = [[(_rng.standard_normal((_DIM, _DIM)) * 0.1).astype(np.float32) for _ in range(6)]
           for _ in range(2)]
_EMBED = _rng.standard_normal((_VOCAB, _DIM)).astype(np.float32)
_ROWS = _rng.standard_normal((2048, _DIM)).astype(np.float32)
_UP = (_rng.standard_normal((_DIM, 4 * _DIM)) * 0.1).astype(np.float32)
_DOWN = (_rng.standard_normal((4 * _DIM, _DIM)) * 0.1).astype(np.float32)


def _decode() -> float:
    """Greedy decode of a two-layer toy transformer, one token at a time."""
    token = 1
    caches: list[list] = [[], []]
    for _ in range(_DECODE_STEPS):
        hidden = _EMBED[token]
        for (wq, wk, wv, wo, w1, w2), cache in zip(_LAYERS, caches):
            cache.append((hidden @ wk, hidden @ wv))
            keys = np.stack([key for key, _ in cache])
            values = np.stack([value for _, value in cache])
            scores = keys @ (hidden @ wq) / 8.0
            weights = np.exp(scores - scores.max())
            hidden = hidden + (weights / weights.sum()) @ values @ wo
            hidden = hidden + np.maximum(hidden @ w1, 0.0) @ w2
            hidden = (hidden - hidden.mean()) / (hidden.std() + 1e-5)
        token = int(np.argmax(_EMBED @ hidden))
    return float(token)


def _matmul() -> float:
    """One dense layer's forward and backward pass with a softmax."""
    hidden = np.maximum(_ROWS @ _UP, 0.0)
    out = hidden @ _DOWN
    grad = ((out - _ROWS) @ _DOWN.T) * (hidden > 0)
    grad_up = _ROWS.T @ grad
    probs = np.exp(out - out.max(axis=1, keepdims=True))
    probs /= probs.sum(axis=1, keepdims=True)
    return float(grad_up.sum() + probs.sum())


KERNELS = {"decode": _decode, "matmul": _matmul}


def kernel_s(kind: str) -> float:
    """Wall seconds of one call of kernel ``kind``."""
    started = time.perf_counter()
    KERNELS[kind]()
    return time.perf_counter() - started


def to_nominal(kind: str, seconds: list[float]) -> float:
    """Factor taking a time measured beside kernel ``kind`` timings of
    ``seconds`` (their mean) to nominal host speed; below 1 on a slow host."""
    return NOMINAL_S[kind] / statistics.mean(seconds)


def factor_within(samples: list[list[float]], start: float, end: float, cpu: bool = False) -> float:
    """Factor to nominal host speed from the probe's wall (or ``cpu``) timings
    taken between the ``time.perf_counter`` moments ``start`` and ``end``."""
    inside = [thread if cpu else wall + late
              for moment, wall, thread, late in samples if start <= moment < end]
    if not inside:
        raise RuntimeError(f"the host-speed probe took no timing in {end - start:.3f} s")
    return to_nominal("decode", inside)


class Unmeasurable(RuntimeError):
    """The host cannot give a calibrated run; no result may be reported."""


class SpeedProbe:
    """This module run as a process beside the work, timing the ``decode``
    kernel until :meth:`stop`; callers :meth:`kill` it on error paths.

    Raises :class:`Unmeasurable` when the probe cannot run at real-time
    priority (it needs ``CAP_SYS_NICE``): under the normal scheduler it
    would share the cores with the work, and its timings would slow with
    the work's own load, scaling a slower program's regression away.
    """

    def __init__(self) -> None:
        self.process = subprocess.Popen(
            [sys.executable, os.path.abspath(__file__)], stdout=subprocess.PIPE, text=True
        )
        status = self.process.stdout.readline().strip()
        if status != "ready":
            self.kill()
            if status.startswith("no real-time priority"):
                raise Unmeasurable(f"host-speed probe: {status}")
            raise RuntimeError("host-speed probe did not start")

    def stop(self) -> list[list[float]]:
        """``[[time.perf_counter moment, kernel wall seconds, kernel CPU
        seconds, wake-up lateness seconds], ...]`` since start."""
        self.process.send_signal(signal.SIGTERM)
        out, _ = self.process.communicate(timeout=30)
        return json.loads(out.strip().splitlines()[-1])

    def kill(self) -> None:
        if self.process.poll() is None:
            self.process.kill()
        self.process.communicate(timeout=30)


def probe_main() -> int:
    stop = threading.Event()
    signal.signal(signal.SIGTERM, lambda *_: stop.set())
    parent = os.getppid()
    try:
        os.sched_setscheduler(0, os.SCHED_FIFO, os.sched_param(1))
    except OSError as error:
        print(f"no real-time priority: {error}", flush=True)
        return 1
    cores = sorted(os.sched_getaffinity(0))
    samples = []
    print("ready", flush=True)
    while True:
        os.sched_setaffinity(0, {cores[len(samples) % len(cores)]})
        due = time.perf_counter() + PROBE_INTERVAL_S
        if stop.wait(PROBE_INTERVAL_S) or os.getppid() != parent:
            break
        started, cpu = time.perf_counter(), time.thread_time()
        _decode()
        ended, cpu = time.perf_counter(), time.thread_time() - cpu
        samples.append([(started + ended) / 2.0, ended - started, cpu, started - due])
    print(json.dumps(samples), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(probe_main())
