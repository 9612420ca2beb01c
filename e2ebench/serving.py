"""The two serving workloads, run against one launched fleet each.

``keystroke``      open loop: editor users on shared playbook heads open a
                   session, extend it one typed task line at a time, close
                   it; plus one-shot streamed and plain completions.
``playbook_batch`` closed loop: clients each send batches of distinct
                   one-shot prompts and wait for the answer.

The load generator is this process: at most :data:`LANES` threads, each
with one request in flight at a time.  Every operation sent is counted,
and a failed one is never retried in place: a session extend answered
404 is counted failed and followed by a fresh create, as the editor
plugin does.
"""

from __future__ import annotations

import json
import os
import random
import select
import signal
import subprocess
import sys
import tempfile
import threading
import time
import urllib.request

import calibrate
import probes
from fleet import SPEC

LANES = 2
SETUP_REPEATS = 3
WARMUP_S = 1.5
#: The measured window is cut into this many equal slices, each with its
#: own factor to nominal host speed; throughput is the median of theirs.
SUBWINDOWS = 10

KEYSTROKE_RATE = 10.0  # requests per second, open loop
KEYSTROKE_USERS = 16
#: Keystroke lanes: all session operations on one, one-shot requests on the other.
SESSION_LANE, ONE_SHOT_LANE = 0, 1
#: The playbook heads are the ``shared_prefix`` profile's for seeds 0 and
#: 1 in every run, one per user.  Which replica a head routes to decides
#: the load split and how often the replicas' session ids collide; with
#: heads drawn per run seed that split alone moved time to first token by
#: a fifth between seeds.  The run's seed drives everything else.
HEADS_SEEDS = (0, 1)
EXTENDS_PER_SESSION = (3, 8)
EDIT_TOKENS = 8
STREAM_TOKENS = 16
STREAM_SHARE = 0.1
COMPLETION_SHARE = 0.1
#: Editor limit on time to first token, from the request's due time.
EDITOR_SLO_MS = 150.0
KEYSTROKE_CHECKS = 10

BATCH_PROMPTS = 4
BATCH_TOKENS = 64
BATCH_CHECKS = 2  # batch requests whose completions are re-derived in-process
#: Prompts generated per second of window: several times what the fleet
#: answers, so the feed never runs dry.
PROMPTS_PER_SECOND = 1000

_VERBS = ("Install", "Remove", "Restart", "Enable", "Configure", "Upgrade", "Start", "Stop")
_PACKAGES = ("nginx", "redis", "postgresql", "haproxy", "chrony", "rsyslog", "ufw", "docker",
             "grafana", "prometheus", "fail2ban", "openssh-server")
TRACE_HEADER = "X-Repro-Trace-Id"


class Fleet:
    """One launched fleet: router + replicas, via ``fleet.py``."""

    def __init__(self, root: str, trace_dir: str | None = None):
        self.root = root
        self.trace_dir = trace_dir
        self.process: subprocess.Popen | None = None
        self.url = ""
        self.pids: list[int] = []
        self.started_at = self.ready_at = 0.0

    def start(self, timeout_s: float = 120.0) -> "Fleet":
        command = [sys.executable, os.path.join(self.root, "e2ebench", "fleet.py")]
        if self.trace_dir:
            command += ["--trace-dir", self.trace_dir]
        started = self.started_at = time.perf_counter()
        self.process = subprocess.Popen(command, stdout=subprocess.PIPE, text=True, cwd=self.root)
        ready, _, _ = select.select([self.process.stdout], [], [], timeout_s)
        line = self.process.stdout.readline() if ready else ""
        if not line:
            raise RuntimeError("fleet did not report ready")
        info = json.loads(line)
        self.url, self.pids = info["url"], info["pids"]
        deadline = started + timeout_s
        while True:
            try:
                with urllib.request.urlopen(self.url + "/v1/health", timeout=5) as response:
                    if json.loads(response.read())["status"] == "ok":
                        break
            except OSError:
                pass
            if time.perf_counter() > deadline:
                raise RuntimeError("fleet health never answered")
            time.sleep(0.01)
        self.ready_at = time.perf_counter()
        return self

    def signal_all(self, signum: int) -> None:
        for pid in self.pids:
            os.kill(pid, signum)

    def cpu_s(self) -> float:
        """User plus system CPU seconds used so far by the fleet's processes."""
        ticks = 0
        for pid in self.pids:
            with open(f"/proc/{pid}/stat", encoding="ascii") as stat:
                fields = stat.read().rsplit(")", 1)[1].split()
            ticks += int(fields[11]) + int(fields[12])
        return ticks / os.sysconf("SC_CLK_TCK")

    def peak_rss_mb(self) -> float:
        """Summed ``VmHWM`` of the router and replica processes, in MiB."""
        total_kb = 0
        for pid in self.pids:
            with open(f"/proc/{pid}/status", encoding="ascii") as status:
                for line in status:
                    if line.startswith("VmHWM:"):
                        total_kb += int(line.split()[1])
        return total_kb / 1024.0

    def stop(self) -> None:
        if self.process is None:
            return
        if self.process.poll() is None:
            self.process.send_signal(signal.SIGTERM)
            try:
                self.process.wait(timeout=30)
            except subprocess.TimeoutExpired:
                self.process.kill()
                self.process.wait(timeout=10)
        self.process.stdout.close()
        # Replicas exit with the router; reap any straggler all the same.
        for pid in self.pids[1:]:
            for _ in range(100):
                try:
                    os.kill(pid, 0)
                except ProcessLookupError:
                    break
                time.sleep(0.05)
            else:
                os.kill(pid, signal.SIGKILL)
        self.process = None


def measure_setup(root: str, trace_dir: str | None) -> tuple[Fleet, list[tuple[float, float]]]:
    """Launch the fleet :data:`SETUP_REPEATS` times; keep the last one up.

    Returns it and each launch's ``(start, end)`` moments.
    """
    spans = []
    for attempt in range(SETUP_REPEATS):
        fleet = Fleet(root, trace_dir if attempt == SETUP_REPEATS - 1 else None)
        try:
            fleet.start()
        except BaseException:
            fleet.stop()
            raise
        spans.append((fleet.started_at, fleet.ready_at))
        if attempt < SETUP_REPEATS - 1:
            fleet.stop()
    return fleet, spans


# -- operations ----------------------------------------------------------------


class Op:
    """One request: what was sent, when it was due, and what came back."""

    __slots__ = ("kind", "due", "sent", "first", "done", "ok", "error", "trace", "user",
                 "text", "budget", "result", "lane")

    def __init__(self, kind: str, due: float, text: str = "", budget: int = 0, user: int = -1):
        self.kind, self.due, self.text, self.budget, self.user = kind, due, text, budget, user
        self.sent = self.first = self.done = 0.0
        self.ok = False
        self.error = ""
        self.trace = None
        self.result = None
        self.lane = -1

    @property
    def ttft_ms(self) -> float:
        return (self.first - self.due) * 1000.0

    @property
    def rtt_ms(self) -> float:
        return (self.done - self.sent) * 1000.0


class Sender:
    """Sends :class:`Op`\\ s over a :class:`PredictionClient`; never retries."""

    def __init__(self, url: str, traced: bool, tag: str):
        from repro.serving.client import PredictionClient

        self.client = PredictionClient(url, timeout=60.0)
        self.traced = traced
        self.tag = tag
        self.count = 0

    def _headers(self, op: Op) -> dict | None:
        if not self.traced:
            return None
        self.count += 1
        op.trace = f"{self.tag}-{self.count}"
        return {TRACE_HEADER: op.trace}

    def send(self, op: Op, session_id: str | None = None) -> None:
        from repro.errors import ServingError

        headers = self._headers(op)
        op.sent = time.perf_counter()
        try:
            if op.kind == "session_create":
                op.result = self.client.session_create(op.text, op.budget, headers=headers)
            elif op.kind == "session_extend":
                op.result = self.client.session_extend(session_id, op.text, op.budget,
                                                       headers=headers)
            elif op.kind == "session_close":
                op.result = self.client.session_close(session_id)
            elif op.kind == "completion":
                op.result = self.client.predict(op.text, op.budget, headers=headers)
            elif op.kind == "batch":
                op.result = self.client.predict_batch(op.text, op.budget, headers=headers)
            elif op.kind == "stream":
                op.result = self._stream(op, headers)
            else:
                raise ValueError(op.kind)
            op.ok = True
        except (ServingError, OSError) as error:
            op.error = f"{type(error).__name__}: {error}"
        op.done = time.perf_counter()
        if not op.first:
            op.first = op.done

    def _stream(self, op: Op, headers) -> dict:
        from repro.errors import ServingError

        texts, token_ids, done = [], 0, None
        for event in self.client.predict_stream(op.text, op.budget, headers=headers):
            if event.event == "token":
                if not op.first:
                    op.first = time.perf_counter()
                data = event.json()
                texts.append(data.get("text", ""))
                token_ids += len(data.get("token_ids", ()))
            elif event.event == "done":
                done = event.json()
            elif event.event == "error":
                raise ServingError(f"stream error event: {event.json()}")
        if done is None:
            raise ServingError("stream ended without a done event")
        return {"completion": done["completion"], "joined": "".join(texts),
                "generated_tokens": token_ids}


def run_lanes(lanes: list, worker, meanwhile=None) -> None:
    """Run ``worker(lane_index, lane)`` on one thread per lane; re-raise errors.

    ``meanwhile()``, when given, runs on the calling thread while they work.
    """
    errors: list[BaseException] = []

    def body(index, lane):
        try:
            worker(index, lane)
        except BaseException as error:  # surfaced below, after every lane ended
            errors.append(error)

    threads = [threading.Thread(target=body, args=(index, lane), daemon=True)
               for index, lane in enumerate(lanes)]
    for thread in threads:
        thread.start()
    if meanwhile is not None:
        meanwhile()
    for thread in threads:
        thread.join(timeout=170)
        if thread.is_alive():
            raise RuntimeError("a load lane did not finish")
    if errors:
        raise errors[0]


# -- keystroke -----------------------------------------------------------------


def playbook_heads(seed: int) -> list[str]:
    """The distinct playbook heads of the ``shared_prefix`` load profile."""
    from repro.fleet import generate_prompts

    heads: list[str] = []
    for prompt in generate_prompts("shared_prefix", 256, seed):
        head = prompt[: prompt.rindex("    - name: task ")]
        if head not in heads:
            heads.append(head)
    return heads


def keystroke_schedule(seed: int, seconds: float, rate: float, tag: str) -> list[list[Op]]:
    """Seeded open-loop schedule, one op list per lane.

    ``rate * seconds`` arrivals at uniformly drawn times over the window
    (a Poisson process conditioned on its count).  The mix is stratified
    so runs differ in content and timing, not in proportions: exact shares
    of streams and completions at shuffled positions, users taking turns,
    session lengths cycling through :data:`EXTENDS_PER_SESSION`, and each
    user editing one fixed playbook head.  Every session operation rides
    :data:`SESSION_LANE`, in schedule order, and one-shot requests ride the
    other lane.  The replicas then mint session ids in the same order on
    every run, so the session-id collision fails the same operations every
    time instead of whichever a race between lanes picks.
    """
    rng = random.Random(f"keystroke:{seed}:{tag}")
    heads = [head for heads_seed in HEADS_SEEDS for head in playbook_heads(heads_seed)]
    serial = iter(range(10**9))

    def typed_line() -> str:
        return f"    - name: {rng.choice(_VERBS)} {rng.choice(_PACKAGES)}\n"

    def one_shot_line() -> str:
        # Numbered within the schedule and named by its tag, so no one-shot
        # prompt repeats, not even one of the warm-up, and the response
        # cache stays cold.
        return (f"    - name: {rng.choice(_VERBS)} {rng.choice(_PACKAGES)} "
                f"on {tag}-node{next(serial):04d}\n")

    count = max(1, round(rate * seconds))
    streams = round(count * STREAM_SHARE)
    completions = round(count * COMPLETION_SHARE)
    kinds = ["stream"] * streams + ["completion"] * completions
    kinds += ["session"] * (count - len(kinds))
    rng.shuffle(kinds)
    lengths = range(EXTENDS_PER_SESSION[0], EXTENDS_PER_SESSION[1] + 1)
    users: list[dict | None] = [None] * KEYSTROKE_USERS
    sessions_opened = 0
    turn = 0
    lanes: list[list[Op]] = [[] for _ in range(LANES)]
    times = sorted(rng.uniform(0.0, seconds) for _ in range(count))
    for index, (due, kind) in enumerate(zip(times, kinds)):
        if kind != "session":
            budget = STREAM_TOKENS if kind == "stream" else EDIT_TOKENS
            head = heads[index % len(heads)]
            lanes[ONE_SHOT_LANE].append(Op(kind, due, head + one_shot_line(), budget))
            continue
        user, turn = turn % KEYSTROKE_USERS, turn + 1
        state = users[user]
        if state is None:
            state = users[user] = {"buffer": heads[user % len(heads)] + typed_line(),
                                   "left": lengths[sessions_opened % len(lengths)]}
            sessions_opened += 1
            op = Op("session_create", due, state["buffer"], EDIT_TOKENS, user)
        elif state["left"] > 0:
            state["buffer"] += typed_line()
            state["left"] -= 1
            op = Op("session_extend", due, state["buffer"], EDIT_TOKENS, user)
        else:
            users[user] = None
            op = Op("session_close", due, user=user)
        lanes[SESSION_LANE].append(op)
    return lanes


def drive_keystroke(url: str, lanes: list[list[Op]], traced: bool, tag: str,
                    start: float, meanwhile=None) -> list[Op]:
    """Send every lane's schedule on time from ``start``; returns every op sent."""
    sent: list[list[Op]] = [[] for _ in lanes]

    def lane_worker(index: int, lane: list[Op]) -> None:
        sender = Sender(url, traced, f"{tag}{index}")
        sessions: dict[int, str] = {}
        for op in lane:
            op.due += start
            op.lane = index
            delay = op.due - time.perf_counter()
            if delay > 0:
                time.sleep(delay)
            if op.kind == "session_close":
                session_id = sessions.pop(op.user, None)
                if session_id is None:
                    continue  # its create failed; nothing to close
                sender.send(op, session_id)
                sent[index].append(op)
                continue
            if op.kind == "session_extend" and op.user not in sessions:
                op.kind = "session_create"  # its create failed earlier: start over
            sender.send(op, sessions.get(op.user))
            sent[index].append(op)
            if op.kind == "session_extend" and op.error.startswith("SessionNotFoundError"):
                # A lost session (404) fails this op; the client re-creates it,
                # as the editor plugin does, due at the same moment.
                retry = Op("session_create", op.due, op.text, op.budget, op.user)
                retry.lane = index
                sender.send(retry, None)
                sent[index].append(retry)
                op = retry
            if op.kind == "session_create":
                if op.ok:
                    sessions[op.user] = op.result["session_id"]
                else:
                    sessions.pop(op.user, None)

    run_lanes(lanes, lane_worker, meanwhile)
    return [op for lane in sent for op in lane]


def check_keystroke(url: str, ops: list[Op]) -> list[str]:
    """Output checks: budgets decoded in full, streams self-consistent, and a
    sample of session-extend completions equal to cold completions."""
    from repro.serving.client import PredictionClient

    problems = []
    for op in ops:
        if not op.ok or op.kind in ("session_close",):
            continue
        generated = op.result.get("generated_tokens")
        if op.kind != "completion" and generated != op.budget:
            problems.append(f"{op.kind} decoded {generated} tokens, budget {op.budget}")
        if op.kind == "stream" and op.result["joined"] != op.result["completion"]:
            problems.append("stream token texts do not join to its completion")
    extends = [op for op in ops if op.ok and op.kind == "session_extend"]
    step = max(1, len(extends) // KEYSTROKE_CHECKS)
    client = PredictionClient(url, timeout=60.0)
    for op in extends[::step][:KEYSTROKE_CHECKS]:
        cold = client.predict(op.text, op.budget)["completion"]
        if cold != op.result["completion"]:
            problems.append(f"session extend differs from a cold completion: "
                            f"{op.result['completion']!r} vs {cold!r}")
    if not extends:
        problems.append("no session extend succeeded")
    return problems


# -- playbook batch --------------------------------------------------------------


def batch_prompts(seed: int, count: int) -> list[str]:
    """Distinct one-shot prompts from the seeded ``uniform`` load profile."""
    from repro.fleet import generate_prompts

    prompts = generate_prompts("uniform", count, seed)
    if len(set(prompts)) != len(prompts):
        raise RuntimeError("uniform prompts repeat; the response cache would answer")
    return prompts


class PromptFeed:
    """Hands out consecutive, never-repeating batches of one prompt list."""

    def __init__(self, prompts: list[str]):
        self._prompts = prompts
        self._next = 0
        self._lock = threading.Lock()

    def take(self, count: int) -> list[str]:
        with self._lock:
            start, self._next = self._next, self._next + count
        if self._next > len(self._prompts):
            raise RuntimeError("prompt feed exhausted; raise PROMPTS_PER_SECOND")
        return self._prompts[start:start + count]


def drive_batch(url: str, feed: PromptFeed, deadline: float, traced: bool, tag: str,
                meanwhile=None) -> list[Op]:
    """Closed loop: each lane sends its next batch when the last one returns."""
    sent: list[list[Op]] = [[] for _ in range(LANES)]

    def lane_worker(index: int, _lane) -> None:
        sender = Sender(url, traced, f"{tag}{index}")
        while time.perf_counter() < deadline:
            op = Op("batch", time.perf_counter(), feed.take(BATCH_PROMPTS), BATCH_TOKENS)
            sender.send(op)
            sent[index].append(op)

    run_lanes([None] * LANES, lane_worker, meanwhile)
    return [op for lane in sent for op in lane]


def check_batch(ops: list[Op]) -> list[str]:
    """Fleet completions equal in-process ``InferenceEngine.generate_batch``
    on the same weights, for the first :data:`BATCH_CHECKS` batches; and no
    prompt answered from the response cache."""
    from repro.fleet import WorkerSpec, build_service

    problems = []
    for op in ops:
        if op.ok and any(op.result["cached"]):
            problems.append("a distinct prompt was answered from the response cache")
            break
    _service, engine = build_service(WorkerSpec(**SPEC))
    tokenizer = engine.tokenizer
    checked = [op for op in ops if op.ok][:BATCH_CHECKS]
    if not checked:
        problems.append("no batch request succeeded")
    for op in checked:
        results = engine.generate_batch([tokenizer.encode(p) for p in op.text], op.budget)
        expected = [tokenizer.decode(result.token_ids) for result in results]
        if expected != op.result["completions"]:
            problems.append("fleet batch completions differ from in-process generate_batch")
        if any(len(result.token_ids) != op.budget for result in results):
            problems.append("a batch prompt did not decode its full budget")
    return problems


# -- fleet counters ----------------------------------------------------------------


def fleet_stats(url: str) -> dict:
    with urllib.request.urlopen(url + "/v1/stats", timeout=30) as response:
        return json.loads(response.read())


def stats_delta(before: dict, after: dict) -> dict:
    """Counter deltas over the measured window, plus end-of-window arena bytes."""
    def total(stats: dict, *path: str) -> float:
        value = 0
        for worker in stats["workers"].values():
            node = worker
            for key in path:
                node = (node or {}).get(key)
            value += node or 0
        return value

    def delta(*path: str) -> float:
        return total(after, *path) - total(before, *path)

    prefill = delta("engine", "prefill_tokens")
    reused = delta("engine", "prefix_cache", "tokens_reused")
    hits = delta("engine", "prefix_cache", "hits")
    lookups = hits + delta("engine", "prefix_cache", "misses") + delta(
        "engine", "prefix_cache", "skipped")
    session_reused = delta("sessions", "reused_tokens")
    session_prefilled = delta("sessions", "prefill_tokens")
    return {
        "stats.prefill_tokens": prefill,
        "stats.decode_tokens": delta("engine", "decode_tokens"),
        "stats.prefix_cache.hits": hits,
        "stats.prefix_cache.lookups": lookups,
        "stats.prefix_cache.tokens_reused": reused,
        "stats.session.reused_tokens": session_reused,
        "stats.session.prefilled_tokens": session_prefilled,
        "stats.session.decode_tokens": delta("sessions", "decode_tokens"),
        "stats.shed": (after["shed_requests"] - before["shed_requests"])
        + delta("shed_requests"),
        "stats.spills": after["spills"] - before["spills"],
        "stats.failovers": after["failovers"] - before["failovers"],
        "stats.sessions_lost": after["sessions_lost"] - before["sessions_lost"],
        "stats.cache_hits": delta("cache", "hits"),
        "stats.arena.bytes_reserved": total(after, "engine", "kv_arena", "bytes_allocated"),
        "stats.arena.bytes_in_use": total(after, "engine", "kv_arena", "bytes_in_use"),
        "stats.arena.peak_bytes_in_use": total(after, "engine", "kv_arena", "peak_bytes_in_use"),
    }


# -- one workload run ----------------------------------------------------------------


def _warmup(url: str, workload: str, seed: int, feed: PromptFeed | None) -> None:
    """Warm every request path once, on inputs the measured window never sends."""
    if workload == "keystroke":
        lanes = keystroke_schedule(seed, WARMUP_S, KEYSTROKE_RATE * 2, "warmup")
        drive_keystroke(url, lanes, False, "warm", time.perf_counter())
    else:
        sender = Sender(url, False, "warm")
        for _ in range(4):
            sender.send(Op("batch", 0.0, feed.take(BATCH_PROMPTS), BATCH_TOKENS))


def measure_window(fleet: Fleet, workload: str, seed: int, seconds: float, traced: bool,
                   tag: str, feed: PromptFeed | None) -> dict:
    """Run the workload's measured window.

    Returns its ops, its start, and the fleet's CPU seconds read at each
    sub-window boundary (:data:`SUBWINDOWS` equal slices of the window).
    """
    start = time.perf_counter() + 0.05
    bounds = [start + seconds * k / SUBWINDOWS for k in range(SUBWINDOWS + 1)]
    cpu: list[float] = []

    def read_cpu() -> None:
        for moment in bounds:
            delay = moment - time.perf_counter()
            if delay > 0:
                time.sleep(delay)
            cpu.append(fleet.cpu_s())

    if workload == "keystroke":
        lanes = keystroke_schedule(seed, seconds, KEYSTROKE_RATE, tag)
        ops = drive_keystroke(fleet.url, lanes, traced, tag, start, read_cpu)
    else:
        time.sleep(max(0.0, start - time.perf_counter()))
        ops = drive_batch(fleet.url, feed, bounds[-1], traced, tag, read_cpu)
    return {"ops": ops, "start": start, "seconds": seconds, "cpu": cpu}


def run(root: str, workload: str, seed: int, seconds: float, trace: bool) -> dict:
    """One run of a serving workload: set-up, warm-up, window(s), checks."""
    trace_dir = None
    if trace:
        trace_dir = tempfile.mkdtemp(prefix="trace-", dir=os.path.join(root, ".bench_out"))
    feed = None
    if workload == "playbook_batch":
        feed = PromptFeed(batch_prompts(seed, int(seconds * PROMPTS_PER_SECOND) + 64))
    probe, fleet = calibrate.SpeedProbe(), None
    try:
        fleet, setup_spans = measure_setup(root, trace_dir)
        _warmup(fleet.url, workload, seed, feed)
        before = fleet_stats(fleet.url)
        quiet, quiet_window = [], None
        if trace:
            # Half the window with the probes installed but not recording,
            # half recording: the difference is the tracing overhead.
            quiet_window = measure_window(fleet, workload, seed, seconds / 2, True, "q", feed)
            quiet = quiet_window.pop("ops")
            fleet.signal_all(signal.SIGUSR1)
            window = measure_window(fleet, workload, seed, seconds / 2, True, "t", feed)
        else:
            window = measure_window(fleet, workload, seed, seconds, False, "m", feed)
        speed, probe = probe.stop(), None
        ops = window.pop("ops")
        after = fleet_stats(fleet.url)
        peak_rss_mb = fleet.peak_rss_mb()
        problems = check_keystroke(fleet.url, quiet + ops) if workload == "keystroke" else []
    finally:
        if probe is not None:
            probe.kill()
        if fleet is not None:
            fleet.stop()
    if workload == "playbook_batch":
        problems = check_batch(quiet + ops)
    return {
        "ops": ops,
        "quiet_ops": quiet,
        "quiet_window": quiet_window,
        "window": window,
        "setup_spans": setup_spans,
        "speed": speed,
        "peak_rss_mb": peak_rss_mb,
        "stats": stats_delta(before, after),
        "problems": problems,
        "trace_dir": trace_dir,
    }


def _subwindows(window: dict, ops: list[Op], moment) -> list[list[Op]]:
    """``ops`` split into the window's sub-windows by ``moment(op)``."""
    width = window["seconds"] / SUBWINDOWS
    slices: list[list[Op]] = [[] for _ in range(SUBWINDOWS)]
    for op in ops:
        index = int((moment(op) - window["start"]) // width)
        if 0 <= index < SUBWINDOWS:
            slices[index].append(op)
    return slices


def _work_per_slice(window: dict, ops: list[Op], amount) -> list[float]:
    """Work done in each sub-window: ``amount(op)`` spread evenly over the
    op's send-to-done interval, so a slice's share is exact, not rounded
    to whole requests."""
    width = window["seconds"] / SUBWINDOWS
    work = [0.0] * SUBWINDOWS
    for op in ops:
        for k in range(SUBWINDOWS):
            low = window["start"] + k * width
            overlap = min(op.done, low + width) - max(op.sent, low)
            if overlap > 0:
                work[k] += amount(op) * overlap / (op.done - op.sent)
    return work


def replayed_ttft_ms(ops: list[Op], factor_of) -> dict:
    """Each op's time to first token with its lane replayed at nominal speed.

    A lane is a single open-loop queue: an op is sent at its due time or
    when the lane's previous op returns, whichever is later.  The measured
    parts of each op (wake-up lateness past that moment, time to first
    token from sending, time to done) are taken to nominal speed by
    ``factor_of(op)``; the queue is then replayed with them.  Scaling the
    measured TTFT instead would leave in the queueing a slow host adds,
    which grows faster than the host slows.
    """
    lanes: dict[int, list[Op]] = {}
    for op in ops:
        lanes.setdefault(op.lane, []).append(op)
    ttft = {}
    for lane in lanes.values():
        free = free_nominal = float("-inf")
        for op in sorted(lane, key=lambda op: op.sent):
            factor = factor_of(op)
            late = max(0.0, op.sent - max(op.due, free))
            sent = max(op.due, free_nominal) + late * factor
            ttft[id(op)] = (sent + (op.first - op.sent) * factor - op.due) * 1000.0
            free, free_nominal = op.done, sent + (op.done - op.sent) * factor
    return ttft


def setup_times(result: dict) -> list[float]:
    return [end - start for start, end in result["setup_spans"]]


def e2e_metrics(workload: str, result: dict) -> tuple[dict, dict]:
    """The end-to-end metrics of one untraced serving run at nominal host
    speed, and the numbers as measured (plus a few more) under the
    workload's own names with units.

    Each sub-window of the window has its own factor to nominal host speed,
    from the probe's kernel timings inside it.  Latency percentiles are
    over every request, each taken to nominal speed by its sub-window's
    factor (keystroke: by :func:`replayed_ttft_ms`); throughput is the
    median over sub-windows of each one's rate.
    """
    ops, window = result["ops"], result["window"]
    good = [op for op in ops if op.ok]
    width = window["seconds"] / SUBWINDOWS
    slices = [(window["start"] + k * width, window["start"] + (k + 1) * width)
              for k in range(SUBWINDOWS)]
    factors = [calibrate.factor_within(result["speed"], *bounds) for bounds in slices]
    if workload == "keystroke":
        # A close produces no token: it counts as sent, never as a TTFT.
        started = _subwindows(window, [op for op in good if op.kind != "session_close"],
                              lambda op: op.due)
        times = [[op.ttft_ms for op in part] for part in started]
        last = SUBWINDOWS - 1
        replayed = replayed_ttft_ms(ops, lambda op: factors[min(last, max(0, int(
            (op.due - window["start"]) // width)))])
        nominal = [replayed[id(op)] for part in started for op in part]
        # Requests per CPU second: CPU time is not inflated by steal, so it
        # takes the CPU-time factor.
        cpu = window["cpu"]
        rate_factors = [calibrate.factor_within(result["speed"], *bounds, cpu=True)
                        for bounds in slices]
        rates = [served / (cpu[k + 1] - cpu[k])
                 for k, served in enumerate(_work_per_slice(window, good, lambda op: 1.0))]
    else:
        started = _subwindows(window, good, lambda op: op.sent)
        times = [[op.rtt_ms for op in part] for part in started]
        rate_factors = factors
        rates = [tokens / width for tokens in
                 _work_per_slice(window, good, lambda op: len(op.text) * op.budget)]
    raw = [ms for part in times for ms in part]
    if workload != "keystroke":
        nominal = [ms * factor for part, factor in zip(times, factors) for ms in part]
    values = {
        "setup_s": probes.median([(end - start) * calibrate.factor_within(result["speed"], start, end)
                                  for start, end in result["setup_spans"]]),
        "ttft_ms_p50": probes.quantile(nominal, 0.5),
        "ttft_ms_p90": probes.quantile(nominal, 0.9),
        "throughput_per_s": probes.median([rate / factor
                                           for rate, factor in zip(rates, rate_factors)]),
        "peak_rss_mb": result["peak_rss_mb"],
    }
    common = {
        "setup_s": (probes.median(setup_times(result)), "s"),
        "peak_rss_mb": (result["peak_rss_mb"], "MiB"),
        "host_speed": (probes.median(factors), "x nominal"),
    }
    if workload == "keystroke":
        wanted = [op for op in ops if op.kind != "session_close"]
        met = sum(1 for op in wanted if op.ok and op.ttft_ms <= EDITOR_SLO_MS)
        named = {
            "ttft_ms_p50": (probes.quantile(raw, 0.5), "ms"),
            "ttft_ms_p90": (probes.quantile(raw, 0.9), "ms"),
            "ttft_ms_p99": (probes.quantile(raw, 0.99), f"ms, {len(raw)} requests"),
            "slo_attainment": (met / len(wanted),
                               f"fraction of sent, TTFT <= {EDITOR_SLO_MS:g} ms"),
            "goodput_per_s": (met / window["seconds"], "1/s"),
            "requests_per_cpu_s": (probes.median(rates), "1/s of fleet CPU"),
            "lateness_ms_p90": (probes.quantile([(op.sent - op.due) * 1000.0 for op in ops], 0.9),
                                "ms"),
            **common,
        }
    else:
        named = {
            "latency_ms_p50": (probes.quantile(raw, 0.5), "ms"),
            "latency_ms_p90": (probes.quantile(raw, 0.9), "ms"),
            "latency_ms_p99": (probes.quantile(raw, 0.99), f"ms, {len(raw)} requests"),
            "tokens_per_s": (probes.median(rates), "tok/s"),
            **common,
        }
    return values, named
