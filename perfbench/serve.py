"""The serve-relay-api workload: an open-loop load on ``python -m repro serve``.

Independent API consumers do not wait for each other, so requests arrive
on a schedule (Poisson arrivals at fixed rates), not from clients that
each wait for a reply.  One generator process drives up to
``CONNECTIONS`` keep-alive connections against one server worker and
times every request from when it was due, so a stall also charges the
requests queued behind it.

The request mix is the one ``benchmarks/bench_serve.py`` (the repo's
earlier, closed-loop serving benchmark) drives, kind for kind and in the
same equal shares: cursor walks, exact-slot queries, registration pages,
``/analysis/*``, service metadata and payload pages of varied ``limit``.
It puts cacheable requests beside requests that bypass the server's
128-entry response LRU: cursor pages are never cached, and the
exact-slot and ``limit`` keys together far outnumber the LRU's entries.

A run:

1. builds the seed's serving artifact once, in a child process, and
   keeps it under ``.state/artifacts`` (outside every timed phase);
2. launches the server ``SETUP_REPEATS`` times; ``setup_s`` is the fastest
   launch-to-``READY`` time, which covers artifact load, index and wire
   build; the last server takes the load;
3. warms the server up, then measures the ``low`` and ``high`` rates in
   alternating windows, reading the server's CPU time and running the
   host-speed probe (:mod:`perfbench.hostspeed`) around each, and bisects
   a fixed ladder of rates for the highest one whose p99 stays under
   ``P99_LIMIT_MS`` without a growing backlog.  A window in which the
   generator itself ran late against its schedule measured the
   generator, so it is run again.  ``throughput`` is the server's
   capacity: requests answered per second of its CPU time in the ``high``
   windows, at the reference host speed;
4. checks, after the load: every response is 200, and a deterministic
   sample of response bodies is byte-equal to in-process
   ``QueryService.handle`` over the same artifact.

The traced run serves the same windows (no ladder) from
:mod:`perfbench.serve_launcher`, which records a span per ``handle``
call, and first runs the ``low`` windows against a plain server to
measure the tracing overhead.
"""

from __future__ import annotations

import asyncio
import bisect
import json
import os
import select
import signal
import subprocess
import sys
import urllib.parse
import zlib
import dataclasses
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from perfbench.common import ROOT, child_env, state_dir
from perfbench.hostspeed import PROBE_REFERENCE_S, probe
from perfbench.layers import request_key
from perfbench.spans import Trace, clock, layer_totals

SERVE_DAYS = 6
BLOCKS_PER_DAY = 40
VALIDATORS = 1200
CONNECTIONS = 2
SETUP_REPEATS = 5
RATES = {"low": 500, "high": 2000}
# A fixed geometric ladder, 4% per rung, searched by bisection.
LADDER_RPS = tuple(int(round(2000 * 1.04**k, -1)) for k in range(60))
LADDER_STEP_SHARE = 0.05
# Each rate runs in WINDOWS on-schedule windows of this share of --seconds.
WINDOW_SHARE = 0.08
WINDOWS = 5
P99_LIMIT_MS = 50.0
# A generator later than this (p99) against its schedule has fallen
# behind: the phase then measured the generator, not the server.
LAG_LIMIT_MS = 2.0
WARMUP_S = 1.0
SPIN_S = 0.0015
SAMPLE_EVERY = 40
READY_TIMEOUT_S = 120
RESPONSE_TIMEOUT_S = 30
ARTIFACT_TIMEOUT_S = 600

PAYLOADS = "/relay/v1/data/bidtraces/proposer_payload_delivered"
SUBMISSIONS = "/relay/v1/data/bidtraces/builder_blocks_received"
REGISTRATIONS = "/relay/v1/data/validators/registration"
METADATA = ("/relays", "/inventory", "/healthz")
ANALYSIS = ("/analysis/hhi", "/analysis/value_split", "/analysis/censorship")
# bench_serve.py's six request kinds, drawn in equal shares:
# - walk: a payload page, then two more pages through the
#   ``x-next-cursor`` chain, on the schedule's next arrivals (the cursor
#   pages are labelled ``cursor``; the LRU never stores them).  Its pages
#   hold 100 rows, as in bench_serve.py, or a third of the artifact's
#   payloads when that is fewer, so a small artifact still has a chain;
# - slot: builder submissions at one slot of the artifact's slot range;
# - registrations: a registration page of 50-249 rows;
# - analysis, metadata: one of the endpoints above;
# - payloads: a payload page of 1-500 rows.
KINDS = ("walk", "slot", "registrations", "analysis", "metadata", "payloads")
WALK_LIMIT = 100
WALK_PAGES = 3


# -- the serving artifact ----------------------------------------------------


def serve_args(seed: int, days: int, artifact_dir: Path) -> list[str]:
    return [
        "--seed", str(seed), "--days", str(days),
        "--blocks-per-day", str(BLOCKS_PER_DAY), "--validators", str(VALIDATORS),
        "--port", "0", "--artifact-dir", str(artifact_dir),
    ]


def _artifact_config(seed: int, days: int):
    from repro.simulation import SimulationConfig

    # The exact config ``repro serve`` derives from serve_args(), so the
    # server finds this artifact in the cache instead of simulating.
    return SimulationConfig(
        seed=seed,
        num_days=days,
        blocks_per_day=BLOCKS_PER_DAY,
        num_validators=VALIDATORS,
        dataset_backend="columnar",
    )


def build_artifact(seed: int, days: int, artifact_dir: Path) -> None:
    """Simulate, collect and save the seed's artifact plus its target space."""
    from repro.datasets import collect_study_dataset
    from repro.perf.artifacts import save_study_artifact
    from repro.serve.service import QueryService
    from repro.simulation import build_world

    config = _artifact_config(seed, days)
    dataset = collect_study_dataset(build_world(config).run())
    save_study_artifact(config, dataset, artifact_dir)
    slots = [int(obs.slot) for obs in dataset.blocks]
    # A walk's cursors are the ones the server's own x-next-cursor chain
    # gives, read here once so the schedule can be made ahead of the load.
    service = QueryService(dataset)
    payloads = int(service.handle(PAYLOADS, {}).headers["x-total-count"])
    limit = str(max(1, min(WALK_LIMIT, -(-payloads // WALK_PAGES))))
    cursors: list[str] = []
    params = {"limit": limit}
    while len(cursors) < WALK_PAGES - 1:
        cursor = service.handle(PAYLOADS, params).headers.get("x-next-cursor")
        if cursor is None:
            break
        cursors.append(cursor)
        params = {"limit": limit, "cursor": cursor}
    meta = {
        "slot_lo": min(slots), "slot_hi": max(slots),
        "walk_limit": limit, "walk_cursors": cursors,
    }
    _meta_path(seed, days, artifact_dir).write_text(json.dumps(meta))


def _meta_path(seed: int, days: int, artifact_dir: Path) -> Path:
    return artifact_dir / f"targets-{seed}-{days}d.json"


def ensure_artifact(seed: int, days: int) -> tuple[Path, dict]:
    artifact_dir = state_dir("artifacts")
    meta_path = _meta_path(seed, days, artifact_dir)
    if not meta_path.is_file():
        subprocess.run(
            [sys.executable, "-m", "perfbench.serve", "artifact", str(seed), str(days)],
            cwd=ROOT, env=child_env(), check=True, timeout=ARTIFACT_TIMEOUT_S,
            stdout=subprocess.DEVNULL,
        )
    return artifact_dir, json.loads(meta_path.read_text())


# -- the schedule ------------------------------------------------------------


@dataclass
class Phase:
    name: str
    rate: float
    due: np.ndarray  # seconds after the phase starts
    targets: list[tuple[str, dict]]
    kinds: list[str]  # each target's request kind (KINDS, or "cursor")


def make_targets(
    rng: np.random.Generator, count: int, meta: dict
) -> tuple[list[tuple[str, dict]], list[str]]:
    """``count`` request targets of the mix, and the kind of each."""
    targets: list[tuple[str, dict]] = []
    kinds: list[str] = []
    while len(targets) < count:
        kind = KINDS[rng.integers(len(KINDS))]
        if kind == "walk":
            pages = [(PAYLOADS, {"limit": meta["walk_limit"]})] + [
                (PAYLOADS, {"limit": meta["walk_limit"], "cursor": cursor})
                for cursor in meta["walk_cursors"]
            ]
        elif kind == "slot":
            slot = int(rng.integers(meta["slot_lo"], meta["slot_hi"] + 1))
            pages = [(SUBMISSIONS, {"slot": str(slot)})]
        elif kind == "registrations":
            pages = [(REGISTRATIONS, {"limit": str(int(rng.integers(50, 250)))})]
        elif kind == "analysis":
            pages = [(ANALYSIS[rng.integers(len(ANALYSIS))], {})]
        elif kind == "metadata":
            pages = [(METADATA[rng.integers(len(METADATA))], {})]
        else:
            pages = [(PAYLOADS, {"limit": str(int(rng.integers(1, 501)))})]
        targets += pages
        kinds += [kind] + ["cursor"] * (len(pages) - 1)
    return targets[:count], kinds[:count]


def make_phase(seed: int, name: str, rate: float, seconds: float, meta: dict) -> Phase:
    """Poisson arrivals at ``rate`` for ``seconds``; a pure function of its inputs."""
    rng = np.random.default_rng([seed, zlib.crc32(name.encode()), int(rate), int(seconds * 1000)])
    gaps = rng.exponential(1.0 / rate, size=int(rate * seconds * 1.5) + 16)
    due = np.cumsum(gaps)
    due = due[due < seconds]
    return Phase(name, rate, due, *make_targets(rng, len(due), meta))


def request_bytes(path: str, params: dict) -> bytes:
    target = path + ("?" + urllib.parse.urlencode(params) if params else "")
    return f"GET {target} HTTP/1.1\r\nHost: bench\r\n\r\n".encode()


# -- the load generator ------------------------------------------------------


@dataclass
class PhaseResult:
    phase: Phase
    due: np.ndarray
    lag: np.ndarray
    done: np.ndarray
    status: np.ndarray
    bodies: dict[int, bytes] = field(default_factory=dict)
    # The server's CPU seconds over the phase, and the host-speed probe
    # around it (windows only).
    server_cpu_s: float | None = None
    probe_s: float | None = None

    def latencies_ms(self) -> np.ndarray:
        ok = self.status == 200
        return (self.done[ok] - self.due[ok]) * 1000.0

    def summary(self) -> dict:
        lat = self.latencies_ms()
        sent = len(self.due)
        failed = int((self.status != 200).sum())
        span = float(self.done.max() - self.due.min()) if sent else 0.0
        return {
            "rate": self.phase.rate,
            "sent": sent,
            "succeeded": sent - failed,
            "failed": failed,
            "p50_ms": float(np.percentile(lat, 50)) if len(lat) else None,
            "p99_ms": float(np.percentile(lat, 99)) if len(lat) else None,
            "lag_p99_ms": float(np.percentile(self.lag, 99) * 1000.0) if sent else None,
            "completed_per_s": (sent - failed) / span if span > 0 else 0.0,
        }

    def on_schedule(self) -> bool:
        """Whether the generator sent on time; otherwise the phase measured it."""
        return bool(len(self.lag)) and np.percentile(self.lag, 99) * 1000.0 <= LAG_LIMIT_MS

    def keeps_up(self) -> bool:
        """p99 within the limit, nothing failed, and the generator on time.

        A growing backlog shows as latencies that climb through the phase;
        the last quarter's median must stay within the limit too.
        """
        s = self.summary()
        if s["failed"] or s["p99_ms"] is None or s["p99_ms"] > P99_LIMIT_MS:
            return False
        if not self.on_schedule():
            return False
        lat = self.latencies_ms()
        return float(np.median(lat[-max(1, len(lat) // 4):])) <= P99_LIMIT_MS


async def _read_response(reader: asyncio.StreamReader) -> tuple[int, bytes]:
    head = await reader.readuntil(b"\r\n\r\n")
    lines = head.decode("latin-1").split("\r\n")
    status = int(lines[0].split(" ", 2)[1])
    length = 0
    for line in lines[1:]:
        name, _, value = line.partition(":")
        if name.strip().lower() == "content-length":
            length = int(value)
    body = await reader.readexactly(length) if length else b""
    return status, body


class LoadGenerator:
    """``CONNECTIONS`` keep-alive connections fed from one arrival schedule.

    Requests go out at their due times whatever the server's progress; a
    request due while both connections are busy waits in the generator's
    queue, and that wait counts in its latency.
    """

    def __init__(self, url: str) -> None:
        parts = urllib.parse.urlsplit(url)
        self.host, self.port = parts.hostname, parts.port
        self.sent = 0
        self.connections: list = []

    async def __aenter__(self) -> "LoadGenerator":
        for _ in range(CONNECTIONS):
            self.connections.append(await asyncio.open_connection(self.host, self.port))
        return self

    async def __aexit__(self, *exc) -> None:
        for _, writer in self.connections:
            writer.close()

    async def run(self, phase: Phase, sample: bool = True) -> PhaseResult:
        """Send ``phase``'s schedule; keep every ``SAMPLE_EVERY``-th body if ``sample``."""
        loop = asyncio.get_running_loop()
        n = len(phase.due)
        result = PhaseResult(
            phase, np.zeros(n), np.zeros(n), np.zeros(n), np.zeros(n, dtype=np.int32)
        )
        payloads = [request_bytes(path, params) for path, params in phase.targets]
        queue: asyncio.Queue = asyncio.Queue()
        first = self.sent

        async def connection(reader, writer):
            while (i := await queue.get()) is not None:
                writer.write(payloads[i])
                try:
                    status, body = await _read_response(reader)
                except (asyncio.IncompleteReadError, ConnectionError, ValueError):
                    status, body = 0, b""
                result.done[i] = loop.time()
                result.status[i] = status
                if sample and (first + i) % SAMPLE_EVERY == 0:
                    result.bodies[i] = body

        tasks = [asyncio.ensure_future(connection(r, w)) for r, w in self.connections]
        start = loop.time() + 0.01
        for i, offset in enumerate(phase.due):
            due = start + offset
            # The loop's timers wake up to a millisecond late (epoll
            # timeouts are whole milliseconds), so sleep to just short of
            # the due time and yield to the loop for the rest.
            delay = due - loop.time() - SPIN_S
            if delay > 0:
                await asyncio.sleep(delay)
            while loop.time() < due:
                await asyncio.sleep(0)
            result.due[i] = due
            result.lag[i] = loop.time() - due
            queue.put_nowait(i)
        for _ in tasks:
            queue.put_nowait(None)
        try:
            await asyncio.wait_for(asyncio.gather(*tasks), RESPONSE_TIMEOUT_S)
        except asyncio.TimeoutError:
            raise RuntimeError(
                f"server left requests unanswered for {RESPONSE_TIMEOUT_S} s"
            ) from None
        self.sent += n
        return result


@dataclass
class Plan:
    """The phases of one load, each a pure function of the seed and its name."""

    seed: int
    meta: dict
    window_s: float
    step_s: float
    rates: tuple[str, ...] = ("low", "high")
    ladder: bool = True

    def warmup(self) -> Phase:
        return make_phase(self.seed, "warmup", RATES["low"], WARMUP_S, self.meta)

    def window(self, rate: str, k: int) -> Phase:
        return make_phase(self.seed, f"{rate}-{k}", RATES[rate], self.window_s, self.meta)

    def rung(self, k: int) -> Phase:
        rate = LADDER_RPS[k]
        return make_phase(self.seed, f"ladder-{rate}", rate, self.step_s, self.meta)


def host_speed() -> float:
    """The host-speed probe, the median of three: a window gets only two."""
    return float(np.median([probe() for _ in range(3)]))


def cpu_s(pid: int) -> float:
    """The CPU seconds process ``pid`` has run, to the nanosecond."""
    with open(f"/proc/{pid}/schedstat") as schedstat:
        return int(schedstat.read().split()[0]) / 1e9


async def _session(url: str, plan: Plan, server_pid: int) -> list[PhaseResult]:
    """Warm up, measure each rate in windows, then search the ladder.

    Rates alternate window by window until each has ``WINDOWS`` windows
    in which the generator kept its schedule (at most twice that many
    tries).  The ladder search is a bisection over the rungs for the
    highest one that keeps up; a rung that fails is run once more before
    the search moves below it, so one stall of the host does not halve
    the answer.
    """
    async with LoadGenerator(url) as generator:
        results = [await generator.run(plan.warmup())]
        valid = dict.fromkeys(plan.rates, 0)
        before = host_speed()
        for k in range(1, 2 * WINDOWS + 1):
            for rate in plan.rates:
                if valid[rate] < WINDOWS:
                    used = cpu_s(server_pid)
                    window = await generator.run(plan.window(rate, k))
                    window.server_cpu_s = cpu_s(server_pid) - used
                    after = host_speed()
                    window.probe_s = (before + after) / 2
                    before = after
                    results.append(window)
                    valid[rate] += window.on_schedule()
        if plan.ladder:
            lo, hi = -1, len(LADDER_RPS)
            while hi - lo > 1:
                mid = (lo + hi) // 2
                rung = plan.rung(mid)
                for _ in range(2):
                    step = await generator.run(rung, sample=False)
                    results.append(step)
                    if step.keeps_up():
                        break
                if step.keeps_up():
                    lo = mid
                else:
                    hi = mid
    return results


def drive(server: "Server", plan: Plan) -> list[PhaseResult]:
    return asyncio.run(_session(server.url, plan, server.proc.pid))


# -- the server --------------------------------------------------------------


class Server:
    """One ``repro serve`` process (plain, or under the tracing launcher)."""

    def __init__(self, seed: int, days: int, artifact_dir: Path, spans: Path | None = None) -> None:
        args = serve_args(seed, days, artifact_dir)
        if spans is None:
            command = [sys.executable, "-m", "repro", "serve", *args]
        else:
            command = [sys.executable, "-m", "perfbench.serve_launcher", "--spans", str(spans), "--", *args]
        self._log = open(state_dir("logs") / f"serve-{seed}.log", "ab")
        launched = clock()
        self.proc = subprocess.Popen(
            command, cwd=ROOT, env=child_env(), stdout=subprocess.PIPE, stderr=self._log
        )
        self.url = self._wait_ready()
        self.setup_s = clock() - launched

    def _wait_ready(self) -> str:
        deadline = clock() + READY_TIMEOUT_S
        buffer = b""
        fd = self.proc.stdout.fileno()
        while clock() < deadline:
            readable, _, _ = select.select([fd], [], [], max(0.0, deadline - clock()))
            if not readable:
                break
            chunk = os.read(fd, 4096)
            if not chunk:
                break
            buffer += chunk
            for line in buffer.decode(errors="replace").splitlines():
                if line.startswith("READY "):
                    return line.split()[1]
        self.stop()
        raise RuntimeError("server did not print READY; see .state/logs")

    def peak_rss_mb(self) -> float:
        with open(f"/proc/{self.proc.pid}/status") as status:
            for line in status:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
        raise RuntimeError("VmHWM missing from /proc status")

    def stop(self) -> None:
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
            try:
                self.proc.wait(timeout=20)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        self.proc.stdout.close()
        self._log.close()


def launch(seed: int, days: int, artifact_dir: Path, repeats: int, spans: Path | None = None):
    """Launch ``repeats`` servers one after another; keep the last one running."""
    setups = []
    for attempt in range(repeats):
        server = Server(seed, days, artifact_dir, spans if attempt == repeats - 1 else None)
        setups.append(server.setup_s)
        if attempt < repeats - 1:
            server.stop()
    return server, setups


# -- checks ------------------------------------------------------------------


def byte_check(
    seed: int, days: int, artifact_dir: Path, results: list[PhaseResult], server_pid: int
) -> list[str]:
    """Sampled bodies must equal in-process ``QueryService.handle`` byte for byte.

    ``/healthz`` names the serving process, so its body is compared as
    JSON, with the server's pid in place of this process's.
    """
    from repro.perf.artifacts import load_study_artifact
    from repro.serve.service import QueryService

    dataset = load_study_artifact(_artifact_config(seed, days), artifact_dir)
    if dataset is None:
        return ["serving artifact failed to load for the byte check"]
    service = QueryService(dataset)
    problems = []
    for result in results:
        for i, body in result.bodies.items():
            path, params = result.phase.targets[i]
            expected = service.handle(path, dict(params))
            if path == "/healthz" and expected.status == 200:
                same = json.loads(body or b"null") == {**expected.json(), "pid": server_pid}
            else:
                same = expected.body == body
            if expected.status != result.status[i] or not same:
                problems.append(f"{result.phase.name}[{i}] {path} {params}: body differs")
    return problems


# -- the workload ------------------------------------------------------------


def best_window(results: list[PhaseResult], rate: str) -> dict | None:
    """Summary of the ``rate`` window with the lowest p50, or None.

    Interference from other work on the host only ever adds latency, so of
    the windows at one rate the fastest is the steady reading.  That holds
    for windows in which the generator ran late too: a request is timed
    from when it was due, so lateness only adds to its latency.  A window
    with no 200 response has no p50; its failures count in the run's
    ``failed``, and when no window at the rate has a p50 there is no
    reading at all.
    """
    windows = [r for r in results if r.phase.name.startswith(f"{rate}-")]
    summaries = [s for s in (r.summary() for r in windows) if s["p50_ms"] is not None]
    return min(summaries, key=lambda s: s["p50_ms"], default=None)


def run(seed: int, seconds: int, trace: bool, days: int = SERVE_DAYS):
    """Run the serving workload; returns (correct, attempted, failed, metrics, detail)."""
    artifact_dir, meta = ensure_artifact(seed, days)
    plan = Plan(
        seed, meta,
        window_s=max(1.0, seconds * WINDOW_SHARE),
        step_s=max(0.5, seconds * LADDER_STEP_SHARE),
        ladder=not trace,
    )
    detail: dict = {"artifact_days": days, "targets": meta}
    problems: list[str] = []

    if trace:
        plain, _ = launch(seed, days, artifact_dir, 1)
        try:
            plain_plan = dataclasses.replace(plan, rates=("low",))
            plain_results = drive(plain, plain_plan)
        finally:
            plain.stop()
        plain_low = best_window(plain_results, "low")
        detail["plain_low"] = plain_low
        if plain_low is None:
            problems.append("no request of the plain server's low windows succeeded")

    spans = state_dir("traces") / f"serve-relay-api-{seed}.npz" if trace else None
    server, setups = launch(seed, days, artifact_dir, 1 if trace else SETUP_REPEATS, spans)
    try:
        results = drive(server, plan)
        rss = server.peak_rss_mb()
    finally:
        server.stop()

    summaries = [
        {"phase": r.phase.name, **r.summary(), "server_cpu_s": r.server_cpu_s, "probe_s": r.probe_s}
        for r in results
    ]
    detail["phases"] = summaries
    attempted = sum(s["sent"] for s in summaries)
    failed = sum(s["failed"] for s in summaries)
    if failed:
        problems.append(f"{failed} of {attempted} requests failed or were not 200")
    problems += byte_check(seed, days, artifact_dir, results, server.proc.pid)
    detail["generator_behind"] = [r.phase.name for r in results if not r.on_schedule()]
    detail["problems"] = problems

    if not trace:
        passing = [r for r in results if r.phase.name.startswith("ladder-") and r.keeps_up()]
        top = max(passing, key=lambda r: r.phase.rate, default=None)
        detail["max_rate_rung"] = top.phase.rate if top else None
        detail["max_rate_completed_per_s"] = top.summary()["completed_per_s"] if top else None
        detail["setup_samples_s"] = setups
        high = [r for r in results if r.phase.name.startswith("high-")]
        answered = sum(r.summary()["succeeded"] for r in high)
        detail["requests_per_cpu_s"] = answered / sum(r.server_cpu_s for r in high)
        # The probe runs in this process, not the server's, and each vCPU
        # has slow spells of its own, so one reading tracks the server's
        # speed loosely; the run's median tracks the spells that outlast
        # a window.
        detail["probe_s_median"] = float(
            np.median([r.probe_s for r in results if r.probe_s is not None])
        )
        metrics = {
            # Interference only slows a launch down: the fastest is steady.
            "setup_s": (min(setups), "s"),
            # The server's capacity: requests answered per second of its
            # CPU time in the high-rate windows, at the reference host speed.
            "throughput": (
                detail["requests_per_cpu_s"] * detail["probe_s_median"] / PROBE_REFERENCE_S,
                "1/s",
            ),
            "peak_rss_mb": (rss, "MB"),
        }
    else:
        metrics = serving_layers(Trace(spans), results[1:], detail)
        low = best_window(results, "low")
        if low is not None and plain_low is not None:
            metrics["trace.overhead"] = (low["p50_ms"] / plain_low["p50_ms"] - 1.0, "share")
    return not problems, attempted, failed, metrics, detail


def serving_layers(trace: Trace, results: list[PhaseResult], detail: dict) -> dict:
    """Per-layer metrics of a traced server; per-kind LRU hits go to ``detail``."""
    totals = layer_totals([trace])
    metrics = {}
    calls = 0
    for kind in ("paginated", "analysis", "metadata"):
        row = totals.get(f"serve.handle.{kind}", {"calls": 0, "s": 0.0})
        metrics[f"serve.handle.{kind}.calls"] = (row["calls"], "count")
        metrics[f"serve.handle.{kind}.s"] = (row["s"], "s")
        calls += row["calls"]
    dispatched = totals.get("serve.dispatch", {}).get("calls", 0)
    metrics["serve.handle.calls"] = (calls, "count")
    metrics["serve.response_cache.hit_rate"] = (
        (calls - dispatched) / calls if calls else 0.0, "share"
    )
    metrics["perf.artifact.load.s"] = (totals.get("perf.artifact.load", {}).get("s", 0.0), "s")
    metrics["serve.index.build.s"] = (totals.get("serve.index.build", {}).get("s", 0.0), "s")

    # Each request's handle span on the server, found by its target and
    # time: its duration is subtracted from the client latency (the rest
    # is waiting: queues, sockets, HTTP), and a span without a dispatch
    # child was answered from the LRU.
    handle_ids = [trace.names.index(f"serve.handle.{k}") for k in ("paginated", "analysis", "metadata")
                  if f"serve.handle.{k}" in trace.names]
    dispatch_id = trace.names.index("serve.dispatch") if "serve.dispatch" in trace.names else -1
    dispatched_spans = set(trace.parent[trace.name == dispatch_id].tolist())
    by_key: dict[int, tuple[list[float], list[int]]] = {}
    for index in np.flatnonzero(np.isin(trace.name, handle_ids)):
        starts, spans = by_key.setdefault(int(trace.key[index]), ([], []))
        starts.append(float(trace.start[index]))
        spans.append(int(index))
    waits = []
    by_kind: dict[str, list[int]] = {}
    for result in results:
        for i, (path, params) in enumerate(result.phase.targets):
            starts, spans = by_key.get(request_key(path, params), ([], []))
            j = bisect.bisect_left(starts, result.due[i])
            if j < len(starts) and trace.end[spans[j]] <= result.done[i]:
                handle_s = trace.end[spans[j]] - starts[j]
                waits.append((result.done[i] - result.due[i] - handle_s) * 1000.0)
                tally = by_kind.setdefault(result.phase.kinds[i], [0, 0])
                tally[0] += 1
                tally[1] += spans[j] not in dispatched_spans
    detail["cache_hit_share_by_kind"] = {
        kind: {"requests": n, "hit_share": hits / n} for kind, (n, hits) in sorted(by_kind.items())
    }
    metrics["serve.wait_ms.p50"] = (float(np.percentile(waits, 50)) if waits else 0.0, "ms")
    metrics["serve.wait_ms.p99"] = (float(np.percentile(waits, 99)) if waits else 0.0, "ms")
    lags = np.concatenate([r.lag for r in results]) * 1000.0
    metrics["loadgen.lag_ms.p99"] = (float(np.percentile(lags, 99)), "ms")
    for rate in ("low", "high"):
        window = best_window(results, rate)
        if window is not None:
            metrics[f"serve.p50_ms.{rate}"] = (window["p50_ms"], "ms")
            metrics[f"serve.p99_ms.{rate}"] = (window["p99_ms"], "ms")
    sent = sum(len(r.due) for r in results)
    failed = sum(int((r.status != 200).sum()) for r in results)
    metrics["serve.error_rate"] = (failed / sent, "share")
    return metrics


if __name__ == "__main__":
    if sys.argv[1:2] == ["artifact"]:
        build_artifact(int(sys.argv[2]), int(sys.argv[3]), state_dir("artifacts"))
