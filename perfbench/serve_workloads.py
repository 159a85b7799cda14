"""The serve workloads: open-loop ``/predict`` traffic against ``repro serve``.

Set-up fits an AutoML model on synthetic firewall logs (no netsim, so
labelling does not leak into these workloads), publishes it to a fresh
model registry and starts ``repro serve`` on it at the CLI defaults.
That set-up runs three times; the median is ``setup_s`` and the last
server is measured.  The served model is the same in every run (it is
the deployment under test); the seed draws the traffic: request rows,
arrival times and which responses are checked.

- ``serve_single``: one row per request.  A lone row waits out the
  batcher's flush deadline, so transport and queue wait dominate.
- ``serve_bulk``: 32 rows per request, so every request fills a batch
  and ``predict_batch`` plus the uncertainty monitor dominate.

Each run has two timed phases after an untimed warm-up at the offered
rate.  The latency phase offers Poisson arrivals at :data:`OFFERED_RPS`
for :data:`LATENCY_SHARE` of ``--seconds``.  The capacity ladder then
offers evenly spaced requests at each rate of :data:`LADDER`, one step
of ``--seconds`` / :data:`LADDER_STEPS_PER_RUN` at a time, until a step
misses the limit.
"""

from __future__ import annotations

import json
import math
import os
import sys
import urllib.request
from pathlib import Path

import numpy as np

from common import CheckFailed, check, launch, stop_child
from openloop import run_open_loop, tally
from spans import Tracer, install_grid_layers

from repro.automl import AutoMLClassifier
from repro.datasets.firewall import generate_firewall_dataset
from repro.rng import check_random_state
from repro.runtime.clock import monotonic
from repro.serve import ModelRegistry

LAUNCHER = Path(__file__).resolve().parent / "launch_serve.py"
MODEL = "firewall"

#: Training rows and seed of the served model, and the request-row pool.
TRAIN_ROWS = 400
MODEL_SEED = 0
POOL_ROWS = 512
#: Distinct request bodies per run (drawn per request from the seed).
N_BODIES = 128

SETUP_REPEATS = 3

#: Offered rate of the latency phase (requests per second).
OFFERED_RPS = 10.0
#: Share of ``--seconds`` the latency phase takes.
LATENCY_SHARE = 2 / 3
#: Untimed seconds at the offered rate before the latency phase.
WARMUP_S = 1.0
#: A ladder step lasts ``--seconds`` divided by this.
LADDER_STEPS_PER_RUN = 30
#: Capacity ladder: 10 to 160 requests per second in steps of sqrt(2).
LADDER = [10.0 * 2 ** (k / 2) for k in range(9)]
#: A ladder step passes when p99 stays within this and nothing fails.
LATENCY_LIMIT_S = 0.100


class ServeProcess:
    """``repro serve`` (through the benchmark launcher) on a free port."""

    def __init__(self, work_dir: Path, tag: str, registry_dir: Path, trace: bool):
        self.report_path = work_dir / f"serve-{tag}.json"
        command = [sys.executable, str(LAUNCHER), str(self.report_path)]
        command += ["--trace"] if trace else []
        command += ["--", MODEL, "--dir", str(registry_dir), "--port", "0"]
        self.process, banner = launch(command, work_dir / f"serve-{tag}.log")
        self.url = banner.split()[0]
        host_port = self.url.split("//", 1)[1]
        self.host, port = host_port.rsplit(":", 1)
        self.port = int(port)

    def metrics(self) -> dict:
        with urllib.request.urlopen(self.url + "/metrics", timeout=30) as response:
            return json.loads(response.read())

    def stop(self) -> dict:
        code = stop_child(self.process)
        check(code == 0, f"repro serve exited with {code}")
        return json.loads(self.report_path.read_text(encoding="utf-8"))


def fit_and_publish(registry_dir: Path) -> AutoMLClassifier:
    """Fit the served model and register it (the registry runs Within-ALE)."""
    data = generate_firewall_dataset(TRAIN_ROWS, random_state=MODEL_SEED)
    automl = AutoMLClassifier(n_iterations=6, ensemble_size=3, random_state=MODEL_SEED).fit(data.X, data.y)
    ModelRegistry(registry_dir).register(MODEL, automl, data.X, data.domains)
    return automl


class Traffic:
    """Request bodies and schedules, all drawn from the workload seed."""

    def __init__(self, seed: int, rows: int):
        rng = check_random_state(seed)
        X = generate_firewall_dataset(POOL_ROWS, random_state=rng).X
        self.rng = rng
        starts = self.rng.integers(0, POOL_ROWS - rows + 1, size=N_BODIES)
        self.rows = [X[start : start + rows] for start in starts]
        self.bodies = [json.dumps({"rows": block.tolist()}).encode() for block in self.rows]

    def draw(self, offsets: list[float]) -> tuple[list[int], list[bytes], list[float]]:
        picks = [int(i) for i in self.rng.integers(0, N_BODIES, size=len(offsets))]
        return picks, [self.bodies[i] for i in picks], offsets

    def poisson(self, rate: float, seconds: float):
        """Poisson arrivals with stratified gaps.

        The gaps are the exponential distribution's quantiles at the
        midpoints of ``n`` equal strata, in an order drawn from the seed.
        Every seed offers the same mix of short and long gaps, so how
        often requests arrive close together does not vary between runs.
        """
        n = max(1, int(rate * seconds))
        gaps = -np.log1p(-(self.rng.permutation(n) + 0.5) / n) / rate
        offsets = [float(x) for x in gaps.cumsum() - gaps[0]]
        return self.draw(offsets)

    def even(self, rate: float, seconds: float):
        return self.draw([k / rate for k in range(max(1, int(rate * seconds)))])


def _accounted(sent, phase: str) -> dict[str, int]:
    counts = tally(sent)
    check(
        counts["offered"] == counts["completed"] + counts["shed"] + counts["timed_out"] + counts["failed"],
        f"{phase}: accounting identity broken {counts}",
    )
    return counts


def latency_phase(server: ServeProcess, traffic: Traffic, seconds: float):
    """Warm up, then time Poisson arrivals: ``(picks, sent, counts, warm-up counts)``."""
    _, bodies, offsets = traffic.poisson(OFFERED_RPS, WARMUP_S)
    warm = _accounted(run_open_loop(server.host, server.port, bodies, offsets), "warm-up")
    picks, bodies, offsets = traffic.poisson(OFFERED_RPS, seconds)
    sent = run_open_loop(server.host, server.port, bodies, offsets)
    return picks, sent, _accounted(sent, "latency phase"), warm


def ladder(server: ServeProcess, traffic: Traffic, step_s: float):
    """Climb :data:`LADDER` until a step misses; returns ``(max_rate, steps, samples)``."""
    steps = []
    samples = []
    for rate in LADDER:
        picks, bodies, offsets = traffic.even(rate, step_s)
        sent = run_open_loop(server.host, server.port, bodies, offsets)
        counts = _accounted(sent, f"ladder step {rate:.1f} rps")
        latencies = [s.latency if s.outcome == "completed" else math.inf for s in sent]
        p99 = float(np.quantile(latencies, 0.99))
        passed = counts["completed"] == counts["offered"] and p99 <= LATENCY_LIMIT_S and sent[-1].lag <= LATENCY_LIMIT_S
        steps.append({"rate": rate, "p99_ms": p99 * 1e3, "passed": passed, **counts})
        samples.append((picks, sent))
        if not passed:
            break
    return _max_rate(steps), steps, samples


def _max_rate(steps: list[dict]) -> float:
    """The highest passing ladder rate, refined toward the first failing one.

    Between the last passing and the first failing step, p99 is
    interpolated log-linearly in rate to the latency limit, so the
    figure moves smoothly with capacity instead of jumping a whole step.
    A failing step with errors, or with no finite p99, is not interpolated.
    """
    passing = [step for step in steps if step["passed"]]
    failing = [step for step in steps if not step["passed"]]
    limit_ms = LATENCY_LIMIT_S * 1e3
    if not passing:
        first = steps[0]
        return first["rate"] * min(1.0, limit_ms / first["p99_ms"]) if math.isfinite(first["p99_ms"]) else first["rate"] / 2
    best = passing[-1]
    if not failing or not math.isfinite(failing[0]["p99_ms"]) or failing[0]["p99_ms"] <= limit_ms:
        return best["rate"]
    worst = failing[0]
    low, high = math.log(max(best["p99_ms"], 1e-3)), math.log(worst["p99_ms"])
    fraction = min(1.0, max(0.0, (math.log(limit_ms) - low) / (high - low)))
    return best["rate"] * (worst["rate"] / best["rate"]) ** fraction


def check_served(automl: AutoMLClassifier, traffic: Traffic, picks: list[int], sent) -> int:
    """Sampled served labels and proba must equal offline ``predict_batch`` bitwise."""
    checked = 0
    for pick, record in zip(picks, sent):
        if record.body is None:
            continue
        served = json.loads(record.body)
        labels, proba, _ = automl.predict_batch(traffic.rows[pick])
        check(served["labels"] == labels.tolist(), f"served labels {served['labels']} != offline {labels.tolist()}")
        check(served["proba"] == proba.tolist(), "served proba differs from offline predict_batch")
        checked += 1
    return checked


def serve_workload(rows: int, seed: int, seconds: float, trace: bool, work_dir: Path) -> dict:
    tracer = Tracer() if trace else None
    if trace:
        install_grid_layers(tracer)  # set-up spans: the model fit and its Within-ALE
    setup_times = []
    servers: list[ServeProcess] = []
    try:
        for i in range(SETUP_REPEATS):
            start = monotonic()
            registry_dir = work_dir / f"registry-{i}"
            automl = fit_and_publish(registry_dir)
            servers.append(ServeProcess(work_dir, str(i), registry_dir, trace and i == SETUP_REPEATS - 1))
            setup_times.append(monotonic() - start)
        if trace:
            tracer.uninstall()
        # Untraced runs keep only the last server; traced runs also keep the
        # first (untraced) one to measure the tracing overhead against.
        keep = {0, SETUP_REPEATS - 1} if trace else {SETUP_REPEATS - 1}
        for i in set(range(SETUP_REPEATS)) - keep:
            servers[i].stop()
        server = servers[-1]
        traffic = Traffic(seed, rows)

        baseline_p50 = None
        if trace:
            _, base_sent, _, _ = latency_phase(servers[0], traffic, seconds * LATENCY_SHARE)
            baseline_p50 = float(np.median([s.latency for s in base_sent if s.outcome == "completed"]))
            servers[0].stop()

        picks, sent, counts, warm = latency_phase(server, traffic, seconds * LATENCY_SHARE)
        engine = server.metrics()
        max_rate, steps, ladder_samples = ladder(server, traffic, seconds / LADDER_STEPS_PER_RUN)
        final = server.metrics()
        report = server.stop()
    finally:
        if trace:
            tracer.uninstall()
        for process in servers:
            stop_child(process.process)

    completed = [s.latency for s in sent if s.outcome == "completed"]
    phases = [warm, counts, *steps]
    attempted = sum(phase["offered"] for phase in phases)
    failed = attempted - sum(phase["completed"] for phase in phases)
    result = {
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            "setup_s": (float(np.median(setup_times)), "s"),
            "latency_p50_ms": (float(np.median(completed)) * 1e3, "ms"),
            "max_rate_rps": (max_rate, "1/s"),
            "peak_rss_mb": (report["peak_rss_mb"], "MB"),
        },
        "details": {
            "rows_per_request": rows,
            "connections": os.cpu_count(),
            "offered_rps": OFFERED_RPS,
            "latency_samples": len(completed),
            "latency_p99_ms": float(np.quantile(completed, 0.99)) * 1e3,
            "gen_lag_p99_ms": float(np.quantile([s.lag for s in sent], 0.99)) * 1e3,
            "ladder": steps,
            "transport": {"serve": report["transport"]},
        },
    }
    if trace:
        result["layers"] = _layer_metrics(tracer, report, sent, engine, final, completed, baseline_p50)
    try:
        checked = check_served(automl, traffic, picks, sent)
        for step_picks, step_sent in ladder_samples:
            checked += check_served(automl, traffic, step_picks, step_sent)
        check(checked > 0, "no served response was sampled for the bitwise check")
    except CheckFailed as error:
        error.result = result
        raise
    result["details"]["sampled_bitwise_checks"] = checked
    return result


def _layer_metrics(tracer, report, sent, engine, final, completed, baseline_p50) -> dict[str, float]:
    layers = report["layers"]
    setup = tracer.summary("setup")

    def get(name: str, field: str, source=layers) -> float:
        return float(source.get(name, {}).get(field, 0.0))

    waits = report["queue_wait_s"] or [0.0]
    engine_p50 = engine["histograms"]["latency_seconds"].get("p50", 0.0)
    send_to_done = [s.done - s.sent for s in sent if s.outcome == "completed"]
    counters = final["counters"]
    return {
        "ml.predict.calls": get("ml.predict", "calls"),
        "ml.predict.rows": get("ml.predict", "count"),
        "ml.predict.busy_s": get("ml.predict", "busy_s"),
        "setup.automl.fit.calls": get("automl.fit", "calls", setup),
        "setup.automl.fit.busy_s": get("automl.fit", "busy_s", setup),
        "setup.core.ale.busy_s": get("core.ale", "busy_s", setup),
        "serve.batches": float(counters["batches"]),
        "serve.batch_rows_mean": float(final["histograms"]["batch_size"].get("mean", 0.0)),
        "serve.queue_wait_p50_ms": float(np.median(waits)) * 1e3,
        "serve.queue_wait_p99_ms": float(np.quantile(waits, 0.99)) * 1e3,
        "serve.parse.busy_s": get("serve.parse", "busy_s"),
        "serve.monitor.busy_s": get("serve.monitor", "busy_s"),
        "serve.render.busy_s": get("serve.render", "busy_s"),
        "serve.transport_p50_ms": (float(np.median(send_to_done)) - engine_p50) * 1e3,
        "serve.shed": float(counters["shed"]),
        "serve.timeouts": float(counters["timeouts"]),
        "serve.errors": float(counters["errors"]),
        "gen.lag_p99_ms": float(np.quantile([s.lag for s in sent], 0.99)) * 1e3,
        "trace.overhead_frac": float(np.median(completed)) / baseline_p50 - 1.0,
    }
