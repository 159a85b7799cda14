"""The grid workloads: a cold Table-1 grid, and the same grid from a warm store.

Both run ``run_table1`` serially at the ``BENCH_grid`` configuration: 8
cells (4 strategies x 2 repeats).  One operation is one full grid; its
wall time is the operation's latency.

The configuration, its experiment seed included, is the same in every
run: the grid's cost moves by about a third between experiment seeds,
which alone would exceed the benchmark's bounds.  The workload seed
draws the order the algorithms are submitted in; ``run_table1`` gives
bitwise-identical scores in any order, so every seed gives the same
score digest.

- ``grid_cold``: uncached, no store, dataset memo cleared before every
  grid, so each grid pays netsim labelling, every AutoML fit, ALE
  feedback and scoring.
- ``grid_store_warm``: set-up starts ``repro store serve`` (its default
  threaded transport) and warms it with one write-through cold grid in a
  child interpreter (``warm_store.py``), so this process's peak RSS
  covers only the timed grids.  Every timed grid then starts from an
  empty local cache, so the store fetch, SHA-256 verification,
  unpickling and install do all the work.
"""

from __future__ import annotations

import hashlib
import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np

from common import CHILD_TIMEOUT_S, check, child_env, launch, peak_rss_mb, stop_child
from spans import Tracer, install_grid_layers

from repro.experiments import Table1Config, run_table1
from repro.experiments.grid import clear_dataset_memo
from repro.rng import check_random_state
from repro.runtime import ArtifactCache, SerialExecutor, TaskRuntime
from repro.runtime.clock import monotonic

ALGORITHMS = ["no_feedback", "uniform", "cross_ale", "within_ale_pool"]

#: The ``BENCH_grid`` (and golden-master) experiment seed.
EXPERIMENT_SEED = 20211110

#: Fresh interpreters timed for ``grid_cold``'s set-up.
SETUP_REPEATS = 3

GRID_IMPORTS = "import repro.experiments.table1, repro.experiments.tasks, repro.store.client"

WARM_STORE = Path(__file__).resolve().parent / "warm_store.py"
#: Seconds the write-through warm-up grid may take.
WARM_TIMEOUT_S = 120.0


def grid_config() -> Table1Config:
    """The ``BENCH_grid`` configuration."""
    return Table1Config(
        n_train=60,
        n_test=80,
        n_pool=60,
        n_feedback=10,
        n_test_sets=4,
        n_repeats=2,
        cross_runs=2,
        automl_iterations=4,
        ensemble_size=3,
        min_distinct_members=2,
        grid_size=8,
        seed=EXPERIMENT_SEED,
    )


def scores_digest(table) -> str:
    """SHA-256 over every algorithm's score array, in a fixed order."""
    h = hashlib.sha256()
    for name in ALGORITHMS:
        h.update(name.encode())
        h.update(table.scores(name).scores.tobytes())
    return h.hexdigest()


def algorithm_order(seed: int) -> list[str]:
    """The workload seed's submission order of :data:`ALGORITHMS`."""
    return [ALGORITHMS[i] for i in check_random_state(seed).permutation(len(ALGORITHMS))]


def run_grid(config: Table1Config, runtime: TaskRuntime, algorithms: list[str]) -> tuple[float, str, dict]:
    """One serial grid from a cleared dataset memo: ``(seconds, digest, grid metadata)``."""
    clear_dataset_memo()
    start = monotonic()
    table, record = run_table1(config, algorithms=algorithms, runtime=runtime)
    seconds = monotonic() - start
    return seconds, scores_digest(table), record.metadata["grid"]


class RoundLog:
    """Timed grids of one run, split into untraced and traced rounds."""

    def __init__(self) -> None:
        self.untraced: list[float] = []
        self.traced: list[float] = []
        self.stats = {"executed": 0, "cache_hits": 0, "failed": 0}
        self.store = {"remote_hits": 0, "remote_misses": 0, "remote_fetch_failures": 0,
                      "integrity_rejections": 0, "degradations": 0}
        self.failed_rounds = 0

    def add(self, seconds: float, traced: bool, runtime: TaskRuntime, grid_meta: dict) -> None:
        (self.traced if traced else self.untraced).append(seconds)
        if traced:
            for key in self.stats:
                self.stats[key] += int(runtime.stats[key])
            for key in self.store:
                self.store[key] += int((grid_meta.get("store") or {}).get(key, 0))
        if runtime.stats["failed"] or grid_meta["failed_cells"] or grid_meta["failed_repeats"]:
            self.failed_rounds += 1

    @property
    def rounds(self) -> int:
        return len(self.untraced) + len(self.traced)


def measure_rounds(seconds: float, trace: bool, one_round, tracer: Tracer | None) -> RoundLog:
    """Run grids until ``seconds`` have passed (at least two).

    With tracing, rounds alternate untraced/traced so the same run gives
    the tracing overhead; layer wrappers exist only during traced rounds.
    """
    log = RoundLog()
    start = monotonic()
    while log.rounds < 2 or monotonic() - start < seconds:
        traced = trace and log.rounds % 2 == 1
        if traced:
            tracer.phase = "measure"
            install_grid_layers(tracer)
        try:
            seconds_taken, runtime, grid_meta = one_round(log.rounds)
        finally:
            if traced:
                tracer.uninstall()
        log.add(seconds_taken, traced, runtime, grid_meta)
    return log


def latency_metrics(times: list[float]) -> dict[str, tuple[float, str]]:
    """Grids run one at a time, so the sustainable rate is one over the median grid time."""
    return {
        "latency_p50_ms": (float(np.median(times)) * 1e3, "ms"),
        "max_rate_rps": (1.0 / float(np.median(times)), "1/s"),
    }


def layer_metrics(tracer: Tracer, log: RoundLog, setup: dict) -> dict[str, float]:
    """The grid path's per-layer metrics from the traced rounds and the set-up summary."""
    layers = tracer.summary("measure")
    wall = sum(log.traced)

    def get(name: str, field: str, source=layers) -> float:
        return float(source.get(name, {}).get(field, 0.0))

    tasks = log.stats["executed"] + log.stats["cache_hits"]
    fetched = log.store["remote_hits"] + log.store["remote_misses"] + log.store["remote_fetch_failures"]
    metrics = {
        "datasets.label.calls": get("datasets.label", "calls"),
        "datasets.label.busy_s": get("datasets.label", "busy_s"),
        "datasets.label.self_s": get("datasets.label", "self_s"),
        "netsim.fluid.calls": get("netsim.fluid", "calls"),
        "netsim.fluid.busy_s": get("netsim.fluid", "busy_s"),
        "automl.fit.calls": get("automl.fit", "calls"),
        "automl.fit.busy_s": get("automl.fit", "busy_s"),
        "ml.predict.calls": get("ml.predict", "calls"),
        "ml.predict.rows": get("ml.predict", "count"),
        "ml.predict.busy_s": get("ml.predict", "busy_s"),
        "core.ale.calls": get("core.ale", "calls"),
        "core.ale.busy_s": get("core.ale", "busy_s"),
        "core.subspace.calls": get("core.subspace", "calls"),
        "core.subspace.busy_s": get("core.subspace", "busy_s"),
        "experiments.cell.calls": get("experiments.cell", "calls"),
        "experiments.cell.self_s": get("experiments.cell", "self_s"),
        "runtime.tasks.executed": float(log.stats["executed"]),
        "runtime.tasks.cache_hits": float(log.stats["cache_hits"]),
        "runtime.tasks.failed": float(log.stats["failed"]),
        "runtime.cache.load_s": get("runtime.cache.load", "busy_s"),
        "runtime.cache.store_s": get("runtime.cache.store", "busy_s"),
        "runtime.cache.hit_ratio": log.stats["cache_hits"] / tasks if tasks else 0.0,
        "store.fetch.calls": get("store.fetch", "calls"),
        "store.fetch.bytes": get("store.fetch", "count"),
        "store.fetch.busy_s": get("store.fetch", "busy_s"),
        "store.hit_ratio": log.store["remote_hits"] / fetched if fetched else 0.0,
        "store.integrity_rejections": float(log.store["integrity_rejections"]),
        "store.degradations": float(log.store["degradations"]),
        "store.push.calls": get("store.push", "calls"),
        "store.push.bytes": get("store.push", "count"),
        "store.push.busy_s": get("store.push", "busy_s"),
        "setup.store.push.calls": get("store.push", "calls", setup),
        "setup.store.push.bytes": get("store.push", "count", setup),
        "setup.store.push.busy_s": get("store.push", "busy_s", setup),
        "setup.automl.fit.calls": get("automl.fit", "calls", setup),
        "setup.automl.fit.busy_s": get("automl.fit", "busy_s", setup),
        "setup.datasets.label.busy_s": get("datasets.label", "busy_s", setup),
        "setup.core.ale.busy_s": get("core.ale", "busy_s", setup),
    }
    for layer in ("datasets.label", "automl.fit", "core.ale", "core.subspace"):
        metrics[f"{layer}.share"] = metrics[f"{layer}.busy_s"] / wall
    metrics["trace.overhead_frac"] = float(np.median(log.traced) / np.median(log.untraced)) - 1.0
    return metrics


def _finish(log: RoundLog, setup_s: float, trace: bool, tracer, setup_layers: dict, details: dict) -> dict:
    times = log.traced if trace else log.untraced
    result = {
        "attempted": log.rounds,
        "failed": log.failed_rounds,
        "metrics": {
            "setup_s": (setup_s, "s"),
            **latency_metrics(times),
            "peak_rss_mb": (peak_rss_mb(), "MB"),
        },
        "details": {**details, "rounds": log.rounds, "round_seconds": log.untraced + log.traced},
    }
    if trace:
        result["layers"] = layer_metrics(tracer, log, setup_layers)
    return result


def grid_cold(seed: int, seconds: float, trace: bool, work_dir) -> dict:
    """Serial, uncached, no-store grids at the ``BENCH_grid`` configuration."""
    config = grid_config()
    algorithms = algorithm_order(seed)
    setup_times = []
    for _ in range(SETUP_REPEATS):
        start = monotonic()
        subprocess.run([sys.executable, "-c", GRID_IMPORTS], env=child_env(), check=True,
                       timeout=CHILD_TIMEOUT_S)
        setup_times.append(monotonic() - start)

    tracer = Tracer() if trace else None
    digests: list[str] = []

    def one_round(index: int):
        runtime = TaskRuntime(SerialExecutor())
        seconds_taken, digest, grid_meta = run_grid(config, runtime, algorithms)
        digests.append(digest)
        check(digest == digests[0], f"grid round {index} digest {digest} != serial reference {digests[0]}")
        return seconds_taken, runtime, grid_meta

    log = measure_rounds(seconds, trace, one_round, tracer)
    details = {"algorithms": algorithms, "digest": digests[0], "transport": {}}
    return _finish(log, float(np.median(setup_times)), trace, tracer, {}, details)


def _start_store(store_dir, log_path) -> tuple[subprocess.Popen, str, str]:
    """``repro store serve`` at its defaults on a free port: ``(process, url, transport)``."""
    command = [sys.executable, "-m", "repro", "store", "serve", "--dir", str(store_dir), "--port", "0"]
    process, banner = launch(command, log_path)
    transport = banner.split("(", 1)[1].split(" transport", 1)[0]
    return process, banner.split()[0], transport


def _warm_store(url: str, trace: bool, work_dir) -> dict:
    """Run the write-through cold grid in a child interpreter; returns its report."""
    report_path = work_dir / "warm.json"
    command = [sys.executable, str(WARM_STORE), str(report_path), url, str(work_dir / "cold-local")]
    command += ["--trace"] if trace else []
    completed = subprocess.run(command, env=child_env(), capture_output=True, text=True,
                               timeout=WARM_TIMEOUT_S, check=False)
    check(completed.returncode == 0, f"store warm-up exited with {completed.returncode}: {completed.stderr[-2000:]}")
    return json.loads(report_path.read_text(encoding="utf-8"))


def grid_store_warm(seed: int, seconds: float, trace: bool, work_dir) -> dict:
    """Empty-cache grids answered by a store warmed with one write-through grid."""
    config = grid_config()
    algorithms = algorithm_order(seed)
    start = monotonic()
    process, url, transport = _start_store(work_dir / "store", work_dir / "store.log")
    try:
        warm = _warm_store(url, trace, work_dir)
        setup_s = monotonic() - start
        reference = warm["digest"]
        check(warm["pushes"] == warm["stores"], f"write-through pushed {warm['pushes']} of {warm['stores']} artifacts")

        def one_round(index: int):
            local = work_dir / f"warm-{index}"
            runtime = TaskRuntime(SerialExecutor(), cache=ArtifactCache(local), store_url=url)
            try:
                seconds_taken, digest, grid_meta = run_grid(config, runtime, algorithms)
            finally:
                runtime.cache.close()
            shutil.rmtree(local, ignore_errors=True)
            check(digest == reference, f"store-warm round {index} digest {digest} != cold reference {reference}")
            check(runtime.stats["executed"] == 0, f"store-warm round {index} executed {runtime.stats['executed']} task(s)")
            store = grid_meta["store"]
            check(store["integrity_rejections"] == 0 and not store["degraded"],
                  f"store-warm round {index}: {store}")
            return seconds_taken, runtime, grid_meta

        tracer = Tracer() if trace else None
        log = measure_rounds(seconds, trace, one_round, tracer)
    finally:
        stop_child(process)
    details = {"algorithms": algorithms, "digest": reference, "transport": {"store": transport}}
    return _finish(log, setup_s, trace, tracer, warm["layers"], details)
