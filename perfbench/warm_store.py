"""Warm a ``repro store serve`` with one write-through cold grid, in its own process.

Usage: ``python perfbench/warm_store.py REPORT URL LOCAL_DIR [--trace]``

``grid_store_warm`` runs its warm-up here, apart from the benchmark
process, so that process's peak RSS covers only the store-warm rounds.
REPORT receives JSON with the grid's score digest, how many artifacts
the write-through pushed and stored and, with ``--trace``, the layer
summary of the warm-up.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

from common import repo_src


def main(argv: list[str]) -> int:
    report_path, url, local_dir = Path(argv[0]), argv[1], Path(argv[2])
    trace = "--trace" in argv[3:]
    repo_src()

    from grid_workloads import ALGORITHMS, grid_config, run_grid
    from spans import Tracer, install_grid_layers

    from repro.runtime import ArtifactCache, SerialExecutor, TaskRuntime

    tracer = Tracer()
    if trace:
        install_grid_layers(tracer)
    runtime = TaskRuntime(SerialExecutor(), cache=ArtifactCache(local_dir), store_url=url)
    try:
        _, digest, grid_meta = run_grid(grid_config(), runtime, list(ALGORITHMS))
    finally:
        runtime.cache.close()
        tracer.uninstall()
    report = {
        "digest": digest,
        "pushes": grid_meta["store"]["pushes"],
        "stores": runtime.stats["cache_stores"],
        "layers": tracer.summary("setup"),
    }
    report_path.write_text(json.dumps(report), encoding="utf-8")
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
