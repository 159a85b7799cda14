"""Run ``repro serve`` in this process, optionally with layer spans installed.

Usage: ``python perfbench/launch_serve.py REPORT [--trace] -- <repro serve arguments>``

Calls the ``repro serve`` entry point unchanged.  With ``--trace`` the
request-path wrappers from :mod:`spans` are installed first.  When the
server stops (SIGINT, as with Ctrl-C), REPORT receives JSON with the
transport the CLI started, this process's peak RSS and, when traced,
the layer summary and per-request queue waits.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

from common import peak_rss_mb, repo_src


def main(argv: list[str]) -> int:
    report_path = Path(argv[0])
    split = argv.index("--")
    trace = "--trace" in argv[1:split]
    repo_src()

    import repro.serve as serve_package
    from repro.cli import main as repro_main

    from spans import Tracer, install_serve_layers

    # ``repro serve`` has one transport: the threaded ``serve_http``.
    # Record that it really ran, so a result never names a transport
    # the CLI did not start.
    transports: list[str] = []
    serve_http = serve_package.serve_http

    def noting(*args, **kwargs):
        transports.append("threaded")
        return serve_http(*args, **kwargs)

    serve_package.serve_http = noting

    tracer = Tracer()
    tracer.phase = "measure"
    waits = install_serve_layers(tracer) if trace else {"queue_wait_s": []}
    try:
        code = repro_main(["serve", *argv[split + 1 :]])
    except KeyboardInterrupt:
        code = 0  # stopped before the CLI reached its own Ctrl-C handler
    report = {
        "transport": ",".join(transports) or "none",
        "peak_rss_mb": peak_rss_mb(),
        "layers": tracer.summary("measure"),
        **waits,
    }
    report_path.write_text(json.dumps(report), encoding="utf-8")
    return code


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
