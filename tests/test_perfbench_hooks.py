"""The benchmark's attachment points still attach.

``perfbench/`` times the program's layers from outside: it replaces
public functions and methods with timing wrappers and swaps
``repro.serve.serve_http`` to note which transport ``repro serve``
started.  A deletion or rename in ``src/`` that removes one of those
attributes would only break the benchmark when it next runs, so these
tests install every hook on a fresh tracer, check that each one really
wrapped something, uninstall, and check that every original is back.
"""

import sys
from pathlib import Path

import pytest

import repro.serve
from repro.cli import main as repro_main
from repro.datasets.scream import ScreamOracle

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


@pytest.fixture()
def spans():
    sys.path.insert(0, str(PERFBENCH))
    try:
        import spans as module

        yield module
    finally:
        sys.path.remove(str(PERFBENCH))
        sys.modules.pop("spans", None)


def _current(owner, attr):
    """What the tracer saved as the raw attribute: the class dict entry or the module global."""
    return owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)


class TestLayerHooks:
    def test_install_wraps_and_uninstall_restores_every_attribute(self, spans):
        tracer = spans.Tracer()
        try:
            spans.install_grid_layers(tracer)
            spans.install_serve_layers(tracer)
            hooks = list(tracer._undo)
            originals = {}
            for owner, attr, raw in hooks:
                originals.setdefault((id(owner), attr), (owner, attr, raw))
            assert hooks, "no layer hook installed"
            for owner, attr, raw in originals.values():
                assert _current(owner, attr) is not raw, f"{owner.__name__}.{attr} was not wrapped"
        finally:
            tracer.uninstall()
        assert tracer._undo == []
        for owner, attr, raw in originals.values():
            assert _current(owner, attr) is raw, f"{owner.__name__}.{attr} was not restored"

    def test_labelling_one_row_records_one_label_span_over_five_netsim_spans(self, spans):
        """The grid's labelling/netsim split is read from these spans.

        ``ScreamOracle`` must reach the fluid engine through the module
        global ``repro.datasets.scream.run_fluid_scenario``, once per
        protocol; otherwise ``netsim.fluid`` silently reads 0.
        """
        tracer = spans.Tracer()
        try:
            spans.install_grid_layers(tracer)
            ScreamOracle(random_state=0).label([[20.0, 40.0, 0.001, 2.0]])
        finally:
            tracer.uninstall()
        layers = tracer.summary(tracer.phase)
        assert layers["datasets.label"]["calls"] == 1
        assert layers["netsim.fluid"]["calls"] == 5
        [label_id] = [span[0] for span in tracer.spans if span[2] == "datasets.label"]
        assert {span[1] for span in tracer.spans if span[2] == "netsim.fluid"} == {label_id}


class TestServeLauncherHook:
    def test_repro_serve_calls_serve_http_through_the_package(
        self, served_scream_registry, monkeypatch
    ):
        """``repro serve`` must look ``serve_http`` up on ``repro.serve`` at call time,
        which is where ``perfbench/launch_serve.py`` swaps in its recorder."""

        class Started(Exception):
            pass

        started = []

        def recorder(service, host="127.0.0.1", port=0):
            started.append((service, host, port))
            raise Started

        monkeypatch.setattr(repro.serve, "serve_http", recorder)
        with pytest.raises(Started):
            repro_main(
                ["serve", "scream", "--dir", str(served_scream_registry.directory), "--port", "0"]
            )
        [(service, host, port)] = started
        try:
            assert service.healthz()["model"] == "scream"
            assert (host, port) == ("127.0.0.1", 0)
        finally:
            service.close()
