"""Layer spans recorded from outside the program.

A :class:`Tracer` replaces public functions of the program with thin
wrappers that record one span per call: name, start, end, the span that
caused it (the enclosing traced call on the same thread) and an optional
work count (rows, bytes).  Spans stay in memory and are aggregated when
the run ends; nothing in ``src/`` is edited, and :meth:`Tracer.uninstall`
restores every original.

A layer's *self* time is its busy time minus the time its direct child
spans cover, so nested layers (netsim inside labelling inside a grid
cell) are never double-counted.

:func:`install_grid_layers` and :func:`install_serve_layers` name the
layer boundaries; the names are the ``<module>.<what>`` prefixes of the
benchmark's per-layer metrics.
"""

from __future__ import annotations

import functools
import threading
from typing import Any, Callable

from repro.runtime.clock import monotonic

class Tracer:
    """Record call spans at wrapped layer boundaries."""

    def __init__(self) -> None:
        self.phase = "setup"  # or "measure": the phase new spans belong to
        # (id, parent id or -1, name, phase, start, end, count)
        self.spans: list[tuple[int, int, str, str, float, float, float]] = []
        self._lock = threading.Lock()
        self._local = threading.local()
        self._undo: list[tuple[Any, str, Any]] = []

    # -- recording ---------------------------------------------------------

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def traced(self, name: str, fn: Callable, count: Callable | None = None) -> Callable:
        """``fn`` wrapped to record a ``name`` span per call.

        ``count(args, kwargs, result)`` returns the call's work count
        (rows, bytes); without it a call counts as 0.
        """
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = tracer._stack()
            with tracer._lock:
                span_id = len(tracer.spans)
                tracer.spans.append((span_id, -1, name, tracer.phase, 0.0, 0.0, 0.0))
            parent = stack[-1] if stack else -1
            stack.append(span_id)
            result = None
            start = monotonic()
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                end = monotonic()
                stack.pop()
                amount = float(count(args, kwargs, result)) if count is not None and result is not None else 0.0
                with tracer._lock:
                    phase = tracer.spans[span_id][3]
                    tracer.spans[span_id] = (span_id, parent, name, phase, start, end, amount)

        return wrapper

    def wrap(self, owner: Any, attr: str, name: str, count: Callable | None = None) -> None:
        """Replace ``owner.attr`` with a traced wrapper (undone by :meth:`uninstall`)."""
        raw = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        self._undo.append((owner, attr, raw))
        setattr(owner, attr, self.traced(name, getattr(owner, attr), count))

    def uninstall(self) -> None:
        """Restore every wrapped attribute, newest first."""
        while self._undo:
            owner, attr, raw = self._undo.pop()
            setattr(owner, attr, raw)

    # -- aggregation -------------------------------------------------------

    def summary(self, phase: str) -> dict[str, dict[str, float]]:
        """Per layer: ``calls``, ``busy_s``, ``self_s`` and ``count`` in ``phase``."""
        with self._lock:
            spans = list(self.spans)
        child_time = [0.0] * len(spans)
        for _, parent, _, _, start, end, _ in spans:
            if parent >= 0:
                child_time[parent] += end - start
        layers: dict[str, dict[str, float]] = {}
        for span_id, _, name, span_phase, start, end, amount in spans:
            if span_phase != phase or end == 0.0:
                continue
            layer = layers.setdefault(name, {"calls": 0, "busy_s": 0.0, "self_s": 0.0, "count": 0.0})
            layer["calls"] += 1
            layer["busy_s"] += end - start
            layer["self_s"] += end - start - child_time[span_id]
            layer["count"] += amount
        return layers


def _rows(args, kwargs, result) -> int:
    return len(args[1])  # (self, X, ...)


def install_grid_layers(tracer: Tracer) -> None:
    """Wrap the grid path's layers: labelling, netsim, AutoML, ALE, subspace, cache, store."""
    import importlib

    import repro.datasets.scream as scream
    from repro.automl import AutoMLClassifier
    from repro.core.feedback import AleFeedback, FeedbackReport
    from repro.experiments.tasks import GRID_CELL_TASK
    from repro.runtime.cache import ArtifactCache
    from repro.store.client import StoreClient

    tracer.wrap(scream.ScreamOracle, "score_all_protocols", "datasets.label")
    tracer.wrap(scream, "run_fluid_scenario", "netsim.fluid")
    tracer.wrap(AutoMLClassifier, "fit", "automl.fit")
    for method in ("predict", "predict_proba", "predict_batch", "score"):
        tracer.wrap(AutoMLClassifier, method, "ml.predict", _rows)
    tracer.wrap(AleFeedback, "analyze", "core.ale")
    tracer.wrap(FeedbackReport, "suggest", "core.subspace")
    tracer.wrap(FeedbackReport, "filter_pool", "core.subspace")
    tracer.wrap(ArtifactCache, "load", "runtime.cache.load")
    tracer.wrap(ArtifactCache, "store", "runtime.cache.store")
    tracer.wrap(ArtifactCache, "install_blob", "runtime.cache.store")
    tracer.wrap(StoreClient, "fetch", "store.fetch", lambda args, kwargs, blob: len(blob))
    tracer.wrap(StoreClient, "push", "store.push", lambda args, kwargs, result: len(args[2]))

    # Grid cells run through the task registry, which holds the function
    # object itself; wrapping the resolver reaches it without touching the
    # registry.  (``repro.runtime.task`` the attribute is the decorator, so
    # the module comes from the import system.)
    task_module = importlib.import_module("repro.runtime.task")
    resolve = task_module.resolve_task

    @functools.wraps(resolve)
    def resolve_traced(name: str):
        fn = resolve(name)
        return tracer.traced("experiments.cell", fn) if name == GRID_CELL_TASK else fn

    tracer._undo.append((task_module, "resolve_task", resolve))
    task_module.resolve_task = resolve_traced


def install_serve_layers(tracer: Tracer) -> dict[str, list[float]]:
    """Wrap the request path's layers; returns the per-request queue waits (s).

    A request's queue wait runs from its ``submit`` to the start of the
    ``predict_batch`` call that answers it.  The engine's single batcher
    drains a FIFO queue, so the next batch of ``n`` rows is exactly the
    oldest accepted requests totalling ``n`` rows; submits are serialized
    here so that the recorded order is the queue order.
    """
    import collections

    import repro.serve.http as http
    import repro.serve.service as service
    from repro.automl import AutoMLClassifier
    from repro.serve.engine import InferenceEngine
    from repro.serve.monitor import UncertaintyMonitor

    waits: dict[str, list[float]] = {"queue_wait_s": []}
    accepted: collections.deque = collections.deque()
    order_lock = threading.Lock()
    submit = InferenceEngine.submit

    @functools.wraps(submit)
    def submit_in_order(self, X, **kwargs):
        with order_lock:
            pending = submit(self, X, **kwargs)
            accepted.append(pending)
        return pending

    predict_batch = AutoMLClassifier.predict_batch

    @functools.wraps(predict_batch)
    def predict_batch_timed(self, X):
        rows = len(X)
        with order_lock:
            while rows > 0 and accepted:
                pending = accepted.popleft()
                rows -= pending.X.shape[0]
                waits["queue_wait_s"].append(pending.stopwatch.elapsed())
        return predict_batch(self, X)

    tracer._undo.append((InferenceEngine, "submit", submit))
    InferenceEngine.submit = submit_in_order
    tracer._undo.append((AutoMLClassifier, "predict_batch", predict_batch))
    AutoMLClassifier.predict_batch = predict_batch_timed
    tracer.wrap(AutoMLClassifier, "predict_batch", "ml.predict", _rows)
    tracer.wrap(UncertaintyMonitor, "evaluate", "serve.monitor")
    tracer.wrap(http, "parse_json_body", "serve.parse")
    tracer.wrap(service, "render_prediction", "serve.render")
    return waits
