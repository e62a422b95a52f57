"""Per-layer attribution for traced benchmark runs.

The traced run wraps each layer's public function with a span recorded
through ``repro.obs.trace`` -- the program's own tracer -- so the spans
land in the same traces as the program's existing ``phase.*``,
``improve.iteration``, ``improve.regimes`` and ``egraph.run_rules`` spans
and travel home from pooled worker processes on ``JobOutcome.trace``.
Nothing here edits ``src/``: :func:`installed` rebinds module attributes
for the duration of a ``with`` block and restores them on exit.

A layer's *self* time is its span's duration minus the spans of nested
layers (``isel`` minus ``saturate`` and ``extract``); time spent inside
synthesized-operator evaluations (``synth``) is carved out of the span that
ran them, the same way.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
from contextlib import contextmanager

from repro.obs.trace import span
from repro.rival.eval import RivalEvaluator

#: (layer, module, attribute) for every function wrapped in traced runs.
#: Layers that already carry a span in the program are listed in
#: SPAN_LAYERS instead and are not wrapped a second time.
WRAPPED = (
    ("pipeline", "repro.core.pipeline", "CompilePipeline.run"),
    ("sample", "repro.accuracy.sampler", "sample_core"),
    ("localize", "repro.accuracy.localerror", "local_errors"),
    ("opportunity", "repro.cost.opportunity", "cost_opportunities"),
    ("isel", "repro.core.isel", "instruction_select"),
    ("extract", "repro.egraph.multi_extract", "extract_variants"),
    ("series", "repro.core.series", "series_candidates"),
    ("score.train", "repro.core.loop", "ImprovementLoop.score"),
    ("cache.get", "repro.service.cache", "CompileCache.get"),
    ("cache.put", "repro.service.cache", "CompileCache.put"),
    ("ledger.append", "repro.provenance.ledger", "ProvenanceLedger.append"),
)

#: Span name -> layer, for every span that counts as a layer.
SPAN_LAYERS = {
    f"bench.{layer}": layer for layer, _m, _a in WRAPPED if layer != "pipeline"
}
SPAN_LAYERS.update({
    "egraph.run_rules": "saturate",
    "improve.regimes": "regimes",
    "phase.score": "score.test",
    "exec.build": "exec.build",
    "exec.validate": "validate",
})

#: Layers inside ``phase.improve``; their outermost spans must cover it.
IMPROVE_LAYERS = (
    "localize", "opportunity", "isel", "saturate", "extract", "series",
    "score.train", "regimes",
)

STOP_REASONS = ("iteration-limit", "node-limit", "time-limit", "saturated")


class TimedEvaluator(RivalEvaluator):
    """The synthesized-operator oracle, with its busy time accumulated."""

    def __init__(self):
        super().__init__()
        self.seconds = 0.0

    def eval(self, *args, **kwargs):
        start = time.perf_counter()
        try:
            return super().eval(*args, **kwargs)
        finally:
            self.seconds += time.perf_counter() - start


def synth_oracle():
    """The evaluator behind every synthesized operator (``targets.synth``)."""
    from repro.targets import synth

    return synth._oracle()


def _argument(args, kwargs, index, name):
    if name in kwargs:
        return kwargs[name]
    return args[index] if len(args) > index else None


def _backend_points(backend) -> tuple[int, int]:
    if backend is None:
        return 0, 0
    counters = backend.counters()
    return counters.batch_points, counters.fastpath_hits


def _wrap(layer: str, fn):
    name = f"bench.{layer}"

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        with span(name) as record:
            if record is None:
                return fn(*args, **kwargs)
            synth = synth_oracle()
            synth_evals, synth_s = synth.evals, getattr(synth, "seconds", 0.0)
            evaluator = backend = None
            if layer == "sample":
                evaluator = _argument(args, kwargs, 2, "evaluator")
                backend = _argument(args, kwargs, 3, "oracle")
            elif layer == "localize":
                evaluator = _argument(args, kwargs, 4, "evaluator")
            evals = evaluator.evals if evaluator is not None else 0
            points, fast = _backend_points(backend)
            result = fn(*args, **kwargs)
            attrs = record["attrs"]
            attrs["synth_evals"] = synth.evals - synth_evals
            attrs["synth_s"] = getattr(synth, "seconds", 0.0) - synth_s
            if evaluator is not None:
                attrs["evals"] = evaluator.evals - evals
            if layer == "sample":
                after_points, after_fast = _backend_points(backend)
                attrs["batch_points"] = after_points - points
                attrs["fastpath_hits"] = after_fast - fast
                attrs["acceptance"] = result.acceptance
            elif layer == "extract":
                attrs["variants"] = len(result)
            return result

    return wrapper


def _resolve(module_name: str, attribute: str):
    owner = importlib.import_module(module_name)
    *path, leaf = attribute.split(".")
    for part in path:
        owner = getattr(owner, part)
    return owner, leaf


@contextmanager
def installed():
    """Wrap every layer function (and time the synth oracle) for the block.

    Functions imported by name into other ``repro`` modules are rebound
    there too, so every call site goes through the wrapper.
    """
    from repro.targets import synth

    restore: list[tuple[object, str, object]] = []
    previous_oracle = synth._ORACLE
    synth._ORACLE = TimedEvaluator()
    try:
        for layer, module_name, attribute in WRAPPED:
            owner, leaf = _resolve(module_name, attribute)
            original = getattr(owner, leaf)
            wrapper = _wrap(layer, original)
            owners = [owner]
            if "." not in attribute:
                owners += [
                    module for key, module in list(sys.modules.items())
                    if key.startswith("repro.") and module is not owner
                    and getattr(module, leaf, None) is original
                ]
            for target in owners:
                restore.append((target, leaf, original))
                setattr(target, leaf, wrapper)
        yield
    finally:
        for target, leaf, original in reversed(restore):
            setattr(target, leaf, original)
        synth._ORACLE = previous_oracle


# --- analysis ------------------------------------------------------------------------


def _layer_of(record: dict) -> str | None:
    return SPAN_LAYERS.get(record["name"])


def attribute(traces: list[dict]) -> dict:
    """Self seconds, call counts and work counts per layer over ``traces``.

    Also returns ``improve_s`` (summed ``phase.improve``) and
    ``improve_covered_s``: the part of it spent inside outermost improve
    layers, i.e. the attributed share of the improvement loop.
    """
    self_s: dict[str, float] = {}
    calls: dict[str, int] = {}
    counts: dict[str, float] = {}
    stops = dict.fromkeys(STOP_REASONS, 0)
    improve_s = covered_s = 0.0

    def add(key, value):
        counts[key] = counts.get(key, 0) + value

    for trace in traces:
        spans = trace.get("spans", [])
        nearest: list[int | None] = []
        in_improve: list[bool] = []
        for record in spans:
            parent = record["parent"]
            in_improve.append(
                record["name"] == "phase.improve"
                or (parent is not None and in_improve[parent])
            )
            while parent is not None and _layer_of(spans[parent]) is None:
                parent = spans[parent]["parent"]
            nearest.append(parent)
        for index, record in enumerate(spans):
            layer = _layer_of(record)
            attrs = record.get("attrs") or {}
            if record["name"] == "bench.pipeline":
                add("synth.s", attrs.get("synth_s", 0.0))
                add("synth.evals", attrs.get("synth_evals", 0))
            if record["name"] == "phase.improve":
                improve_s += record["dur"]
            if layer is None:
                continue
            calls[layer] = calls.get(layer, 0) + 1
            own = record["dur"] - attrs.get("synth_s", 0.0)
            self_s[layer] = self_s.get(layer, 0.0) + own
            parent = nearest[index]
            if parent is not None:
                self_s[_layer_of(spans[parent])] -= record["dur"]
            elif layer in IMPROVE_LAYERS and in_improve[index]:
                covered_s += record["dur"]
            if layer == "sample":
                add("sample.evals", attrs.get("evals", 0))
                add("sample.batch_points", attrs.get("batch_points", 0))
                add("sample.fastpath_hits", attrs.get("fastpath_hits", 0))
                add("sample.acceptance", attrs.get("acceptance", 0.0))
            elif layer == "localize":
                add("localize.evals", attrs.get("evals", 0))
            elif layer == "extract":
                add("extract.variants", attrs.get("variants", 0))
            elif layer == "saturate":
                add("saturate.enodes_built", attrs.get("enodes_built", 0))
                add("saturate.matches_applied", attrs.get("matches_applied", 0))
                reason = attrs.get("stop_reason")
                if reason in stops:
                    stops[reason] += 1
    return {
        "self_s": self_s,
        "calls": calls,
        "counts": counts,
        "stops": stops,
        "improve_s": improve_s,
        "improve_covered_s": covered_s,
    }
