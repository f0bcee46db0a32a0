"""Per-layer probes for the traced run and the metrics derived from them.

A layer is a module of the package. Each probe wraps one public function
(or, for the wire client, the one method every round trip goes through)
from outside the package; see ``tracer.Tracer.install``.
"""

from __future__ import annotations

import logging
import re
import statistics

_CURVE_RE = re.compile(r"step (\d+): validation label accuracy ([0-9.]+)")


class LayerObserver:
    """Counts that need a probe's arguments or result, plus the validation
    curve read from the ``taskrouter.router`` logger."""

    def __init__(self, tracer):
        self.tracer = tracer
        self.train_steps = 0
        self.useful_steps = 0
        self.examples = 0
        self.skips = 0
        self.prompts: dict[str, list] = {}  # flow root -> [prompts, distinct set]
        self.curve: list[tuple[int, float]] = []
        self.curves: list[dict] = []
        self._handler = _CurveHandler(self.curve)
        self._logger = logging.getLogger("taskrouter.router")
        self._saved_level = self._logger.level

    def attach(self) -> None:
        self._logger.addHandler(self._handler)
        self._logger.setLevel(logging.INFO)

    def detach(self) -> None:
        self._logger.removeHandler(self._handler)
        self._logger.setLevel(self._saved_level)

    def after_train(self, args, kwargs, result) -> None:
        from taskrouter.router import TrainConfig

        config = kwargs.get("config", args[2] if len(args) > 2 else TrainConfig())
        steps = config.max_iterations
        chosen = steps
        if self.curve:
            best = max(acc for _, acc in self.curve)
            chosen = next(step for step, acc in self.curve if acc == best)
        self.curves.append({"steps": steps, "chosen_step": chosen, "curve": list(self.curve)})
        self.train_steps += steps
        self.useful_steps += chosen
        self.curve.clear()

    def after_build(self, args, kwargs, result) -> None:
        examples = result[0] if isinstance(result, tuple) else result
        self.examples += len(examples)

    def after_evaluate(self, args, kwargs, result) -> None:
        self.skips += result.skip_count

    def after_embed_texts(self, args, kwargs, result) -> None:
        prompts = args[1] if len(args) > 1 else kwargs["prompts"]
        entry = self.prompts.setdefault(self.tracer.root() or "", [0, set()])
        entry[0] += len(prompts)
        entry[1].update(prompts)

    def distinct_frac(self, roots) -> float:
        total = sum(self.prompts[r][0] for r in roots if r in self.prompts)
        distinct = sum(len(self.prompts[r][1]) for r in roots if r in self.prompts)
        return distinct / total if total else 0.0


class _CurveHandler(logging.Handler):
    def __init__(self, sink: list):
        super().__init__(logging.INFO)
        self.sink = sink

    def emit(self, record: logging.LogRecord) -> None:
        m = _CURVE_RE.fullmatch(record.getMessage())
        if m:
            self.sink.append((int(m.group(1)), float(m.group(2))))


def probes(obs: LayerObserver) -> list:
    """(module, attribute path, span name, kind, after) for every probe."""
    t, c = "timed", "counted"
    return [
        ("taskrouter.synth", "generate_world", "synth.generate_world", t, None),
        ("taskrouter.core", "load_world", "core.load_world", t, None),
        ("taskrouter.core", "save_world", "core.save_world", t, None),
        ("taskrouter.core", "aggregate_accuracy", "core.aggregate_accuracy", t, None),
        ("taskrouter.core", "group_records", "core.group_records", t, None),
        ("taskrouter.prompts", "render", "prompts.render", c, None),
        ("taskrouter.prompts", "closed_prompt_set", "prompts.closed_prompt_set", c, None),
        ("taskrouter.routerdata", "build_router_dataset", "routerdata.build_router_dataset",
         t, obs.after_build),
        ("taskrouter.routerdata", "save_corpus", "routerdata.save_corpus", t, None),
        ("taskrouter.router", "featurize", "router.featurize", t, None),
        ("taskrouter.router", "train_router", "router.train_router", t, obs.after_train),
        ("taskrouter.router", "evaluate_router", "router.evaluate_router", t, None),
        ("taskrouter.router", "RouterModel.route", "router.route", c, None),
        ("taskrouter.router", "RouterModel.route_text", "router.route_text", t, None),
        ("taskrouter.router", "RouterModel.save", "router.save", t, None),
        ("taskrouter.router", "RouterModel.load", "router.load", t, None),
        ("taskrouter.baselines", "build_comparison_report",
         "baselines.build_comparison_report", t, None),
        ("taskrouter.baselines", "voting_accuracy", "baselines.voting_accuracy", t, None),
        ("taskrouter.baselines", "upper_bound_accuracy", "baselines.upper_bound_accuracy",
         t, None),
        ("taskrouter.harness", "run_lodo", "harness.run_lodo", t, None),
        ("taskrouter.scoring", "evaluate", "scoring.evaluate", t, obs.after_evaluate),
        ("taskrouter.scoring", "SeededEmbeddingBackend.embed_image", "scoring.embed_image",
         t, None),
        ("taskrouter.scoring", "SeededEmbeddingBackend.embed_texts", "scoring.embed_texts",
         t, obs.after_embed_texts),
        ("taskrouter.scoring", "SeededLogprobBackend.option_token_logprobs",
         "scoring.logprobs", t, None),
        ("taskrouter.wire", "WireBackendClient.embed_image", "scoring.embed_image", t, None),
        ("taskrouter.wire", "WireBackendClient.embed_texts", "scoring.embed_texts",
         t, obs.after_embed_texts),
        ("taskrouter.wire", "WireBackendClient.option_token_logprobs", "scoring.logprobs",
         t, None),
        ("taskrouter.wire", "WireBackendClient._call", "wire.round_trip", t, None),
        ("taskrouter.wire", "SubprocessBackend.__init__", "wire.spawn", t, None),
    ]


KEEP_DURATIONS = ("wire.round_trip",)
BACKEND_SPANS = ("scoring.embed_image", "scoring.embed_texts", "scoring.logprobs")

# name -> unit, in the order they are reported
UNITS = {
    "synth.generate_world.s": "s",
    "core.load_world.s": "s",
    "core.save_world.s": "s",
    "core.aggregate_accuracy.calls": "count",
    "core.aggregate_accuracy.s": "s",
    "core.group_records.calls": "count",
    "core.group_records.s": "s",
    "prompts.render.calls": "count",
    "prompts.closed_prompt_set.calls": "count",
    "routerdata.build_router_dataset.s": "s",
    "routerdata.build_router_dataset.examples_per_s": "1/s",
    "routerdata.save_corpus.s": "s",
    "router.featurize.calls": "count",
    "router.featurize.us_per_line": "us",
    "router.train_router.s": "s",
    "router.train_router.steps_per_s": "1/s",
    "router.train_router.useful_step_frac": "ratio",
    "router.train_router.lodo_share": "ratio",
    "router.evaluate_router.s": "s",
    "router.evaluate_router.qps": "1/s",
    "router.route.calls": "count",
    "router.save.s": "s",
    "router.load.s": "s",
    "router.inputs.distinct_frac": "ratio",
    "baselines.build_comparison_report.self_s": "s",
    "baselines.voting_accuracy.s": "s",
    "baselines.upper_bound_accuracy.s": "s",
    "harness.run_lodo.self_s": "s",
    "harness.folds_failed": "count",
    "scoring.evaluate.s": "s",
    "scoring.evaluate.self_s": "s",
    "scoring.evaluate.skips": "count",
    "scoring.backend_wait_s": "s",
    "scoring.embed_image.calls": "count",
    "scoring.embed_texts.calls": "count",
    "scoring.embed_texts.prompts": "count",
    "scoring.embed_texts.distinct_frac": "ratio",
    "scoring.embed_texts.unique_copy_distinct_frac": "ratio",
    "scoring.logprobs.calls": "count",
    "wire.spawn_s": "s",
    "wire.round_trips": "count",
    "wire.round_trip_us_p50": "us",
    "wire.round_trip_us_p99": "us",
    "wire.bytes_per_round_trip": "B",
    "trace.overhead_s": "s",
    "trace.unattributed_frac": "ratio",
}


def _sec(ns: int) -> float:
    return ns / 1e9


def _ratio(a: float, b: float) -> float:
    return a / b if b else 0.0


def layer_metrics(tracer, obs: LayerObserver, pipe, overhead_s: float) -> dict:
    """Every per-layer metric, from one traced set-up plus one traced
    iteration of every flow."""
    g = tracer.get
    lodo_root = tracer.by_root.get("flow.lodo", {})
    lodo_wall = lodo_root.get("flow.lodo")
    lodo_train = lodo_root.get("router.train_router")
    # round trips made while scoring; the info and shutdown calls of each
    # server are excluded (they are part of wire.spawn_s and of closing)
    trips = tracer.durations_under("wire.round_trip", BACKEND_SPANS)
    roots = [name for name in tracer.by_root if name.startswith("flow.")]
    root_wall = sum(tracer.by_root[r][r].total_ns for r in roots)
    root_self = sum(tracer.by_root[r][r].self_ns for r in roots)
    lines = pipe.route_inputs
    embed_roots = ("flow.eval_embed", "flow.wire_embedding")
    values = {
        "synth.generate_world.s": _sec(g("synth.generate_world").total_ns),
        "core.load_world.s": _sec(g("core.load_world").total_ns),
        "core.save_world.s": _sec(g("core.save_world").total_ns),
        "core.aggregate_accuracy.calls": g("core.aggregate_accuracy").calls,
        "core.aggregate_accuracy.s": _sec(g("core.aggregate_accuracy").total_ns),
        "core.group_records.calls": g("core.group_records").calls,
        "core.group_records.s": _sec(g("core.group_records").total_ns),
        "prompts.render.calls": tracer.calls("prompts.render"),
        "prompts.closed_prompt_set.calls": tracer.calls("prompts.closed_prompt_set"),
        "routerdata.build_router_dataset.s": _sec(g("routerdata.build_router_dataset").total_ns),
        "routerdata.build_router_dataset.examples_per_s": _ratio(
            obs.examples, _sec(g("routerdata.build_router_dataset").total_ns)),
        "routerdata.save_corpus.s": _sec(g("routerdata.save_corpus").total_ns),
        "router.featurize.calls": g("router.featurize").calls,
        "router.featurize.us_per_line": _ratio(g("router.featurize").total_ns / 1000.0,
                                               g("router.featurize").calls),
        "router.train_router.s": _sec(g("router.train_router").total_ns),
        # self time excludes featurize, so this is the SGD (+ validation) rate
        "router.train_router.steps_per_s": _ratio(obs.train_steps,
                                                  _sec(g("router.train_router").self_ns)),
        "router.train_router.useful_step_frac": _ratio(obs.useful_steps, obs.train_steps),
        "router.train_router.lodo_share": _ratio(
            lodo_train.total_ns if lodo_train else 0, lodo_wall.total_ns if lodo_wall else 0),
        "router.evaluate_router.s": _sec(g("router.evaluate_router").total_ns),
        "router.evaluate_router.qps": _ratio(
            tracer.calls("router.route", under=("router.evaluate_router",)),
            _sec(g("router.evaluate_router").total_ns)),
        "router.route.calls": tracer.calls("router.route"),
        "router.save.s": _sec(g("router.save").total_ns),
        "router.load.s": _sec(g("router.load").total_ns),
        "router.inputs.distinct_frac": _ratio(len(set(lines)), len(lines)),
        "baselines.build_comparison_report.self_s":
            _sec(g("baselines.build_comparison_report").self_ns),
        "baselines.voting_accuracy.s": _sec(g("baselines.voting_accuracy").total_ns),
        "baselines.upper_bound_accuracy.s": _sec(g("baselines.upper_bound_accuracy").total_ns),
        "harness.run_lodo.self_s": _sec(g("harness.run_lodo").self_ns),
        "harness.folds_failed": pipe.folds_failed,
        "scoring.evaluate.s": _sec(g("scoring.evaluate").total_ns),
        "scoring.evaluate.self_s": _sec(g("scoring.evaluate").self_ns),
        "scoring.evaluate.skips": obs.skips,
        "scoring.backend_wait_s": _sec(sum(g(n).total_ns for n in BACKEND_SPANS)),
        "scoring.embed_image.calls": g("scoring.embed_image").calls,
        "scoring.embed_texts.calls": g("scoring.embed_texts").calls,
        "scoring.embed_texts.prompts": sum(p[0] for p in obs.prompts.values()),
        "scoring.embed_texts.distinct_frac": obs.distinct_frac(embed_roots),
        "scoring.embed_texts.unique_copy_distinct_frac": obs.distinct_frac(
            ("flow.eval_unique",)),
        "scoring.logprobs.calls": g("scoring.logprobs").calls,
        "wire.spawn_s": _sec(g("wire.spawn").total_ns),
        "wire.round_trips": len(trips),
        "wire.round_trip_us_p50": percentile(trips, 50) / 1000.0,
        "wire.round_trip_us_p99": percentile(trips, 99) / 1000.0,
        "wire.bytes_per_round_trip": _ratio(pipe.wire_bytes, len(trips)),
        "trace.overhead_s": overhead_s,
        "trace.unattributed_frac": _ratio(root_self, root_wall),
    }
    return {name: {"value": values[name], "unit": unit} for name, unit in UNITS.items()}


def percentile(values, q: int) -> float:
    """The q-th percentile (1..99) of the values; 0.0 when there are none."""
    ordered = sorted(values)
    if len(ordered) < 2:
        return float(ordered[0]) if ordered else 0.0
    return statistics.quantiles(ordered, n=100, method="inclusive")[q - 1]


def flow_breakdown(tracer) -> dict:
    """Per flow: wall seconds and the self seconds of every span under it;
    the flow's own self time is the part no layer span covers."""
    out = {}
    for root, table in tracer.by_root.items():
        if not root.startswith("flow."):
            continue
        wall = table[root].total_ns
        out[root] = {
            "wall_s": _sec(wall),
            "unattributed_s": _sec(table[root].self_ns),
            "self_s": {name: round(_sec(st.self_ns), 6)
                       for name, st in sorted(table.items(), key=lambda kv: -kv[1].self_ns)
                       if name != root},
            "calls": {name: st.calls for name, st in table.items() if name != root},
        }
    return out
