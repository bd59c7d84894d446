"""In-memory span tracer for the benchmark's traced run.

The tracer rebinds, at run time, the module-level names through which
spacelike's modules and the benchmark call each layer (for example
``spacelike.experiment.apply`` and ``spacelike.experiment.evaluate_in_order``),
so that every call records a span: name, start, end, the index of the span
that caused it and the op it belongs to. ``uninstall`` restores every
original binding; nothing in the package itself is modified.

Work counters are recorded at the same boundaries. They depend only on the
inputs, never on timing, so they repeat exactly from run to run.
"""

from __future__ import annotations

import json
import time
from collections import Counter

COMPLEX_BYTES = 16
# Real floating-point operations per complex multiply-add.
COMPLEX_MAC_FLOPS = 8

NO_SIGNALING = "experiment.check_no_signaling"

# Scenario generators whose calls make up "scenarios.generate"; the
# built-ins call some of the others, which the self-time rule accounts for.
GENERATORS = (
    "builtin_scenarios",
    "dimension_change_scenario",
    "eprb",
    "noncommuting_counterexample",
    "random_product_scenario",
    "spin_analyzer",
)

# Every per-layer metric the traced run reports, with its unit. A layer that
# does no work on a workload reports 0.
PER_LAYER_UNITS = {
    "intervention.apply.calls": "count",
    "intervention.apply.self_s": "s",
    "intervention.apply.flops_computed": "flop",
    "intervention.apply.bytes_computed": "B",
    "intervention.embed.calls": "count",
    "intervention.embed.self_s": "s",
    "linalg.CMatrix.constructions": "count",
    "experiment.evaluate_in_order.calls": "count",
    "experiment.evaluate_in_order.self_s": "s",
    "experiment.records": "count",
    "experiment.peak_dim": "dim",
    "experiment.evaluate.distinct": "count",
    "experiment.evaluate.unique_ratio": "ratio",
    "experiment.check_order_invariance.calls": "count",
    "experiment.check_order_invariance.self_s": "s",
    "experiment.check_no_signaling.calls": "count",
    "experiment.check_no_signaling.self_s": "s",
    "experiment.final_state_bytes": "B",
    "spacetime.linear_extensions.calls": "count",
    "spacetime.linear_extensions.self_s": "s",
    "spacetime.orderings": "count",
    "spacetime.causal_order.calls": "count",
    "spacetime.causal_order.self_s": "s",
    "spacetime.frame_ordering.self_s": "s",
    "schema.parse_scenario.calls": "count",
    "schema.parse_scenario.self_s": "s",
    "schema.serialize_scenario.self_s": "s",
    "cli.import_s": "s",
    "cli.numpy_import_s": "s",
    "cli.main.self_s": "s",
    "scenarios.generate.self_s": "s",
    "trace.overhead_frac": "ratio",
}


class Tracer:
    """Records spans and work counts while installed; restores on uninstall."""

    def __init__(self):
        # Each span is [name, start, end, parent index or -1, op, context].
        self.spans: list[list] = []
        self.counts: Counter = Counter()
        self.op = -1
        self._stack: list[int] = []
        self._saved: list[tuple[object, str, object]] = []
        self._distinct: set = set()

    # ----------------------------------------------------------- recording

    def wrap(self, name, fn, before=None, after=None):
        """Return ``fn`` wrapped so that each call records a span.

        ``before(span, args, kwargs)`` runs before the clock starts and
        ``after(span, args, kwargs, result)`` after it stops, so the hooks'
        cost lands in the caller's self time, not in ``name``'s.
        """
        spans, stack = self.spans, self._stack

        def traced(*args, **kwargs):
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, self.op, None]
            stack.append(len(spans))
            spans.append(span)
            if before is not None:
                before(span, args, kwargs)
            span[1] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                stack.pop()
            if after is not None:
                after(span, args, kwargs, result)
            return result

        return traced

    def _rebind(self, module, attr, name, before=None, after=None):
        original = getattr(module, attr)
        self._saved.append((module, attr, original))
        setattr(module, attr, self.wrap(name, original, before, after))

    def install(self):
        """Rebind every traced name; ``uninstall`` restores them."""
        from spacelike import cli, experiment, linalg, scenarios, schema

        for module in (experiment, cli):
            self._rebind(module, "evaluate_in_order", "experiment.evaluate_in_order",
                         after=self._after_evaluate)
            self._rebind(module, "check_order_invariance", "experiment.check_order_invariance")
            self._rebind(module, "check_no_signaling", NO_SIGNALING,
                         before=self._before_no_signaling)
        self._rebind(experiment, "apply", "intervention.apply", after=self._after_apply)
        self._rebind(experiment, "embed", "intervention.embed")
        self._rebind(experiment, "causal_order", "spacetime.causal_order")
        self._rebind(experiment, "linear_extensions", "spacetime.linear_extensions",
                     after=self._after_extensions)
        self._rebind(experiment, "frame_ordering", "spacetime.frame_ordering",
                     after=self._after_frame_ordering)
        for module in (schema, cli):
            self._rebind(module, "parse_scenario", "schema.parse_scenario")
        self._rebind(schema, "serialize_scenario", "schema.serialize_scenario")
        for attr in GENERATORS:
            self._rebind(scenarios, attr, "scenarios.generate")

        counts = self.counts
        init = linalg.CMatrix.__init__

        def counted_init(obj, entries):
            counts["cmatrix"] += 1
            init(obj, entries)

        self._saved.append((linalg.CMatrix, "__init__", init))
        linalg.CMatrix.__init__ = counted_init

    def uninstall(self):
        while self._saved:
            module, attr, original = self._saved.pop()
            setattr(module, attr, original)

    # --------------------------------------------------------------- hooks

    def _peak(self, key, value):
        if value > self.counts[key]:
            self.counts[key] = value

    def _after_apply(self, span, args, kwargs, result):
        rho, iv, label = args
        kraus = iv.outcome(label).kraus
        d_in, d_out, k = rho.rows, result.rows, len(kraus)
        # Per Kraus matrix A (d_out x d_in): A @ rho, then (A rho) @ A^dagger.
        self.counts["flops"] += COMPLEX_MAC_FLOPS * k * (d_out * d_in * d_in + d_out * d_out * d_in)
        # Least traffic: read rho and the Kraus matrices, write the branch state.
        self.counts["bytes"] += COMPLEX_BYTES * (d_in * d_in + k * d_out * d_in + d_out * d_out)
        self._peak("peak_dim", max(d_in, d_out))

    def _before_no_signaling(self, span, args, kwargs):
        varied = kwargs.get("varied", args[4] if len(args) > 4 else None)
        # (scenario, varied station, index of the next candidate evaluated)
        span[5] = [id(args[0]), varied, 0]

    def _after_evaluate(self, span, args, kwargs, result):
        self.counts["records"] += len(result.probabilities)
        self._peak(
            "final_state_bytes",
            sum(COMPLEX_BYTES * m.rows * m.cols for m in result.final_states.values()),
        )
        parent = self.spans[span[3]] if span[3] >= 0 else None
        if parent is not None and parent[0] == NO_SIGNALING:
            ctx = parent[5]
            key = tuple(ctx)
            ctx[2] += 1
        else:
            key = (id(args[0]), tuple(args[1]))
        self._distinct.add(key)

    def _after_extensions(self, span, args, kwargs, result):
        self.counts["orderings"] += len(result)

    def _after_frame_ordering(self, span, args, kwargs, result):
        if isinstance(result, list):
            self.counts["orderings"] += 1

    # ------------------------------------------------------------- results

    def layer_metrics(self) -> dict[str, float]:
        """Per-layer totals: calls, self time and work counts."""
        covered = [0.0] * len(self.spans)
        for _name, start, end, parent, _op, _ctx in self.spans:
            if parent >= 0:
                covered[parent] += end - start
        calls: Counter = Counter()
        self_s: Counter = Counter()
        for i, (name, start, end, _parent, _op, _ctx) in enumerate(self.spans):
            calls[name] += 1
            self_s[name] += (end - start) - covered[i]
        evaluations = calls["experiment.evaluate_in_order"]
        c = self.counts
        distinct = len(self._distinct) + c["distinct"]
        out = {
            "intervention.apply.flops_computed": c["flops"],
            "intervention.apply.bytes_computed": c["bytes"],
            "linalg.CMatrix.constructions": c["cmatrix"],
            "experiment.records": c["records"],
            "experiment.peak_dim": c["peak_dim"],
            "experiment.evaluate.distinct": distinct,
            "experiment.evaluate.unique_ratio": distinct / evaluations if evaluations else 0.0,
            "experiment.final_state_bytes": c["final_state_bytes"],
            "spacetime.orderings": c["orderings"],
        }
        for metric in PER_LAYER_UNITS:
            stem, _, kind = metric.rpartition(".")
            if kind == "calls":
                out[metric] = calls[stem]
            elif kind == "self_s":
                out[metric] = float(self_s[stem])
        return out

    def dump(self, path):
        """Write every span and work count recorded so far as JSON."""
        counts = dict(self.counts)
        counts["distinct"] = counts.get("distinct", 0) + len(self._distinct)
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(
                {
                    "fields": ["name", "start_s", "end_s", "parent", "op"],
                    "spans": [s[:5] for s in self.spans],
                    "counts": counts,
                },
                fh,
            )

    def load(self, path):
        """Append the spans and counts a traced child process wrote with ``dump``."""
        with open(path, encoding="utf-8") as fh:
            doc = json.load(fh)
        offset = len(self.spans)
        for name, start, end, parent, _op in doc["spans"]:
            self.spans.append(
                [name, start, end, parent + offset if parent >= 0 else -1, self.op, None]
            )
        for key, value in doc["counts"].items():
            if key in ("peak_dim", "final_state_bytes"):
                self._peak(key, value)
            else:
                self.counts[key] += value
