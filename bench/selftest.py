"""Self-test of the benchmark.

    python3 bench/selftest.py

1. Verdicts: a run is correct only if every failed op is a known failure
   and no answer is wrong.
2. Smoke: every workload at a tiny size, untraced and traced, through the
   code paths run.py uses. Every metric BENCHMARK.json names must be
   present with its unit, every answer must be right, and the only failed
   op must be the known CLI one.
3. Reference work counts: a traced pass over product scenarios 0-199
   (canaries left out) must count 1,946 orderings in the invariance sweep,
   and 1,262 check_no_signaling calls with 3,786 evaluations, 1,761 of
   them distinct, in the no-signaling sweep.

Takes about a minute on two cores.
"""

from __future__ import annotations

import json
import sys

import run

sys.path.insert(0, str(run.SRC))

import workloads  # noqa: E402
from tracer import PER_LAYER_UNITS, Tracer  # noqa: E402
from worker import run_ops  # noqa: E402

# End-to-end figures printed next to the gated metrics (the p95 only when
# at least ten ops lie beyond it, which the tiny sizes never reach).
PRINTED_UNITS = {
    "setup_s_unscaled": "s",
    "ops_per_s_unscaled": "1/s",
    "reference_ms": "ms",
    "op_p50_ms": "ms",
    "failed_frac": "ratio",
}


def check_result(name: str, result: dict, units: dict, passes: int) -> None:
    got = {metric: entry["unit"] for metric, entry in result["metrics"].items()}
    assert got == units, f"{name}: metrics {got} differ from {units}"
    assert result["correct"], f"{name}: incorrect, failures {result['failures']}"
    failed_ops = {failure.split(": ", 1)[0] for failure in result["failures"]}
    known = workloads.KNOWN_FAILURES.get(name, set())
    assert failed_ops == known, f"{name}: failed ops {failed_ops}, expected {known}"
    assert result["failed"] == passes * len(known), f"{name}: {result['failed']} failures"


def check_verdicts() -> None:
    known = next(iter(workloads.KNOWN_FAILURES["cli_files"]))
    assert run.is_correct("cli_files", [[known, workloads.ERROR, "exit 2"]])
    assert not run.is_correct("cli_files", [[known, workloads.WRONG, "exit 0"]])
    assert not run.is_correct("cli_files", [["simulate eprb.json", workloads.ERROR, "exit 2"]])
    assert not run.is_correct("invariance_sweep", [["seed 3", workloads.ERROR, "ValueError"]])
    print("verdicts: ok", flush=True)


def smoke() -> None:
    with open(run.ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        spec = json.load(fh)
    end_to_end = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    per_layer = {m["name"]: m["unit"] for m in spec["per_layer"]}
    assert run.END_TO_END_UNITS == end_to_end, "run.py and BENCHMARK.json disagree"
    assert PER_LAYER_UNITS == per_layer, "tracer.py and BENCHMARK.json disagree"
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    for name in workloads.WORKLOADS:
        result = run.untraced_run(name, 0, 0.0, tiny=True)
        check_result(name, result, end_to_end, passes=run.MIN_PASSES)
        zero = [m for m, entry in result["metrics"].items() if not entry["value"] > 0]
        assert not zero, f"{name}: end-to-end metrics {zero} are not positive"
        printed = {k: e["unit"] for k, e in result["extra"].items() if k in PRINTED_UNITS}
        assert printed == PRINTED_UNITS, f"{name}: printed figures {printed}"
        traced = run.traced_run(name, 0, tiny=True)
        check_result(name, traced, per_layer, passes=2 * run.TRACE_REPEATS)
        print(f"smoke {name}: ok", flush=True)


def traced_counts(ops) -> dict:
    tracer = Tracer()
    tracer.install()
    try:
        outcome = run_ops(ops, tracer)
    finally:
        tracer.uninstall()
    assert not outcome["failures"], outcome["failures"]
    return tracer.layer_metrics()


def reference_counts() -> None:
    def product_ops(ops):
        return [op for op in ops if op.label.startswith("seed ")]

    counts = traced_counts(product_ops(workloads.invariance_sweep(0, seeds=range(200))))
    assert counts["spacetime.orderings"] == 1946, counts["spacetime.orderings"]
    print("reference invariance_sweep: 1946 orderings", flush=True)
    counts = traced_counts(product_ops(workloads.no_signaling_sweep(0, seeds=range(200))))
    got = (
        counts["experiment.check_no_signaling.calls"],
        counts["experiment.evaluate_in_order.calls"],
        counts["experiment.evaluate.distinct"],
    )
    assert got == (1262, 3786, 1761), got
    print("reference no_signaling_sweep: 1262 calls, 3786 evaluations, 1761 distinct", flush=True)


if __name__ == "__main__":
    check_verdicts()
    smoke()
    reference_counts()
    print("selftest passed")
