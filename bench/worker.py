"""One set-up or one pass of a benchmark workload, in a fresh interpreter.

    python3 bench/worker.py WORKLOAD SEED MODE [tiny]

MODE is ``setup`` (build the inputs only), ``run`` (build them, then run
every op once, one at a time, and check each answer) or ``trace`` (the
same pass under the tracer). ``tiny`` builds the self-test sizes. run.py
starts one worker per pass, so nothing a pass leaves behind in its
process, a cache for instance, can speed up a later pass.

Prints one JSON object:

* every mode: ``setup_s``, the seconds taken to import spacelike and build
  the workload's inputs (scenario generation, alternatives, GHZ
  construction, Scenario validation);
* ``setup`` and ``run``: ``setup_reference``, the times of the reference
  kernel (see ``reference_kernel``) right after set-up;
* ``run`` and ``trace``: ``elapsed_s`` of the pass, each op's
  ``latencies`` in op order, the ``failures`` as [label, kind, message]
  and the ``reference`` kernel times interleaved with the ops;
* ``run``: ``peak_rss_mb`` of the process that ran the ops, which for
  ``cli_files`` is the largest CLI process;
* ``trace``: the per-layer metrics as ``layers``, and ``spans_file``, where
  the spans of the pass were written.
"""

from __future__ import annotations

import gc
import json
import resource
import sys
import time
from functools import cache

# Reference-kernel samples taken right after set-up, and at most this many
# more interleaved with the ops of a pass.
SETUP_REFERENCE_SAMPLES = 8
PASS_REFERENCE_SAMPLES = 32


@cache
def _reference_inputs():
    # Imported here, not at the top, so that set-up time still covers numpy's import.
    import numpy as np

    return np.kron, np.random.default_rng(0).standard_normal((8, 8)) + 0j


def _reference_work(kron, a):
    acc = {}
    for i in range(2000):
        acc[i % 97] = acc.get(i % 97, 0) + i
    x = a
    for _ in range(20):
        x = kron(x[:2, :2], a @ x)[:8, :8] / 3.0
    return x


def reference_kernel() -> float:
    """Time one run of a fixed kernel that does not touch spacelike.

    Its work, interpreter overhead and small complex matrix products, is the
    mix the sweeps run, so its time tracks how fast the shared machine runs
    that kind of code at the moment; run.py scales op and set-up times by it.
    An untimed run first brings the kernel back into the caches an op (or a
    CLI process) evicted, so that the time does not depend on the op.
    """
    kron, a = _reference_inputs()
    # A collection would scan whatever heap the ops left behind.
    gc.disable()
    _reference_work(kron, a)
    t0 = time.perf_counter()
    _reference_work(kron, a)
    elapsed = time.perf_counter() - t0
    gc.enable()
    return elapsed


def run_ops(ops, tracer=None) -> dict:
    """Run each op once in a closed loop, one at a time; time and check each.

    The reference kernel runs after every ``stride``-th op; its time is
    kept apart from the ops' latencies and from ``elapsed_s``.
    """
    from workloads import ERROR

    latencies, failures, reference = [], [], []
    stride = max(1, len(ops) // PASS_REFERENCE_SAMPLES)
    start = time.perf_counter()
    for i, op in enumerate(ops):
        if tracer is not None:
            tracer.op = i
        t0 = time.perf_counter()
        try:
            result = op.call()
        except Exception as exc:  # an op that raises is counted, not fatal
            verdict = (ERROR, f"{type(exc).__name__}: {exc}")
        else:
            verdict = None
        latencies.append(time.perf_counter() - t0)
        if verdict is None:
            verdict = op.check(result)
            del result
        if verdict is not None:
            failures.append([op.label, *verdict])
        if i % stride == 0:
            reference.append(reference_kernel())
    # Each kernel sample took about twice its time, with the untimed run.
    return {
        "elapsed_s": time.perf_counter() - start - 2.0 * sum(reference),
        "latencies": latencies,
        "failures": failures,
        "reference": reference,
    }


def setup_reference() -> list[float]:
    return [reference_kernel() for _ in range(SETUP_REFERENCE_SAMPLES)]


def main() -> int:
    name, seed, mode = sys.argv[1], int(sys.argv[2]), sys.argv[3]
    tiny = sys.argv[4:] == ["tiny"]
    start = time.perf_counter()
    import workloads  # imports spacelike and numpy

    if mode != "trace":
        ops = workloads.build(name, seed, tiny=tiny)
        out = {"setup_s": time.perf_counter() - start, "setup_reference": setup_reference()}
        if mode == "run":
            out.update(run_ops(ops))
            in_children = workloads.WORKLOADS[name].in_children
            who = resource.RUSAGE_CHILDREN if in_children else resource.RUSAGE_SELF
            out["peak_rss_mb"] = resource.getrusage(who).ru_maxrss / 1024.0
        print(json.dumps(out))
        return 0

    from tracer import Tracer

    # Set-up is traced apart from the pass: only scenario generation is
    # taken from it, every other layer figure comes from the pass alone.
    build_tracer, tracer = Tracer(), Tracer()
    build_tracer.install()
    try:
        ops = workloads.build(name, seed, tracer, tiny=tiny)
    finally:
        build_tracer.uninstall()
    out = {"setup_s": time.perf_counter() - start}
    tracer.install()
    try:
        out.update(run_ops(ops, tracer))
    finally:
        tracer.uninstall()
    layers = tracer.layer_metrics()
    layers["scenarios.generate.self_s"] = build_tracer.layer_metrics()["scenarios.generate.self_s"]
    out["layers"] = layers
    spans_path = workloads.RESULTS / f"{name}-seed{seed}-spans.json"
    spans_path.parent.mkdir(exist_ok=True)
    tracer.dump(spans_path)
    out["spans_file"] = str(spans_path.relative_to(workloads.ROOT))
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
