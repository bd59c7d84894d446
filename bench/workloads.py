"""Workload inputs, ops and answer checks for the spacelike benchmark.

Each workload turns a seed into a list of ops. An op is one call into the
program (a certifier call, a frame evaluation or one CLI process) plus a
check of its answer. A check returns None when the answer is right, or a
``(kind, message)`` pair: ``ERROR`` when the program raised or refused,
``WRONG`` when it answered and the answer is wrong.

Why these workloads:

* ``invariance_sweep``: ``check_order_invariance`` on small product
  scenarios (2-4 stations, D = 4..81, 2-24 orderings). Overhead-bound and
  heavy-tailed; this is where evaluator-core and ordering work shows.
* ``no_signaling_sweep``: ``check_no_signaling`` on every ordered
  (varied, target) pair of the same scenarios, with the acceptance
  criterion 05 alternatives. One ordering per call and many repeated
  evaluations, so work shared between calls shows here.
* ``wide_ghz``: ``evaluate_in_frame`` on an 8-qubit GHZ state (D = 256).
  Arithmetic and retained final states dominate; Python overhead barely
  registers, so an overhead-only change should not move it.
* ``cli_files``: ``python -m spacelike.cli`` on the shipped scenario files,
  one process at a time. Start-up and import dominate; the only workload
  that reaches ``schema`` and ``cli``.

The sweeps always use the first random product scenarios of acceptance
criteria 04 (0-99) and 05 (0-49): per-call cost varies about tenfold
between random scenarios, and the mean latency of one block of 200 seeds
moved by +-20% from block to block, which would hide any change smaller
than that. The populations are small enough for every op to run several
times in one run (see run.py). The workload seed shuffles the order in
which the scenarios are swept; it sets the analyzer angles in ``wide_ghz``
and the command order in ``cli_files``.
"""

from __future__ import annotations

import json
import math
import os
import random
import subprocess
import sys
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import numpy as np

from spacelike import experiment, intervention, scenarios, spacetime
from spacelike.experiment import Scenario, Station
from spacelike.intervention import Intervention, LocalIntervention, Outcome
from spacelike.linalg import CMatrix

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
SCENARIO_DIR = ROOT / "scenarios"
RESULTS = BENCH / "results"
PROBE_SPANS = RESULTS / "cli-probe-spans.json"

TOL = 1e-9
INVARIANCE_SEEDS = range(100)
NO_SIGNALING_SEEDS = range(50)
GHZ_QUBITS = 8
GHZ_FRAMES = (-0.5, 0.0, 0.5)
CLI_TIMEOUT_S = 120

ERROR = "error"
WRONG = "wrong"

Verdict = tuple[str, str] | None


@dataclass(frozen=True)
class Op:
    label: str
    call: Callable[[], object]
    check: Callable[[object], Verdict]


def child_env() -> dict:
    """Environment for child interpreters: the package comes from ``src``."""
    return dict(os.environ, PYTHONPATH=str(SRC))


def _shuffled(units: list[list[Op]], seed: int) -> list[Op]:
    random.Random(seed).shuffle(units)
    return [op for unit in units for op in unit]


# ------------------------------------------------------------ invariance


def _expect_certified(report) -> Verdict:
    if report.ok:
        return None
    return WRONG, f"not certified, worst spread {report.worst:.3e}"


def _expect_flagged_counterexample(report) -> Verdict:
    witness = report.witness
    record = dict(witness.record) if witness is not None else None
    if report.ok or abs(report.worst - 0.25) > 1e-12 or record != {"X": "x+", "Z": "z+"}:
        return WRONG, f"ok={report.ok} worst={report.worst} witness record {record}"
    return None


def _invariance_op(label: str, s: Scenario, check) -> Op:
    # The certifier is looked up at call time so that the traced run sees it.
    return Op(label, lambda: experiment.check_order_invariance(s, TOL), check)


def invariance_sweep(seed: int, seeds=INVARIANCE_SEEDS) -> list[Op]:
    units = [
        [_invariance_op(f"seed {k}", scenarios.random_product_scenario(seed=k), _expect_certified)]
        for k in seeds
    ]
    named = scenarios.builtin_scenarios()
    units.append([_invariance_op("eprb", named["eprb"], _expect_certified)])
    units.append([_invariance_op("dimension_change", named["dimension_change"], _expect_certified)])
    units.append(
        [_invariance_op("counterexample", named["counterexample"], _expect_flagged_counterexample)]
    )
    return _shuffled(units, seed)


# ----------------------------------------------------------- no-signaling


def _expect_no_signal(report) -> Verdict:
    if report.ok:
        return None
    return WRONG, f"signaling reported, worst {report.worst:.3e}"


def _expect_exact_no_signal(report) -> Verdict:
    if report.ok and report.worst < 1e-12:
        return None
    return WRONG, f"ok={report.ok} worst={report.worst:.3e}, expected below 1e-12"


def _expect_same_subsystem_signal(report) -> Verdict:
    # Z fires first on |0>: the original leaves X's x+ marginal at 1/2, a
    # Hadamard in its place raises it to 1.
    if not report.ok and abs(report.worst - 0.5) <= 1e-12:
        return None
    return WRONG, f"ok={report.ok} worst={report.worst}, expected flagged with worst 0.5"


def _no_signaling_op(label, s, target, alternatives, varied, check) -> Op:
    return Op(
        label,
        lambda: experiment.check_no_signaling(s, target, alternatives, TOL, varied=varied),
        check,
    )


def _unitary(d: int, matrix) -> Intervention:
    return Intervention(d_in=d, outcomes=(Outcome("u", d, (CMatrix(matrix),)),))


def no_signaling_sweep(seed: int, seeds=NO_SIGNALING_SEEDS) -> list[Op]:
    units = []
    for k in seeds:
        s = scenarios.random_product_scenario(seed=k)
        ops = []
        for varied in s.stations:
            d = varied.resolve({}).d_in
            # The recipe of acceptance criterion 05.
            alternatives = [
                LocalIntervention(
                    varied.subsystem, intervention.random_intervention(d, [d], seed=k * 31 + 7)
                ),
                LocalIntervention(
                    varied.subsystem, intervention.random_intervention(d, [1] * d, seed=k * 31 + 8)
                ),
            ]
            for target in s.stations:
                if target.id != varied.id:
                    ops.append(
                        _no_signaling_op(
                            f"seed {k} {varied.id}->{target.id}",
                            s, target.id, alternatives, varied.id, _expect_no_signal,
                        )
                    )
        units.append(ops)
    analyzers = [
        LocalIntervention(0, scenarios.spin_analyzer(angle))
        for angle in (0.0, math.pi / 2.0, math.pi / 4.0)
    ]
    analyzers.append(LocalIntervention(0, _unitary(2, np.eye(2))))
    units.append(
        [_no_signaling_op("eprb A->B", scenarios.eprb(0.0, math.pi / 3.0), "B", analyzers, "A",
                          _expect_exact_no_signal)]
    )
    hadamard = LocalIntervention(0, _unitary(2, np.array([[1.0, 1.0], [1.0, -1.0]]) / math.sqrt(2.0)))
    units.append(
        [_no_signaling_op("counterexample Z->X", scenarios.noncommuting_counterexample(), "X",
                          [hadamard], "Z", _expect_same_subsystem_signal)]
    )
    return _shuffled(units, seed)


# -------------------------------------------------------------- wide GHZ


def ghz_scenario(angles) -> Scenario:
    """n-qubit GHZ state with an x-z analyzer per qubit at mutually spacelike events."""
    n = len(angles)
    psi = np.zeros(2**n, dtype=complex)
    psi[0] = psi[-1] = 1.0 / math.sqrt(2.0)
    # Spacing 2 in x and |dt| < 0.4 keep every pair spacelike; the times are
    # a non-monotone permutation, so v = -0.5, 0 and 0.5 order the stations
    # three different ways, none with a tie.
    stations = tuple(
        Station(
            event=spacetime.Event(id=f"q{i}", t=0.05 * ((3 * i) % 8), x=2.0 * i),
            local=LocalIntervention(i, scenarios.spin_analyzer(theta)),
        )
        for i, theta in enumerate(angles)
    )
    return Scenario(dims0=(2,) * n, rho0=CMatrix(np.outer(psi, psi.conj())), stations=stations)


def _ghz_check(angles, reference: dict):
    # Mermin's closed form for even n: <(x) (cos t Z + sin t X)> = prod cos + prod sin.
    expected = math.prod(math.cos(t) for t in angles) + math.prod(math.sin(t) for t in angles)

    def check(result) -> Verdict:
        probs = result.probabilities
        correlation = 0.0
        plus = [0.0] * len(angles)
        for rec, p in probs.items():
            sign = 1.0
            for i, (_sid, label) in enumerate(rec):
                if label == "+":
                    plus[i] += p
                else:
                    sign = -sign
            correlation += sign * p
        if any(abs(p - 0.5) > TOL for p in plus):
            return WRONG, f"single-site marginals {plus}, expected 1/2"
        if abs(correlation - expected) > TOL:
            return WRONG, f"correlation {correlation}, expected {expected}"
        if not reference:
            reference.update(probs)
        elif probs.keys() != reference.keys() or max(
            abs(p - reference[rec]) for rec, p in probs.items()
        ) > TOL:
            return WRONG, f"records in ordering {result.ordering} differ from another frame"
        return None

    return check


def wide_ghz(seed: int, qubits: int = GHZ_QUBITS) -> list[Op]:
    if qubits % 2 or not 2 <= qubits <= 8:
        raise ValueError(f"the GHZ workload needs an even qubit count up to 8, got {qubits}")
    rng = random.Random(seed)
    angles = [rng.uniform(0.0, 2.0 * math.pi) for _ in range(qubits)]
    s = ghz_scenario(angles)
    orders = {tuple(e.id for e in spacetime.frame_ordering(s.events(), spacetime.Frame(v)))
              for v in GHZ_FRAMES}
    if len(orders) != len(GHZ_FRAMES):
        raise ValueError("the GHZ frames must induce distinct orderings")
    check = _ghz_check(angles, {})
    return [
        Op(f"frame v={v}", lambda v=v: experiment.evaluate_in_frame(s, spacetime.Frame(v)), check)
        for v in GHZ_FRAMES
    ]


# ------------------------------------------------------------------- CLI

CLI_COMMANDS = (
    ("simulate",),
    ("simulate", "--format", "json"),
    ("simulate", "--format", "csv"),
    ("simulate", "--frame-velocity", "-0.6"),
    ("check-invariance", "--format", "json"),
    ("check-no-signaling", "--format", "json"),
    ("check-povm", "--format", "json"),
)


def _promised_exit(command: str, stem: str) -> int:
    # The README promises 0 when the certified property holds and 1 when it
    # fails. The counterexample measures one qubit twice at spacelike events,
    # so it violates both order invariance and no-signaling.
    if stem == "counterexample" and command in ("check-invariance", "check-no-signaling"):
        return 1
    return 0


def _cli_check(command: tuple[str, ...], stem: str):
    expected = _promised_exit(command[0], stem)
    wants_json = "json" in command

    def check(proc) -> Verdict:
        if proc.returncode == 2 or "Traceback" in proc.stderr:
            last = proc.stderr.strip().splitlines()[-1:] or [""]
            return ERROR, f"exit {proc.returncode}: {last[0]}"
        if proc.returncode != expected:
            return WRONG, f"exit {proc.returncode}, the README promises {expected}"
        if wants_json:
            try:
                doc = json.loads(proc.stdout)
            except ValueError as exc:
                return WRONG, f"output is not JSON: {exc}"
            if "ok" in doc and doc["ok"] != (expected == 0):
                return WRONG, f"ok={doc['ok']} disagrees with exit {proc.returncode}"
            if "records" in doc and abs(sum(r["probability"] for r in doc["records"]) - 1.0) > TOL:
                return WRONG, "record probabilities do not sum to 1"
        return None

    return check


def _cli_op(command, path: Path, tracer) -> Op:
    if tracer is None:
        argv = [sys.executable, "-m", "spacelike.cli", *command, str(path)]
    else:
        argv = [sys.executable, str(BENCH / "cli_probe.py"), str(PROBE_SPANS), *command, str(path)]

    def call():
        proc = subprocess.run(
            argv, capture_output=True, text=True, env=child_env(), cwd=ROOT, timeout=CLI_TIMEOUT_S
        )
        if tracer is not None:
            tracer.load(PROBE_SPANS)
        return proc

    return Op(f"{' '.join(command)} {path.name}", call, _cli_check(command, path.stem))


def cli_files(seed: int, tracer=None) -> list[Op]:
    """CLI processes on the shipped files; with a tracer, each runs under cli_probe."""
    paths = sorted(SCENARIO_DIR.glob("*.json"))
    if not paths:
        raise FileNotFoundError(f"no scenario files in {SCENARIO_DIR}")
    if tracer is not None:
        PROBE_SPANS.parent.mkdir(exist_ok=True)
    units = [[_cli_op(command, path, tracer)] for path in paths for command in CLI_COMMANDS]
    return _shuffled(units, seed)


# -------------------------------------------------------------- registry


@dataclass(frozen=True)
class Workload:
    build: Callable[..., list[Op]]
    # Keyword arguments of ``build`` for the self-test's tiny size.
    tiny: dict = field(default_factory=dict)
    # Ops run in child processes: peak memory is theirs, and the CLI layer
    # (start-up and import) is measured.
    in_children: bool = False
    # Op times are scaled by the reference kernel (see run.py). Not for the
    # wide GHZ evaluation: its large-array arithmetic does not slow down with
    # the interpreter-bound kernel on a busy host.
    scale_ops: bool = True


WORKLOADS = {
    "invariance_sweep": Workload(invariance_sweep, tiny={"seeds": range(3)}),
    "no_signaling_sweep": Workload(no_signaling_sweep, tiny={"seeds": range(2)}),
    "wide_ghz": Workload(wide_ghz, tiny={"qubits": 4}, scale_ops=False),
    "cli_files": Workload(cli_files, in_children=True),
}

# Ops that fail today and are counted as failed on every pass; any other
# failed op makes a run incorrect. check-no-signaling on the counterexample
# exits 2 instead of 1: one of the generated alternatives has
# one-dimensional outcomes, which leaves station X a qubit-sized
# intervention on a one-dimensional factor.
KNOWN_FAILURES = {"cli_files": frozenset({"check-no-signaling --format json counterexample.json"})}


def build(name: str, seed: int, tracer=None, tiny: bool = False) -> list[Op]:
    """The ops of one workload; only ``cli_files`` uses the tracer."""
    workload = WORKLOADS[name]
    kwargs = dict(workload.tiny) if tiny else {}
    if workload.in_children:
        kwargs["tracer"] = tracer
    return workload.build(seed, **kwargs)
