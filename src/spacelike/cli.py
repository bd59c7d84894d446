"""Command-line front end.

Subcommands:

* ``simulate``: evaluate a scenario in a chosen frame and print the
  record table. A tie in the frame ordering is not an error: every
  resolution, up to 8! of them, is evaluated and the spread between
  them is reported.
* ``check-invariance``: run the order-invariance certifier, either on a
  scenario file/built-in or on ``--trials`` random product scenarios.
* ``check-no-signaling``: run the marginal-invariance certifier over
  spacelike station pairs, with generated alternatives.
* ``check-povm``: validate completeness and report the worst deviation
  of any station's POVM sum from the identity.

Exit status is 0 iff every check the invocation executed came back ok.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from pathlib import Path

import numpy as np

from .linalg import CMatrix
from .intervention import Intervention, LocalIntervention, Outcome, random_intervention
from .experiment import (
    EvaluationResult,
    Scenario,
    check_no_signaling,
    check_order_invariance,
    compare_orderings,
    evaluate_orderings,
)
# Not called here; bound only because the benchmark's tracer, bench/tracer.py, rebinds it.
from .experiment import evaluate_in_order  # noqa: F401
from .scenarios import builtin_scenarios, random_product_scenario
from .schema import SchemaError, parse_scenario
from .spacetime import Frame, IntervalKind, classify, frame_groups, linear_extensions

def load_scenario(name_or_path: str | Path) -> Scenario:
    """The built-in scenario of a ``_scenario`` key, or the parsed file at a path."""
    if isinstance(name_or_path, Path):
        return parse_scenario(name_or_path.read_bytes())
    return builtin_scenarios()[name_or_path]


def _records_rows(result: EvaluationResult) -> tuple[list[str], list[list[str]]]:
    ids = list(result.ordering)
    rows = []
    for rec in result.records():
        outcomes = dict(rec)
        rows.append([outcomes[i] for i in ids] + [f"{result.probabilities[rec]:.12g}"])
    return ids + ["probability"], rows


def _print_table(header: list[str], rows: list[list[str]], out) -> None:
    widths = [len(h) for h in header]
    for row in rows:
        widths = [max(w, len(cell)) for w, cell in zip(widths, row)]
    fmt = "  ".join(f"{{:<{w}}}" for w in widths)
    print(fmt.format(*header), file=out)
    print("  ".join("-" * w for w in widths), file=out)
    for row in rows:
        print(fmt.format(*row), file=out)


def _emit_result(result: EvaluationResult, fmt: str, out) -> None:
    if fmt == "json":
        print(json.dumps(result.as_dict(), indent=2, sort_keys=True), file=out)
        return
    header, rows = _records_rows(result)
    if fmt == "csv":
        print(",".join(header), file=out)
        for row in rows:
            print(",".join(row), file=out)
    else:
        print(f"ordering: {' -> '.join(result.ordering)}", file=out)
        _print_table(header, rows, out)
        total = sum(result.probabilities.values())
        print(f"sum of probabilities: {total:.12g}", file=out)


def _emit_report(report_dict: dict, fmt: str, out) -> None:
    if fmt == "json":
        print(json.dumps(report_dict, indent=2, sort_keys=True), file=out)
    elif fmt == "csv":
        print("key,value", file=out)
        for k, v in report_dict.items():
            print(f"{k},{json.dumps(v) if isinstance(v, (dict, list)) else v}", file=out)
    else:
        for k, v in report_dict.items():
            print(f"{k}: {v}", file=out)


def cmd_simulate(args, out) -> int:
    s = load_scenario(args.scenario)
    # Every ordering the frame admits: more than one exactly on a tie.
    groups = frame_groups(s.events(), Frame(args.frame_velocity))
    later = {(a.id, b.id) for g, h in zip(groups, groups[1:]) for a in g for b in h}
    results = evaluate_orderings(s, linear_extensions(later, [e for g in groups for e in g]))
    if len(results) == 1:
        _emit_result(results[0], args.format, out)
        return 0
    # Tie: every resolution is evaluated and compared record by record.
    report = compare_orderings(results, args.tolerance)
    ok, worst = report.ok, report.worst
    if args.format == "json":
        doc = {"tie": True, "ok": ok, "worst": worst, "resolutions": [r.as_dict() for r in results]}
        print(json.dumps(doc, indent=2, sort_keys=True), file=out)
    else:
        print(
            f"tie at velocity {args.frame_velocity}: {len(results)} orderings evaluated",
            file=out,
        )
        for r in results:
            _emit_result(r, args.format, out)
            print("", file=out)
        print(f"worst spread across resolutions: {worst:.3e} (ok: {ok})", file=out)
    return 0 if ok else 1


def _sweep(reports: list[dict], **counts) -> dict:
    """A --trials sweep's summary of per-seed reports; the worst seed is the first at the worst."""
    worst = max(r["worst"] for r in reports)
    return {
        "ok": all(r["ok"] for r in reports),
        "worst": worst,
        "trials": len(reports),
        **counts,
        "failing_seeds": [r["seed"] for r in reports if not r["ok"]],
        "worst_seed": next(r["seed"] for r in reports if r["worst"] == worst),
    }


def cmd_check_invariance(args, out) -> int:
    if args.trials is not None:
        reports = [
            {"seed": seed, **check_order_invariance(random_product_scenario(seed=seed), args.tolerance).as_dict()}
            for seed in range(args.seed, args.seed + args.trials)
        ]
        doc = _sweep(reports, methods={m: sum(r["method"] == m for r in reports) for m in ("pairwise", "exhaustive")})
        if args.format == "json":
            doc["reports"] = reports
        _emit_report(doc, args.format, out)
        return 0 if doc["ok"] else 1
    s = load_scenario(args.scenario)
    report = check_order_invariance(s, args.tolerance)
    _emit_report(report.as_dict(), args.format, out)
    return 0 if report.ok else 1


def _identity_intervention(d: int) -> Intervention:
    return Intervention(
        d_in=d,
        outcomes=(Outcome(label="id", d_out=d, kraus=(CMatrix.identity(d),)),),
    )


def _generated_alternatives(s: Scenario, varied_id: str, seed: int) -> list[LocalIntervention]:
    st = s.station(varied_id)
    # Cases that differ in d_in cannot share one alternative; evaluation then
    # rejects it with the station named.
    d_in = next(iter(st.interventions().values())).d_in
    rng = np.random.Generator(np.random.Philox(key=seed))
    alts = [LocalIntervention(st.subsystem, _identity_intervention(d_in))]
    for _ in range(2):
        k = int(rng.integers(1, 4))
        outcome_dims = [int(rng.integers(1, 4)) for _ in range(k)]
        while sum(outcome_dims) < d_in:
            outcome_dims.append(int(rng.integers(1, 4)))
        alts.append(
            LocalIntervention(
                st.subsystem,
                random_intervention(d_in, outcome_dims, seed=int(rng.integers(0, 2**62))),
            )
        )
    return alts


def _check_no_signaling_all(s: Scenario, tol: float, seed: int, target: str | None, varied: str | None):
    if target is not None and varied is not None:
        pairs = [(varied, target)]
    else:
        pairs = [
            (v.id, t.id)
            for v in s.stations
            for t in s.stations
            if classify(v.event, t.event) is IntervalKind.SPACELIKE
            and target in (None, t.id)
            and varied in (None, v.id)
        ]
        if not pairs:
            raise ValueError("no mutually spacelike station pair matches the request")
    return [
        check_no_signaling(s, t, _generated_alternatives(s, v, seed), tol, varied=v)
        for v, t in pairs
    ]


def cmd_check_no_signaling(args, out) -> int:
    if args.trials is not None:
        seeds, count = [], 0
        for seed in range(args.seed, args.seed + args.trials):
            reps = _check_no_signaling_all(random_product_scenario(seed=seed), args.tolerance, seed, None, None)
            seeds.append({"seed": seed, "ok": all(r.ok for r in reps), "worst": max(r.worst for r in reps)})
            count += len(reps)
        doc = _sweep(seeds, pairs_checked=count)
        _emit_report(doc, args.format, out)
        return 0 if doc["ok"] else 1
    s = load_scenario(args.scenario)
    reports = _check_no_signaling_all(s, args.tolerance, args.seed, args.target, args.varied)
    all_ok = all(r.ok for r in reports)
    doc = {
        "ok": all_ok,
        "worst": max(r.worst for r in reports),
        "pairs": [r.as_dict() for r in reports],
    }
    if args.format == "json":
        _emit_report(doc, args.format, out)
    else:
        for r in reports:
            _emit_report(r.as_dict(), args.format, out)
        print(f"overall ok: {all_ok}", file=out)
    return 0 if all_ok else 1


def cmd_check_povm(args, out) -> int:
    s = load_scenario(args.scenario)
    stations = {
        st.id if not key else f"{st.id}{list(key)}": iv.deviation
        for st in s.stations
        for key, iv in st.interventions().items()
    }
    worst = max(stations.values(), default=0.0)
    ok = worst <= args.tolerance
    _emit_report({"ok": ok, "worst": worst, "stations": stations}, args.format, out)
    return 0 if ok else 1


def _scenario(text: str) -> str | Path:
    """A built-in name, normalized, or the path of an existing regular file."""
    name, names = text.replace("-", "_"), builtin_scenarios()
    if name in names:
        return name
    if Path(text).is_file():
        return Path(text)
    raise argparse.ArgumentTypeError(
        f"{text!r} is neither a built-in scenario ({', '.join(names)}) nor an existing file"
    )


def _velocity(text: str) -> float:
    v = float(text)
    if not abs(v) < 1.0:
        raise argparse.ArgumentTypeError(f"frame velocity must satisfy |v| < 1, got {v}")
    return v


def _tolerance(text: str) -> float:
    t = float(text)
    if not 0.0 < t < math.inf:
        raise argparse.ArgumentTypeError(f"tolerance must be positive and finite, got {t}")
    return t


def _trials(text: str) -> int:
    n = int(text)
    if n < 1:
        raise argparse.ArgumentTypeError(f"trials must be at least 1, got {n}")
    return n


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="spacelike",
        description=(
            "Evaluate sequences of localized quantum interventions at spacetime "
            "events and certify frame-order invariance and no-signaling."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p, certifier=False):
        # A certifier sweeps --trials random scenarios in place of one scenario.
        p.add_argument(
            "scenario",
            nargs="?" if certifier else None,
            type=_scenario,
            help="built-in name or scenario JSON file",
        )
        p.add_argument("--tolerance", type=_tolerance, default=1e-9)
        p.add_argument("--format", choices=("json", "csv", "table"), default="table")
        if certifier:
            p.add_argument(
                "--trials",
                type=_trials,
                default=None,
                help="check this many random product scenarios instead of one scenario",
            )
            p.add_argument(
                "--seed",
                type=int,
                default=0,
                help="seed of the first random scenario and of generated alternatives",
            )

    p_sim = sub.add_parser("simulate", help="evaluate a scenario in one frame")
    add_common(p_sim)
    p_sim.add_argument(
        "--frame-velocity",
        type=_velocity,
        default=0.0,
        help="boost velocity of the evaluating frame, |v| < 1",
    )

    p_inv = sub.add_parser("check-invariance", help="certify ordering invariance")
    add_common(p_inv, certifier=True)

    p_ns = sub.add_parser("check-no-signaling", help="certify marginal invariance")
    add_common(p_ns, certifier=True)
    p_ns.add_argument("--target", default=None, help="station whose marginal is inspected")
    p_ns.add_argument("--varied", default=None, help="station whose intervention is replaced")

    p_povm = sub.add_parser("check-povm", help="validate completeness of every station")
    add_common(p_povm)

    return parser


_COMMANDS = {
    "simulate": cmd_simulate,
    "check-invariance": cmd_check_invariance,
    "check-no-signaling": cmd_check_no_signaling,
    "check-povm": cmd_check_povm,
}


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if getattr(args, "trials", 0) is None and args.scenario is None:
        parser.error("provide a scenario or --trials")
    if getattr(args, "trials", None) is not None:
        # The sweep checks random scenarios, so it would drop a scenario or a station pair.
        given = [n for n in ("scenario", "target", "varied") if getattr(args, n, None) is not None]
        if given:
            parser.error(f"--trials sweeps random scenarios and cannot be combined with {', '.join(given)}")
    try:
        return _COMMANDS[args.command](args, sys.stdout)
    except SchemaError as exc:
        print(f"scenario validation failed: {exc}", file=sys.stderr)
        return 2
    except (ValueError, KeyError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

if __name__ == "__main__":
    sys.exit(main())
