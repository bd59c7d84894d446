"""Command-line front end.

Subcommands:

* ``simulate``: evaluate a scenario in a chosen frame and print the
  record table. A tie in the frame ordering is not an error: every
  resolution, up to 8! of them, is evaluated, and the spread between
  them is reported with a witness when they disagree.
* ``check-invariance``: run the order-invariance certifier, either on a
  scenario file/built-in or on ``--trials`` random product scenarios.
* ``check-no-signaling``: run the marginal-invariance certifier over
  spacelike station pairs, with generated alternatives.
* ``check-povm``: validate completeness and report the worst deviation
  of any station's POVM sum from the identity.

``--format json`` and ``--format csv`` print the same document, csv as
sorted ``key,value`` rows, every value cell its JSON; ``table`` alone
prints it as prose for reading. A single evaluation's csv is its record
table. Exit status is 0 iff every check the invocation executed came back ok.
"""

from __future__ import annotations

import argparse
import csv
import json
import sys
from pathlib import Path

from . import tolerance
from .experiment import (
    EvaluationResult,
    Scenario,
    check_no_signaling,
    check_order_invariance,
    compare_orderings,
    evaluate_in_order,
)
from .scenarios import _BUILTINS, _generated_alternatives, random_product_scenario
from .schema import SchemaError, parse_scenario
from .spacetime import Frame, IntervalKind, classify, frame_resolutions

def load_scenario(name_or_path: str | Path) -> Scenario:
    """The built-in scenario of a ``_scenario`` key, built alone, or the parsed file at a path."""
    if isinstance(name_or_path, Path):
        return parse_scenario(name_or_path.read_bytes())
    return _BUILTINS[name_or_path]()


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
    # The last column is not padded, so no row ends in spaces.
    fmt = "  ".join([*(f"{{:<{w}}}" for w in widths[:-1]), "{}"])
    print(fmt.format(*header), file=out)
    print("  ".join("-" * w for w in widths), file=out)
    for row in rows:
        print(fmt.format(*row), file=out)


def _emit_result(result: EvaluationResult, fmt: str, out) -> None:
    if fmt == "json":
        _emit_report(result.as_dict(), fmt, out)
        return
    header, rows = _records_rows(result)
    if fmt == "csv":
        csv.writer(out, lineterminator="\n").writerows([header, *rows])
    else:
        print(f"ordering: {' -> '.join(result.ordering)}", file=out)
        _print_table(header, rows, out)
        total = sum(result.probabilities.values())
        print(f"sum of probabilities: {total:.12g}", file=out)


def _emit_report(report_dict: dict, fmt: str, out) -> None:
    if fmt == "json":
        print(json.dumps(report_dict, indent=2, sort_keys=True), file=out)
    elif fmt == "csv":
        rows = [(k, json.dumps(v, sort_keys=True)) for k, v in sorted(report_dict.items())]
        csv.writer(out, lineterminator="\n").writerows([("key", "value"), *rows])
    elif "pairs" in report_dict:
        # A no-signaling check prints each pair's report, then the verdict over all of them.
        for pair in report_dict["pairs"]:
            _emit_report(pair, fmt, out)
        print(f"overall ok: {report_dict['ok']}", file=out)
    else:
        for k, v in report_dict.items():
            print(f"{k}: {v}", file=out)


def cmd_simulate(args, out) -> int:
    s = load_scenario(args.scenario)
    results = [evaluate_in_order(s, order) for order in frame_resolutions(s.events(), args.frame_velocity)]
    if len(results) == 1:
        _emit_result(results[0], args.format, out)
        return 0
    # Tie: every resolution is evaluated and compared record by record.
    report = compare_orderings(results, args.tolerance)
    if args.format == "table":
        print(f"tie at velocity {args.frame_velocity.v}: {len(results)} orderings evaluated", file=out)
        for r in results:
            _emit_result(r, "table", out)
            print("", file=out)
        print(f"worst spread across resolutions: {report.worst:.3e} (ok: {report.ok})", file=out)
        if (w := report.witness) is not None:
            print(
                f"witness: record {dict(w.record)}: {w.p_low:.12g} in {' -> '.join(w.order_low)}, "
                f"{w.p_high:.12g} in {' -> '.join(w.order_high)}",
                file=out,
            )
    else:
        doc = {"tie": True, "ok": report.ok, "worst": report.worst, "witness": report.as_dict()["witness"]}
        _emit_report({**doc, "resolutions": [r.as_dict() for r in results]}, args.format, out)
    return 0 if report.ok else 1


def _sweep(reports: list[dict], **counts) -> dict:
    """A --trials sweep's summary of per-seed reports.

    The worst seed is the first whose worst lies within ``tolerance.FLOOR``
    of the sweep's worst, as ``experiment._spread`` picks its witness, so
    last-bit rounding cannot move it. A sweep whose worst is itself within
    the floor of 0 names none: every seed would qualify.
    """
    worst = max(r["worst"] for r in reports)
    within = (r["seed"] for r in reports if r["worst"] >= worst - tolerance.FLOOR)
    return {
        "ok": all(r["ok"] for r in reports),
        "worst": worst,
        "trials": len(reports),
        **counts,
        "failing_seeds": [r["seed"] for r in reports if not r["ok"]],
        "worst_seed": next(within) if worst > tolerance.FLOOR else None,
    }


def _certify(args, out, check, counts) -> int:
    """Run a certifier command on its scenario, or sweep the --trials product
    scenarios from --seed on: ``check(s, seed)`` gives one scenario's document."""
    if args.trials is None:
        doc = check(load_scenario(args.scenario), args.seed)
    else:
        reports = [
            {"seed": seed, **check(random_product_scenario(seed=seed), seed)}
            for seed in range(args.seed, args.seed + args.trials)
        ]
        doc = _sweep(reports, **counts(reports))
        if args.format != "table":
            doc["reports"] = reports
    _emit_report(doc, args.format, out)
    return 0 if doc["ok"] else 1


def cmd_check_invariance(args, out) -> int:
    def methods(reports):
        return {"methods": {m: sum(r["method"] == m for r in reports) for m in ("pairwise", "exhaustive")}}

    return _certify(args, out, lambda s, seed: check_order_invariance(s, args.tolerance).as_dict(), methods)


def _check_no_signaling_all(s: Scenario, tol: float, seed: int, target: str | None, varied: str | None):
    for sid in (target, varied):
        if sid is not None:
            s.station(sid)  # KeyError naming an unknown station
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
    # One list per varied station, built when first needed: its targets then
    # read back the scenario's one remembered no-signaling walk.
    alternatives = {}
    reports = []
    for v, t in pairs:
        if v not in alternatives:
            alternatives[v] = _generated_alternatives(s, v, seed)
        reports.append(check_no_signaling(s, t, alternatives[v], tol, varied=v))
    return reports


def cmd_check_no_signaling(args, out) -> int:
    def check(s, seed):
        reports = [r.as_dict() for r in _check_no_signaling_all(s, args.tolerance, seed, args.target, args.varied)]
        return {"ok": all(r["ok"] for r in reports), "worst": max(r["worst"] for r in reports), "pairs": reports}

    return _certify(args, out, check, lambda reports: {"pairs_checked": sum(len(r["pairs"]) for r in reports)})


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
    name = text.replace("-", "_")
    if name in _BUILTINS:
        return name
    if Path(text).is_file():
        return Path(text)
    raise argparse.ArgumentTypeError(
        f"{text!r} is neither a built-in scenario ({', '.join(_BUILTINS)}) nor an existing file"
    )


# Philox takes keys below 2**128.
SEED_END = 2**128


def _flag(parse, check=None, low=None, end=None):
    """The argparse type of a flag: its text parsed, an integer's range
    [low, end) checked (``end`` is only ever a seed's), then ``check``
    applied. A ValueError from any step is the message argparse prints
    after the flag's name."""

    def value(text: str):
        try:
            x = parse(text)
            if low is not None and x < low:
                raise ValueError(f"must be at least {low}, got {x}")
            if end is not None and x >= end:
                raise ValueError(f"must be below 2**128, the range of Philox keys, got {x}")
            return x if check is None else check(x)
        except ValueError as exc:
            raise argparse.ArgumentTypeError(str(exc)) from None

    return value


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
        p.add_argument("--tolerance", type=_flag(float, tolerance.positive_finite), default=1e-9)
        p.add_argument("--format", choices=("json", "csv", "table"), default="table")
        if certifier:
            p.add_argument(
                "--trials",
                type=_flag(int, low=1),
                default=None,
                help="check this many random product scenarios instead of one scenario",
            )
            p.add_argument(
                "--seed",
                type=_flag(int, low=0, end=SEED_END),
                default=0,
                help="seed of the first random scenario and of generated alternatives",
            )

    p_sim = sub.add_parser("simulate", help="evaluate a scenario in one frame")
    add_common(p_sim)
    p_sim.add_argument(
        "--frame-velocity",
        type=_flag(float, Frame),
        default=Frame(0.0),
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
        if args.seed + args.trials > SEED_END:
            last = args.seed + args.trials - 1
            parser.error(f"argument --seed: the sweep's last seed, {last}, must be below 2**128")
    try:
        return _COMMANDS[args.command](args, sys.stdout)
    except SchemaError as exc:
        print(f"scenario validation failed: {exc}", file=sys.stderr)
        return 2
    except (ValueError, KeyError, OSError) as exc:
        # A KeyError's str() quotes its message as a repr; print the message itself.
        print(f"error: {exc.args[0] if isinstance(exc, KeyError) and exc.args else exc}", file=sys.stderr)
        return 2

if __name__ == "__main__":
    sys.exit(main())
