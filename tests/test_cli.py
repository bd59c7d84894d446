import csv
import io
import itertools
import json
import math
import re
import sys
from pathlib import Path

import pytest

import numpy as np

from spacelike import cli, scenarios, tolerance
from spacelike.cli import main
from spacelike.experiment import ConditionalLocal, EvaluationResult, Scenario, Station
from spacelike.intervention import Intervention, LocalIntervention, Outcome, random_intervention
from spacelike.linalg import CMatrix
from spacelike.schema import serialize_scenario
from spacelike.scenarios import eprb, noncommuting_counterexample, random_product_scenario, spin_analyzer
from spacelike.spacetime import Event, Frame, frame_groups

SCENARIOS = Path(__file__).resolve().parent.parent / "scenarios"


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_simulate_builtin_table(capsys):
    code, out, _ = run(capsys, "simulate", "eprb")
    assert code == 0
    assert "ordering: A -> B" in out
    assert "sum of probabilities: 1" in out


def test_simulate_moving_frame_reorders(capsys):
    code, out, _ = run(capsys, "simulate", "eprb", "--frame-velocity", "-0.6")
    assert code == 0
    assert "ordering: B -> A" in out


def test_simulate_json_and_csv(capsys):
    code, out, _ = run(capsys, "simulate", "eprb", "--format", "json")
    assert code == 0
    doc = json.loads(out)
    assert doc["ordering"] == ["A", "B"]
    assert len(doc["records"]) == 4
    total = sum(rec["probability"] for rec in doc["records"])
    assert total == pytest.approx(1.0, abs=1e-9)

    code, out, _ = run(capsys, "simulate", "eprb", "--format", "csv")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "A,B,probability"
    assert len(lines) == 5


def test_simulate_scenario_file(tmp_path, capsys):
    path = tmp_path / "pair.json"
    path.write_text(serialize_scenario(eprb(0.0, math.pi / 3.0)))
    code, out, _ = run(capsys, "simulate", str(path))
    assert code == 0
    assert "0.125" in out


def test_simulate_reports_and_compares_tie(tmp_path, capsys):
    path = with_events(tmp_path, "eprb", ((0.0, 1.0), (0.0, -1.0)))
    code, out, _ = run(capsys, "simulate", path)
    assert code == 0
    assert "tie" in out
    assert "worst spread across resolutions" in out
    code, out, _ = run(capsys, "simulate", path, "--format", "json")
    assert code == 0
    doc = json.loads(out)
    assert doc["tie"] is True and doc["ok"] is True
    assert len(doc["resolutions"]) == 2


def test_simulate_evaluates_every_tie_resolution_once(tmp_path, capsys, monkeypatch):
    from spacelike import cli, scenarios

    stations = tuple(
        Station(Event(sid, 0.0, 2.0 * i), LocalIntervention(i, spin_analyzer(0.3 + i)))
        for i, sid in enumerate("ABC")
    )
    psi = np.zeros(8, dtype=complex)
    psi[0] = psi[-1] = 1.0 / math.sqrt(2.0)
    tied = Scenario(dims0=(2, 2, 2), rho0=CMatrix(np.outer(psi, psi.conj())), stations=stations)
    path = tmp_path / "tie3.json"
    path.write_text(serialize_scenario(tied))
    calls = []
    evaluate = cli.evaluate_in_order
    monkeypatch.setattr(cli, "evaluate_in_order", lambda s, order: calls.append(order) or evaluate(s, order))
    code, out, _ = run(capsys, "simulate", str(path), "--format", "json")
    assert code == 0
    doc = json.loads(out)
    assert doc["tie"] is True and doc["ok"] is True and len(doc["resolutions"]) == 6
    assert [r["ordering"] for r in doc["resolutions"]] == [list(order) for order in calls]
    assert len(set(calls)) == 6


def test_simulate_names_the_tie_witness_in_every_format(capsys):
    # At v = -0.25 the counterexample's X and Z share a boosted time; the two
    # resolutions give the record (x+, z+) 0.25 and 0.5.
    code, out, _ = run(capsys, "simulate", "counterexample", "--frame-velocity", "-0.25", "--format", "json")
    assert code == 1
    doc = json.loads(out)
    assert (doc["tie"], doc["ok"]) == (True, False)
    assert doc["worst"] == pytest.approx(0.25, abs=1e-12)
    witness = doc["witness"]
    assert witness["record"] == {"X": "x+", "Z": "z+"}
    assert (witness["order_low"], witness["order_high"]) == (["X", "Z"], ["Z", "X"])
    assert (witness["p_low"], witness["p_high"]) == pytest.approx((0.25, 0.5), abs=1e-12)
    line = "witness: record {'X': 'x+', 'Z': 'z+'}: 0.25 in X -> Z, 0.5 in Z -> X"
    code, out, _ = run(capsys, "simulate", "counterexample", "--frame-velocity", "-0.25")
    assert code == 1 and line in out.splitlines(), out
    code, out, _ = run(capsys, "simulate", "counterexample", "--frame-velocity", "-0.25", "--format", "csv")
    assert code == 1 and json.loads(dict(csv_rows(out))["witness"]) == witness, out
    # A tie whose resolutions agree has no witness.
    code, out, _ = run(capsys, "simulate", "counterexample", "--frame-velocity", "-0.25", "--tolerance", "0.5")
    assert code == 0 and "witness" not in out


def test_simulate_resolves_a_tie_of_causally_ordered_stations_by_their_causal_order(tmp_path, capsys):
    # Z and X lie on one worldline 1e-13 apart, inside the tie tolerance: the
    # frame groups them together, but only Z -> X is admissible.
    z, x = noncommuting_counterexample().stations
    timelike = Scenario(
        dims0=(2,),
        rho0=CMatrix(np.diag([1.0, 0.0])),
        stations=(Station(Event("Z", 0.0, 0.0), z.local), Station(Event("X", 1e-13, 0.0), x.local)),
    )
    path = tmp_path / "timelike_tie.json"
    path.write_text(serialize_scenario(timelike))
    code, out, err = run(capsys, "simulate", str(path))
    assert (code, err) == (0, "")
    assert out.startswith("ordering: Z -> X\n") and "tie at velocity" not in out and "worst spread" not in out
    code, out, _ = run(capsys, "simulate", str(path), "--format", "json")
    doc = json.loads(out)
    assert code == 0 and doc["ordering"] == ["Z", "X"] and "tie" not in doc
    assert json.loads(run(capsys, "check-invariance", str(path), "--format", "json")[1])["orders_checked"] == 1


def test_check_invariance_exit_codes(capsys):
    code, out, _ = run(capsys, "check-invariance", "eprb")
    assert code == 0
    code, out, _ = run(capsys, "check-invariance", "counterexample", "--format", "json")
    assert code == 1
    doc = json.loads(out)
    assert doc["ok"] is False
    assert doc["worst"] >= 0.25 - 1e-9
    assert doc["witness"]["record"] == {"X": "x+", "Z": "z+"}


def test_check_invariance_trials(capsys):
    code, out, _ = run(capsys, "check-invariance", "--trials", "4", "--seed", "7", "--format", "json")
    assert code == 0
    doc = json.loads(out)
    assert doc["ok"] is True
    assert doc["trials"] == 4
    assert doc["worst"] < 1e-9


def test_check_invariance_names_its_method_in_every_format(capsys):
    for name, method in (("eprb", "pairwise"), ("counterexample", "exhaustive")):
        assert f"method: {method}\n" in run(capsys, "check-invariance", name)[1]
        assert json.loads(run(capsys, "check-invariance", name, "--format", "json")[1])["method"] == method
        as_csv = dict(csv_rows(run(capsys, "check-invariance", name, "--format", "csv")[1]))
        assert json.loads(as_csv["method"]) == method


def csv_rows(text: str) -> list[list[str]]:
    return list(csv.reader(io.StringIO(text)))


def test_csv_reports_quote_json_cells(capsys):
    # A witness or a methods count is JSON with commas and quotes: each stays one cell.
    for argv in (["counterexample"], ["--trials", "3"]):
        code, out, _ = run(capsys, "check-invariance", *argv, "--format", "csv")
        header, *rows = csv_rows(out)
        assert header == ["key", "value"] and all(len(row) == 2 for row in rows), out
        doc = json.loads(run(capsys, "check-invariance", *argv, "--format", "json")[1])
        cell = "witness" if argv == ["counterexample"] else "methods"
        assert json.loads(dict(rows)[cell]) == doc[cell]


def test_simulate_csv_round_trips_a_label_with_a_comma(tmp_path, capsys):
    path = tmp_path / "comma.json"
    path.write_text(serialize_scenario(noncommuting_counterexample()).replace('"z+"', '"z,+"'))
    code, out, _ = run(capsys, "simulate", str(path), "--format", "csv")
    header, *rows = csv_rows(out)
    assert code == 0 and header == ["Z", "X", "probability"] and all(len(row) == 3 for row in rows)
    assert sorted({row[0] for row in rows}) == ["z,+", "z-"]
    doc = json.loads(run(capsys, "simulate", str(path), "--format", "json")[1])
    assert len(rows) == len(doc["records"])


# Every command on the shipped files and the built-ins, then the runs that print ties, pairs and sweeps.
CSV_RUNS = [
    *(
        [command, scenario]
        for command in ("simulate", "check-invariance", "check-no-signaling", "check-povm")
        for scenario in (*(f"{name}.json" for name in scenarios._BUILTINS), *scenarios._BUILTINS)
    ),
    ["check-no-signaling", "eprb", "--varied", "A", "--target", "B"],
    ["simulate", "counterexample", "--frame-velocity", "-0.25"],
    ["simulate", "counterexample", "--frame-velocity", "-0.25", "--tolerance", "0.5"],
    ["check-invariance", "--trials", "20"],
    ["check-no-signaling", "--trials", "20"],
]


@pytest.mark.parametrize("argv", CSV_RUNS, ids=" ".join)
def test_csv_prints_the_json_document_as_one_table(argv, capsys):
    argv = [str(SCENARIOS / a) if a.endswith(".json") else a for a in argv]
    code, out, err = run(capsys, *argv, "--format", "json")
    as_csv = run(capsys, *argv, "--format", "csv")
    if code == 2:
        # No document: check-no-signaling on the counterexample refuses its generated alternatives.
        assert as_csv == (2, "", err)
        return
    doc = json.loads(out)
    assert as_csv[0] == code
    header, *rows = csv_rows(as_csv[1])
    # One header and rows of its width: a prose or blank line would be a row of another width.
    assert rows and all(len(row) == len(header) for row in rows), as_csv[1]
    if "tie" not in doc and "records" in doc:
        # A single evaluation's csv is its record table.
        assert header == [*doc["ordering"], "probability"]
        assert rows == [
            [*(rec["outcomes"][i] for i in doc["ordering"]), f"{rec['probability']:.12g}"] for rec in doc["records"]
        ]
    else:
        assert header == ["key", "value"]
        # Every value cell is its JSON.
        assert [[k, json.loads(v)] for k, v in rows] == [[k, v] for k, v in doc.items()]


def sweep_lines(capsys, *argv):
    """The --trials summary in table, csv and json, each as a dict of its printed values."""
    table = run(capsys, *argv)[1].splitlines()
    header, *rows = csv_rows(run(capsys, *argv, "--format", "csv")[1])
    assert header == ["key", "value"] and all(len(row) == 2 for row in rows)
    code, out, _ = run(capsys, *argv, "--format", "json")
    return code, dict(line.split(": ", 1) for line in table), dict(rows), json.loads(out)


def test_invariance_sweep_names_failing_and_worst_seeds_and_counts_methods(monkeypatch, capsys):
    # Seed 5 stands in for a failing scenario: the counterexample, settled by every ordering.
    monkeypatch.setattr(
        cli,
        "random_product_scenario",
        lambda seed: noncommuting_counterexample() if seed == 5 else random_product_scenario(seed=seed),
    )
    code, table, as_csv, doc = sweep_lines(capsys, "check-invariance", "--trials", "3", "--seed", "4")
    assert code == 1
    assert (doc["failing_seeds"], doc["worst_seed"], doc["trials"]) == ([5], 5, 3)
    assert doc["methods"] == {"pairwise": 2, "exhaustive": 1}
    assert [r["method"] for r in doc["reports"]] == ["pairwise", "exhaustive", "pairwise"]
    assert (table["failing_seeds"], table["worst_seed"]) == ("[5]", "5")
    assert table["methods"] == "{'pairwise': 2, 'exhaustive': 1}"
    assert (as_csv["failing_seeds"], as_csv["worst_seed"]) == ("[5]", "5")
    assert json.loads(as_csv["methods"]) == doc["methods"]


def test_no_signaling_sweep_names_failing_and_worst_seeds(capsys):
    # At a tolerance below rounding, a seed fails wherever any pair moved at all.
    worst = {
        seed: max(r.worst for r in cli._check_no_signaling_all(random_product_scenario(seed=seed), 1e-300, seed, None, None))
        for seed in range(3)
    }
    failing = [seed for seed, w in worst.items() if w > 1e-300]
    # The seeds' worsts are rounding, within tolerance.FLOOR of 0: no seed is named.
    assert failing and max(worst.values()) <= tolerance.FLOOR
    code, table, as_csv, doc = sweep_lines(capsys, "check-no-signaling", "--trials", "3", "--tolerance", "1e-300")
    assert code == 1
    assert (doc["failing_seeds"], doc["worst_seed"]) == (failing, None)
    assert (json.loads(table["failing_seeds"]), table["worst_seed"]) == (failing, "None")
    assert (json.loads(as_csv["failing_seeds"]), as_csv["worst_seed"]) == (failing, "null")


def test_worst_seed_is_the_first_within_the_floor_of_the_worst():
    def reports(*worsts):
        return [{"seed": 40 + k, "ok": w <= 1e-9, "worst": w} for k, w in enumerate(worsts)]

    rounding = 1.7763568394002505e-15
    # A sweep whose worst is rounding, within the floor of 0, names no seed, whichever is larger.
    assert cli._sweep(reports(rounding - 1e-16, rounding, 0.0))["worst_seed"] is None
    assert cli._sweep(reports(0.0, rounding, rounding - 1e-16))["worst_seed"] is None
    # A worst more than the floor below the sweep's is passed over.
    assert cli._sweep(reports(0.0, 2 * tolerance.FLOOR, 0.25, 0.25 - tolerance.FLOOR / 2))["worst_seed"] == 42
    doc = cli._sweep(reports(rounding, 0.0))
    assert (doc["worst"], doc["worst_seed"], doc["failing_seeds"]) == (rounding, None, [])


def test_each_sweep_report_is_the_single_scenario_document_of_its_seed(tmp_path, capsys):
    for command in ("check-invariance", "check-no-signaling"):
        code, out, _ = run(capsys, command, "--trials", "2", "--seed", "3", "--format", "json")
        assert code == 0
        reports = json.loads(out)["reports"]
        assert [r.pop("seed") for r in reports] == [3, 4]
        for seed, report in zip((3, 4), reports):
            path = tmp_path / f"product{seed}.json"
            path.write_text(serialize_scenario(random_product_scenario(seed=seed)))
            code, out, _ = run(capsys, command, str(path), "--seed", str(seed), "--format", "json")
            assert code == 0
            assert report == json.loads(out), (command, seed)


def test_no_signaling_sweep_names_the_signaling_seed_pair_and_witness(monkeypatch, capsys):
    # Seed 31 stands in for a signaling scenario: the counterexample, whose alternatives
    # drawn at that seed all keep a qubit, so each of its pairs is evaluated and moves.
    drawn = scenarios._generated_alternatives(noncommuting_counterexample(), "Z", 31)
    assert all(o.d_out == 2 for a in drawn for o in a.local.outcomes)
    monkeypatch.setattr(
        cli,
        "random_product_scenario",
        lambda seed: noncommuting_counterexample() if seed == 31 else random_product_scenario(seed=seed),
    )
    code, _, as_csv, doc = sweep_lines(capsys, "check-no-signaling", "--trials", "3", "--seed", "30")
    assert code == 1
    assert (doc["failing_seeds"], doc["worst_seed"]) == ([31], 31)
    assert (as_csv["failing_seeds"], as_csv["worst_seed"]) == ("[31]", "31")
    assert json.loads(as_csv["reports"]) == doc["reports"]
    report = doc["reports"][1]
    assert (report["seed"], report["ok"]) == (31, False)
    failing = {(p["varied"], p["target"]): p for p in report["pairs"] if not p["ok"]}
    assert set(failing) == {("Z", "X"), ("X", "Z")}
    for (_, target), pair in failing.items():
        witness = pair["witness"]
        assert witness["label"] in (f"{target.lower()}+", f"{target.lower()}-")
        assert abs(witness["p_high"] - witness["p_low"]) == pytest.approx(pair["worst"], abs=1e-12)
    assert report["worst"] == doc["worst"] == max(p["worst"] for p in report["pairs"]) > 0.1


def test_no_signaling_generates_each_varied_stations_alternatives_once(monkeypatch):
    generate = cli._generated_alternatives
    calls = []
    monkeypatch.setattr(cli, "_generated_alternatives", lambda s, v, seed: calls.append(v) or generate(s, v, seed))
    s = random_product_scenario(seed=3)
    reports = cli._check_no_signaling_all(s, 1e-9, 3, None, None)
    ids = [st.id for st in s.stations]
    assert len(reports) == 12 and calls == ids
    # The reports alternatives generated anew for every pair give, on a scenario built anew.
    fresh = Scenario(dims0=s.dims0, rho0=s.rho0, stations=s.stations)
    assert [r.as_dict() for r in reports] == [
        cli.check_no_signaling(fresh, r.target, generate(fresh, r.varied, 3), 1e-9, varied=r.varied).as_dict()
        for r in reports
    ]


def test_check_no_signaling_builtin(capsys):
    code, out, _ = run(capsys, "check-no-signaling", "eprb", "--format", "json")
    assert code == 0
    doc = json.loads(out)
    assert doc["ok"] is True
    assert doc["worst"] < 1e-9
    assert len(doc["pairs"]) == 2
    assert all(pair["witness"] is None for pair in doc["pairs"])


def test_check_no_signaling_single_pair(capsys):
    code, out, _ = run(
        capsys, "check-no-signaling", "eprb", "--target", "B", "--varied", "A", "--format", "json"
    )
    assert code == 0
    doc = json.loads(out)
    assert [p["target"] for p in doc["pairs"]] == ["B"]


@pytest.mark.parametrize("argv", [["--varied", "Q", "--target", "B"], ["--target", "Q"], ["--varied", "Q"]])
def test_check_no_signaling_names_an_unknown_station(argv, capsys):
    code, out, err = run(capsys, "check-no-signaling", "eprb", *argv)
    assert code == 2 and not out
    assert err == "error: unknown station 'Q'\n"


def test_check_no_signaling_names_a_target_without_a_spacelike_partner(tmp_path, capsys):
    # B moves into A's causal future, so no station is spacelike to it.
    path = with_events(tmp_path, "eprb", ((0.0, 1.0), (5.0, -1.0)))
    code, out, err = run(capsys, "check-no-signaling", path, "--target", "B")
    assert code == 2 and not out
    assert err == "error: no mutually spacelike station pair matches the request\n"


def test_check_no_signaling_trials(capsys):
    code, out, _ = run(capsys, "check-no-signaling", "--trials", "2", "--format", "json")
    assert code == 0
    assert json.loads(out)["ok"] is True


def test_no_signaling_alternatives_fit_a_conditional_station_after_a_dimension_change(
    tmp_path, capsys
):
    # A grows factor 0 from 2 to 3 dimensions; B, conditioned on A, then acts on
    # the qutrit, so its generated alternatives must take qutrit input too.
    grow = random_intervention(2, [3], seed=1)
    qutrit = random_intervention(3, [2, 2], seed=2)
    qubit = random_intervention(2, [1, 1], seed=3)
    s = Scenario(
        dims0=(2, 2),
        rho0=CMatrix(np.eye(4) / 4),
        stations=(
            Station(Event("A", 0.0, 0.0), LocalIntervention(0, grow)),
            Station(Event("B", 1.0, 0.0), ConditionalLocal(0, ("A",), {("o0",): qutrit})),
            Station(Event("C", 1.0, 5.0), LocalIntervention(1, qubit)),
        ),
    )
    path = tmp_path / "conditional.json"
    path.write_text(serialize_scenario(s))
    code, out, err = run(capsys, "check-no-signaling", str(path), "--varied", "B", "--target", "C")
    assert (code, err) == (0, "")
    assert "overall ok: True" in out
    assert run(capsys, "check-invariance", str(path))[0] == 0


def test_check_povm_reports_deviation(capsys):
    code, out, _ = run(capsys, "check-povm", "dimension-change", "--format", "json")
    assert code == 0
    doc = json.loads(out)
    assert doc["ok"] is True
    assert doc["worst"] < 1e-9
    assert set(doc["stations"]) == {"A", "B"}


def test_check_povm_flags_incomplete_kraus(tmp_path, capsys):
    doc = json.loads(serialize_scenario(eprb(0.0, 1.0)))
    kraus = doc["stations"][0]["intervention"]["outcomes"][0]["kraus"][0]
    kraus[0] = [kraus[0][0] + 1e-3, kraus[0][1]]
    path = tmp_path / "leaky.json"
    path.write_text(json.dumps(doc))
    code, out, err = run(capsys, "check-povm", str(path))
    assert code == 2
    assert "completeness" in err.lower()


def test_unknown_scenario_rejected(capsys):
    with pytest.raises(SystemExit):
        main(["simulate", "nonsense-name"])


def test_velocity_and_tolerance_validation():
    with pytest.raises(SystemExit):
        main(["simulate", "eprb", "--frame-velocity", "1.0"])
    with pytest.raises(SystemExit):
        main(["simulate", "eprb", "--tolerance", "0"])


def test_frame_velocity_is_a_frame_and_frame_alone_bounds_it(capsys):
    assert cli.build_parser().parse_args(["simulate", "eprb", "--frame-velocity", "-0.6"]).frame_velocity == Frame(-0.6)
    for text in ("1.0", "-1.0", "nan"):
        with pytest.raises(SystemExit) as exc:
            main(["simulate", "eprb", "--frame-velocity", text])
        assert exc.value.code == 2
        out, err = capsys.readouterr()
        assert out == "" and "Traceback" not in err
        assert f"argument --frame-velocity: frame velocity must satisfy |v| < 1, got {text}" in err


@pytest.mark.parametrize("flag", ["--seed", "--trials", "--frame-velocity", "--tolerance"])
def test_a_malformed_number_exits_2_naming_the_flag_and_no_private_name(flag, capsys):
    command = "simulate" if flag == "--frame-velocity" else "check-invariance"
    with pytest.raises(SystemExit) as exc:
        main([command, "eprb", flag, "abc"])
    assert exc.value.code == 2
    out, err = capsys.readouterr()
    assert out == "" and f"argument {flag}: " in err and "'abc'" in err and "Traceback" not in err
    assert not re.search(r"\b_\w", err), err


def test_check_commands_require_input():
    with pytest.raises(SystemExit):
        main(["check-invariance"])


@pytest.mark.parametrize(
    "argv",
    [
        ["simulate", "nonsense-name"],
        ["simulate", "{tmp}"],
        ["demo", "nonsense"],
        ["check-invariance"],
        ["check-invariance", "--trials", "0"],
        ["check-invariance", "counterexample", "--tolerance", "inf"],
        ["simulate", "eprb", "--seed", "0"],
        ["check-invariance", "counterexample", "--trials", "2"],
        ["check-no-signaling", "--trials", "2", "--target", "B", "--varied", "A"],
    ],
)
def test_bad_input_exits_2(argv, tmp_path, capsys):
    with pytest.raises(SystemExit) as exc:
        main([arg.format(tmp=tmp_path) for arg in argv])
    assert exc.value.code == 2
    assert "error:" in capsys.readouterr().err


def test_a_negative_seed_exits_2_naming_the_flag(capsys):
    for argv in (["check-invariance", "--trials", "1"], ["check-no-signaling", "eprb"]):
        with pytest.raises(SystemExit) as exc:
            main([*argv, "--seed", "-1"])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert "argument --seed: must be at least 0, got -1" in err and "Traceback" not in err


@pytest.mark.parametrize(
    "argv",
    [
        ["check-invariance", "--trials", "1", "--seed", str(2**128)],
        # One seed in range, but the sweep's second seed is 2**128.
        ["check-invariance", "--trials", "2", "--seed", str(2**128 - 1)],
        ["check-no-signaling", "eprb", "--seed", str(2**128)],
    ],
)
def test_a_seed_past_the_philox_key_range_exits_2_naming_the_flag(argv, capsys):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    out, err = capsys.readouterr()
    assert out == "" and "argument --seed: " in err and "must be below 2**128" in err and "Traceback" not in err


def test_the_last_seed_below_the_philox_key_range_is_swept(capsys):
    code, out, _ = run(capsys, "check-invariance", "--trials", "1", "--seed", str(2**128 - 1), "--format", "json")
    assert code == 0 and json.loads(out)["reports"][0]["seed"] == 2**128 - 1


def with_events(tmp_path, name, coordinates, edit=lambda doc: None):
    """The shipped scenario file ``name`` with its stations' (t, x) replaced, in order, then changed by ``edit``."""
    doc = json.loads((SCENARIOS / f"{name}.json").read_text())
    for st, (t, x) in zip(doc["stations"], coordinates):
        st["event"].update(t=t, x=x)
    edit(doc)
    path = tmp_path / f"{name}_moved.json"
    path.write_text(json.dumps(doc))
    return str(path)


def conditional_eprb(tmp_path):
    """EPRB with B moved into A's causal future, firing its own analyzer after A's '+' and A's after A's '-'."""

    def condition(doc):
        a, b = doc["stations"]
        iv = b.pop("intervention")
        b.update(depends_on=["A"], cases=[{"when": ["+"], "intervention": iv}, {"when": ["-"], "intervention": a["intervention"]}])

    return with_events(tmp_path, "eprb", ((0.0, 1.0), (5.0, -1.0)), condition)


def b_conditioned_on_q(doc):
    """EPRB's B picks its analyzer by the outcome of 'Q', which the scenario lacks."""
    b = doc["stations"][1]
    iv = b.pop("intervention")
    b.update(depends_on=["Q"], cases=[{"when": [o["label"]], "intervention": iv} for o in iv["outcomes"]])


def eight_spacelike_analyzers(tmp_path):
    """Eight mutually spacelike analyzers, one per qubit of |0...0>, listed in scrambled time order."""
    rho = np.zeros((256, 256), dtype=complex)
    rho[0, 0] = 1.0
    stations = tuple(
        Station(Event(f"q{i}", 0.05 * (3 * i % 8), 2.0 * i), LocalIntervention(i, spin_analyzer(0.4 + 0.7 * i)))
        for i in range(8)
    )
    path = tmp_path / "spacelike8.json"
    path.write_text(serialize_scenario(Scenario(dims0=(2,) * 8, rho0=CMatrix(rho), stations=stations)))
    return str(path)


# Console runs that no other test holds: argv (a function of tmp_path in place
# of a scenario file it writes), exit code, and fragments of stdout and stderr.
CONSOLE_RUNS = [
    pytest.param(
        ["check-invariance", "--trials", "200"],
        0,
        ["ok: True\nworst: 0.0\ntrials: 200\nmethods: {'pairwise': 200, 'exhaustive': 0}\nfailing_seeds: []\nworst_seed: None\n"],
        [],
        id="invariance-sweep",
    ),
    # At --tolerance 1e-12, ok means every pair's worst is at most 1e-12.
    pytest.param(
        ["check-no-signaling", "--trials", "200", "--tolerance", "1e-12"],
        0,
        ["ok: True\n", "trials: 200\npairs_checked: 1262\nfailing_seeds: []\nworst_seed: None\n"],
        [],
        id="no-signaling-sweep",
    ),
    pytest.param(
        ["simulate", conditional_eprb, "--format", "csv"],
        0,
        ["A,B,probability\n+,+,0.125\n+,-,0.375\n-,+,0.5\n-,-,0\n"],
        [],
        id="conditional-simulate",
    ),
    pytest.param(
        ["check-invariance", conditional_eprb],
        0,
        ["ok: True\n", "method: pairwise\n"],
        [],
        id="conditional-invariance",
    ),
    pytest.param(
        ["check-povm", lambda tmp: with_events(tmp, "eprb", (), lambda doc: doc["stations"][1].update(subsystem=2))],
        2,
        [],
        ["scenario validation failed: $: station 'B' acts on subsystem 2, but"],
        id="subsystem-2",
    ),
    pytest.param(
        ["simulate", lambda tmp: with_events(tmp, "eprb", (), b_conditioned_on_q)],
        2,
        [],
        ["scenario validation failed: $: station 'B' depends on 'Q'"],
        id="unknown-dependency",
    ),
    pytest.param(
        ["check-invariance", eight_spacelike_analyzers],
        0,
        ["ok: True\n", "orders_checked: 40320\n", "method: pairwise\n"],
        [],
        id="eight-spacelike",
    ),
]


@pytest.mark.parametrize("argv, code, out_fragments, err_fragments", CONSOLE_RUNS)
def test_console_runs(argv, code, out_fragments, err_fragments, tmp_path, capsys):
    got, out, err = run(capsys, *(a(tmp_path) if callable(a) else a for a in argv))
    assert got == code, err
    assert all(f in out for f in out_fragments), out
    assert all(f in err for f in err_fragments) and "Traceback" not in err, err


@pytest.mark.parametrize(
    "coordinates",
    [((0.0, 1e-170), (5e-171, -1e-170)), ((1e308, 1.5e308), (-1e308, -1.7e308))],
    ids=["scaled-1e-170", "differences-overflow"],
)
def test_the_counterexample_is_flagged_at_any_finite_scale(tmp_path, capsys, coordinates):
    code, out, _ = run(capsys, "check-invariance", with_events(tmp_path, "counterexample", coordinates), "--format", "json")
    doc = json.loads(out)
    assert code == 1 and doc["ok"] is False and doc["orders_checked"] == 2
    assert doc["worst"] == pytest.approx(0.25, abs=1e-12)
    assert doc["witness"]["record"] == {"X": "x+", "Z": "z+"}


def test_a_scaled_eprb_still_has_its_spacelike_pairs(tmp_path, capsys):
    doc = json.loads((SCENARIOS / "eprb.json").read_text())
    coordinates = [(st["event"]["t"] * 1e-170, st["event"]["x"] * 1e-170) for st in doc["stations"]]
    code, out, _ = run(capsys, "check-no-signaling", with_events(tmp_path, "eprb", coordinates), "--format", "json")
    doc = json.loads(out)
    assert code == 0 and doc["ok"] is True and len(doc["pairs"]) == 2


def test_a_frame_whose_boosted_times_overflow_exits_2(tmp_path, capsys):
    path = with_events(tmp_path, "counterexample", ((1.7e308, 0.0), (1.6e308, 0.0)))
    code, out, err = run(capsys, "simulate", path, "--frame-velocity", "0.9")
    assert code == 2 and not out
    assert "event 'Z' has boosted time inf" in err and "Traceback" not in err
    code, out, _ = run(capsys, "simulate", path)
    assert code == 0 and "ordering: X -> Z" in out


def test_an_integer_beyond_float_range_exits_2(tmp_path, capsys):
    doc = json.loads(serialize_scenario(eprb(0.0, 1.0)))
    doc["stations"][0]["event"]["t"] = 10**400
    path = tmp_path / "huge_t.json"
    path.write_text(json.dumps(doc))
    code, _, err = run(capsys, "simulate", str(path))
    assert code == 2
    assert "$.stations[0].event.t" in err and "Traceback" not in err


@pytest.mark.parametrize("command", ["simulate", "check-invariance"])
def test_a_repeated_key_exits_2(command, tmp_path, capsys):
    # Keeping the last "t" would move A into B's causal future.
    path = tmp_path / "repeated.json"
    path.write_text((SCENARIOS / "eprb.json").read_text().replace('"t": 0.0,', '"t": 0.0, "t": 50.0,', 1))
    assert run(capsys, command, str(path)) == (2, "", "scenario validation failed: $.stations[0].event: repeated key 't'\n")


@pytest.mark.parametrize("after, before", [("A", "A"), ("C", "A"), ("A", "C")])
def test_an_evolution_no_ordering_can_place_exits_2(after, before, tmp_path, capsys):
    # B lies between A and C on one qubit, so no ordering puts these ends next to each other.
    z = spin_analyzer(0.0)
    chain = Scenario(
        dims0=(2,),
        rho0=CMatrix(np.diag([1.0, 0.0]).astype(complex)),
        stations=tuple(
            Station(Event(sid, 2.0 * i, 0.0), LocalIntervention(0, z)) for i, sid in enumerate("ABC")
        ),
    )
    doc = json.loads(serialize_scenario(chain))
    x = [[0.0, 0.0], [1.0, 0.0], [1.0, 0.0], [0.0, 0.0]]
    doc["evolutions"] = [{"after": after, "before": before, "matrix": x}]
    path = tmp_path / "unplaceable.json"
    path.write_text(json.dumps(doc))
    code, out, err = run(capsys, "simulate", str(path))
    assert code == 2 and out == ""
    assert err.startswith("scenario validation failed: $:") and "Traceback" not in err
    assert "fits no admissible ordering" in err


@pytest.mark.parametrize(
    "text",
    [
        "[" * 100_000 + "]" * 100_000,
        serialize_scenario(eprb(0.0, 1.0)).replace('"t": 0.0', '"t": ' + "1" * 5000, 1),
    ],
    ids=["nested", "digits"],
)
def test_unreadable_json_exits_2_naming_the_root(text, tmp_path, capsys):
    if "1" * 5000 in text and not hasattr(sys, "get_int_max_str_digits"):
        pytest.skip("no integer digit limit")
    path = tmp_path / "unreadable.json"
    path.write_text(text)
    code, _, err = run(capsys, "simulate", str(path))
    assert code == 2
    assert err.startswith("scenario validation failed: $:") and "Traceback" not in err


def nine_station_file(tmp_path, event):
    """Nine stations on a three-qubit product state, station i at ``event(i)`` on qubit i % 3."""
    s = Scenario(
        dims0=(2, 2, 2),
        rho0=CMatrix(np.eye(8) / 8),
        stations=tuple(
            Station(event(f"S{i}", i), LocalIntervention(i % 3, spin_analyzer(0.3 * i)))
            for i in range(9)
        ),
    )
    path = tmp_path / "nine.json"
    path.write_text(serialize_scenario(s))
    return str(path)


def test_check_invariance_refuses_more_than_eight_events(tmp_path, capsys):
    # Nine mutually spacelike stations have 9! orderings, over the limit of 8!.
    path = nine_station_file(tmp_path, lambda sid, i: Event(sid, 0.0, 10.0 * i))
    code, out, err = run(capsys, "check-invariance", path)
    assert code == 2
    assert "9 events have more than 40320 orderings (8!), the limit" in err and "simulate --frame-velocity" in err
    assert "Traceback" not in err


def test_simulate_refuses_a_tie_of_more_than_eight_stations(tmp_path, capsys, monkeypatch):
    # Nine simultaneous stations tie at v = 0 in 9! resolutions, over the limit of 8!.
    # The stub only counts: an unrefused tie would evaluate all 362,880 of them.
    from spacelike import cli, scenarios

    evaluated = []
    monkeypatch.setattr(cli, "evaluate_in_order", lambda _, order: evaluated.append(order))
    path = tmp_path / "tie9.json"
    path.write_text(serialize_scenario(identity_scenario(Event(f"S{i}", 0.0, 10.0 * i) for i in range(9))))
    code, out, err = run(capsys, "simulate", str(path))
    assert (code, evaluated) == (2, [])
    assert "more than 40320 orderings (8!), the limit" in err
    assert "Traceback" not in err


def test_simulate_lists_tie_resolutions_in_product_order(capsys, monkeypatch):
    # Resolutions come in the order of the product of each frame group's
    # permutations, the last group varying fastest.
    from spacelike import cli, scenarios

    rng = np.random.default_rng(17)
    for _ in range(200):
        n = int(rng.integers(1, 7))
        # Stations 10 apart in x and at most 2 apart in t are mutually spacelike.
        events = [Event(f"S{i}", float(rng.integers(0, 3)), 10.0 * i) for i in range(n)]
        s = identity_scenario(events)
        groups = frame_groups(s.events(), Frame(0.0))
        expected = [
            tuple(e.id for group in perm for e in group)
            for perm in itertools.product(*(itertools.permutations(g) for g in groups))
        ]
        listed = []
        monkeypatch.setattr(cli, "load_scenario", lambda name: s)
        monkeypatch.setattr(
            cli, "evaluate_in_order", lambda s, order: listed.append(tuple(order)) or EvaluationResult(tuple(order), {}, s)
        )
        run(capsys, "simulate", "eprb")
        assert listed == expected, events


def test_check_invariance_certifies_a_nine_station_timelike_chain(tmp_path, capsys):
    # Nine events, but a timelike chain has exactly one ordering.
    path = nine_station_file(tmp_path, lambda sid, i: Event(sid, 2.0 * i, 0.0))
    code, out, err = run(capsys, "check-invariance", path, "--format", "json")
    assert code == 0, err
    doc = json.loads(out)
    assert doc["ok"] is True and doc["orders_checked"] == 1


@pytest.mark.parametrize("name", ["dimension-change", "dimension_change"])
def test_builtin_names_take_dash_or_underscore(name, capsys):
    code, out, _ = run(capsys, "simulate", name, "--format", "csv")
    assert code == 0
    assert out.splitlines()[0] == "A,B,probability"
    # A and B are each last on their qubit, so both fire through rank-2 POVM roots: 16 records.
    records = json.loads(run(capsys, "simulate", name, "--format", "json")[1])["records"]
    assert len(records) == 16 and abs(sum(r["probability"] for r in records) - 1) <= 1e-12


def test_the_cli_builds_only_the_scenario_it_loads(tmp_path, monkeypatch, capsys):
    path = tmp_path / "eprb.json"
    path.write_text(serialize_scenario(eprb(0.0, 1.0)))
    built = []
    for name in ("eprb", "noncommuting_counterexample", "dimension_change_scenario"):
        builder = getattr(scenarios, name)
        monkeypatch.setattr(scenarios, name, lambda *args, _b=builder, _n=name: built.append(_n) or _b(*args))
    assert run(capsys, "check-povm", "dimension-change")[0] == 0
    assert built == ["dimension_change_scenario"]
    built.clear()
    assert run(capsys, "check-povm", str(path))[0] == 0
    assert built == []


def identity_scenario(events):
    """An identity station on one qubit at each event."""
    identity = Intervention(d_in=2, outcomes=(Outcome("id", 2, (CMatrix.identity(2),)),))
    return Scenario(
        dims0=(2,),
        rho0=CMatrix(np.eye(2) / 2),
        stations=tuple(Station(e, LocalIntervention(0, identity)) for e in events),
    )


def identity_chain_file(tmp_path, n):
    """n identity stations on one qubit, each in the timelike future of the one before."""
    path = tmp_path / f"chain{n}.json"
    path.write_text(serialize_scenario(identity_scenario(Event(f"S{i}", 2.0 * i, 0.0) for i in range(n))))
    return str(path)


def test_check_invariance_certifies_a_300_station_chain(tmp_path, capsys):
    code, out, err = run(capsys, "check-invariance", identity_chain_file(tmp_path, 300), "--format", "json")
    assert code == 0, err
    doc = json.loads(out)
    assert doc["ok"] is True and doc["orders_checked"] == 1


def test_a_chain_deeper_than_the_recursion_limit_certifies_and_simulates(tmp_path, capsys):
    # Enumeration and evaluation keep no frame per station, so 1,100 stations
    # (beyond the default recursion limit of 1,000) take no special path.
    path = identity_chain_file(tmp_path, 1100)
    code, out, err = run(capsys, "check-invariance", path, "--format", "json")
    assert code == 0, err
    doc = json.loads(out)
    assert doc["ok"] is True and doc["orders_checked"] == 1
    code, out, err = run(capsys, "simulate", path, "--format", "json")
    assert code == 0, err
    assert json.loads(out)["records"][0]["probability"] == pytest.approx(1.0, abs=1e-12)
