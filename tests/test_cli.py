import itertools
import json
import math

import pytest

import numpy as np

from spacelike import cli
from spacelike.cli import main
from spacelike.experiment import ConditionalLocal, Scenario, Station
from spacelike.intervention import Intervention, LocalIntervention, Outcome, random_intervention
from spacelike.linalg import CMatrix
from spacelike.schema import serialize_scenario
from spacelike.scenarios import eprb, noncommuting_counterexample, random_product_scenario, spin_analyzer
from spacelike.spacetime import Event, Frame, frame_groups


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
    tied = eprb(0.0, 1.0, layout=(Event("A", 0.0, 1.0), Event("B", 0.0, -1.0)))
    path = tmp_path / "tie.json"
    path.write_text(serialize_scenario(tied))
    code, out, _ = run(capsys, "simulate", str(path))
    assert code == 0
    assert "tie" in out
    assert "worst spread across resolutions" in out
    code, out, _ = run(capsys, "simulate", str(path), "--format", "json")
    assert code == 0
    doc = json.loads(out)
    assert doc["tie"] is True and doc["ok"] is True
    assert len(doc["resolutions"]) == 2


def test_simulate_evaluates_every_tie_resolution_in_one_walk(tmp_path, capsys, monkeypatch):
    from spacelike import cli

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
    walk = cli.evaluate_orderings
    monkeypatch.setattr(cli, "evaluate_orderings", lambda s, orders: calls.append(orders) or walk(s, orders))
    code, out, _ = run(capsys, "simulate", str(path), "--format", "json")
    assert code == 0
    doc = json.loads(out)
    assert doc["tie"] is True and doc["ok"] is True and len(doc["resolutions"]) == 6
    assert len(calls) == 1 and len(calls[0]) == 6


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
        assert f"method,{method}\n" in run(capsys, "check-invariance", name, "--format", "csv")[1]


def sweep_lines(capsys, *argv):
    """The --trials summary in table, csv and json, each as a dict of its printed values."""
    table = run(capsys, *argv)[1].splitlines()
    csv = run(capsys, *argv, "--format", "csv")[1].splitlines()[1:]
    code, out, _ = run(capsys, *argv, "--format", "json")
    return code, dict(line.split(": ", 1) for line in table), dict(line.split(",", 1) for line in csv), json.loads(out)


def test_invariance_sweep_names_failing_and_worst_seeds_and_counts_methods(monkeypatch, capsys):
    # Seed 5 stands in for a failing scenario: the counterexample, settled by every ordering.
    monkeypatch.setattr(
        cli,
        "random_product_scenario",
        lambda seed: noncommuting_counterexample() if seed == 5 else random_product_scenario(seed=seed),
    )
    code, table, csv, doc = sweep_lines(capsys, "check-invariance", "--trials", "3", "--seed", "4")
    assert code == 1
    assert (doc["failing_seeds"], doc["worst_seed"], doc["trials"]) == ([5], 5, 3)
    assert doc["methods"] == {"pairwise": 2, "exhaustive": 1}
    assert [r["method"] for r in doc["reports"]] == ["pairwise", "exhaustive", "pairwise"]
    assert (table["failing_seeds"], table["worst_seed"]) == ("[5]", "5")
    assert table["methods"] == "{'pairwise': 2, 'exhaustive': 1}"
    assert (csv["failing_seeds"], csv["worst_seed"]) == ("[5]", "5")
    assert json.loads(csv["methods"]) == doc["methods"]


def test_no_signaling_sweep_names_failing_and_worst_seeds(capsys):
    # At a tolerance below rounding, a seed fails wherever any pair moved at all.
    worst = {
        seed: max(r.worst for r in cli._check_no_signaling_all(random_product_scenario(seed=seed), 1e-300, seed, None, None))
        for seed in range(3)
    }
    failing = [seed for seed, w in worst.items() if w > 1e-300]
    worst_seed = max(worst, key=lambda seed: (worst[seed], -seed))
    assert failing
    code, table, csv, doc = sweep_lines(capsys, "check-no-signaling", "--trials", "3", "--tolerance", "1e-300")
    assert code == 1
    assert (doc["failing_seeds"], doc["worst_seed"]) == (failing, worst_seed)
    for printed in (table, csv):
        assert (json.loads(printed["failing_seeds"]), int(printed["worst_seed"])) == (failing, worst_seed)


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
    assert "more than 40320 orderings (8!), the limit" in err and "simulate --frame-velocity" in err
    assert "Traceback" not in err


def test_simulate_refuses_a_tie_of_more_than_eight_stations(tmp_path, capsys, monkeypatch):
    # Nine simultaneous stations tie at v = 0 in 9! resolutions, over the limit of 8!.
    # The stub only counts: an unrefused tie would evaluate all 362,880 of them.
    from spacelike import cli

    evaluated = []
    monkeypatch.setattr(cli, "evaluate_orderings", lambda _, orders: evaluated.append(len(orders)) or [])
    path = tmp_path / "tie9.json"
    path.write_text(serialize_scenario(identity_scenario(Event(f"S{i}", 0.0, 10.0 * i) for i in range(9))))
    code, out, err = run(capsys, "simulate", str(path))
    assert (code, evaluated) == (2, [])
    assert "more than 40320 orderings (8!), the limit" in err
    assert "Traceback" not in err


def test_simulate_lists_tie_resolutions_in_product_order(capsys, monkeypatch):
    # Resolutions come in the order of the product of each frame group's
    # permutations, the last group varying fastest.
    from spacelike import cli

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
        monkeypatch.setattr(cli, "evaluate_orderings", lambda _, orders: listed.extend(map(tuple, orders)) or [])
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
