import json
import math

import pytest

import numpy as np

from spacelike.cli import main
from spacelike.experiment import ConditionalLocal, Scenario, Station
from spacelike.intervention import LocalIntervention, random_intervention
from spacelike.linalg import CMatrix
from spacelike.schema import serialize_scenario
from spacelike.scenarios import eprb
from spacelike.spacetime import Event


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


def test_check_no_signaling_builtin(capsys):
    code, out, _ = run(capsys, "check-no-signaling", "eprb", "--format", "json")
    assert code == 0
    doc = json.loads(out)
    assert doc["ok"] is True
    assert doc["worst"] < 1e-9
    assert len(doc["pairs"]) == 2


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


def test_demo_commands(capsys):
    code, out, _ = run(capsys, "demo", "eprb")
    assert code == 0
    assert "CHSH" in out
    code, out, _ = run(capsys, "demo", "counterexample")
    assert code == 0
    assert "reproduced" in out
    code, out, _ = run(capsys, "demo", "dimension-change")
    assert code == 0
    assert "15-dimensional" in out


def test_unknown_scenario_and_demo_rejected(capsys):
    with pytest.raises(SystemExit):
        main(["simulate", "nonsense-name"])
    with pytest.raises(SystemExit):
        main(["demo", "nonsense-name"])


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
    ],
)
def test_bad_input_exits_2(argv, tmp_path, capsys):
    with pytest.raises(SystemExit) as exc:
        main([arg.format(tmp=tmp_path) for arg in argv])
    assert exc.value.code == 2
    assert "error:" in capsys.readouterr().err


@pytest.mark.parametrize("name", ["dimension-change", "dimension_change"])
def test_builtin_names_take_dash_or_underscore(name, capsys):
    code, out, _ = run(capsys, "simulate", name, "--format", "csv")
    assert code == 0
    assert out.splitlines()[0] == "A,B,probability"
    code, out, _ = run(capsys, "demo", name)
    assert code == 0
    assert "15-dimensional" in out
