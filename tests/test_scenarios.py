import hashlib
import math

import numpy as np
import pytest

from spacelike.linalg import CMatrix, dagger, matmul, max_abs_diff
from spacelike.intervention import Intervention, LocalIntervention, Outcome, embed
from spacelike.experiment import (
    Scenario,
    Station,
    check_no_signaling,
    check_order_invariance,
    evaluate_in_order,
    marginal,
)
from spacelike.scenarios import (
    _generated_alternatives,
    builtin_scenarios,
    chsh,
    correlation,
    dimension_change_scenario,
    eprb,
    noncommuting_counterexample,
    random_product_scenario,
    spin_analyzer,
    teleport_intervention,
)
from spacelike.spacetime import Event, IntervalKind, classify


def test_spin_analyzer_is_periodic_in_two_pi():
    for angle in (-0.5, 0.0, 0.4, 2.5, 6.0):
        a, b = spin_analyzer(angle), spin_analyzer(angle + 2.0 * math.pi)
        for label in ("+", "-"):
            assert max_abs_diff(a.outcome(label).kraus[0], b.outcome(label).kraus[0]) <= 1e-12


def test_spin_analyzer_is_a_projective_pair():
    for angle in (0.0, 0.4, math.pi / 2.0, 2.5):
        iv = spin_analyzer(angle)
        p_plus = iv.outcome("+").kraus[0]
        p_minus = iv.outcome("-").kraus[0]
        assert max_abs_diff(matmul(p_plus, p_plus), p_plus) < 1e-12
        assert max_abs_diff(matmul(p_plus, p_minus), CMatrix(np.zeros((2, 2)))) < 1e-12
        total = CMatrix(p_plus.array + p_minus.array)
        assert max_abs_diff(total, CMatrix.identity(2)) == 0.0


def test_eprb_equal_angles_anticorrelate():
    for angle in (0.0, 0.7, 2.0):
        result = evaluate_in_order(eprb(angle, angle), ["A", "B"])
        probs = {rec: p for rec, p in result.probabilities.items()}
        assert probs[(("A", "+"), ("B", "+"))] == pytest.approx(0.0, abs=1e-12)
        assert probs[(("A", "-"), ("B", "-"))] == pytest.approx(0.0, abs=1e-12)
        assert probs[(("A", "+"), ("B", "-"))] == pytest.approx(0.5, abs=1e-12)


def test_eprb_sixty_degree_joint_probability():
    result = evaluate_in_order(eprb(0.0, math.pi / 3.0), ["A", "B"])
    assert result.probabilities[(("A", "+"), ("B", "+"))] == pytest.approx(0.125, abs=1e-12)
    assert result.probabilities[(("A", "+"), ("B", "-"))] == pytest.approx(0.375, abs=1e-12)


def test_eprb_bob_marginal_ignores_alice_angle():
    for angle_a in (0.0, 0.3, 1.0, 2.2):
        bob = marginal(evaluate_in_order(eprb(angle_a, 1.0), ["A", "B"]), "B")
        assert bob["+"] == pytest.approx(0.5, abs=1e-12)


def test_correlation_law_on_a_grid():
    for a in np.linspace(0.0, 2.0 * math.pi, 7):
        for b in np.linspace(0.0, 2.0 * math.pi, 5):
            assert correlation(float(a), float(b)) == pytest.approx(
                -math.cos(a - b), abs=1e-9
            )


def test_chsh_values():
    # the four physical angles {0, pi/2} x {pi/4, 3pi/4}, assigned so the
    # +,+,+,- combination aligns: S reaches 2*sqrt(2)
    s = chsh((math.pi / 2.0, 0.0), (math.pi / 4.0, 3.0 * math.pi / 4.0))
    assert s == pytest.approx(2.0 * math.sqrt(2.0), abs=1e-9)
    assert chsh((0.9, 0.9), (0.9, 0.9)) == pytest.approx(2.0, abs=1e-9)
    # degenerate pairs collapse to 2|E(a1, b1)|
    a1, b1 = 0.3, 1.4
    assert chsh((a1, a1), (b1, b1)) == pytest.approx(
        2.0 * abs(math.cos(a1 - b1)), abs=1e-9
    )


# ------------------------------------------------------------- teleportation


def test_teleport_intervention_structure():
    iv = teleport_intervention(3)
    assert iv.d_in == 2
    assert iv.labels() == ("phi+", "phi-", "psi+", "psi-")
    for o in iv.outcomes:
        assert o.d_out == 3
        assert o.kraus[0].shape == (3, 2)
    with pytest.raises(ValueError):
        teleport_intervention(2)


def test_teleport_branches_compose_to_one_isometry():
    for d in (3, 5):
        iv = teleport_intervention(d)
        branches = [o.kraus[0] for o in iv.outcomes]
        for k in branches[1:]:
            assert max_abs_diff(branches[0], k) < 1e-12
        v = CMatrix(2.0 * branches[0].array)
        gram = matmul(dagger(v), v)
        assert max_abs_diff(gram, CMatrix.identity(2)) < 1e-12


def embedded_analyzer(angle: float, d: int) -> Intervention:
    """Spin analyzer acting on the 2-level subspace of a d-level system."""
    base = spin_analyzer(angle)
    e = np.zeros((d, 2), dtype=complex)
    e[0, 0] = e[1, 1] = 1.0
    p_plus = e @ base.outcome("+").kraus[0].array @ e.conj().T
    p_minus = np.eye(d, dtype=complex) - p_plus
    return Intervention(
        d_in=d,
        outcomes=(
            Outcome("+", d, (CMatrix(p_plus),)),
            Outcome("-", d, (CMatrix(p_minus),)),
        ),
    )


@pytest.mark.parametrize("angle_a,angle_b", [(0.0, 0.0), (0.0, 1.0), (0.8, 2.4)])
def test_teleportation_preserves_singlet_correlations(angle_a, angle_b):
    """Analyzing the embedded subspace of the converted side reproduces -cos."""
    singlet = eprb(0.0, 0.0).rho0
    s = Scenario(
        dims0=(2, 2),
        rho0=singlet,
        stations=(
            Station(Event("T", 0.0, 1.0), LocalIntervention(0, teleport_intervention(3))),
            Station(Event("A", 1.5, 1.0), LocalIntervention(0, embedded_analyzer(angle_a, 3))),
            Station(Event("B", 0.5, -1.0), LocalIntervention(1, spin_analyzer(angle_b))),
        ),
    )
    result = evaluate_in_order(s, ["T", "B", "A"])
    value = 0.0
    for rec, p in result.probabilities.items():
        outcomes = dict(rec)
        sign = (1.0 if outcomes["A"] == "+" else -1.0) * (
            1.0 if outcomes["B"] == "+" else -1.0
        )
        value += sign * p
    assert value == pytest.approx(-math.cos(angle_a - angle_b), abs=1e-9)
    assert check_order_invariance(s, 1e-9).ok


# ---------------------------------------------------------- dimension change


def test_dimension_change_records_and_dimensions():
    s = dimension_change_scenario()
    result = evaluate_in_order(s, ["A", "B"])
    assert len(result.probabilities) == 16
    for rec, p in result.probabilities.items():
        assert p == pytest.approx(1.0 / 16.0, abs=1e-12)
        assert result.final_states[rec].shape == (15, 15)


def test_dimension_change_embedded_kraus_shapes():
    s = dimension_change_scenario()
    alice = s.station("A").resolve({})
    bob = s.station("B").resolve({})
    lifted_alice = embed(LocalIntervention(0, alice), (2, 2))
    assert lifted_alice.outcomes[0].kraus[0].shape == (6, 4)
    lifted_bob_after_alice = embed(LocalIntervention(1, bob), (3, 2))
    assert lifted_bob_after_alice.outcomes[0].kraus[0].shape == (15, 6)
    lifted_bob_first = embed(LocalIntervention(1, bob), (2, 2))
    assert lifted_bob_first.outcomes[0].kraus[0].shape == (10, 4)


def test_dimension_change_is_order_invariant():
    s = dimension_change_scenario()
    report = check_order_invariance(s, 1e-9)
    assert report.ok
    a_first = evaluate_in_order(s, ["A", "B"])
    b_first = evaluate_in_order(s, ["B", "A"])
    for rec in a_first.records():
        assert max_abs_diff(a_first.final_states[rec], b_first.final_states[rec]) < 1e-9


def test_dimension_change_no_signaling_between_sides():
    s = dimension_change_scenario()
    alt = LocalIntervention(0, spin_analyzer(0.7))
    report = check_no_signaling(s, "B", [alt], 1e-9, varied="A")
    assert report.ok


# ------------------------------------------------------------- counterexample


def test_counterexample_hand_values():
    s = noncommuting_counterexample()
    z_first = evaluate_in_order(s, ["Z", "X"])
    x_first = evaluate_in_order(s, ["X", "Z"])
    key = (("X", "x+"), ("Z", "z+"))
    assert z_first.probabilities[key] == pytest.approx(0.5, abs=1e-12)
    assert x_first.probabilities[key] == pytest.approx(0.25, abs=1e-12)


def test_counterexample_is_flagged():
    report = check_order_invariance(noncommuting_counterexample(), 1e-9)
    assert not report.ok
    assert report.worst >= 0.25 - 1e-9
    assert report.witness is not None


# ------------------------------------------------------------ random builder


def test_random_product_scenario_is_deterministic():
    a = random_product_scenario(seed=11)
    b = random_product_scenario(seed=11)
    assert a.dims0 == b.dims0
    assert max_abs_diff(a.rho0, b.rho0) == 0.0
    for st_a, st_b in zip(a.stations, b.stations):
        assert st_a.event == st_b.event
        iv_a, iv_b = st_a.resolve({}), st_b.resolve({})
        assert iv_a.labels() == iv_b.labels()
        for o_a, o_b in zip(iv_a.outcomes, iv_b.outcomes):
            assert max_abs_diff(o_a.kraus[0], o_b.kraus[0]) == 0.0


def kraus_digest(interventions):
    """sha256 over ``float.hex`` of every Kraus entry's real and imaginary part, in order."""
    h = hashlib.sha256()
    for iv in interventions:
        for o in iv.outcomes:
            for k in o.kraus:
                for z in k.array.ravel():
                    h.update(float(z.real).hex().encode())
                    h.update(float(z.imag).hex().encode())
    return h.hexdigest()


# One helper draws every random intervention, for the product scenarios and the
# CLI's alternatives alike. These values pin its stream, so a change to it cannot
# silently move the CLI's outputs: (scenario, varied station, seed, each
# alternative's outcome dimensions, kraus_digest). A qubit station draws alike in
# any scenario.
ALTERNATIVE_DRAWS = [
    ("eprb", "A", 0, [[2], [1, 2], [1, 2]], "433a232b5cb44eb1d7183228b7ec2e6c1547d26e7ad0cd02968ac78b76ce5008"),
    ("eprb", "A", 1, [[2], [1, 3], [2, 1, 3]], "7eb04df119418e0edc58fbf253b2dfc27203518320da9c6a37f876d2a8d9bfa9"),
    ("counterexample", "Z", 0, [[2], [1, 2], [1, 2]], "433a232b5cb44eb1d7183228b7ec2e6c1547d26e7ad0cd02968ac78b76ce5008"),
    ("counterexample", "Z", 1, [[2], [1, 3], [2, 1, 3]], "7eb04df119418e0edc58fbf253b2dfc27203518320da9c6a37f876d2a8d9bfa9"),
    ("product 1", "s1", 0, [[3], [1, 2], [1, 2]], "c3aac47c7e690d3d266b92ed4c810d6c5d76b543f5adf431f19f0f2a5d1ca8ae"),
]


@pytest.mark.parametrize("name, varied, seed, outcome_dims, digest", ALTERNATIVE_DRAWS)
def test_generated_alternatives_keep_their_draws(name, varied, seed, outcome_dims, digest):
    s = random_product_scenario(seed=1) if name == "product 1" else builtin_scenarios()[name]
    alternatives = _generated_alternatives(s, varied, seed)
    assert {a.subsystem for a in alternatives} == {s.station(varied).subsystem}
    assert alternatives[0].local.labels() == ("id",)
    ivs = [a.local for a in alternatives]
    assert [[o.d_out for o in iv.outcomes] for iv in ivs] == outcome_dims
    assert kraus_digest(ivs) == digest


def test_random_product_scenario_keeps_its_draws():
    expected = {
        0: ((2, 3), [[1, 3], [1, 2]], "e775808882243ad035c2f971c9f0f6b3e813d08cf2d86d2731ee75d6fe8cec18"),
        1: ((2, 3, 3), [[2, 3, 3], [1, 1, 1], [2, 3]], "1c95349908fde269eab9a7523c81a3e06fb4f122814d7923a00b36cae73bf7ae"),
    }
    for seed, (dims, outcome_dims, digest) in expected.items():
        s = random_product_scenario(seed=seed)
        ivs = [st.resolve({}) for st in s.stations]
        assert (s.dims0, [[o.d_out for o in iv.outcomes] for iv in ivs], kraus_digest(ivs)) == (dims, outcome_dims, digest)


def test_random_product_scenario_structure():
    for seed in (0, 5, 9):
        s = random_product_scenario(seed=seed)
        assert 2 <= len(s.stations) <= 4
        subsystems = [st.subsystem for st in s.stations]
        assert len(set(subsystems)) == len(subsystems)
        for i, a in enumerate(s.stations):
            for b in s.stations[i + 1 :]:
                assert classify(a.event, b.event) is IntervalKind.SPACELIKE
        # pure initial state
        rho = s.rho0.array
        np.testing.assert_allclose(rho @ rho, rho, atol=1e-12)


def test_random_product_scenario_passes_both_certifiers():
    for seed in range(25):
        s = random_product_scenario(seed=seed)
        assert check_order_invariance(s, 1e-9).ok
        first, last = s.stations[0], s.stations[-1]
        alt = LocalIntervention(
            first.subsystem,
            spin_analyzer(0.5)
            if s.dims0[first.subsystem] == 2
            else Intervention(
                d_in=s.dims0[first.subsystem],
                outcomes=(
                    Outcome(
                        "id",
                        s.dims0[first.subsystem],
                        (CMatrix.identity(s.dims0[first.subsystem]),),
                    ),
                ),
            ),
        )
        assert check_no_signaling(s, last.id, [alt], 1e-9, varied=first.id).ok


def test_builtin_scenarios_all_valid():
    scenarios = builtin_scenarios()
    assert set(scenarios) == {"eprb", "counterexample", "dimension_change"}
    for s in scenarios.values():
        order = [st.id for st in sorted(s.stations, key=lambda st: (st.event.t, st.id))]
        result = evaluate_in_order(s, order)
        assert sum(result.probabilities.values()) == pytest.approx(1.0, abs=1e-9)


def test_exported_scenario_files_match_committed_copies(tmp_path):
    """Regenerating the shipped scenario files must reproduce them exactly."""
    from pathlib import Path

    from spacelike.schema import serialize_scenario

    committed = Path(__file__).resolve().parent.parent / "scenarios"
    for name, scenario in builtin_scenarios().items():
        path = tmp_path / f"{name}.json"
        path.write_text(serialize_scenario(scenario), encoding="utf-8")
        reference = committed / path.name
        assert reference.exists(), f"missing shipped scenario file {reference}"
        assert path.read_text() == reference.read_text(), path.name
