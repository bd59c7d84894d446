import copy
import hashlib
import itertools
import json
import math
import re
import tracemalloc
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from spacelike import cli, experiment, parse_scenario, tolerance
from spacelike.linalg import CMatrix, DimensionError, deviation, max_abs_diff, trace
from spacelike.intervention import (
    Intervention,
    LocalIntervention,
    Outcome,
    apply,
    embed,
    random_intervention,
)
from spacelike.experiment import (
    ConditionalLocal,
    Evolution,
    Scenario,
    Station,
    TieError,
    check_no_signaling,
    check_order_invariance,
    evaluate_in_frame,
    evaluate_in_order,
    marginal,
)
from spacelike.scenarios import (
    builtin_scenarios,
    eprb,
    noncommuting_counterexample,
    random_product_scenario,
    spin_analyzer,
    teleport_intervention,
)
from spacelike.schema import serialize_scenario
from spacelike.spacetime import Event, Frame, causal_order, linear_extensions

P0 = CMatrix(np.diag([1.0, 0.0]).astype(complex))
P1 = CMatrix(np.diag([0.0, 1.0]).astype(complex))
PPLUS = CMatrix(0.5 * np.ones((2, 2), dtype=complex))
PMINUS = CMatrix(np.eye(2, dtype=complex) - PPLUS.array)
SCENARIO_DIR = Path(__file__).resolve().parent.parent / "scenarios"
HADAMARD = CMatrix(np.array([[1.0, 1.0], [1.0, -1.0]], dtype=complex) / math.sqrt(2.0))


def z_iv(labels=("z+", "z-")):
    return Intervention(d_in=2, outcomes=(Outcome(labels[0], 2, (P0,)), Outcome(labels[1], 2, (P1,))))


def x_iv():
    return Intervention(d_in=2, outcomes=(Outcome("x+", 2, (PPLUS,)), Outcome("x-", 2, (PMINUS,))))


def identity_iv(d=2):
    return Intervention(d_in=d, outcomes=(Outcome("id", d, (CMatrix.identity(d),)),))


def maximally_mixed(d=2):
    return CMatrix(np.eye(d, dtype=complex) / d)


def station(sid, t, x, subsystem, iv):
    return Station(event=Event(sid, t, x), local=LocalIntervention(subsystem, iv))


def timelike_chain_scenario(rho0=None, evolutions=()):
    """P measures z at (0,0), Q measures x at (2,0), one qubit."""
    return Scenario(
        dims0=(2,),
        rho0=maximally_mixed() if rho0 is None else rho0,
        stations=(station("P", 0.0, 0.0, 0, z_iv()), station("Q", 2.0, 0.0, 0, x_iv())),
        evolutions=tuple(evolutions),
    )


# ---------------------------------------------------------------- validation


def test_scenario_rejects_bad_initial_states():
    st = (station("A", 0.0, 0.0, 0, z_iv()),)
    with pytest.raises(ValueError, match="trace"):
        Scenario(dims0=(2,), rho0=CMatrix(np.eye(2, dtype=complex)), stations=st)
    skew = np.array([[0.5, 0.3], [0.0, 0.5]], dtype=complex)
    with pytest.raises(ValueError, match="Hermitian"):
        Scenario(dims0=(2,), rho0=CMatrix(skew), stations=st)
    with pytest.raises(DimensionError):
        Scenario(dims0=(2, 2), rho0=maximally_mixed(2), stations=st)


def test_scenario_rejects_duplicate_station_ids():
    with pytest.raises(ValueError, match="unique"):
        Scenario(
            dims0=(2,),
            rho0=maximally_mixed(),
            stations=(station("A", 0.0, 0.0, 0, z_iv()), station("A", 1.0, 0.0, 0, x_iv())),
        )


@pytest.mark.parametrize("coordinate", ["t", "x"])
@pytest.mark.parametrize("value", [math.nan, math.inf])
def test_scenario_rejects_a_non_finite_event_coordinate(coordinate, value):
    # With A's t at NaN, the pairwise certificate, a frame and the
    # no-signaling check would each read the event differently.
    s = eprb(0.0, 1.0)
    a, b = s.stations
    bad = replace(a, event=replace(a.event, **{coordinate: value}))
    with pytest.raises(ValueError, match=r"station 'A' has event coordinates .*; both must be finite"):
        replace(s, stations=(bad, b))


def test_scenario_validates_evolutions():
    stations = (station("P", 0.0, 0.0, 0, z_iv()), station("Q", 2.0, 0.0, 0, x_iv()))
    base = dict(dims0=(2,), rho0=maximally_mixed(), stations=stations)
    with pytest.raises(ValueError, match="unitary"):
        Scenario(**base, evolutions=(Evolution("P", "Q", CMatrix(np.diag([1.0, 0.5]))),))
    with pytest.raises(ValueError, match="unknown station"):
        Scenario(**base, evolutions=(Evolution("P", "R", CMatrix.identity(2)),))
    with pytest.raises(ValueError, match="at least one station"):
        Scenario(**base, evolutions=(Evolution(None, None, CMatrix.identity(2)),))
    with pytest.raises(DimensionError):
        Scenario(**base, evolutions=(Evolution("P", "Q", CMatrix(np.zeros((2, 3)))),))
    with pytest.raises(ValueError, match="unknown"):
        Scenario(
            **base,
            evolutions=(Evolution("P", "Q", CMatrix.identity(2), history={"P": "sideways"}),),
        )


PAULI_X = CMatrix(np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex))


def z_chain(evolutions=()):
    """A, B and C measure z at t = 0, 2, 4 on one qubit prepared in |0>: B lies between A and C."""
    return Scenario(
        dims0=(2,),
        rho0=P0,
        stations=tuple(station(sid, 2.0 * i, 0.0, 0, z_iv()) for i, sid in enumerate("ABC")),
        evolutions=evolutions,
    )


@pytest.mark.parametrize(
    "after, before", [("A", "A"), ("C", "A"), ("A", "C"), (None, "B"), ("B", None)]
)
def test_scenario_rejects_evolutions_no_ordering_can_place(after, before):
    # No ordering of the chain puts these ends next to each other, so every
    # evaluator would silently ignore the evolution.
    with pytest.raises(ValueError, match="fits no admissible ordering"):
        z_chain((Evolution(after, before, PAULI_X),))


def test_scenario_rejects_ambiguous_evolution_histories():
    stations = (station("P", 0.0, 0.0, 0, z_iv()), station("Q", 2.0, 0.0, 0, x_iv()))
    e1 = Evolution("P", "Q", CMatrix.identity(2), history={})
    e2 = Evolution("P", "Q", HADAMARD, history={"P": "z+"})
    with pytest.raises(ValueError, match="overlapping"):
        Scenario(dims0=(2,), rho0=maximally_mixed(), stations=stations, evolutions=(e1, e2))
    # mutually exclusive conditions on the same segment are fine
    e3 = Evolution("P", "Q", HADAMARD, history={"P": "z-"})
    Scenario(dims0=(2,), rho0=maximally_mixed(), stations=stations, evolutions=(e2, e3))


def test_conditional_local_validation():
    with pytest.raises(ValueError):
        ConditionalLocal(subsystem=0, depends_on=(), cases={(): identity_iv()})
    with pytest.raises(ValueError):
        ConditionalLocal(subsystem=0, depends_on=("M",), cases={})
    with pytest.raises(ValueError, match="arity"):
        ConditionalLocal(subsystem=0, depends_on=("M",), cases={("a", "b"): identity_iv()})


@pytest.mark.parametrize("subsystem", [-1, 2])
def test_scenario_rejects_a_conditional_station_off_its_subsystems(subsystem):
    # A full-rank rho0 would let a negative index reshape without error and walk a wrong level.
    cases = {(o,): identity_iv() for o in ("z+", "z-")}
    with pytest.raises(DimensionError, match=f"subsystem {subsystem}, but"):
        Scenario(
            dims0=(2, 2),
            rho0=maximally_mixed(4),
            stations=(
                station("M", 0.0, 0.0, 0, z_iv()),
                Station(Event("C", 2.0, 0.0), ConditionalLocal(subsystem, ("M",), cases)),
            ),
        )


# ---------------------------------------------------------------- evaluation


def test_single_identity_station():
    rho = maximally_mixed()
    s = Scenario(dims0=(2,), rho0=rho, stations=(station("A", 0.0, 0.0, 0, identity_iv()),))
    result = evaluate_in_order(s, ["A"])
    assert result.probabilities == {(("A", "id"),): pytest.approx(1.0)}
    assert max_abs_diff(result.final_states[(("A", "id"),)], rho) == 0.0


@pytest.mark.parametrize("qubits", [3, 5])
def test_diagonal_mixed_state_passes_identity_stations_exactly(qubits):
    # Distinct weights, scattered so that the factor's pivot order is not the index order.
    weights = np.zeros(2**qubits)
    weights[[3, 5, 1, 6]] = [0.5, 0.25, 0.15625, 0.09375]
    rho = CMatrix(np.diag(weights).astype(complex))
    stations = tuple(station(f"I{i}", 0.0, 2.0 * i, i, identity_iv()) for i in range(qubits))
    s = Scenario(dims0=(2,) * qubits, rho0=rho, stations=stations)
    result = evaluate_in_order(s, [st.id for st in stations])
    (state,) = result.final_states.values()
    assert max_abs_diff(state, rho) == 0.0


def test_order_must_be_a_permutation():
    s = timelike_chain_scenario()
    with pytest.raises(ValueError, match="permutation"):
        evaluate_in_order(s, ["P"])
    with pytest.raises(ValueError, match="permutation"):
        evaluate_in_order(s, ["P", "P"])
    with pytest.raises(ValueError, match="permutation"):
        evaluate_in_order(s, ["P", "Q", "R"])


def test_order_must_extend_causal_order():
    s = timelike_chain_scenario()
    with pytest.raises(ValueError, match="violating"):
        evaluate_in_order(s, ["Q", "P"])


def test_chain_dimension_mismatch_names_station():
    # first station grows the only subsystem 2 -> 3, second still expects 2
    grow = random_intervention(2, [3], seed=1)
    s = Scenario(
        dims0=(2,),
        rho0=maximally_mixed(),
        stations=(station("G", 0.0, 1.0, 0, grow), station("Z", 0.5, -1.0, 0, z_iv())),
    )
    with pytest.raises(DimensionError, match="'Z'"):
        evaluate_in_order(s, ["G", "Z"])
    # the other order runs: Z first leaves dimension 2 for G
    result = evaluate_in_order(s, ["Z", "G"])
    assert sum(result.probabilities.values()) == pytest.approx(1.0, abs=1e-9)


def test_a_factor_of_mixed_dimensions_is_refused_or_routed_by_outcome():
    # G leaves its qubit 2- or 3-dimensional, by outcome: a level's branches
    # then differ on that factor, and a qubit station after G meets the qutrit.
    grow = station("G", 0.0, 1.0, 0, random_intervention(2, [2, 3], seed=1))
    s = Scenario(dims0=(2,), rho0=maximally_mixed(), stations=(grow, station("Z", 0.5, -1.0, 0, z_iv())))
    with pytest.raises(DimensionError) as exc:
        evaluate_in_order(s, ["G", "Z"])
    assert str(exc.value) == (
        "station 'Z' at this point in the chain: factor 0 has dimension 3, "
        "but the local intervention expects d_in 2"
    )
    # Routing o0 (d_out 2) to a qubit case and o1 (d_out 3) to a qutrit case fits every branch.
    cases = {("o0",): x_iv(), ("o1",): random_intervention(3, [1, 2], seed=2)}
    routed = Scenario(
        dims0=(2,),
        rho0=random_density(2, seed=3),
        stations=(grow, Station(Event("C", 2.0, 1.0), ConditionalLocal(0, ("G",), cases))),
    )
    assert_walk_matches_reference(routed)
    assert_spent_walk_matches_built_walk(routed)
    assert len(evaluate_in_order(routed, ["G", "C"]).probabilities) == 4


def test_an_evolution_after_outcomes_of_different_dimensions_checks_each_ones_size():
    # G's outcomes leave its qubit 2- or 3-dimensional; the Hadamard fits only the first.
    grow = station("G", 0.0, 1.0, 0, random_intervention(2, [2, 3], seed=1))
    s = Scenario(
        dims0=(2,), rho0=maximally_mixed(), stations=(grow,), evolutions=(Evolution("G", None, HADAMARD),)
    )
    with pytest.raises(DimensionError) as exc:
        evaluate_in_order(s, ["G"])
    assert str(exc.value) == "evolution after 'G' is 2x2, but the state there is 3-dimensional"


@pytest.mark.parametrize("dep", ["Q", "C"])
def test_a_condition_on_an_unknown_station_or_itself_is_rejected_when_built(dep):
    cases = {("z+",): x_iv(), ("z-",): z_iv()}
    stations = (
        station("P", 0.0, 0.0, 0, z_iv()),
        Station(Event("C", 1.0, 0.0), ConditionalLocal(0, (dep,), cases)),
    )
    with pytest.raises(ValueError, match=f"station 'C' depends on '{dep}', which is not another station"):
        Scenario(dims0=(2,), rho0=maximally_mixed(), stations=stations)


def test_subsystem_index_out_of_range_names_station():
    with pytest.raises(DimensionError, match="'A'"):
        Scenario(
            dims0=(2,),
            rho0=maximally_mixed(),
            stations=(station("A", 0.0, 0.0, 1, z_iv()),),
        )


def test_evolution_between_stations_hand_value():
    """A Hadamard between the z and x measurements aligns the bases."""
    rho0 = CMatrix(np.diag([1.0, 0.0]).astype(complex))
    s = timelike_chain_scenario(
        rho0=rho0, evolutions=(Evolution("P", "Q", HADAMARD),)
    )
    result = evaluate_in_order(s, ["P", "Q"])
    probs = {rec: p for rec, p in result.probabilities.items()}
    assert probs[(("P", "z+"), ("Q", "x+"))] == pytest.approx(1.0, abs=1e-12)
    assert probs[(("P", "z+"), ("Q", "x-"))] == pytest.approx(0.0, abs=1e-12)
    assert probs[(("P", "z-"), ("Q", "x+"))] == pytest.approx(0.0, abs=1e-12)


def test_history_keyed_evolution_selects_per_branch():
    evolutions = (
        Evolution("P", "Q", HADAMARD, history={"P": "z+"}),
        # the z- branch keeps identity dynamics via an explicit entry
        Evolution("P", "Q", CMatrix.identity(2), history={"P": "z-"}),
    )
    s = timelike_chain_scenario(evolutions=evolutions)
    result = evaluate_in_order(s, ["P", "Q"])
    probs = result.probabilities
    assert probs[(("P", "z+"), ("Q", "x+"))] == pytest.approx(0.5, abs=1e-12)
    assert probs[(("P", "z+"), ("Q", "x-"))] == pytest.approx(0.0, abs=1e-12)
    assert probs[(("P", "z-"), ("Q", "x+"))] == pytest.approx(0.25, abs=1e-12)
    assert probs[(("P", "z-"), ("Q", "x-"))] == pytest.approx(0.25, abs=1e-12)


def test_unmatched_history_means_identity():
    # entry applies only to the z+ branch; the z- branch evolves trivially
    s = timelike_chain_scenario(
        evolutions=(Evolution("P", "Q", HADAMARD, history={"P": "z+"}),)
    )
    result = evaluate_in_order(s, ["P", "Q"])
    assert result.probabilities[(("P", "z-"), ("Q", "x+"))] == pytest.approx(0.25, abs=1e-12)


def test_a_history_naming_a_station_not_yet_fired_never_matches():
    # H on qubit 0 between P and Q, keyed on R's outcome; R, on qubit 1, is spacelike to both.
    s = Scenario(
        dims0=(2, 2),
        rho0=CMatrix(np.kron(P0.array, maximally_mixed().array)),
        stations=(
            station("P", 0.0, 0.0, 0, z_iv()),
            station("Q", 2.0, 0.0, 0, z_iv()),
            station("R", 1.0, 5.0, 1, z_iv()),
        ),
        evolutions=(Evolution("P", "Q", CMatrix(np.kron(HADAMARD.array, np.eye(2))), history={"R": "z+"}),),
    )
    orders = [("P", "Q", "R"), ("P", "R", "Q"), ("R", "P", "Q")]
    assert sorted(linear_extensions(s._covering, s.events())) == orders
    flipped = (("P", "z+"), ("Q", "z-"), ("R", "z+"))
    # R has not fired at the P -> Q segment, or the segment does not occur.
    for order in orders[:2]:
        assert evaluate_in_order(s, order).probabilities[flipped] == pytest.approx(0.0, abs=1e-12)
    # R fired first: its z+ branch is rotated, its z- branch is not.
    probs = evaluate_in_order(s, orders[2]).probabilities
    assert probs[flipped] == pytest.approx(0.25, abs=1e-12)
    assert probs[(("P", "z+"), ("Q", "z-"), ("R", "z-"))] == pytest.approx(0.0, abs=1e-12)
    assert_walk_matches_reference(s, orders)


def test_initial_and_final_evolutions_apply():
    rho0 = CMatrix(np.diag([1.0, 0.0]).astype(complex))
    s = Scenario(
        dims0=(2,),
        rho0=rho0,
        stations=(station("P", 0.0, 0.0, 0, z_iv()),),
        evolutions=(
            Evolution(None, "P", HADAMARD),
            Evolution("P", None, HADAMARD, history={"P": "z+"}),
        ),
    )
    result = evaluate_in_order(s, ["P"])
    # H|0> = |+>, so both z outcomes appear with probability 1/2
    assert result.probabilities[(("P", "z+"),)] == pytest.approx(0.5, abs=1e-12)
    # the final Hadamard turns the z+ branch state into (|0>+|1>)(<0|+<1|)/4
    final = result.final_states[(("P", "z+"),)]
    np.testing.assert_allclose(final.array, 0.25 * np.ones((2, 2)), atol=1e-12)


def test_evolution_dimension_mismatch_reports_position():
    grow = random_intervention(2, [3], seed=2)
    s = Scenario(
        dims0=(2,),
        rho0=maximally_mixed(),
        stations=(station("G", 0.0, 0.0, 0, grow), station("Z", 2.0, 0.0, 0, z_iv())),
        evolutions=(Evolution("G", "Z", CMatrix.identity(2)),),
    )
    # the state is 3-dimensional after G, the evolution matrix is 2x2
    with pytest.raises(DimensionError, match="evolution"):
        evaluate_in_order(s, ["G", "Z"])
    # the same after the last station, where the evolution follows built branches
    last = Scenario(
        dims0=(2,),
        rho0=maximally_mixed(),
        stations=(station("G", 0.0, 0.0, 0, grow),),
        evolutions=(Evolution("G", None, CMatrix.identity(2)),),
    )
    with pytest.raises(DimensionError, match="evolution after 'G'"):
        evaluate_in_order(last, ["G"])


def test_evaluate_in_frame_matches_explicit_order():
    s = eprb(0.0, math.pi / 3.0)
    by_frame = evaluate_in_frame(s, Frame(-0.6))
    assert by_frame.ordering == ("B", "A")
    explicit = evaluate_in_order(s, ["B", "A"])
    assert by_frame.probabilities == explicit.probabilities


def test_evaluate_in_frame_raises_on_tie():
    s = eprb(0.0, 1.0)
    s = replace(s, stations=tuple(replace(st, event=replace(st.event, t=0.0)) for st in s.stations))
    with pytest.raises(TieError) as excinfo:
        evaluate_in_frame(s, Frame(0.0))
    pairs = excinfo.value.report.pairs
    assert ("A", "B") in pairs or ("B", "A") in pairs


def test_evaluate_in_frame_evaluates_a_tie_the_causal_order_settles():
    # Z and X on one worldline, 1e-13 apart: their boosted times tie, but only Z -> X is causal.
    s = noncommuting_counterexample()
    s = replace(s, stations=(
        Station(Event("Z", 0.0, 0.0), s.station("Z").local),
        Station(Event("X", 1e-13, 0.0), s.station("X").local),
    ))
    result = evaluate_in_frame(s, Frame(0.0))
    assert result.ordering == ("Z", "X")
    assert result.probabilities == evaluate_in_order(s, ["Z", "X"]).probabilities


@pytest.mark.parametrize(
    "events, open_pairs",
    [
        # A third station ties with Z -> X at x = 5, spacelike to both: three orderings remain,
        # and the open pairs (Z, Y) and (X, Y) are not the consecutive ones, (Z, X) and (X, Y).
        ([Event("Z", 0.0, 0.0), Event("X", 1e-13, 0.0), Event("Y", 1e-13, 5.0)], [("Z", "Y"), ("X", "Y")]),
        # Nine simultaneous stations have 9! of them, past the 8! the enumeration refuses.
        (
            [Event(f"S{i}", 0.0, 10.0 * i) for i in range(9)],
            list(itertools.combinations([f"S{i}" for i in range(9)], 2)),
        ),
    ],
    ids=["three", "nine"],
)
def test_evaluate_in_frame_raises_when_a_tie_leaves_several_orderings(events, open_pairs):
    s = Scenario(
        dims0=(2,),
        rho0=maximally_mixed(),
        stations=tuple(Station(e, LocalIntervention(0, z_iv())) for e in events),
    )
    with pytest.raises(TieError, match="more than one ordering") as excinfo:
        evaluate_in_frame(s, Frame(0.0))
    # Exactly the tied pairs the causal order leaves open, each named once, in either order.
    pairs = excinfo.value.report.pairs
    assert len(pairs) == len(open_pairs)
    assert set(map(frozenset, pairs)) == set(map(frozenset, open_pairs))


def test_marginal_sums_partner_outcomes():
    s = eprb(0.0, math.pi / 3.0)
    result = evaluate_in_order(s, ["A", "B"])
    bob = marginal(result, "B")
    assert bob["+"] == pytest.approx(0.5, abs=1e-12)
    assert bob["-"] == pytest.approx(0.5, abs=1e-12)
    with pytest.raises(KeyError):
        marginal(result, "C")


# ------------------------------------------------------------- conditionals


def test_conditional_station_feed_forward():
    """A correction conditioned on an earlier outcome restores |0><0|."""
    flip = Intervention(
        d_in=2,
        outcomes=(Outcome("flip", 2, (CMatrix(np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)),)),),
    )
    corrector = ConditionalLocal(
        subsystem=0,
        depends_on=("M",),
        cases={("z+",): identity_iv(), ("z-",): flip},
    )
    s = Scenario(
        dims0=(2,),
        rho0=CMatrix(0.5 * np.ones((2, 2), dtype=complex)),
        stations=(
            station("M", 0.0, 0.0, 0, z_iv()),
            Station(event=Event("C", 2.0, 0.0), local=corrector),
        ),
    )
    result = evaluate_in_order(s, ["M", "C"])
    zero = np.diag([1.0, 0.0])
    for rec, state in result.final_states.items():
        p = result.probabilities[rec]
        assert p == pytest.approx(0.5, abs=1e-12)
        np.testing.assert_allclose(state.array, p * zero, atol=1e-12)


def test_conditional_station_needs_prior_outcome():
    corrector = ConditionalLocal(
        subsystem=0, depends_on=("M",), cases={("z+",): identity_iv(), ("z-",): identity_iv()}
    )
    s = Scenario(
        dims0=(2,),
        rho0=maximally_mixed(),
        stations=(
            station("M", 0.0, 1.0, 0, z_iv()),
            Station(event=Event("C", 0.5, -1.0), local=corrector),
        ),
    )
    with pytest.raises(ValueError, match="not fired"):
        evaluate_in_order(s, ["C", "M"])
    evaluate_in_order(s, ["M", "C"])


def test_conditional_station_missing_case():
    corrector = ConditionalLocal(subsystem=0, depends_on=("M",), cases={("z+",): identity_iv()})
    s = Scenario(
        dims0=(2,),
        rho0=maximally_mixed(),
        stations=(
            station("M", 0.0, 0.0, 0, z_iv()),
            Station(event=Event("C", 2.0, 0.0), local=corrector),
        ),
    )
    with pytest.raises(ValueError, match="no intervention case"):
        evaluate_in_order(s, ["M", "C"])


# ---------------------------------------------------------------- invariance


def test_invariance_passes_for_product_stations():
    report = check_order_invariance(eprb(0.2, 1.1), 1e-9)
    assert report.ok
    assert report.worst <= 1e-12
    assert report.orders_checked == 2
    assert report.witness is None


def test_invariance_flags_noncommuting_same_subsystem():
    s = Scenario(
        dims0=(2,),
        rho0=CMatrix(np.diag([1.0, 0.0]).astype(complex)),
        stations=(station("Z", 0.0, 1.0, 0, z_iv()), station("X", 0.5, -1.0, 0, x_iv())),
    )
    report = check_order_invariance(s, 1e-9)
    assert not report.ok
    assert report.worst == pytest.approx(0.25, abs=1e-12)
    w = report.witness
    assert w is not None
    assert dict(w.record) == {"Z": "z+", "X": "x+"}
    assert {w.order_low, w.order_high} == {("X", "Z"), ("Z", "X")}


def test_invariance_rejects_noninvariant_evolution_segment():
    s = Scenario(
        dims0=(2, 2),
        rho0=maximally_mixed(4),
        stations=(station("A", 0.0, 1.0, 0, z_iv()), station("B", 0.5, -1.0, 1, x_iv())),
        evolutions=(Evolution("A", "B", CMatrix(np.kron(HADAMARD.array, np.eye(2)))),),
    )
    with pytest.raises(ValueError, match="reorderable"):
        check_order_invariance(s, 1e-9)


def test_invariance_accepts_identity_evolution_on_reorderable_segment():
    s = Scenario(
        dims0=(2, 2),
        rho0=maximally_mixed(4),
        stations=(station("A", 0.0, 1.0, 0, z_iv()), station("B", 0.5, -1.0, 1, x_iv())),
        evolutions=(Evolution("A", "B", CMatrix.identity(4)),),
    )
    assert check_order_invariance(s, 1e-9).ok


def test_invariance_rejects_order_dependent_initial_evolution():
    u = CMatrix(np.kron(HADAMARD.array, np.eye(2)))
    s = Scenario(
        dims0=(2, 2),
        rho0=maximally_mixed(4),
        stations=(station("A", 0.0, 1.0, 0, z_iv()), station("B", 0.5, -1.0, 1, x_iv())),
        evolutions=(Evolution(None, "A", u),),
    )
    with pytest.raises(ValueError, match="not first"):
        check_order_invariance(s, 1e-9)


def test_initial_evolution_rejected_when_first_station_varies():
    # W is spacelike to P, so some extensions start with W instead of P
    corrector = ConditionalLocal(
        subsystem=0,
        depends_on=("P",),
        cases={("z+",): identity_iv(), ("z-",): identity_iv()},
    )
    s = Scenario(
        dims0=(2, 2),
        rho0=maximally_mixed(4),
        stations=(
            station("P", 0.0, 0.0, 0, z_iv()),
            Station(event=Event("C", 2.0, 0.0), local=corrector),
            station("W", 1.0, 10.0, 1, x_iv()),
        ),
        evolutions=(Evolution(None, "P", CMatrix(np.kron(HADAMARD.array, np.eye(2)))),),
    )
    with pytest.raises(ValueError, match="not first"):
        check_order_invariance(s, 1e-9)


def test_invariance_with_bottleneck_evolutions_and_history():
    """Initial and history-keyed final evolutions survive every extension."""
    rng = np.random.default_rng(30)

    def haar(n):
        z = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        q, r = np.linalg.qr(z)
        return CMatrix(q * (np.diagonal(r) / np.abs(np.diagonal(r))).conj())

    stations = (
        station("R", -5.0, 0.0, 0, z_iv()),
        station("A1", 0.0, 3.0, 1, random_intervention(2, [2], seed=31)),
        station("A2", 0.2, -3.0, 2, random_intervention(2, [2], seed=32)),
        station("Z", 5.0, 0.0, 3, z_iv(labels=("u", "d"))),
    )
    evolutions = (
        Evolution(None, "R", haar(16)),
        Evolution("Z", None, haar(16), history={"R": "z+"}),
        Evolution("Z", None, haar(16), history={"R": "z-"}),
    )
    s = Scenario(dims0=(2, 2, 2, 2), rho0=maximally_mixed(16), stations=stations, evolutions=evolutions)
    report = check_order_invariance(s, 1e-9)
    assert report.ok, report.worst
    assert report.orders_checked == 2


def test_invariance_rejects_conditional_on_spacelike_station():
    corrector = ConditionalLocal(
        subsystem=1, depends_on=("M",), cases={("z+",): identity_iv(), ("z-",): identity_iv()}
    )
    s = Scenario(
        dims0=(2, 2),
        rho0=maximally_mixed(4),
        stations=(
            station("M", 0.0, 1.0, 0, z_iv()),
            Station(event=Event("C", 0.5, -1.0), local=corrector),
        ),
    )
    with pytest.raises(ValueError, match="causally prior"):
        check_order_invariance(s, 1e-9)


# -------------------------------------------------------------- no-signaling


def test_no_signaling_eprb_alternatives():
    s = eprb(0.0, math.pi / 3.0)
    alternatives = [
        LocalIntervention(0, spin_analyzer(0.0)),
        LocalIntervention(0, spin_analyzer(math.pi / 2.0)),
        LocalIntervention(0, spin_analyzer(math.pi / 4.0)),
        LocalIntervention(0, identity_iv()),
    ]
    report = check_no_signaling(s, "B", alternatives, 1e-9, varied="A")
    assert report.ok
    assert report.worst < 1e-12
    assert report.varied == "A"
    assert report.alternatives_checked == 5


def test_no_signaling_with_only_the_original():
    s = eprb(0.3, 1.2)
    report = check_no_signaling(s, "B", [s.station("A").local], 1e-9, varied="A")
    assert report.ok
    assert report.worst == 0.0


def test_no_signaling_detects_same_subsystem_influence():
    """Replacing a same-subsystem spacelike measurement shifts the marginal."""
    plus = CMatrix(0.5 * np.ones((2, 2), dtype=complex))
    s = Scenario(
        dims0=(2,),
        rho0=plus,
        stations=(station("V", 0.0, 1.0, 0, z_iv()), station("T", 0.5, -1.0, 0, x_iv())),
    )
    report = check_no_signaling(
        s, "T", [LocalIntervention(0, identity_iv())], 1e-9, varied="V"
    )
    assert not report.ok
    assert report.worst == pytest.approx(0.5, abs=1e-12)


@pytest.mark.parametrize("tol", [math.nan, math.inf, 0.0, -1.0])
def test_a_tolerance_not_positive_and_finite_is_refused_on_every_path(tol, capsys):
    message = re.escape(f"tolerance must be positive and finite, got {tol!r}")
    pairwise, exhaustive = eprb(0.0, math.pi / 3.0), noncommuting_counterexample()
    assert check_order_invariance(pairwise, 1e-9).method == "pairwise"
    assert check_order_invariance(exhaustive, 1e-9).method == "exhaustive"
    identity = [LocalIntervention(0, identity_iv())]
    for certify in (
        lambda: check_order_invariance(pairwise, tol),
        lambda: check_order_invariance(exhaustive, tol),
        lambda: experiment.compare_orderings(iter([]), tol),
        lambda: check_no_signaling(pairwise, "B", identity, tol, varied="A"),
        lambda: check_no_signaling(exhaustive, "X", identity, tol, varied="Z"),
    ):
        with pytest.raises(ValueError, match=message):
            certify()
    assert pairwise._memo.signaling is None and exhaustive._memo.signaling is None
    with pytest.raises(SystemExit) as exc:
        cli.main(["check-invariance", "counterexample", "--tolerance", repr(tol)])
    assert exc.value.code == 2
    assert f"argument --tolerance: tolerance must be positive and finite, got {tol!r}" in capsys.readouterr().err


def test_no_signaling_witness_names_target_outcome_and_candidates():
    # Z fires first on |0>: X's x+ marginal is 1/2 under the original, 1 under a Hadamard.
    hadamard = Intervention(d_in=2, outcomes=(Outcome("h", 2, (HADAMARD,)),))
    s = noncommuting_counterexample()
    report = check_no_signaling(s, "X", [LocalIntervention(0, hadamard)], 1e-9, varied="Z")
    assert not report.ok and report.worst == pytest.approx(0.5, abs=1e-12)
    witness = report.as_dict()["witness"]
    assert (witness["label"], witness["candidate_low"], witness["candidate_high"]) == ("x+", 0, 1)
    assert witness["p_low"] == pytest.approx(0.5, abs=1e-12)
    assert witness["p_high"] == pytest.approx(1.0, abs=1e-12)
    assert check_no_signaling(s, "X", [s.station("Z").local], 1e-9, varied="Z").witness is None


def test_no_signaling_fires_the_varied_station_before_the_target():
    # X fires after Z in time: in time order no choice at X could move Z's marginal.
    s = noncommuting_counterexample()
    analyzers = [LocalIntervention(0, spin_analyzer(angle)) for angle in (0.3, 1.0, 2.0)]
    report = check_no_signaling(s, "Z", analyzers, 1e-9, varied="X")
    assert not report.ok and report.as_dict()["ordering"] == ["X", "Z"]
    witness = report.witness
    assert (witness.label, witness.candidate_low, witness.candidate_high) == ("z+", 0, 1)
    assert witness.p_low == pytest.approx(0.5, abs=1e-12)
    # The analyzer at 0.3 leaves |0> along +-0.3, then Z gives z+ with (1 + cos^2 0.3) / 2.
    assert witness.p_high == pytest.approx((1 + math.cos(0.3) ** 2) / 2, abs=1e-12)
    report = check_no_signaling(s, "X", analyzers, 1e-9, varied="Z")
    assert not report.ok and report.ordering == ("Z", "X")
    # The varied station's causal past still fires before it: P precedes V, T is spacelike to both.
    chain = Scenario(
        dims0=(2, 2),
        rho0=CMatrix(np.eye(4) / 4),
        stations=(
            station("P", 0.0, 1.0, 0, z_iv()),
            station("V", 2.0, 1.0, 0, z_iv()),
            station("T", 0.5, -3.0, 1, z_iv()),
        ),
    )
    report = check_no_signaling(chain, "T", [LocalIntervention(0, x_iv())], 1e-9, varied="V")
    assert report.ok and report.ordering == ("P", "V", "T")


def test_no_signaling_alternatives_reuse_the_validated_initial_state(monkeypatch):
    s = random_product_scenario(seed=3)
    varied, target = s.stations[0], s.stations[1]
    d = varied.resolve({}).d_in
    alternatives = [
        LocalIntervention(varied.subsystem, random_intervention(d, [d], seed=k)) for k in range(3)
    ]
    calls = {"cholesky": 0, "eigh": 0}
    for name in calls:
        kernel = getattr(np.linalg, name)

        def counted(*args, _name=name, _kernel=kernel):
            calls[_name] += 1
            return _kernel(*args)

        monkeypatch.setattr(np.linalg, name, counted)
    report = check_no_signaling(s, target.id, alternatives, 1e-9, varied=varied.id)
    assert report.ok and report.alternatives_checked == 4
    # rho0 was factored when s was built; the check decomposes nothing and the copies share it.
    assert calls == {"cholesky": 0, "eigh": 0}


def test_swapped_station_recomputes_growth_and_checks_history_labels():
    s = eprb(0.3, 1.2)
    noisy = Intervention(
        d_in=2, outcomes=(Outcome("+", 2, (CMatrix(np.eye(2) * (1 + 1e-10)),)),)
    )
    swapped = s._with_station("A", LocalIntervention(0, noisy))
    rebuilt = Scenario(dims0=s.dims0, rho0=s.rho0, stations=swapped.stations)
    assert swapped.growth == pytest.approx(rebuilt.growth, rel=1e-15) and swapped.growth > s.growth
    assert swapped.station("A").local.local is noisy and s.station("A").local.local is not noisy
    keyed = Scenario(
        dims0=s.dims0,
        rho0=s.rho0,
        stations=s.stations,
        evolutions=(Evolution("B", None, CMatrix.identity(4), history={"A": "+"}),),
    )
    with pytest.raises(ValueError, match="outcome '\\+' unknown to station 'A'"):
        keyed._with_station("A", LocalIntervention(0, z_iv()))
    # The message a rebuilt scenario gives.
    z_station = Station(s.station("A").event, LocalIntervention(0, z_iv()))
    with pytest.raises(ValueError, match="outcome '\\+' unknown to station 'A'"):
        Scenario(dims0=s.dims0, rho0=s.rho0, stations=(z_station, s.stations[1]), evolutions=keyed.evolutions)


def test_causal_order_is_closed_once_per_scenario(monkeypatch):
    closures = []
    closure = experiment._causal_pasts
    monkeypatch.setattr(experiment, "_causal_pasts", lambda events: closures.append(1) or closure(events))
    s = random_product_scenario(seed=3)
    report = check_order_invariance(s, 1e-9)
    assert report.orders_checked == len(closures) * 24 == 24
    # The no-signaling check reads the varied station's past from the same closure.
    varied, target = s.stations[0], s.stations[1]
    assert check_no_signaling(s, target.id, [varied.local], 1e-9, varied=varied.id).ok
    assert len(closures) == 1


def test_a_1100_station_chain_certifies_and_evaluates_within_45_mb():
    # The causal order is held once, as each station's past, closed when the
    # scenario is built; this chain's 604,450 pairs held again as a set of
    # tuples would take some 75 MB.
    tracemalloc.start()
    try:
        s = Scenario(
            dims0=(2,),
            rho0=maximally_mixed(),
            stations=tuple(station(f"c{i}", 2.0 * i, 0.0, 0, identity_iv()) for i in range(1100)),
        )
        assert check_order_invariance(s, 1e-9).orders_checked == 1
        assert list(evaluate_in_frame(s, Frame(0.0)).probabilities.values()) == [pytest.approx(1.0)]
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 45e6, peak


def test_station_lookup_by_id():
    s = random_product_scenario(seed=3)
    assert [s.station(st.id) for st in s.stations] == list(s.stations)
    with pytest.raises(KeyError, match="unknown station 'nope'"):
        s.station("nope")


def test_no_signaling_rejects_timelike_pairs():
    s = timelike_chain_scenario()
    with pytest.raises(ValueError, match="spacelike"):
        check_no_signaling(s, "Q", [LocalIntervention(0, identity_iv())], 1e-9, varied="P")


def test_no_signaling_rejects_wrong_subsystem_alternative():
    s = eprb(0.0, 1.0)
    with pytest.raises(ValueError, match="subsystem"):
        check_no_signaling(s, "B", [LocalIntervention(1, identity_iv())], 1e-9, varied="A")


def test_no_signaling_rejects_empty_alternatives_whatever_the_varied_station():
    # With nothing to compare the original with, no verdict can be given.
    s = eprb(0.0, math.pi / 3.0)
    for varied in (None, "A"):
        with pytest.raises(ValueError, match="alternatives must not be empty"):
            check_no_signaling(s, "B", [], 1e-9, varied=varied)


def test_a_one_shot_iterable_of_alternatives_is_checked_in_full():
    # Read once, the iterator still yields the Hadamard, which X's marginal sees at 0.5.
    hadamard = LocalIntervention(0, Intervention(d_in=2, outcomes=(Outcome("h", 2, (HADAMARD,)),)))
    report = check_no_signaling(noncommuting_counterexample(), "X", iter([hadamard]), 1e-9, varied="Z")
    assert not report.ok and report.worst == pytest.approx(0.5, abs=1e-12) and report.alternatives_checked == 2
    with pytest.raises(ValueError, match="alternatives must not be empty"):
        check_no_signaling(noncommuting_counterexample(), "X", iter([]), 1e-9, varied="Z")


def test_no_signaling_rejects_ill_posed_arguments():
    s = eprb(0.0, 1.0)
    crowded = Scenario(
        dims0=s.dims0, rho0=s.rho0, stations=(*s.stations, station("A2", 0.0, -5.0, 0, z_iv()))
    )
    cases = [
        (dict(target="A", varied="A"), [LocalIntervention(0, identity_iv())], "must differ"),
        (
            dict(target="B", varied="A"),
            [LocalIntervention(0, z_iv()), LocalIntervention(1, z_iv())],
            "alternative addresses subsystem 1, but station 'A' acts on subsystem 0",
        ),
    ]
    for names, alternatives, message in cases:
        with pytest.raises(ValueError, match=message):
            check_no_signaling(s, alternatives=alternatives, tol=1e-9, **names)
    # Two stations act on the alternatives' subsystem: the caller names the one that varies.
    identity = [LocalIntervention(0, identity_iv())]
    assert [check_no_signaling(crowded, "B", identity, 1e-9, varied=v).varied for v in ("A", "A2")] == ["A", "A2"]


def test_a_broken_runtime_invariant_is_reported_not_returned(monkeypatch, capsys):
    # Doubling every branch factor quadruples its trace, past any derived bound.
    kernel = experiment._branches
    monkeypatch.setattr(experiment, "_branches", lambda v, iv: 2 * kernel(v, iv))
    with pytest.raises(ValueError, match="branch trace for outcome '\\+'.*internal invariant failure"):
        evaluate_in_order(eprb(0.0, 1.0), ["A", "B"])
    assert cli.main(["simulate", "eprb"]) == 2
    assert "internal invariant failure" in capsys.readouterr().err


def test_a_nan_branch_factor_is_reported_naming_its_outcome(monkeypatch):
    # One NaN entry in outcome '-''s branch: the bound's one max must carry it to the report.
    kernel = experiment._branches

    def poisoned(v, stack):
        out = kernel(v, stack).copy()
        out[1].flat[0] = np.nan
        return out

    monkeypatch.setattr(experiment, "_branches", poisoned)
    s = eprb(0.0, 1.0)
    with pytest.raises(ValueError, match="branch trace for outcome '-' is nan, .*internal invariant failure"):
        evaluate_in_order(s, ["A", "B"])
    assert s._memo.evaluation is None


def three_outcomes(kraus):
    """A qubit intervention of outcomes o0, o1, o2, each with ``kraus`` 2 x 2 Kraus matrices."""
    mats = [o.kraus[0] for o in random_intervention(2, [2] * (3 * kraus), seed=36).outcomes]
    return Intervention(2, tuple(Outcome(f"o{i}", 2, tuple(mats[i * kraus : (i + 1) * kraus])) for i in range(3)))


@pytest.mark.parametrize("kraus", [1, 2])
@pytest.mark.parametrize("branch", [0, 1, 2])
@pytest.mark.parametrize("entry", ["first", "middle"])
def test_a_nan_anywhere_in_a_fired_branch_is_reported_naming_its_outcome(monkeypatch, kraus, branch, entry):
    # Q acts on A's qubit later, so A fires through its Kraus stack, K = kraus,
    # on one parent: its branches are its outcomes, first, middle and last.
    s = Scenario(
        dims0=(2,),
        rho0=maximally_mixed(),
        stations=(station("A", 0.0, 0.0, 0, three_outcomes(kraus)), station("Q", 2.0, 0.0, 0, z_iv())),
    )
    kernel = experiment._branches

    def poisoned(v, stack):
        out = kernel(v, stack).copy()
        if stack.shape[:2] == (3, kraus):
            factor = out[branch]
            factor.flat[0 if entry == "first" else factor.size // 2] = np.nan
        return out

    monkeypatch.setattr(experiment, "_branches", poisoned)
    with pytest.raises(ValueError, match=f"branch trace for outcome 'o{branch}' is nan, .*internal invariant failure"):
        evaluate_in_order(s, ["A", "Q"])


# ------------------------------------------------------------- cross checks


def test_final_states_agree_across_orders_for_product_stations():
    s = eprb(0.7, 2.1)
    a_first = evaluate_in_order(s, ["A", "B"])
    b_first = evaluate_in_order(s, ["B", "A"])
    for rec in a_first.records():
        assert max_abs_diff(a_first.final_states[rec], b_first.final_states[rec]) < 1e-9


def test_record_probabilities_sum_to_one_random():
    for seed in range(10):
        s = random_product_scenario(seed=seed)
        order = sorted((st.event.t, st.id) for st in s.stations)
        result = evaluate_in_order(s, [sid for _, sid in order])
        assert sum(result.probabilities.values()) == pytest.approx(1.0, abs=1e-9)
        for p in result.probabilities.values():
            assert -1e-12 <= p <= 1.0 + 1e-12


def test_result_serialization_shape():
    s = eprb(0.0, math.pi / 3.0)
    doc = evaluate_in_order(s, ["A", "B"]).as_dict()
    assert doc["ordering"] == ["A", "B"]
    assert len(doc["records"]) == 4
    rec = doc["records"][0]
    assert set(rec) == {"outcomes", "probability"}
    assert set(rec["outcomes"]) == {"A", "B"}


# ------------------------------------------- the last station and final states


def reference_final_states(s, order, lifted=None):
    """Every record's final state by the textbook recursion, independent of the evaluator.

    Each station's intervention is lifted to the whole composite space with
    ``embed`` and each of its outcomes applied with ``apply``; an evolution
    U maps rho to U rho U^dagger. ``lifted`` may carry the embeddings, one
    per station, case and composite dims, from one call to the next.
    """
    states = {}
    lifted = {} if lifted is None else lifted

    def walk(rho, dims, history, j):
        prev = order[j - 1] if j else None
        cur = order[j] if j < len(order) else None
        u = next((ev.matrix.array for ev in s.evolutions if ev.matches(prev, cur, history)), None)
        if u is not None:
            rho = CMatrix(u @ rho.array @ u.conj().T)
        if cur is None:
            states[tuple(sorted(history.items()))] = rho
            return
        st = s.station(cur)
        local = LocalIntervention(st.subsystem, st.resolve(history))
        case = tuple(history[dep] for dep in getattr(st.local, "depends_on", ()))
        key = (cur, case, dims)
        if key not in lifted:
            lifted[key] = embed(local, dims)
        for o in local.local.outcomes:
            branch_dims = dims[: st.subsystem] + (o.d_out,) + dims[st.subsystem + 1 :]
            walk(apply(rho, lifted[key], o.label), branch_dims, {**history, cur: o.label}, j + 1)

    walk(s.rho0, tuple(s.dims0), {}, 0)
    return states


def assert_walk_matches_reference(s, orders=None, final_states=True, one_reference=False):
    """Probabilities and final states equal the reference recursion's within 1e-12.

    The probabilities come from the batched factor walk, in which every
    spent station, the last one (the leaf) included, fires through its POVM
    roots; the final states from the same walk with every branch built
    through Kraus stacks. With ``one_reference``, for scenarios whose
    final states are the same in every ordering, the reference recursion
    runs once, in the first ordering, and every ordering is compared with it.
    """
    lifted = {}
    orders = orders or linear_extensions(s._covering, s.events())
    want = None
    for order in orders:
        if want is None or not one_reference:
            want = reference_final_states(s, order, lifted)
        result = evaluate_in_order(s, order)
        assert result.probabilities.keys() == want.keys(), order
        for rec, state in want.items():
            assert abs(result.probabilities[rec] - trace(state).real) <= 1e-12, (order, rec)
        if final_states:
            got = result.final_states
            for rec, state in want.items():
                assert max_abs_diff(got[rec], state) <= 1e-12, (order, rec)


def random_density(d, seed, rank=None):
    rng = np.random.default_rng(seed)
    shape = (d, rank or d)
    g = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    rho = g @ g.conj().T
    return CMatrix(rho / np.trace(rho).real)


def haar_unitary(d, seed):
    rng = np.random.default_rng(seed)
    q, r = np.linalg.qr(rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d)))
    return CMatrix(q * (np.diagonal(r) / np.abs(np.diagonal(r))).conj())


def test_walk_matches_reference_on_random_products():
    # Each station acts on its own factor, with no evolution or condition, so
    # every record's final state is the same in every ordering.
    for k in range(200):
        assert_walk_matches_reference(random_product_scenario(seed=k), one_reference=True)


def test_walk_matches_reference_on_builtins():
    for s in builtin_scenarios().values():
        assert_walk_matches_reference(s)


def middle_factor_scenario(rho0):
    # Every station is last in some ordering. The middle one turns its qutrit
    # into a qubit (an outcome with two Kraus matrices) or a ququart and, as
    # the outer ones change dimension too, meets b of 3 or 2 dimensions before
    # it and a of 2, 3 or 1 after it.
    first, second, third = random_intervention(3, [2, 2, 4], seed=12).outcomes
    middle = Intervention(d_in=3, outcomes=(Outcome("two", 2, first.kraus + second.kraus), third))
    return Scenario(
        dims0=(3, 3, 2),
        rho0=rho0,
        stations=(
            station("L", 0.0, 0.0, 0, random_intervention(3, [2, 2], seed=11)),
            station("M", 0.1, 3.0, 1, middle),
            station("R", 0.2, 6.0, 2, random_intervention(2, [3, 1], seed=13)),
        ),
    )


def count_calls(monkeypatch, name):
    """Record the arguments and result of every call of the evaluator's kernel ``name``."""
    calls = []
    kernel = getattr(experiment, name)

    def counted(*args):
        out = kernel(*args)
        calls.append((args, out))
        return out

    monkeypatch.setattr(experiment, name, counted)
    return calls


def test_walk_matches_reference_on_a_dimension_changing_middle_factor(monkeypatch):
    # Full rank 18: the first station's branches, 18 wide, have 12 or fewer dimensions.
    recompressed = count_calls(monkeypatch, "_recompress")
    assert_walk_matches_reference(middle_factor_scenario(random_density(18, seed=5)))
    assert recompressed
    for (v,), r in recompressed:
        assert v.shape[2] > v.shape[1] and r.shape == (v.shape[0], v.shape[1], v.shape[1])


def test_factor_path_matches_state_path_on_a_mixed_two_kraus_scenario(monkeypatch):
    # Rank 3 times M's two Kraus matrices is 6 wide. Where R's outcome keeps
    # 1 dimension and M's a qubit, L's branches have 2 * 2 * 1 = 4, so L's
    # output is recompressed, and no other.
    branches = count_calls(monkeypatch, "_branches")
    recompressed = count_calls(monkeypatch, "_recompress")
    s = middle_factor_scenario(random_density(18, seed=5, rank=3))
    assert_walk_matches_reference(s)
    assert s._factor[0].shape == (18, 3)
    assert branches and recompressed
    for (v,), r in recompressed:
        assert v.shape[2] > v.shape[1] and r.shape == (v.shape[0], v.shape[1], v.shape[1])
    wide = [out for _, out in branches if out.shape[-1] > math.prod(out.shape[1:-1])]
    assert len(wide) == len(recompressed)


def test_pure_single_kraus_scenario_takes_the_factor_path(monkeypatch):
    branches = count_calls(monkeypatch, "_branches")
    s = eprb(0.3, 1.2)
    evaluate_in_order(s, ["A", "B"])
    # One batched contraction builds both of A's branches; one more fires B,
    # for both of them at once, through B's POVM roots.
    assert [out.shape[:1] for _, out in branches] == [(2,), (4,)]
    assert branches[1][0][1] is s.station("B").local.local._povm_roots


def ghz_scenario(angles):
    """GHZ state with an x-z analyzer per qubit, the stations mutually spacelike."""
    n = len(angles)
    psi = np.zeros(2**n, dtype=complex)
    psi[0] = psi[-1] = 1.0 / math.sqrt(2.0)
    stations = tuple(
        station(f"q{i}", 0.05 * i, 2.0 * i, i, spin_analyzer(theta))
        for i, theta in enumerate(angles)
    )
    return Scenario(dims0=(2,) * n, rho0=CMatrix(np.outer(psi, psi.conj())), stations=stations)


@pytest.mark.parametrize("qubits", [2, 4, 6, 8])
def test_factor_path_matches_state_path_on_ghz(qubits):
    s = ghz_scenario([0.4 + 0.7 * i for i in range(qubits)])
    ids = [st.id for st in s.stations]
    if qubits <= 4:
        assert_walk_matches_reference(s)
        return
    # n! orderings of 2^n records each are too many to run through the
    # reference; local measurements on distinct qubits commute, so its final
    # states in one ordering are every ordering's.
    want = reference_final_states(s, ids)
    rng = np.random.default_rng(qubits)
    for order in [ids, ids[::-1], *(list(rng.permutation(ids)) for _ in range(3))]:
        result = evaluate_in_order(s, order)
        assert result.probabilities.keys() == want.keys()
        for rec, state in want.items():
            assert abs(result.probabilities[rec] - trace(state).real) <= 1e-12, (order, rec)
    # 8 qubits have 256 final states of 256 x 256 entries (268 MB): probabilities only.
    if qubits == 6:
        got = result.final_states
        for rec, state in want.items():
            assert max_abs_diff(got[rec], state) <= 1e-12, rec


def test_eight_spacelike_stations_certify_over_every_ordering():
    # All 8! orderings are one free tail of the enumeration.
    report = check_order_invariance(ghz_scenario([0.4 + 0.7 * i for i in range(8)]), 1e-12)
    assert (report.orders_checked, report.method, report.worst) == (40320, "pairwise", 0.0)


def test_ten_qubit_ghz_meets_the_closed_form_in_two_orderings():
    # Mermin: for an even number of qubits, <(x) (cos t Z + sin t X)> = prod cos + prod sin.
    angles = [0.3 + 0.55 * i for i in range(10)]
    s = ghz_scenario(angles)
    order = [st.id for st in s.stations]
    forward, backward = (evaluate_in_order(s, o) for o in (order, order[::-1]))
    for st in s.stations:
        assert marginal(forward, st.id)["+"] == pytest.approx(0.5, abs=1e-12)
    correlation = sum(
        p * (-1) ** sum(label == "-" for _, label in rec) for rec, p in forward.probabilities.items()
    )
    expected = math.prod(map(math.cos, angles)) + math.prod(map(math.sin, angles))
    assert abs(correlation - expected) <= 1e-12
    assert forward.probabilities.keys() == backward.probabilities.keys()
    for rec, p in forward.probabilities.items():
        assert abs(p - backward.probabilities[rec]) <= 1e-12


@pytest.mark.parametrize("qubits", [8, 10])
def test_pure_ghz_factor_decomposes_no_full_size_matrix(monkeypatch, qubits):
    # rho0's factor comes from its one-column range: no D x D eigh or QR.
    decomposed = []
    for name in ("eigh", "qr"):
        kernel = getattr(np.linalg, name)

        def spy(a, *args, _kernel=kernel, **kwargs):
            decomposed.append(a.shape[-2:])
            return _kernel(a, *args, **kwargs)

        monkeypatch.setattr(np.linalg, name, spy)
    s = ghz_scenario([0.3 + 0.55 * i for i in range(qubits)])
    evaluate_in_order(s, [st.id for st in s.stations])
    d = 2**qubits
    assert decomposed and (d, d) not in decomposed
    assert s._factor[0].shape == (d, 1)


def test_walk_matches_reference_on_a_conditional_last_station():
    s = Scenario(
        dims0=(2, 2),
        rho0=random_density(4, seed=6),
        stations=(
            station("A", 0.0, 0.0, 0, z_iv()),
            Station(
                Event("B", 2.0, 0.0),
                ConditionalLocal(
                    1,
                    ("A",),
                    {
                        ("z+",): random_intervention(2, [2, 2], seed=21),
                        ("z-",): random_intervention(2, [1, 3, 1], seed=22),
                    },
                ),
            ),
        ),
    )
    assert_walk_matches_reference(s, [["A", "B"]])


def test_final_evolution_after_the_last_station_takes_the_state_path(monkeypatch):
    # An evolution at the end of the chain leaves no station spent: no POVM roots fire.
    s = timelike_chain_scenario(
        rho0=random_density(2, seed=7),
        evolutions=(Evolution("Q", None, HADAMARD, history={"Q": "x+"}),),
    )
    branches = count_calls(monkeypatch, "_branches")
    assert_walk_matches_reference(s)
    roots = {id(iv._povm_roots) for st in s.stations for iv in st.interventions().values()}
    assert branches and not {id(stack) for (_, stack), _ in branches} & roots


def test_sub_batches_match_the_reference_where_cases_evolutions_and_dims_differ():
    # A history-keyed evolution after A; B's outcomes of 1, 3 and 2 dimensions
    # (padded to 3); C's cases with different outcome counts (an incomplete
    # record grid); D's cases leave 3 x 2 or 2 x 3; a final 6 x 6 evolution
    # on the A = o0 branches, which must cut each to its own factor dims.
    first, second, third = random_intervention(3, [2, 2, 3], seed=41).outcomes
    c_wide = Intervention(d_in=3, outcomes=(Outcome("pair", 2, first.kraus + second.kraus), third))
    to_three, to_two = random_intervention(2, [3], seed=46), random_intervention(2, [2], seed=47)
    s = Scenario(
        dims0=(2, 3),
        rho0=random_density(6, seed=40),
        stations=(
            station("A", 0.0, 0.0, 0, random_intervention(2, [2, 2], seed=42)),
            station("B", 2.0, 0.0, 1, random_intervention(3, [1, 3, 2], seed=43)),
            Station(
                Event("C", 4.0, 0.0),
                ConditionalLocal(
                    1,
                    ("B",),
                    {
                        ("o0",): random_intervention(1, [2, 2], seed=44),
                        ("o1",): c_wide,
                        ("o2",): random_intervention(2, [3], seed=45),
                    },
                ),
            ),
            Station(
                Event("D", 6.0, 0.0),
                ConditionalLocal(
                    0,
                    ("B", "C"),
                    {
                        ("o0", "o0"): to_three,
                        ("o0", "o1"): to_three,
                        ("o1", "pair"): to_three,
                        ("o1", "o2"): to_two,
                        ("o2", "o0"): to_two,
                    },
                ),
            ),
        ),
        evolutions=(
            Evolution("A", "B", haar_unitary(6, seed=49), history={"A": "o0"}),
            Evolution("D", None, haar_unitary(6, seed=50), history={"A": "o0"}),
        ),
    )
    assert_walk_matches_reference(s)


def test_walk_matches_reference_with_bottleneck_evolutions():
    stations = (
        station("R", -5.0, 0.0, 0, z_iv()),
        station("A1", 0.0, 3.0, 1, random_intervention(2, [2], seed=31)),
        station("A2", 0.2, -3.0, 2, random_intervention(2, [2], seed=32)),
        station("Z", 5.0, 0.0, 3, z_iv(labels=("u", "d"))),
    )
    evolutions = (
        Evolution(None, "R", haar_unitary(16, seed=33)),
        Evolution("Z", None, haar_unitary(16, seed=34), history={"R": "z+"}),
        Evolution("Z", None, haar_unitary(16, seed=35), history={"R": "z-"}),
    )
    s = Scenario(dims0=(2, 2, 2, 2), rho0=random_density(16, seed=36), stations=stations, evolutions=evolutions)
    assert_walk_matches_reference(s)


def test_final_states_are_built_on_first_read_only(monkeypatch):
    built = []
    init = CMatrix.__init__

    def counted(self, entries):
        built.append(entries)
        init(self, entries)

    s = builtin_scenarios()["dimension_change"]
    monkeypatch.setattr(CMatrix, "__init__", counted)
    result = evaluate_in_order(s, [st.id for st in s.stations])
    assert check_order_invariance(s, 1e-9).ok
    assert built == []
    states = result.final_states
    assert len(built) == len(states) == len(result.probabilities)
    assert result.final_states is states
    assert len(built) == len(states)


# ----------------------------------------------------------- spent stations


def assert_spent_walk_matches_built_walk(s, orders=None):
    """Probabilities equal the traces of the walk that builds every branch, within 1e-12.

    ``evaluate_in_order`` fires each spent station through its POVM roots;
    the walk with ``build`` on, from whose last levels ``final_states`` is
    read, fires every station through its Kraus stack. Its levels' ``tr``
    are those final states' traces, read without forming a D x D state.
    """
    for order in orders or linear_extensions(s._covering, s.events()):
        got = evaluate_in_order(s, order).probabilities
        want = {
            rec: tr
            for lv in experiment._walk(s, tuple(order), build=True)
            for rec, tr in zip(experiment._records(lv.labels), lv.tr.tolist())
        }
        assert got.keys() == want.keys(), order
        for rec, p in want.items():
            assert abs(got[rec] - p) <= 1e-12, (order, rec)


def test_spent_walk_matches_built_walk_on_random_products():
    for k in range(200):
        assert_spent_walk_matches_built_walk(random_product_scenario(seed=k))


def test_spent_walk_matches_built_walk_on_builtins(monkeypatch):
    # dimension_change teleports qubits into d_out 3 and 5: both stations'
    # roots have rank 2, and both stations are spent in either ordering.
    for s in builtin_scenarios().values():
        assert_spent_walk_matches_built_walk(s)
    branches = count_calls(monkeypatch, "_branches")
    for order in (["A", "B"], ["B", "A"]):
        branches.clear()
        evaluate_in_order(builtin_scenarios()["dimension_change"], order)
        assert len(branches) == 2
        for (_, stack), out in branches:
            assert stack.shape == (4, 1, 2, 2) and out.shape[2] == 2


def test_spent_walk_matches_built_walk_through_conditions_evolutions_and_mixed_states():
    assert_spent_walk_matches_built_walk(reordered_conditional_scenario())
    assert_spent_walk_matches_built_walk(middle_factor_scenario(random_density(18, seed=5, rank=3)))


@pytest.mark.parametrize("qubits", [2, 3, 4, 5, 6, 7, 8])
def test_spent_walk_matches_built_walk_on_ghz(qubits):
    s = ghz_scenario([0.4 + 0.7 * i for i in range(qubits)])
    ids = [st.id for st in s.stations]
    rng = np.random.default_rng(qubits)
    orders = None if qubits <= 4 else [ids, ids[::-1], *(list(rng.permutation(ids)) for _ in range(2))]
    assert_spent_walk_matches_built_walk(s, orders)


def test_an_eight_qubit_ghz_walk_never_holds_more_than_its_state(monkeypatch):
    # Every station is spent and projective: rank-1 roots keep each level,
    # the last included, at 2^8 entries, where Kraus stacks doubled it per station.
    branches = count_calls(monkeypatch, "_branches")
    s = ghz_scenario([0.4 + 0.7 * i for i in range(8)])
    ids = [st.id for st in s.stations]
    for order in (ids, ids[::-1]):
        evaluate_in_order(s, order)
    assert len(branches) == 16
    for (_, stack), out in branches:
        assert stack.shape == (2, 1, 1, 2) and out.size == 256


def test_no_spent_stack_before_a_later_station_or_evolution_on_the_factor(monkeypatch):
    # C, conditioned on A, acts on A's qubit after it: A is never spent; B and
    # C's cases, each last on its qubit, always are. An evolution between B
    # and C leaves only C's cases spent; one at the end of the chain, none.
    a, b = z_iv(), random_intervention(2, [2, 2], seed=70)
    cases = {("z+",): random_intervention(2, [2, 2], seed=71), ("z-",): x_iv()}
    stations = (
        station("A", 0.0, 0.0, 0, a),
        station("B", 0.5, 10.0, 1, b),
        Station(Event("C", 2.0, 0.0), ConditionalLocal(0, ("A",), cases)),
    )
    s = Scenario(dims0=(2, 2), rho0=random_density(4, seed=72), stations=stations)
    roots = {id(iv._povm_roots) for iv in (a, b, *cases.values())}
    branches = count_calls(monkeypatch, "_branches")
    for order in (["A", "B", "C"], ["A", "C", "B"], ["B", "A", "C"]):
        branches.clear()
        evaluate_in_order(s, order)
        used = {id(stack) for (_, stack), _ in branches} & roots
        assert used == {id(iv._povm_roots) for iv in (b, *cases.values())}, order
    assert_spent_walk_matches_built_walk(s)
    for evolutions, spent in (
        ((Evolution("B", "C", haar_unitary(4, seed=73)),), cases.values()),
        ((Evolution("C", None, haar_unitary(4, seed=74), history={"A": "z+"}),), ()),
    ):
        s = Scenario(dims0=(2, 2), rho0=random_density(4, seed=72), stations=stations, evolutions=evolutions)
        branches.clear()
        evaluate_in_order(s, ["A", "B", "C"])
        used = {id(stack) for (_, stack), _ in branches} & roots
        assert branches and used == {id(iv._povm_roots) for iv in spent}
        assert_spent_walk_matches_built_walk(s, [["A", "B", "C"]])


# ------------------------------------------------------------ walk levels


def assert_split_partitions_in_order(lv, names):
    """``lv.split(names)`` gives the parent's branches with each history, in lexicographic outcome order.

    Each part's records, ``v`` and ``tr`` rows are the parent's at the
    positions whose named outcomes equal the part's history, in the
    parent's order; a split that names no free station returns the level
    itself. Returns the parts.
    """
    records = experiment._records(lv.labels)
    fired = {sid: [o.label for o in iv.outcomes] for sid, iv in lv.fired}
    named = [sid for sid in fired if sid in names]
    parts = lv.split(set(names))
    free = [sid for sid in named if sid not in lv.fixed and len(fired[sid]) > 1]
    if not free:
        assert len(parts) == 1 and parts[0][1] is lv
    keys = [tuple(fired[sid].index(history[sid]) for sid in named) for history, _ in parts]
    assert keys == sorted(set(keys)), keys
    covered = 0
    for history, part in parts:
        assert list(history) == named
        rows = [i for i, rec in enumerate(records) if all(dict(rec)[sid] == history[sid] for sid in named)]
        assert experiment._records(part.labels) == [records[i] for i in rows]
        assert np.array_equal(part.v, lv.v[rows]) and np.array_equal(part.tr, lv.tr[rows])
        covered += len(rows)
    assert covered == len(records)
    return parts


def test_a_split_partitions_its_level_in_lexicographic_outcome_order():
    qubits = Scenario(
        dims0=(2,) * 5,
        rho0=random_density(32, seed=70),
        stations=tuple(station(f"q{i}", 0.0, 10.0 * i, i, random_intervention(2, [1, 1, 1], seed=i)) for i in range(5)),
    )
    (wide,) = experiment._walk(qubits, tuple(f"q{i}" for i in range(5)), build=True)
    assert len(wide.tr) == 243
    s = reordered_conditional_scenario()
    orders = linear_extensions(s._covering, s.events())
    levels = [wide, *(lv for order in orders for lv in experiment._walk(s, tuple(order), build=True))]
    for lv in levels:
        ids = [sid for sid, _ in lv.fired]
        for r in range(len(ids) + 1):
            for names in itertools.combinations(ids, r):
                for _, part in assert_split_partitions_in_order(lv, names):
                    for other in set(ids) - set(names):
                        assert_split_partitions_in_order(part, {other})


def split_names(monkeypatch):
    """The ``names`` of every ``_Level.split`` call from now on."""
    names = []
    split = experiment._Level.split
    monkeypatch.setattr(experiment._Level, "split", lambda lv, n: names.append(n) or split(lv, n))
    return names


def test_only_conditional_stations_and_keyed_evolutions_split_a_level(monkeypatch):
    # The CI's conditional file: B moves into A's future and fires its own measurement after A's '+'.
    doc = json.loads((SCENARIO_DIR / "eprb.json").read_text())
    a, b = doc["stations"]
    b["event"]["t"] = 5.0
    iv = b.pop("intervention")
    cases = [{"when": ["+"], "intervention": iv}, {"when": ["-"], "intervention": a["intervention"]}]
    b.update(depends_on=["A"], cases=cases)
    conditional, s = parse_scenario(json.dumps(doc)), reordered_conditional_scenario()
    names = split_names(monkeypatch)
    for fixed in (*builtin_scenarios().values(), random_product_scenario(seed=3)):
        evaluate_in_order(fixed, linear_extensions(fixed._covering, fixed.events())[0])
    assert names == []
    result = evaluate_in_order(conditional, ["A", "B"])
    assert names == [("A",)]
    want = {("+", "+"): 0.125, ("+", "-"): 0.375, ("-", "+"): 0.5, ("-", "-"): 0.0}
    assert {(dict(r)["A"], dict(r)["B"]): p for r, p in result.probabilities.items()} == pytest.approx(want, abs=1e-12)
    for order in linear_extensions(s._covering, s.events()):
        names.clear()
        experiment._walk(s, tuple(order))
        # A1 splits on R, the (None, R) evolution on no station, the keyed (Z, None) one on R.
        assert [n for n in names if isinstance(n, tuple)] == [("R",)]
        assert {frozenset(n) for n in names if not isinstance(n, tuple)} == {frozenset(), frozenset("R")}


def mixed_d_out_chain(seed):
    """A's outcomes have d_out 1, 2 and 3 and B, conditioned on A, acts on each, so A is never spent."""
    a = random_intervention(2, [1, 2, 3], seed=seed)
    cases = {(o.label,): random_intervention(o.d_out, [2, 1], seed=seed + 100 + i) for i, o in enumerate(a.outcomes)}
    return Scenario(
        dims0=(2, 3),
        rho0=random_density(6, seed=seed),
        stations=(
            station("A", 0.0, 0.0, 0, a),
            Station(Event("B", 1.0, 0.0), ConditionalLocal(0, ("A",), cases)),
            station("C", 0.5, 10.0, 1, random_intervention(3, [3, 1], seed=seed + 200)),
        ),
    )


def test_outcomes_of_different_d_out_cut_by_strides_match_a_split_bit_for_bit(monkeypatch):
    def bits(s):
        out = []
        for order in linear_extensions(s._covering, s.events()):
            r = evaluate_in_order(s, order)
            out.append([(rec, p.hex()) for rec, p in r.probabilities.items()])
            out.append([(rec, m.array.tobytes()) for rec, m in r.final_states.items()])
        return out

    family = [*(mixed_d_out_chain for _ in range(12)), *(random_product_scenario for _ in range(12))]
    strided = [bits(build(seed)) for seed, build in enumerate(family)]
    fire, cut = experiment._fire, []

    def fire_then_split(st, lv, iv, spent):
        # The rule strides replaced: fire every outcome into one level, split it by outcome, cut each part.
        if spent or iv._one_d_out:
            return fire(st, lv, iv, spent)
        uncut = copy.copy(iv)
        object.__setattr__(uncut, "_one_d_out", True)
        [whole] = fire(st, lv, uncut, spent)
        d_out, axes = {o.label: o.d_out for o in iv.outcomes}, (slice(None),) * (st.subsystem + 1)
        cut.append(st.id)
        parts = replace(whole, fired=(*lv.fired, (st.id, iv))).split({st.id})
        return [replace(part, v=part.v[(*axes, slice(0, d_out[h[st.id]]))]) for h, part in parts]

    monkeypatch.setattr(experiment, "_fire", fire_then_split)
    assert [bits(build(seed)) for seed, build in enumerate(family)] == strided
    # A in every walk of the chains; product stations only when building final states.
    assert cut.count("A") >= 12 * 3 * 2 and len(cut) > cut.count("A") + cut.count("B")


def test_the_walk_starts_from_one_read_only_level_per_scenario():
    s = reordered_conditional_scenario()
    start = s._start
    assert not start.v.flags.writeable and not start.tr.flags.writeable
    alt = LocalIntervention(2, random_intervention(2, [2, 2], seed=71))
    assert s._with_station("A2", alt)._start is start
    before = start.v.copy()
    for order in linear_extensions(s._covering, s.events()):
        experiment._walk(s, tuple(order))
        experiment._walk(s, tuple(order), build=True)
    assert s._start is start and start.v.tobytes() == before.tobytes()


# ------------------------------------------------------------ ordering layer


def adjacent(ext, after, before):
    """Whether one linear extension puts ``after`` right before ``before`` (None: the start or end)."""
    if after is None:
        return ext[0] == before
    if before is None:
        return ext[-1] == after
    i = ext.index(after)
    return i + 1 < len(ext) and ext[i + 1] == before


def extension_scan_admits(extensions, after, before):
    """Reference: the evolution keeps its chain position in every linear extension."""
    return all(adjacent(ext, after, before) for ext in extensions)


def test_evolution_rule_equals_the_extension_scan():
    rng = np.random.default_rng(40)
    verdicts, unplaceable = {True: 0, False: 0}, 0
    for _ in range(1000):
        n = int(rng.integers(1, 7))
        # A narrow x range makes most pairs timelike, so some evolutions are admissible.
        width = float(rng.choice([0.5, 2.0]))
        s = Scenario(
            dims0=(2,),
            rho0=maximally_mixed(),
            stations=tuple(
                station(f"e{i}", float(rng.uniform(-2, 2)), float(rng.uniform(-width, width)), 0, identity_iv())
                for i in range(n)
            ),
        )
        extensions = linear_extensions(s._covering, s.events())
        ends = [None, *(st.id for st in s.stations)]
        for after in ends:
            for before in ends:
                if after is None and before is None:
                    continue
                expected = extension_scan_admits(extensions, after, before)
                placeable = any(adjacent(ext, after, before) for ext in extensions)
                try:
                    probe = Scenario(
                        dims0=s.dims0,
                        rho0=s.rho0,
                        stations=s.stations,
                        evolutions=(Evolution(after, before, HADAMARD),),
                    )
                    assert placeable, (s.events(), after, before)
                    assert bool(probe._movable) is not expected, (s.events(), after, before)
                    experiment._require_order_comparable(probe)
                    admitted = True
                except ValueError as exc:
                    if "fits no admissible ordering" in str(exc):
                        assert not placeable, (s.events(), after, before)
                        unplaceable += 1
                    else:
                        assert "not first" in str(exc) and "reorderable" in str(exc)
                    admitted = False
                assert admitted == expected, (s.events(), after, before)
                verdicts[admitted] += 1
    assert verdicts[True] > 100 and verdicts[False] > 100, verdicts
    assert 100 < unplaceable < verdicts[False], unplaceable


def test_chains_hold_iff_no_two_stations_of_a_subsystem_are_incomparable():
    rng = np.random.default_rng(41)
    verdicts = {True: 0, False: 0}
    for _ in range(400):
        n, subsystems = int(rng.integers(1, 7)), int(rng.integers(1, 4))
        # A narrow x range makes most pairs timelike, so some subsystems form chains.
        width = float(rng.choice([0.5, 2.0]))
        stations = tuple(
            station(f"e{i}", float(rng.uniform(-2, 2)), float(rng.uniform(-width, width)), int(k), z_iv())
            for i, k in enumerate(rng.integers(subsystems, size=n))
        )
        s = Scenario(dims0=(2,) * subsystems, rho0=maximally_mixed(2**subsystems), stations=stations)
        order = causal_order(s.events())
        expected = all(
            (a.id, b.id) in order or (b.id, a.id) in order
            for a, b in itertools.combinations(stations, 2)
            if a.subsystem == b.subsystem
        )
        assert s._chains is expected, s.stations
        verdicts[expected] += 1
    assert verdicts[True] > 50 and verdicts[False] > 50, verdicts


def test_invariance_witness_breaks_ties_by_ordering():
    # Equal probabilities: the low ordering is the least, the high the greatest.
    rec = (("A", "a0"),)
    spread = {("A", "B", "C"): 0.5, ("B", "A", "C"): 0.5, ("C", "B", "A"): 0.1, ("B", "C", "A"): 0.1}
    results = [experiment.EvaluationResult(o, {rec: p}, scenario=None) for o, p in spread.items()]
    for ordered in (results, results[::-1]):
        w = experiment.compare_orderings(ordered, 1e-9).witness
        assert (w.order_low, w.p_low) == (("B", "C", "A"), 0.1)
        assert (w.order_high, w.p_high) == (("B", "A", "C"), 0.5)


def test_spread_keeps_each_entrys_least_and_greatest_value_and_key():
    # Per column, the least and greatest (value, key), as the witness rule picks them;
    # the zeros of every other row are left out of its distribution and count as 0.
    rng = np.random.default_rng(90)
    keys = sorted({tuple(rng.permutation(5).tolist()) for _ in range(40)})
    rng.shuffle(keys)
    table = rng.integers(0, 3, size=(len(keys), 6)).astype(float)
    for e in range(table.shape[1]):
        column = table[:, e].tolist()
        dists = [{"e": p} if p or i % 2 else {} for i, p in enumerate(column)]
        worst, (entry, key_low, key_high, p_low, p_high), n = experiment._spread(zip(keys, dists))
        values = list(zip(column, keys))
        assert (p_low, key_low) == min(values) and (p_high, key_high) == max(values)
        assert (entry, worst, n) == ("e", max(column) - min(column), len(keys))


def test_a_record_missing_from_some_results_counts_as_zero_at_its_extreme_orderings():
    # Orderings a < b < ... < f, read c, a, f, d, b, e; the record is present only in b,
    # so its zeros sit at the four orderings read before it first appears and at e.
    a, b, c, d, e, f = itertools.permutations("ABC")
    read = (c, a, f, d, b, e)
    rec, other = (("A", "a0"),), (("A", "a1"),)
    probabilities = [{other: 0.5, rec: 0.5} if o == b else {other: 1.0} for o in read]
    results = [experiment.EvaluationResult(o, p, scenario=None) for o, p in zip(read, probabilities)]
    report = experiment.compare_orderings(iter(results), 1e-9)
    assert (report.worst, report.orders_checked) == (0.5, 6)
    assert report.witness == experiment.InvarianceWitness(rec, a, b, 0.0, 0.5)
    # Mirrored, the greatest (0, ordering) is the greatest ordering missing it.
    negated = [{entry: -p for entry, p in dist.items()} for dist in probabilities]
    assert experiment._spread(zip(read, negated)) == (0.5, (rec, b, f, -0.5, 0.0), 6)


def test_invariance_witness_takes_the_first_record_within_rounding_of_the_worst():
    early, late = (("A", "a0"),), (("A", "a1"),)
    results = [
        experiment.EvaluationResult(("A", "B"), {early: 0.5, late: 0.0}, scenario=None),
        # late's spread, 0.25 + 1e-16 rounded, beats early's 0.25 by one rounding.
        experiment.EvaluationResult(("B", "A"), {early: 0.25, late: 0.25 + 1e-16}, scenario=None),
    ]
    report = experiment.compare_orderings(results, 1e-9)
    assert report.worst == 0.25 + 1e-16 > 0.25
    assert report.witness.record == early
    assert (report.witness.order_low, report.witness.order_high) == (("B", "A"), ("A", "B"))


# ------------------------------------------ several orderings of one scenario


def reordered_conditional_scenario():
    """Six orderings through a conditional station, a dimension change and keyed evolutions.

    R fires first and Z last; A1, A2 and A3 are mutually spacelike between
    them. A1's case depends on R and has two or three outcomes of 2 or of
    1, 3 and 1 dimensions, A3 grows its qubit to a qutrit, and a
    history-keyed evolution follows Z on the R = z+ branches, so prefixes
    of different factor dims share a station and the last station's
    branches are built.
    """
    stations = (
        station("R", -5.0, 0.0, 0, z_iv()),
        Station(
            Event("A1", 0.0, 3.0),
            ConditionalLocal(
                1,
                ("R",),
                {
                    ("z+",): random_intervention(2, [2, 2], seed=61),
                    ("z-",): random_intervention(2, [1, 3, 1], seed=62),
                },
            ),
        ),
        station("A2", 0.2, -3.0, 2, random_intervention(2, [2, 2], seed=63)),
        station("A3", 0.1, 0.0, 3, random_intervention(2, [3, 3], seed=64)),
        station("Z", 5.0, 0.0, 0, z_iv(labels=("u", "d"))),
    )
    evolutions = (
        Evolution(None, "R", haar_unitary(16, seed=65)),
        Evolution("Z", None, haar_unitary(24, seed=66), history={"R": "z+"}),
    )
    return Scenario(
        dims0=(2, 2, 2, 2), rho0=random_density(16, seed=60), stations=stations, evolutions=evolutions
    )


def test_orderings_walked_together_through_conditions_and_keyed_evolutions():
    s = reordered_conditional_scenario()
    assert len(linear_extensions(s._covering, s.events())) == 6
    assert_walk_matches_reference(s)
    report = check_order_invariance(s, 1e-9)
    assert report.ok and report.orders_checked == 6, report


def test_orderings_walked_together_evolve_only_where_their_segment_is():
    # A unitary from A into B acts only in orderings where B follows A; the
    # prefix (A) is shared with orderings where C follows it.
    s = Scenario(
        dims0=(2, 2, 2),
        rho0=random_density(8, seed=67),
        stations=(
            station("A", 0.0, 0.0, 0, random_intervention(2, [2, 2], seed=68)),
            station("B", 0.1, 3.0, 1, random_intervention(2, [1, 3], seed=69)),
            station("C", 0.2, 6.0, 2, z_iv()),
        ),
        evolutions=(Evolution("A", "B", haar_unitary(8, seed=70)),),
    )
    assert len(linear_extensions(s._covering, s.events())) == 6
    assert_walk_matches_reference(s)


def every_ordering(s, tol=1e-9):
    """The exhaustive walk over every linear extension, whether or not the pairwise certificate holds."""
    extensions = linear_extensions(s._covering, s.events())
    return experiment.compare_orderings((evaluate_in_order(s, o) for o in extensions), tol)


def same_qubit_antichain(n):
    """n mutually spacelike two-outcome stations on one qubit: n! orderings that disagree."""
    return Scenario(
        dims0=(2,),
        rho0=random_density(2, seed=73),
        stations=tuple(
            station(f"S{i}", 0.1 * i, 10.0 * i, 0, random_intervention(2, [2, 2], seed=74 + i))
            for i in range(n)
        ),
    )


def dense_spread(results):
    """Reference: worst spread and witness from a table of every result, missing records 0."""
    records = sorted(set().union(*(r.probabilities for r in results)))
    table = np.array([[r.probabilities.get(rec, 0.0) for rec in records] for r in results])
    spread = table.max(axis=0) - table.min(axis=0)
    worst = float(spread.max())
    e = int(np.argmax(spread >= worst - tolerance.FLOOR))
    column = [(p, r.ordering) for p, r in zip(table[:, e].tolist(), results)]
    (p_low, low), (p_high, high) = min(column), max(column)
    return worst, experiment.InvarianceWitness(records[e], low, high, p_low, p_high)


def test_exhaustive_matches_a_comparison_of_every_ordering():
    # The exhaustive walk keeps only each record's extreme orderings; its
    # verdict and witness must be the ones a table of every ordering's result
    # gives. Four stations, one pair of them noncommuting on one qubit: a
    # spread of 0.25 and ties between orderings. Six on one qubit: 720
    # orderings.
    pair = noncommuting_counterexample()
    flagged = Scenario(
        dims0=(2, 2, 3),
        rho0=CMatrix(np.kron(pair.rho0.array, random_density(6, seed=70).array)),
        stations=(
            *pair.stations,
            station("W", 0.2, 5.0, 1, random_intervention(2, [1, 2, 2], seed=71)),
            station("Y", 0.3, 9.0, 2, random_intervention(3, [2, 4], seed=72)),
        ),
    )
    scenarios = [random_product_scenario(seed=k) for k in range(40)]
    scenarios += [*builtin_scenarios().values(), reordered_conditional_scenario(), flagged]
    scenarios.append(same_qubit_antichain(6))
    reports = []
    for s in scenarios:
        extensions = linear_extensions(s._covering, s.events())
        report = every_ordering(s)
        worst, witness = dense_spread([evaluate_in_order(s, o) for o in extensions])
        ok = worst <= 1e-9
        assert (report.ok, report.worst, report.witness) == (ok, worst, None if ok else witness)
        assert report.orders_checked == len(extensions)
        reports.append(report)
    assert len(extensions) == 720
    assert all(not r.ok and r.worst > 0.1 for r in reports[-2:]), reports[-2:]


# ------------------------------------------------------ the pairwise certificate


def test_a_certified_scenario_is_evaluated_in_one_ordering(monkeypatch):
    s = ghz_scenario([0.4, 1.1, 1.8, 2.5])
    walks = count_calls(monkeypatch, "_walk")
    report = check_order_invariance(s, 1e-9)
    assert (report.ok, report.worst, report.orders_checked, report.witness) == (True, 0.0, 24, None)
    assert report.method == "pairwise" and report.as_dict()["method"] == "pairwise"
    assert [args[1] for args, _ in walks] == [linear_extensions(s._covering, s.events())[0]]
    # The one walk keeps the evaluator's runtime checks.
    qutrit = random_intervention(3, [1, 2], seed=95)
    bad = Scenario(
        dims0=(2, 2),
        rho0=maximally_mixed(4),
        stations=(station("A", 0.0, 0.0, 0, qutrit), station("B", 0.0, 5.0, 1, z_iv())),
    )
    with pytest.raises(DimensionError, match="station 'A'"):
        check_order_invariance(bad, 1e-9)


def test_the_pairwise_walk_bounds_every_branch_even_with_its_ordering_remembered(monkeypatch):
    s = eprb(0.0, 1.0)
    first = linear_extensions(s._covering, s.events())[0]
    evaluate_in_order(s, first)
    kernel = experiment._branches
    # Doubling every branch factor quadruples its trace, past any derived bound.
    monkeypatch.setattr(experiment, "_branches", lambda v, stack: 2 * kernel(v, stack))
    with pytest.raises(ValueError, match="branch trace for outcome '\\+'.*internal invariant failure"):
        check_order_invariance(s, 1e-9)

    def poisoned(v, stack, parents):
        out = kernel(v, stack).copy()
        if len(v) >= parents:
            out[-1].flat[0] = np.nan
        return out

    # A fires on one parent branch, B on A's two: a NaN at either level names its outcome.
    for parents in (1, 2):
        monkeypatch.setattr(experiment, "_branches", lambda v, stack, parents=parents: poisoned(v, stack, parents))
        with pytest.raises(ValueError, match="branch trace for outcome '-' is nan, .*internal invariant failure"):
            check_order_invariance(s, 1e-9)
    # Scaled by 1.5 at B only, B's '-' under A's '+' reaches 2.25 * 0.385 of its parent's 0.5.
    monkeypatch.setattr(experiment, "_branches", lambda v, stack: kernel(v, stack) * (1.5 if len(v) == 2 else 1.0))
    with pytest.raises(ValueError, match="branch trace for outcome '-' is 0.86.*internal invariant failure"):
        check_order_invariance(s, 1e-9)


def test_both_callers_of_the_checked_walk_bound_each_record_and_the_sum(monkeypatch):
    # eprb(0, 1) gives each record at most (1 + cos 1) / 4 < 0.4: scaled by 1.5 each stays below 1, the sum does not.
    walk = experiment._walk
    scale = {"by": 1.5, "record": None}

    def skewed(s, order, build=False):
        levels = walk(s, order, build)
        assert len(levels) == 1
        tr = levels[0].tr * scale["by"]
        if scale["record"] is not None:
            tr[scale["record"]] = 2.0
        return [replace(levels[0], tr=tr)]

    monkeypatch.setattr(experiment, "_walk", skewed)
    s = eprb(0.0, 1.0)
    # Both walk A then B, whose second record is A '+' and B '-'.
    total = sum((walk(s, ("A", "B"))[0].tr * 1.5).tolist(), 0.0)
    message = re.escape(f"sum of record probabilities is {total!r}, ") + ".*internal invariant failure"
    for certify in (lambda: check_order_invariance(s, 1e-9), lambda: evaluate_in_order(s, ["A", "B"])):
        scale.update(by=1.5, record=None)
        with pytest.raises(ValueError, match=message):
            certify()
        scale.update(by=1.0, record=1)
        with pytest.raises(ValueError, match=r"probability of record \(\('A', '\+'\), \('B', '-'\)\) is 2.0, "):
            certify()
    assert s._memo.evaluation is None


def test_the_pairwise_certificate_builds_no_record_and_leaves_the_memo(monkeypatch):
    s = eprb(0.2, 1.1)
    check_no_signaling(s, "A", [LocalIntervention(1, identity_iv())], 1e-9, varied="B")
    remembered = s._memo.evaluation

    def refuse(labels):
        raise AssertionError("the pairwise certificate built a record table")

    monkeypatch.setattr(experiment, "_records", refuse)
    evaluations = count_calls(monkeypatch, "evaluate_in_order")
    walks = count_calls(monkeypatch, "_walk")
    report = check_order_invariance(s, 1e-9)
    assert (report.ok, report.method, report.orders_checked) == (True, "pairwise", 2)
    assert [args[1] for args, _ in walks] == [("A", "B")]
    assert s._memo.evaluation is remembered and s._memo.evaluation[0] == ("B", "A")
    fresh = random_product_scenario(seed=0)
    assert check_order_invariance(fresh, 1e-9).method == "pairwise" and fresh._memo.evaluation is None
    for seed in range(200):
        report = check_order_invariance(random_product_scenario(seed=seed), 1e-9)
        assert (report.ok, report.method, report.worst) == (True, "pairwise", 0.0), seed
    assert evaluations == []


def test_pairwise_certificate_agrees_with_every_ordering():
    scenarios = [random_product_scenario(seed=k) for k in range(200)]
    scenarios += [*builtin_scenarios().values(), reordered_conditional_scenario()]
    methods = []
    for s in scenarios:
        report, full = check_order_invariance(s, 1e-9), every_ordering(s)
        methods.append(report.method)
        if report.method == "pairwise":
            assert (report.ok, report.orders_checked, report.worst) == (full.ok, full.orders_checked, 0.0)
            assert full.worst <= 1e-12, full
        else:
            assert report == full
    # Only the counterexample shares a subsystem between spacelike stations.
    assert methods == ["pairwise"] * 201 + ["exhaustive", "pairwise", "pairwise"]


def test_scenarios_outside_the_certificate_take_every_ordering():
    def unitary_iv(u):
        return Intervention(d_in=2, outcomes=(Outcome("u", 2, (CMatrix(u),)),))

    flip = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
    near_identity = CMatrix(np.diag(np.exp(1j * np.array([1e-13, 0.0, 0.0, 0.0]))))
    assert 0 < deviation(near_identity.array) <= tolerance.IDENTITY
    cases = [
        # Commuting measurements, but on one qubit at spacelike events.
        Scenario(
            dims0=(2,),
            rho0=random_density(2, seed=96),
            stations=(station("A", 0.0, 0.0, 0, z_iv()), station("B", 0.0, 5.0, 0, z_iv(("u", "d")))),
        ),
        # H and X on one qubit: the probabilities agree, the final states do not.
        Scenario(
            dims0=(2,),
            rho0=random_density(2, seed=97),
            stations=(
                station("H", 0.0, 0.0, 0, unitary_iv(HADAMARD.array)),
                station("X", 0.0, 5.0, 0, unitary_iv(flip)),
            ),
        ),
        # An evolution within IDENTITY of I on a reorderable segment.
        Scenario(
            dims0=(2, 2),
            rho0=random_density(4, seed=98),
            stations=(station("A", 0.0, 0.0, 0, z_iv()), station("B", 0.0, 5.0, 1, x_iv())),
            evolutions=(Evolution("A", "B", near_identity),),
        ),
    ]
    for s in cases:
        report = check_order_invariance(s, 1e-9)
        assert report.method == "exhaustive" and report.ok and report.orders_checked == 2, report
        assert report == every_ordering(s)
    report = check_order_invariance(noncommuting_counterexample(), 1e-9)
    assert (report.method, report.ok) == ("exhaustive", False)
    assert report.worst == pytest.approx(0.25, abs=1e-12)
    assert report.witness.record == (("X", "x+"), ("Z", "z+"))


def test_a_scenario_without_stations_has_one_empty_record():
    s = Scenario(dims0=(2,), rho0=maximally_mixed(), stations=())
    report = check_order_invariance(s, 1e-9)
    assert report.ok and report.orders_checked == 1 and report.worst == 0.0
    assert evaluate_in_order(s, []).probabilities == {(): pytest.approx(1.0)}


def closure_admits(s, order):
    """Reference: the ordering places every pair of the closed causal order in order."""
    pos = {sid: i for i, sid in enumerate(order)}
    return all(pos[a] < pos[b] for a, b in causal_order(s.events()))


def test_admissibility_from_direct_predecessors_equals_the_closure_check():
    rng = np.random.default_rng(80)
    scenarios = [random_product_scenario(seed=k) for k in range(200)]
    chain = tuple(station(f"c{i}", 2.0 * i, 0.1 * (i % 3), 0, identity_iv()) for i in range(40))
    scenarios.append(Scenario(dims0=(2,), rho0=maximally_mixed(), stations=chain))
    for _ in range(300):
        n = int(rng.integers(2, 8))
        scenarios.append(
            Scenario(
                dims0=(2,),
                rho0=maximally_mixed(),
                stations=tuple(
                    station(f"e{i}", float(rng.uniform(-2, 2)), float(rng.uniform(-0.7, 0.7)), 0, identity_iv())
                    for i in range(n)
                ),
            )
        )
    verdicts = {True: 0, False: 0}
    for s in scenarios:
        ids = [sid for _, sid in sorted((st.event.t, st.id) for st in s.stations)]
        candidates = [ids, *(list(rng.permutation(ids)) for _ in range(4))]
        for k in range(len(ids) - 1):  # adjacent swaps of the time order
            candidates.append(ids[:k] + [ids[k + 1], ids[k]] + ids[k + 2 :])
        for order in candidates:
            expected = closure_admits(s, order)
            try:
                experiment._require_admissible(s, tuple(order))
                admitted = True
            except ValueError as exc:
                assert "violating their causal order" in str(exc)
                admitted = False
            assert admitted == expected, (s.events(), order)
            verdicts[admitted] += 1
    assert verdicts[True] > 1000 and verdicts[False] > 1000, verdicts


# ------------------------------------------------------------ the scenario's memo


def count_walks(monkeypatch):
    """Count the evaluator's walks without keeping what they return."""
    walks = []
    walk = experiment._walk

    def counted(s, order, *args, **kwargs):
        walks.append(order)
        return walk(s, order, *args, **kwargs)

    monkeypatch.setattr(experiment, "_walk", counted)
    return walks


def criterion_05_alternatives(varied, seed):
    d = varied.resolve({}).d_in
    return [
        LocalIntervention(varied.subsystem, random_intervention(d, [d], seed=seed * 31 + 7)),
        LocalIntervention(varied.subsystem, random_intervention(d, [1] * d, seed=seed * 31 + 8)),
    ]


def test_a_repeated_evaluation_walks_once_and_hands_out_copies(monkeypatch):
    s = random_product_scenario(seed=3)
    varied, target = s.stations[0], s.stations[1]
    walks = count_walks(monkeypatch)
    # Before any check, every evaluation walks and remembers nothing.
    order = tuple(st.id for st in s.stations)
    assert evaluate_in_order(s, order) == evaluate_in_order(s, list(order))
    assert walks == [order] * 2 and s._memo.evaluation is None
    # The ordering a check walked is read back, one copy per result.
    report = check_no_signaling(s, target.id, [LocalIntervention(varied.subsystem, varied.local.local)], 1e-9, varied=varied.id)
    first, second = evaluate_in_order(s, report.ordering), evaluate_in_order(s, list(report.ordering))
    assert len(walks) == 3
    assert first.probabilities == second.probabilities
    assert first.probabilities is not second.probabilities
    # A caller that changes its result changes nothing the next call returns.
    expected = dict(second.probabilities)
    first.probabilities.clear()
    second.probabilities[next(iter(expected))] = -1.0
    assert evaluate_in_order(s, report.ordering).probabilities == expected
    assert len(walks) == 3
    # Another ordering walks, and leaves the remembered one.
    other = next(o for o in linear_extensions(s._covering, s.events()) if o != report.ordering)
    assert evaluate_in_order(s, other).ordering == other
    assert s._memo.evaluation[0] == report.ordering and len(walks) == 4


def test_a_walk_that_raises_stores_nothing(monkeypatch):
    s = eprb(0.0, 1.0)
    check_no_signaling(s, "B", [LocalIntervention(0, identity_iv())], 1e-9, varied="A")
    walks = count_walks(monkeypatch)
    kernel = experiment._branches
    monkeypatch.setattr(experiment, "_branches", lambda v, iv: 2 * kernel(v, iv))
    for _ in range(2):
        with pytest.raises(ValueError, match="internal invariant failure"):
            evaluate_in_order(s, ["B", "A"])
    assert walks == [("B", "A")] * 2
    assert s._memo.evaluation[0] == ("A", "B")
    monkeypatch.setattr(experiment, "_branches", kernel)
    assert sum(evaluate_in_order(s, ["B", "A"]).probabilities.values()) == pytest.approx(1.0)
    # An ordering the causal order rejects is neither walked nor stored.
    chain = timelike_chain_scenario()
    with pytest.raises(ValueError, match="violating their causal order"):
        evaluate_in_order(chain, ["Q", "P"])
    assert chain._memo.evaluation is None and len(walks) == 3


def test_a_variant_never_reads_its_parents_probabilities():
    # Z fires first on |0>: X's x+ marginal is 1/2 under the original, 1 under a Hadamard.
    hadamard = LocalIntervention(0, Intervention(d_in=2, outcomes=(Outcome("h", 2, (HADAMARD,)),)))
    s = noncommuting_counterexample()
    original = marginal(evaluate_in_order(s, ["Z", "X"]), "X")
    variant = s._with_station("Z", hadamard)
    assert variant._memo is not s._memo and variant._memo.evaluation is None
    swapped = marginal(evaluate_in_order(variant, ["Z", "X"]), "X")
    assert swapped["x+"] - original["x+"] == pytest.approx(0.5, abs=1e-12)
    assert marginal(evaluate_in_order(s, ["Z", "X"]), "X") == original
    report = check_no_signaling(s, "X", [hadamard], 1e-9, varied="Z")
    assert not report.ok and report.worst == pytest.approx(0.5, abs=1e-12)
    key, [original_candidate, copy] = s._memo.signaling
    assert key == ("Z", (hadamard,)) and original_candidate is s and copy._memo is not s._memo
    # Equal alternatives read the slot back; another station or another list replaces it.
    assert check_no_signaling(s, "X", [LocalIntervention(0, hadamard.local)], 1e-9, varied="Z") == report
    assert s._memo.signaling[1][1] is copy
    other = LocalIntervention(0, identity_iv())
    assert check_no_signaling(s, "Z", [other], 1e-9, varied="X").varied == "X"
    assert s._memo.signaling[0] == ("X", (other,))
    assert check_no_signaling(s, "X", [hadamard], 1e-9, varied="Z") == report
    assert s._memo.signaling[1][1] is not copy


def test_evaluating_and_certifying_order_leave_the_memo_as_it_was():
    def unchanged(s, *calls):
        kept = s._memo.evaluation, s._memo.signaling
        for call in calls:
            call()
            assert (s._memo.evaluation, s._memo.signaling) == kept
            assert s._memo.evaluation is kept[0] and s._memo.signaling is kept[1]

    def raises(s, order):
        with pytest.raises(ValueError, match="is not a permutation"):
            evaluate_in_order(s, order)

    s = eprb(0.2, 1.1)
    for seeded in (False, True):
        if seeded:
            check_no_signaling(s, "A", [LocalIntervention(1, identity_iv())], 1e-9, varied="B")
            assert s._memo.evaluation[0] == ("B", "A")
        unchanged(
            s,
            lambda: evaluate_in_order(s, ["A", "B"]),
            lambda: evaluate_in_order(s, ["A", "B"]),
            lambda: evaluate_in_order(s, ["B", "A"]),
            lambda: raises(s, ["A"]),
            lambda: evaluate_in_frame(s, Frame(0.3)),
            lambda: check_order_invariance(s, 1e-9),
        )
    assert check_order_invariance(s, 1e-9).method == "pairwise"
    s = same_qubit_antichain(7)
    check_no_signaling(s, "S1", [LocalIntervention(0, identity_iv())], 1e-9, varied="S0")
    reports = []
    unchanged(s, lambda: reports.append(check_order_invariance(s, 1e-9)))
    assert [(r.method, r.ok, r.orders_checked) for r in reports] == [("exhaustive", False, 5040)]
    assert s._memo.evaluation[0] == experiment._varied_first_ids(s, "S0")


def test_one_varied_station_against_three_targets_walks_each_candidate_once(monkeypatch):
    s = random_product_scenario(seed=3)
    assert len(s.stations) == 4
    varied, targets = s.stations[0], s.stations[1:]
    alternatives = criterion_05_alternatives(varied, 3)
    walks = count_walks(monkeypatch)
    evaluations = []
    evaluate = experiment.evaluate_in_order
    monkeypatch.setattr(experiment, "evaluate_in_order", lambda v, o: evaluations.append(o) or evaluate(v, o))
    for target in targets:
        assert check_no_signaling(s, target.id, alternatives, 1e-9, varied=varied.id).ok
    # Three candidates per call, all walked together by the first call.
    assert len(evaluations) == 9 and len(walks) == 1
    assert set(walks) == {experiment._varied_first_ids(s, varied.id)}


def test_an_alternative_listed_twice_is_copied_and_walked_once(monkeypatch):
    s = random_product_scenario(seed=3)
    varied, target = s.stations[0], s.stations[1]
    [alternative, _] = criterion_05_alternatives(varied, 3)
    walks = count_walks(monkeypatch)
    report = check_no_signaling(s, target.id, [alternative, alternative], 1e-9, varied=varied.id)
    assert report.ok and report.alternatives_checked == 3
    # The original and one copy, in one walk.
    assert len(walks) == 1
    key, [original, copy, again] = s._memo.signaling
    assert key == (varied.id, (alternative, alternative)) and original is s and copy is again
    assert copy.station(varied.id).local is alternative and copy._memo.evaluation[0] == report.ordering


def test_fresh_alternatives_leave_one_calls_copies_in_the_memo():
    # A caller varying one station over newly built alternatives, one call each.
    s = random_product_scenario(seed=3)
    varied, target = s.stations[0], s.stations[1]
    d = varied.resolve({}).d_in
    for seed in range(2000):
        alternative = LocalIntervention(varied.subsystem, random_intervention(d, [d], seed=seed))
        assert check_no_signaling(s, target.id, [alternative], 1e-9, varied=varied.id).ok
    key, [_, copy] = s._memo.signaling
    assert key == (varied.id, (alternative,)) and copy.station(varied.id).local is alternative


def test_a_repeat_variants_call_neither_hashes_an_outcome_nor_builds_a_copy(monkeypatch):
    s = random_product_scenario(seed=3)
    varied, targets = s.stations[0], s.stations[1:]
    alternatives = criterion_05_alternatives(varied, 3)
    listed = [*alternatives, alternatives[0]]
    first = [check_no_signaling(s, t.id, listed, 1e-9, varied=varied.id) for t in targets]
    kept = s._memo.signaling
    hashed, copied = [], []
    outcome_hash, with_station = Outcome.__hash__, Scenario._with_station
    monkeypatch.setattr(Outcome, "__hash__", lambda o: hashed.append(o) or outcome_hash(o))
    monkeypatch.setattr(Scenario, "_with_station", lambda *args: copied.append(args) or with_station(*args))
    walks = count_walks(monkeypatch)
    for _ in range(3):
        assert [check_no_signaling(s, t.id, listed, 1e-9, varied=varied.id) for t in targets] == first
    # Equal alternatives built from the same outcomes compare without a hash and read the slot back.
    twins = [LocalIntervention(a.subsystem, Intervention(a.local.d_in, a.local.outcomes)) for a in listed]
    assert check_no_signaling(s, targets[0].id, twins, 1e-9, varied=varied.id) == first[0]
    assert hashed == [] and copied == [] and walks == [] and s._memo.signaling is kept
    # The same matrices in new objects are a new key: one copy per distinct alternative, one walk.
    anew = criterion_05_alternatives(varied, 3)
    assert check_no_signaling(s, targets[0].id, [*anew, anew[0]], 1e-9, varied=varied.id) == first[0]
    assert len(copied) == 2 and len(walks) == 1 and s._memo.signaling is not kept


def test_a_repeated_check_neither_validates_nor_walks_again(monkeypatch):
    s = reordered_conditional_scenario()
    alternatives = [LocalIntervention(1, random_intervention(2, [2, 2], seed=100))]
    first = check_no_signaling(s, "A2", alternatives, 1e-9, varied="A1")
    validated, admitted = count_calls(monkeypatch, "_require_causal_conditions"), count_calls(monkeypatch, "_require_admissible")
    walks = count_walks(monkeypatch)
    assert check_no_signaling(s, "A2", list(alternatives), 1e-9, varied="A1") == first
    assert validated == [] and admitted == [] and walks == []
    # Another key validates and walks once.
    check_no_signaling(s, "A2", alternatives * 2, 1e-9, varied="A1")
    assert len(validated) == len(admitted) == len(walks) == 1


def test_a_check_leaves_the_original_candidates_table_for_evaluate_in_order():
    for s, target, varied in [(eprb(0.3, 1.2), "B", "A"), (reordered_conditional_scenario(), "A2", "A1")]:
        v_st = s.station(varied)
        alternatives = [LocalIntervention(v_st.subsystem, random_intervention(2, [2, 2], seed=130))]
        report = check_no_signaling(s, target, alternatives, 1e-9, varied=varied)
        left = s._memo.evaluation[1]
        result = evaluate_in_order(s, report.ordering)
        assert result.probabilities == left and result.probabilities is not left and result.scenario is s
        cold = evaluate_in_order(replace(s), report.ordering).probabilities
        assert result.probabilities.keys() == cold.keys()
        assert max(abs(result.probabilities[rec] - p) for rec, p in cold.items()) <= 1e-15


def test_a_swapped_copy_shares_every_derived_field_but_its_stations_growth_and_memo():
    s = reordered_conditional_scenario()
    evaluate_in_order(s, linear_extensions(s._covering, s.events())[0])
    alternative = LocalIntervention(2, random_intervention(2, [1, 3], seed=90))
    swapped = s._with_station("A2", alternative)
    assert type(swapped) is type(s) and list(swapped.__dict__) == list(s.__dict__)
    own = {"stations", "_by_id", "growth", "_memo"}
    assert all(swapped.__dict__[k] is v for k, v in s.__dict__.items() if k not in own)
    assert all(swapped.__dict__[k] is not v for k, v in s.__dict__.items() if k in own)
    assert swapped.stations == tuple(swapped.station(st.id) for st in s.stations) and swapped.station("A2").local is alternative
    assert all(swapped.station(st.id) is st for st in s.stations if st.id != "A2")
    assert swapped.growth == swapped._station_growth() * s._evolution_growth and swapped._memo.evaluation is None


def shared_and_rebuilt_reports(s, target, alternatives, varied):
    """The report from ``s``, which may remember earlier calls, and from a fresh copy of it."""
    shared = check_no_signaling(s, target, alternatives, 1e-9, varied=varied)
    rebuilt = check_no_signaling(replace(s), target, alternatives, 1e-9, varied=varied)
    return shared, rebuilt


def test_sharing_evaluations_changes_no_no_signaling_report(monkeypatch):
    walks = count_walks(monkeypatch)
    pairs = []
    for seed in range(200):
        s = random_product_scenario(seed=seed)
        for varied in s.stations:
            alternatives = criterion_05_alternatives(varied, seed)
            for target in s.stations:
                if target.id != varied.id:
                    pairs.append(shared_and_rebuilt_reports(s, target.id, alternatives, varied.id))
    s = eprb(0.0, math.pi / 3.0)
    analyzers = [LocalIntervention(0, spin_analyzer(a)) for a in (0.0, math.pi / 2.0, math.pi / 4.0)]
    pairs.append(shared_and_rebuilt_reports(s, "B", [*analyzers, LocalIntervention(0, identity_iv())], "A"))
    hadamard = LocalIntervention(0, Intervention(d_in=2, outcomes=(Outcome("h", 2, (HADAMARD,)),)))
    s = noncommuting_counterexample()
    pairs.append(shared_and_rebuilt_reports(s, "X", [hadamard], "Z"))
    pairs.append(shared_and_rebuilt_reports(s, "X", [hadamard], "Z"))
    for shared, rebuilt in pairs:
        assert (shared.ok, shared.worst, shared.witness, shared.ordering) == (
            rebuilt.ok, rebuilt.worst, rebuilt.witness, rebuilt.ordering
        )
    assert len(pairs) == 1262 + 3
    assert not pairs[-1][0].ok and pairs[-1][0].worst == pytest.approx(0.5, abs=1e-12)
    # Shared: one walk per varied station of the sweep (587, each of three candidates),
    # one for eprb and one for the control, which its second call reads back. Rebuilt:
    # one per call, whatever its number of candidates.
    assert len(walks) == (587 + 1 + 1) + (1262 + 1 + 2)


def test_no_signaling_reports_and_tables_keep_their_bits():
    # Criterion 05's pairs on seeds 0-49 and the benchmark's two controls, each report and every
    # candidate's remembered table hashed with floats as float.hex. The earlier reader, which
    # sliced each candidate's blocks out of the last levels, gave the same digest.
    digest = hashlib.sha256()

    def add(s, target, alternatives, varied):
        r = check_no_signaling(s, target, alternatives, 1e-9, varied=varied)
        w = r.witness and (r.witness.label, r.witness.candidate_low, r.witness.candidate_high,
                           r.witness.p_low.hex(), r.witness.p_high.hex())
        digest.update(repr((r.ok, r.worst.hex(), r.alternatives_checked, r.ordering, w)).encode())
        for c in s._memo.signaling[1]:
            digest.update(repr([(rec, p.hex()) for rec, p in c._memo.evaluation[1].items()]).encode())

    for seed in range(50):
        s = random_product_scenario(seed=seed)
        for varied in s.stations:
            alternatives = criterion_05_alternatives(varied, seed)
            for target in s.stations:
                if target.id != varied.id:
                    add(s, target.id, alternatives, varied.id)

    def unitary(matrix):
        return LocalIntervention(0, Intervention(d_in=2, outcomes=(Outcome("u", 2, (CMatrix(matrix),)),)))

    analyzers = [LocalIntervention(0, spin_analyzer(a)) for a in (0.0, math.pi / 2.0, math.pi / 4.0)]
    add(eprb(0.0, math.pi / 3.0), "B", [*analyzers, unitary(np.eye(2))], "A")
    add(noncommuting_counterexample(), "X", [unitary(np.array([[1.0, 1.0], [1.0, -1.0]]) / math.sqrt(2.0))], "Z")
    assert digest.hexdigest() == "63a1af672e0e2cea3d18700969857ef4ee19a92be6c1e2b7bedea8d4afa9612f"


# ------------------------------------------- one walk for every no-signaling candidate


def assert_union_tables_match_own_walks(walks, s, target, alternatives, varied):
    """A cold check walks once (``walks`` from ``count_walks``); its tables against each candidate's own walk."""
    before = len(walks)
    report = check_no_signaling(s, target, alternatives, 1e-9, varied=varied)
    order = experiment._varied_first_ids(s, varied)
    assert walks[before:] == [order]
    _, candidates = s._memo.signaling
    assert candidates[0] is s
    # The original and its copies, each once.
    for c in {id(c): c for c in candidates}.values():
        remembered, table = c._memo.evaluation
        own = experiment._record_tables(experiment._walk(c, order), [c.growth])[0]
        assert remembered == order and list(table) == list(own)
        assert max(abs(table[rec] - p) for rec, p in own.items()) <= 1e-15
    return report


def conditioned_on_the_varied_station():
    """V's outcome selects C's case and a unitary on its qubit between them; T is spacelike to both.

    The state is mixed, V is not spent (C acts on its qubit later), C is
    spent and one of its cases has outcomes of 1 and 3 dimensions.
    """
    cases = {
        ("o0",): random_intervention(2, [2, 2], seed=112),
        ("o1",): random_intervention(2, [1, 3], seed=113),
        ("o2",): random_intervention(2, [2], seed=114),
    }
    return Scenario(
        dims0=(2, 2),
        rho0=random_density(4, seed=110, rank=2),
        stations=(
            station("V", 0.0, 0.0, 0, random_intervention(2, [2, 2], seed=111)),
            Station(Event("C", 1.0, 0.0), ConditionalLocal(0, ("V",), cases)),
            station("T", 2.0, 10.0, 1, random_intervention(2, [2, 2], seed=115)),
        ),
        evolutions=(Evolution("V", "C", CMatrix(np.kron(haar_unitary(2, seed=116).array, np.eye(2))), history={"V": "o1"}),),
    )


def varied_after_a_free_station():
    """P, on its own qubit, lies in V's causal past, and V does not condition on it; T is spacelike to both.

    The varied-first ordering fires P before V; every station is spent, so
    each walk ends in one level, free at P and V.
    """
    return Scenario(
        dims0=(2, 2, 2),
        rho0=random_density(8, seed=130, rank=3),
        stations=(
            station("P", 0.0, 0.0, 1, random_intervention(2, [2, 2], seed=131)),
            station("V", 1.0, 0.0, 0, random_intervention(2, [2, 2], seed=132)),
            station("T", 1.0, 10.0, 2, random_intervention(2, [2, 2, 2], seed=133)),
        ),
    )


def test_the_union_walk_matches_each_candidates_own_walk(monkeypatch):
    walks = count_walks(monkeypatch)
    # A conditional original at A1, resolved per case, not spent (an evolution
    # follows Z): on R = z- its case's outcomes of 1, 3 and 1 dimensions and
    # the alternatives' of 2 are cut per union outcome, on R = z+ none is.
    s = reordered_conditional_scenario()
    alternatives = [LocalIntervention(1, random_intervention(2, [2, 2], seed=100)),
                    LocalIntervention(1, random_intervention(2, [2], seed=101))]
    assert assert_union_tables_match_own_walks(walks, s, "A2", alternatives, "A1").ok
    # A station and an evolution keyed on the varied station's outcome; one alternative twice.
    s = conditioned_on_the_varied_station()
    alternatives = [LocalIntervention(0, random_intervention(2, k * [2], seed=117 + k)) for k in (2, 3)]
    report = assert_union_tables_match_own_walks(walks, s, "T", [*alternatives, alternatives[0]], "V")
    assert report.ok and report.ordering == ("V", "C", "T") and report.alternatives_checked == 4
    # P's outcomes lead V's in the last level, so each candidate's records come in two strided runs.
    s = varied_after_a_free_station()
    alternatives = [LocalIntervention(0, random_intervention(2, [2, 2, 2], seed=134)),
                    LocalIntervention(0, random_intervention(2, [1, 1], seed=135))]
    report = assert_union_tables_match_own_walks(walks, s, "T", alternatives, "V")
    assert report.ok and report.ordering == ("P", "V", "T")
    for seed in range(200):
        s = random_product_scenario(seed=seed)
        for varied in s.stations:
            target = next(st for st in s.stations if st.id != varied.id)
            alternatives = criterion_05_alternatives(varied, seed)
            assert_union_tables_match_own_walks(walks, s, target.id, alternatives, varied.id)
    analyzers = [LocalIntervention(0, spin_analyzer(a)) for a in (0.0, math.pi / 2.0, math.pi / 4.0)]
    eprb_report = assert_union_tables_match_own_walks(
        walks, eprb(0.0, math.pi / 3.0), "B", [*analyzers, LocalIntervention(0, identity_iv())], "A"
    )
    assert eprb_report.ok and eprb_report.worst < 1e-12
    hadamard = LocalIntervention(0, Intervention(d_in=2, outcomes=(Outcome("h", 2, (HADAMARD,)),)))
    control = assert_union_tables_match_own_walks(walks, noncommuting_counterexample(), "X", [hadamard], "Z")
    assert not control.ok and control.worst == pytest.approx(0.5, abs=1e-12)


def fault_union_walks(monkeypatch, faults):
    """Make every union walk's last levels carry ``faults``; returns each faulted candidate's sum, updated per walk.

    ``faults[k]`` maps candidate k's part of a level free at the varied
    station, its ``tr`` as (stations fired before, candidate k's outcomes,
    stations fired after), to new values. The sum adds candidate k's
    probabilities in the order the reader does.
    """
    walk, sums = experiment._walk, {}

    def faulty(s, order, *args, **kwargs):
        levels, varied = walk(s, order, *args, **kwargs), kwargs.get("varied")
        if varied is None:
            return levels
        sums.clear()
        faulted = []
        for lv in levels:
            free = [(sid, iv) for sid, iv in lv.fired if sid not in lv.fixed]
            axis = next(a for a, (sid, _) in enumerate(free) if sid == varied)
            starts = free[axis][1].starts
            tr = lv.tr.reshape(math.prod(len(iv.outcomes) for _, iv in free[:axis]), starts[-1], -1).copy()
            for k, fault in faults.items():
                part = fault(tr[:, starts[k] : starts[k + 1]])
                tr[:, starts[k] : starts[k + 1]] = part
                sums[k] = sum(part.reshape(-1).tolist(), sums.get(k, 0.0))
            faulted.append(replace(lv, tr=tr.reshape(-1)))
        return faulted

    monkeypatch.setattr(experiment, "_walk", faulty)
    return sums


def test_a_union_walk_that_raises_seeds_no_memo(monkeypatch):
    # A qutrit alternative on A's qubit raises the message its own walk gave.
    s = eprb(0.0, 1.0)
    assert check_no_signaling(s, "A", [LocalIntervention(1, identity_iv())], 1e-9, varied="B").ok
    kept, remembered = s._memo.signaling, s._memo.evaluation
    qutrit = LocalIntervention(0, random_intervention(3, [3], seed=120))
    message = "station 'A' at this point in the chain: factor 0 has dimension 2, but the local intervention expects d_in 3"
    with pytest.raises(DimensionError, match=re.escape(message)):
        check_no_signaling(s, "B", [LocalIntervention(0, identity_iv()), qutrit], 1e-9, varied="A")
    assert s._memo.signaling is kept and s._memo.evaluation is remembered
    # One-dimensional outcomes at Z leave X a qubit intervention on a one-dimensional factor.
    control = noncommuting_counterexample()
    collapse = LocalIntervention(0, random_intervention(2, [1, 1], seed=121))
    message = "station 'X' at this point in the chain: factor 0 has dimension 1, but the local intervention expects d_in 2"
    with pytest.raises(DimensionError, match=re.escape(message)):
        check_no_signaling(control, "X", [collapse], 1e-9, varied="Z")
    assert control._memo.evaluation is None and control._memo.signaling is None
    # The last candidate's sum fails after the others' tables were built: the slot and the memo stay.
    fault_union_walks(monkeypatch, {2: lambda tr: tr * 1.5})
    alternatives = [LocalIntervention(0, identity_iv()), LocalIntervention(0, spin_analyzer(0.4))]
    with pytest.raises(ValueError, match="sum of record probabilities.*internal invariant failure"):
        check_no_signaling(s, "B", alternatives, 1e-9, varied="A")
    assert s._memo.signaling is kept and s._memo.evaluation is remembered


def test_the_first_failing_candidate_names_the_failure(monkeypatch):
    # Candidates 1 (the identity at A) and 2 (an analyzer) both fail, each its own way.
    s = eprb(0.0, 1.0)
    alternatives = [LocalIntervention(0, identity_iv()), LocalIntervention(0, spin_analyzer(0.4))]
    faults = {}
    sums = fault_union_walks(monkeypatch, faults)

    def one_record_at_2(tr):
        tr = tr.copy()
        tr.flat[0] = 2.0
        return tr

    faults.update({1: lambda tr: tr * 1.5, 2: one_record_at_2})
    with pytest.raises(ValueError) as raised:
        check_no_signaling(s, "B", alternatives, 1e-9, varied="A")
    assert str(raised.value).startswith(f"sum of record probabilities is {sums[1]!r}, ")
    faults.update({1: one_record_at_2, 2: lambda tr: tr * 1.5})
    with pytest.raises(ValueError, match=re.escape("probability of record (('A', 'id'), ('B', '+')) is 2.0, ")):
        check_no_signaling(s, "B", alternatives, 1e-9, varied="A")
    assert s._memo.signaling is None and s._memo.evaluation is None


def test_equal_but_distinct_alternatives_share_one_copy_and_one_table(monkeypatch):
    unions = count_calls(monkeypatch, "_unions")
    s = eprb(0.0, 1.0)
    analyzer = spin_analyzer(0.4)
    a, b = LocalIntervention(0, analyzer), LocalIntervention(0, replace(analyzer))
    # Built anew, an analyzer at the same angle holds other matrices, so it is another alternative.
    c = LocalIntervention(0, spin_analyzer(0.4))
    assert a == b and a is not b and a.local is not b.local and a != c
    report = check_no_signaling(s, "B", [a, c, b], 1e-9, varied="A")
    assert report.ok and report.alternatives_checked == 4
    assert [len(args[2]) for args, _ in unions] == [2]
    _, candidates = s._memo.signaling
    assert candidates[0] is s and candidates[1] is candidates[3]
    assert len({id(v) for v in candidates}) == len({id(v._memo.evaluation[1]) for v in candidates}) == 3
    assert candidates[1].station("A").local is a and candidates[2].station("A").local is c


def test_a_report_with_the_original_warm_equals_the_all_cold_report(monkeypatch):
    walks = count_walks(monkeypatch)
    overwritten, stations, pairs = 0, 0, 0
    for seed in range(50):
        s = random_product_scenario(seed=seed)
        for varied in s.stations:
            both = criterion_05_alternatives(varied, seed)
            # The original's own walk, in the check's ordering, before any check of this station.
            own = evaluate_in_order(s, experiment._varied_first_ids(s, varied.id)).probabilities
            stations += 1
            for target in s.stations:
                if target.id == varied.id:
                    continue
                # Both alternatives twice, then the first alone while the copies of both are warm.
                for alternatives in (both, both, both[:1]):
                    warm = check_no_signaling(s, target.id, alternatives, 1e-9, varied=varied.id)
                    cold = check_no_signaling(replace(s), target.id, alternatives, 1e-9, varied=varied.id)
                    assert (warm.ok, warm.worst, warm.witness, warm.ordering) == (
                        cold.ok, cold.worst, cold.witness, cold.ordering
                    )
                pairs += 1
            overwritten += s._memo.evaluation[1] != own
    # The shared s walks its own ordering once per varied station, then per pair for both
    # alternatives and again for the first alone, reading its memos back once; every cold check walks.
    assert len(walks) == stations + pairs * (2 + 3)
    # The union walk's table replaced the own walk's, and differs from it in the last bits somewhere.
    assert overwritten > 0


def test_a_check_after_any_other_call_equals_a_cold_check(monkeypatch):
    walks = count_walks(monkeypatch)
    checks = 0
    for seed in range(20):
        s = random_product_scenario(seed=seed)
        for varied in s.stations:
            target = next(st for st in s.stations if st.id != varied.id)
            alternatives = criterion_05_alternatives(varied, seed)
            order = experiment._varied_first_ids(s, varied.id)
            other = next(o for o in linear_extensions(s._covering, s.events()) if o != order)
            wrong_d = LocalIntervention(varied.subsystem, random_intervention(varied.resolve({}).d_in + 1, [4], seed=seed))
            cold = check_no_signaling(replace(s), target.id, alternatives, 1e-9, varied=varied.id)

            def warm():
                return check_no_signaling(s, target.id, alternatives, 1e-9, varied=varied.id)

            # Another ordering evaluated before the slot is set, and again once it is: the slot
            # and the ordering it left are read back without a walk.
            evaluate_in_order(s, other)
            assert warm() == cold
            evaluate_in_order(s, other)
            before = len(walks)
            assert s._memo.evaluation[0] == order and warm() == cold and len(walks) == before
            # A check of another alternatives list, then of another varied station.
            check_no_signaling(s, target.id, alternatives[:1], 1e-9, varied=varied.id)
            assert warm() == cold
            check_no_signaling(s, varied.id, criterion_05_alternatives(target, seed), 1e-9, varied=target.id)
            assert warm() == cold
            # A check that raised.
            with pytest.raises(DimensionError):
                check_no_signaling(s, target.id, [wrong_d], 1e-9, varied=varied.id)
            assert warm() == cold
            # A repeat reads the slot back.
            before = len(walks)
            assert warm() == cold and len(walks) == before
            checks += 1
    assert checks > 40


def test_a_copys_growth_is_bit_identical_to_a_rebuilt_scenarios():
    cases = []
    for seed in range(200):
        s = random_product_scenario(seed=seed)
        cases += [(s, v.id, alt) for v in s.stations for alt in criterion_05_alternatives(v, seed)]
    s = reordered_conditional_scenario()
    cases += [(s, sid, LocalIntervention(s.station(sid).subsystem, random_intervention(2, [1, 3], seed=130)))
              for sid in ("A1", "A2", "A3", "Z")]
    for s, sid, alternative in cases:
        swapped = s._with_station(sid, alternative)
        rebuilt = Scenario(dims0=s.dims0, rho0=s.rho0, stations=swapped.stations, evolutions=s.evolutions)
        # Each station's largest growth, from every intervention it may fire, in station order.
        product = math.prod(max(iv.growth for iv in st.interventions().values()) for st in rebuilt.stations)
        assert swapped.growth == rebuilt.growth == product * rebuilt._evolution_growth


def sorted_varied_first(s, varied):
    """Reference: every station sorted by (outside the varied station's past, t, id)."""
    head = s._pasts[0][varied] | {varied}
    return tuple(st.id for st in sorted(s.stations, key=lambda st: (st.id not in head, st.event.t, st.id)))


def test_varied_first_ids_equal_a_sort_of_every_station():
    # Ties in t within and across the varied station's past, ids out of time order.
    tied = Scenario(
        dims0=(2, 2, 2),
        rho0=maximally_mixed(8),
        stations=(
            station("c", 0.0, 0.0, 0, z_iv()),
            station("a", 0.0, 5.0, 1, z_iv()),
            station("e", 1.0, -9.0, 2, z_iv()),
            station("b", 1.0, 5.0, 1, z_iv()),
            station("d", 1.0, 0.0, 0, z_iv()),
        ),
    )
    scenarios = [random_product_scenario(seed=k) for k in range(200)]
    scenarios += [*builtin_scenarios().values(), reordered_conditional_scenario(), tied]
    for s in scenarios:
        for st in s.stations:
            assert experiment._varied_first_ids(s, st.id) == sorted_varied_first(s, st.id), (s.events(), st.id)
    assert experiment._varied_first_ids(tied, "b") == ("a", "b", "c", "d", "e")
    assert experiment._varied_first_ids(tied, "e") == ("e", "a", "c", "b", "d")


# ----------------------------------- no-signaling refuses dynamics that decide the verdict

CNOT = CMatrix(np.eye(4, dtype=complex)[[0, 1, 3, 2]])
ONE_X = Intervention(d_in=2, outcomes=(Outcome("x", 2, (CMatrix(np.array([[0.0, 1.0], [1.0, 0.0]])),)),))


def cnot_scenario(v_angle=0.0, after="V"):
    """|00>; V at (0, -5) analyzes qubit 0 at ``v_angle``, T at (0, 5) measures Z on qubit 1.

    A CNOT controlled by qubit 0 sits after V and before T, so some
    orderings apply it and others do not. ``v_angle`` 0 measures Z, the
    CNOT's control basis, pi/2 measures X. With ``after`` "W", a station in
    T's causal future measures Z on qubit 1 again and the CNOT sits after W
    and before V instead.
    """
    rho = np.zeros((4, 4), dtype=complex)
    rho[0, 0] = 1.0
    stations = [station("V", 0.0, -5.0, 0, spin_analyzer(v_angle)), station("T", 0.0, 5.0, 1, z_iv())]
    if after == "W":
        stations.append(station("W", 2.0, 5.0, 1, z_iv(labels=("u", "d"))))
    return Scenario(
        dims0=(2, 2),
        rho0=CMatrix(rho),
        stations=tuple(stations),
        evolutions=(Evolution(after, "V" if after == "W" else "T", CNOT),),
    )


def test_no_signaling_refuses_a_movable_evolution_that_can_change_the_target(capsys, tmp_path):
    def refused(target):
        return re.escape(f"evolution after 'V' and before 'T' is order-dependent for target {target!r}")

    # Varied V: in (V, T) the CNOT flips T's qubit after V's outcome, in (T, V) it never fires.
    s = cnot_scenario()
    with pytest.raises(ValueError, match=refused("T")):
        check_no_signaling(s, "T", [LocalIntervention(0, ONE_X)], 1e-9, varied="V")
    # Varied T, target V: Z on the control commutes with the CNOT; X does not.
    report = check_no_signaling(s, "V", [LocalIntervention(1, ONE_X)], 1e-9, varied="T")
    assert report.ok and report.worst <= 1e-12 and report.ordering == ("T", "V")
    with pytest.raises(ValueError, match=refused("V")):
        check_no_signaling(cnot_scenario(math.pi / 2.0), "V", [LocalIntervention(1, ONE_X)], 1e-9, varied="T")
    # After W, in T's causal future, the CNOT fires after T in every ordering.
    report = check_no_signaling(cnot_scenario(after="W"), "T", [LocalIntervention(0, ONE_X)], 1e-9, varied="V")
    assert report.ok and report.worst <= 1e-12
    # A unitary on V's qubit alone commutes with T's POVM.
    s = conditioned_on_the_varied_station()
    report = check_no_signaling(s, "T", [LocalIntervention(0, random_intervention(2, [2, 2], seed=119))], 1e-9, varied="V")
    assert report.ok and report.worst <= 1e-12
    # Through the CLI: exit 2 with the message, no traceback, and exit 0 the other way.
    path = tmp_path / "cnot.json"
    path.write_text(serialize_scenario(cnot_scenario()), encoding="utf-8")
    assert cli.main(["check-no-signaling", str(path), "--varied", "V", "--target", "T"]) == 2
    err = capsys.readouterr().err
    assert "order-dependent" in err and "Traceback" not in err
    assert cli.main(["check-no-signaling", str(path), "--varied", "T", "--target", "V"]) == 0


def test_a_movable_evolution_of_another_size_than_dims0_counts_as_reaching_the_target():
    # V teleports its qubit into a qutrit; a permutation of that qutrit alone
    # commutes with T's POVM, but it cannot be lifted to dims0, so it is refused.
    s = Scenario(
        dims0=(2, 2),
        rho0=maximally_mixed(4),
        stations=(station("V", 0.0, -5.0, 0, teleport_intervention(3)), station("T", 0.0, 5.0, 1, z_iv())),
        evolutions=(Evolution("V", "T", CMatrix(np.kron(np.eye(3)[[1, 2, 0]], np.eye(2)))),),
    )
    with pytest.raises(ValueError, match="order-dependent for target 'T'"):
        check_no_signaling(s, "T", [LocalIntervention(0, teleport_intervention(3))], 1e-9, varied="V")
