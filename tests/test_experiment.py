import math
import tracemalloc

import numpy as np
import pytest

from spacelike import experiment, tolerance
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
    evaluate_orderings,
    marginal,
)
from spacelike.scenarios import (
    builtin_scenarios,
    eprb,
    noncommuting_counterexample,
    random_product_scenario,
    spin_analyzer,
)
from spacelike.spacetime import Event, Frame, linear_extensions

P0 = CMatrix(np.diag([1.0, 0.0]).astype(complex))
P1 = CMatrix(np.diag([0.0, 1.0]).astype(complex))
PPLUS = CMatrix(0.5 * np.ones((2, 2), dtype=complex))
PMINUS = CMatrix(np.eye(2, dtype=complex) - PPLUS.array)
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


# ---------------------------------------------------------------- evaluation


def test_single_identity_station():
    rho = maximally_mixed()
    s = Scenario(dims0=(2,), rho0=rho, stations=(station("A", 0.0, 0.0, 0, identity_iv()),))
    result = evaluate_in_order(s, ["A"])
    assert result.probabilities == {(("A", "id"),): pytest.approx(1.0)}
    assert max_abs_diff(result.final_states[(("A", "id"),)], rho) == 0.0


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


def test_subsystem_index_out_of_range_names_station():
    s = Scenario(
        dims0=(2,),
        rho0=maximally_mixed(),
        stations=(station("A", 0.0, 0.0, 1, z_iv()),),
    )
    with pytest.raises(DimensionError, match="'A'"):
        evaluate_in_order(s, ["A"])


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
    s = eprb(0.0, 1.0, layout=(Event("A", 0.0, 1.0), Event("B", 0.0, -1.0)))
    with pytest.raises(TieError) as excinfo:
        evaluate_in_frame(s, Frame(0.0))
    pairs = excinfo.value.report.pairs
    assert ("A", "B") in pairs or ("B", "A") in pairs


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
    report = check_no_signaling(s, "B", alternatives, 1e-9)
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


def test_no_signaling_witness_names_target_outcome_and_candidates():
    # Z fires first on |0>: X's x+ marginal is 1/2 under the original, 1 under a Hadamard.
    hadamard = Intervention(d_in=2, outcomes=(Outcome("h", 2, (HADAMARD,)),))
    s = noncommuting_counterexample()
    report = check_no_signaling(s, "X", [LocalIntervention(0, hadamard)], 1e-9, varied="Z")
    assert not report.ok
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
    # rho0 was validated when s was built; its factor is computed once and shared.
    assert calls == {"cholesky": 0, "eigh": 1}


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
    # causal() hands out a copy the caller may change.
    mine = s.causal()
    mine.add(("x", "y"))
    assert ("x", "y") not in s.causal() and len(closures) == 1


def test_a_1100_station_chain_certifies_and_evaluates_within_45_mb():
    # The causal order is held once, as each station's past; this chain's
    # 604,450 pairs held again as a set of tuples would take some 75 MB.
    s = Scenario(
        dims0=(2,),
        rho0=maximally_mixed(),
        stations=tuple(station(f"c{i}", 2.0 * i, 0.0, 0, identity_iv()) for i in range(1100)),
    )
    tracemalloc.start()
    try:
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


def test_no_signaling_inference_requires_unambiguous_station():
    s = eprb(0.0, 1.0)
    with pytest.raises(ValueError, match="empty"):
        check_no_signaling(s, "B", [], 1e-9)
    report = check_no_signaling(s, "B", [LocalIntervention(0, identity_iv())], 1e-9)
    assert report.varied == "A"


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


# ------------------------------------------------- leaf step and final states


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


def assert_leaf_step_matches_state_path(s, orders=None, final_states=True):
    """Probabilities and final states equal the reference recursion's within 1e-12.

    The probabilities come from the batched factor walk and, at the last
    station, from the POVM leaf step, both one ordering at a time and for
    every ordering in one call; the final states from the same walk with
    every branch built.
    """
    lifted = {}
    orders = orders or linear_extensions(s.causal(), s.events())
    together = evaluate_orderings(s, orders)
    assert [r.ordering for r in together] == [tuple(order) for order in orders]
    for order, batched in zip(orders, together):
        want = reference_final_states(s, order, lifted)
        result = evaluate_in_order(s, order)
        assert result.probabilities.keys() == batched.probabilities.keys() == want.keys(), order
        for rec, state in want.items():
            assert abs(result.probabilities[rec] - trace(state).real) <= 1e-12, (order, rec)
            assert abs(batched.probabilities[rec] - result.probabilities[rec]) <= 1e-12, (order, rec)
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


def test_leaf_step_matches_state_path_on_random_products():
    for k in range(200):
        assert_leaf_step_matches_state_path(random_product_scenario(seed=k))


def test_leaf_step_matches_state_path_on_builtins():
    for s in builtin_scenarios().values():
        assert_leaf_step_matches_state_path(s)


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


def test_leaf_step_matches_state_path_on_a_dimension_changing_middle_factor(monkeypatch):
    # Full rank 18: the first station's branches, 18 wide, have 12 or fewer dimensions.
    recompressed = count_calls(monkeypatch, "_recompress")
    assert_leaf_step_matches_state_path(middle_factor_scenario(random_density(18, seed=5)))
    assert recompressed
    for (v,), r in recompressed:
        assert v.shape[2] > v.shape[1] and r.shape == (v.shape[0], v.shape[1], v.shape[1])


def test_factor_path_matches_state_path_on_a_mixed_two_kraus_scenario(monkeypatch):
    # Rank 3 times two Kraus matrices stays within every dimension the chain reaches.
    branches = count_calls(monkeypatch, "_branches")
    recompressed = count_calls(monkeypatch, "_recompress")
    s = middle_factor_scenario(random_density(18, seed=5, rank=3))
    assert_leaf_step_matches_state_path(s)
    assert s._factor.shape == (18, 3)
    assert branches and not recompressed
    for _, out in branches:
        n, b, d_out, a, width = out.shape
        assert width <= b * d_out * a


def test_pure_single_kraus_scenario_takes_the_factor_path(monkeypatch):
    branches = count_calls(monkeypatch, "_branches")
    leaves = count_calls(monkeypatch, "_outcome_probabilities")
    evaluate_in_order(eprb(0.3, 1.2), ["A", "B"])
    # One batched contraction builds both of A's branches; B's outcome
    # probabilities, for both branches at once, come from the POVM leaf step.
    assert len(branches) == 1 and branches[0][1].shape[:1] == (2,)
    assert len(leaves) == 1 and leaves[0][1].shape == (4,)


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
        assert_leaf_step_matches_state_path(s)
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


def test_leaf_step_matches_state_path_on_a_conditional_last_station():
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
    assert_leaf_step_matches_state_path(s, [["A", "B"]])


def test_final_evolution_after_the_last_station_takes_the_state_path(monkeypatch):
    def unreachable(*args):
        raise AssertionError("the POVM leaf step ran before a final evolution")

    s = timelike_chain_scenario(
        rho0=random_density(2, seed=7),
        evolutions=(Evolution("Q", None, HADAMARD, history={"Q": "x+"}),),
    )
    monkeypatch.setattr(experiment, "_outcome_probabilities", unreachable)
    assert_leaf_step_matches_state_path(s)


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
    assert_leaf_step_matches_state_path(s)


def test_leaf_step_matches_state_path_with_bottleneck_evolutions():
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
    assert_leaf_step_matches_state_path(s)


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


# ------------------------------------------------------------ ordering layer


def extension_scan_admits(extensions, after, before):
    """Reference: the evolution keeps its chain position in every linear extension."""
    if after is None:
        return all(ext[0] == before for ext in extensions)
    if before is None:
        return all(ext[-1] == after for ext in extensions)
    return all(ext.index(before) == ext.index(after) + 1 for ext in extensions)


def test_evolution_rule_equals_the_extension_scan():
    rng = np.random.default_rng(40)
    verdicts = {True: 0, False: 0}
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
        causal = s.causal()
        extensions = linear_extensions(causal, s.events())
        ends = [None, *(st.id for st in s.stations)]
        for after in ends:
            for before in ends:
                if after is None and before is None:
                    continue
                probe = Scenario(
                    dims0=s.dims0,
                    rho0=s.rho0,
                    stations=s.stations,
                    evolutions=(Evolution(after, before, HADAMARD),),
                )
                expected = extension_scan_admits(extensions, after, before)
                try:
                    experiment._require_order_comparable(probe)
                    admitted = True
                except ValueError as exc:
                    assert "not first" in str(exc) and "reorderable" in str(exc)
                    admitted = False
                assert admitted == expected, (s.events(), after, before)
                verdicts[admitted] += 1
    assert verdicts[True] > 100 and verdicts[False] > 100, verdicts


def test_invariance_witness_breaks_ties_by_ordering():
    # Equal probabilities: the low ordering is the least, the high the greatest.
    rec = (("A", "a0"),)
    spread = {("A", "B", "C"): 0.5, ("B", "A", "C"): 0.5, ("C", "B", "A"): 0.1, ("B", "C", "A"): 0.1}
    results = [experiment.EvaluationResult(o, {rec: p}, scenario=None) for o, p in spread.items()]
    for ordered in (results, results[::-1]):
        w = experiment.compare_orderings(ordered, 1e-9).witness
        assert (w.order_low, w.p_low) == (("B", "C", "A"), 0.1)
        assert (w.order_high, w.p_high) == (("B", "A", "C"), 0.5)


def test_chunk_reduction_keeps_each_records_witness_orderings():
    # Per column, the least and greatest (value, key), as the witness rule picks them.
    rng = np.random.default_rng(90)
    keys = sorted({tuple(rng.permutation(5).tolist()) for _ in range(40)})
    rng.shuffle(keys)
    table = rng.integers(0, 3, size=(len(keys), 6)).astype(float)
    low, high = experiment._extremes(table, keys)
    for e in range(table.shape[1]):
        values = list(zip(table[:, e].tolist(), keys))
        assert (table[low[e], e], keys[low[e]]) == min(values)
        assert (table[high[e], e], keys[high[e]]) == max(values)


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


# ---------------------------------------------------- orderings walked together


def reordered_conditional_scenario():
    """Six orderings through a conditional station, a dimension change and keyed evolutions.

    R fires first and Z last; A1, A2 and A3 are mutually spacelike between
    them. A1's case depends on R and has two or three outcomes of 2 or of
    1, 3 and 1 dimensions, A3 grows its qubit to a qutrit, and a
    history-keyed evolution follows Z on the R = z+ branches, so prefixes
    of different padded dims share a station and the last station's
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
    assert len(linear_extensions(s.causal(), s.events())) == 6
    assert_leaf_step_matches_state_path(s)
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
    assert len(linear_extensions(s.causal(), s.events())) == 6
    assert_leaf_step_matches_state_path(s)


def every_ordering(s, tol=1e-9):
    """The exhaustive walk over every linear extension, whether or not the pairwise certificate holds."""
    return experiment._exhaustive(s, tol, linear_extensions(s.causal(), s.events()))


def test_one_contraction_per_depth_and_station_for_every_ordering(monkeypatch):
    # Four mutually spacelike stations: 24 orderings of 4 stations each would
    # make 96 contractions one ordering at a time; together they make one per
    # (depth, station), four at each of the four depths.
    branches = count_calls(monkeypatch, "_branches")
    leaves = count_calls(monkeypatch, "_outcome_probabilities")
    report = every_ordering(ghz_scenario([0.4, 1.1, 1.8, 2.5]))
    assert report.ok and report.orders_checked == 24
    assert (len(branches), len(leaves)) == (12, 4)


def test_chunked_walks_match_one_walk(monkeypatch):
    # Four stations, one pair of them noncommuting on one qubit: a spread of
    # 0.25, ties between orderings and witnesses that chunking must keep.
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
    whole = [
        (every_ordering(s), evaluate_orderings(s, linear_extensions(s.causal(), s.events())))
        for s in scenarios
    ]
    for bound in (1, 2_000):
        monkeypatch.setattr(experiment, "MAX_LEVEL_BYTES", bound)
        for s, (report, results) in zip(scenarios, whole):
            chunked = every_ordering(s)
            assert (chunked.ok, chunked.orders_checked, chunked.witness is None) == (
                report.ok, report.orders_checked, report.witness is None
            )
            assert abs(chunked.worst - report.worst) <= 1e-15
            if report.witness is not None:
                w, v = chunked.witness, report.witness
                assert (w.record, w.order_low, w.order_high) == (v.record, v.order_low, v.order_high)
                assert abs(w.p_low - v.p_low) <= 1e-15 and abs(w.p_high - v.p_high) <= 1e-15
            for a, b in zip(evaluate_orderings(s, [r.ordering for r in results]), results):
                assert a.ordering == b.ordering and a.probabilities.keys() == b.probabilities.keys()
                for rec, p in b.probabilities.items():
                    assert abs(a.probabilities[rec] - p) <= 1e-12
    report = whole[-1][0]
    assert not report.ok and report.worst > 0.1
    # The witness follows the rule over every ordering's probabilities at once.
    assert report.witness == experiment.compare_orderings(whole[-1][1], 1e-9).witness


def test_chunks_respect_the_level_bound(monkeypatch):
    s = random_product_scenario(seed=3)
    orders = linear_extensions(s.causal(), s.events())
    per_ordering = experiment._level_bytes(s)
    monkeypatch.setattr(experiment, "MAX_LEVEL_BYTES", 5 * per_ordering)
    chunks = experiment._chunks(s, orders)
    assert [len(c) for c in chunks] == [5, 5, 5, 5, 4]
    assert [o for c in chunks for o in c] == orders
    # A level never outgrows the bound it was sized by.
    levels = count_calls(monkeypatch, "_branches")
    every_ordering(s)
    assert max(out.nbytes for _, out in levels) <= 5 * per_ordering
    monkeypatch.setattr(experiment, "MAX_LEVEL_BYTES", 1)
    assert [len(c) for c in experiment._chunks(s, orders)] == [1] * 24


# ------------------------------------------------------ the pairwise certificate


def test_a_certified_scenario_is_evaluated_in_one_ordering(monkeypatch):
    s = ghz_scenario([0.4, 1.1, 1.8, 2.5])
    walks = count_calls(monkeypatch, "_walk")
    report = check_order_invariance(s, 1e-9)
    assert (report.ok, report.worst, report.orders_checked, report.witness) == (True, 0.0, 24, None)
    assert report.method == "pairwise" and report.as_dict()["method"] == "pairwise"
    assert [args[1] for args, _ in walks] == [[linear_extensions(s.causal(), s.events())[0]]]
    # The one walk keeps the evaluator's runtime checks.
    qutrit = random_intervention(3, [1, 2], seed=95)
    bad = Scenario(
        dims0=(2, 2),
        rho0=maximally_mixed(4),
        stations=(station("A", 0.0, 0.0, 0, qutrit), station("B", 0.0, 5.0, 1, z_iv())),
    )
    with pytest.raises(DimensionError, match="station 'A'"):
        check_order_invariance(bad, 1e-9)


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
    assert [r.probabilities for r in evaluate_orderings(s, [[], []])] == [{(): pytest.approx(1.0)}] * 2


def closure_admits(s, order):
    """Reference: the ordering places every pair of the closed causal order in order."""
    pos = {sid: i for i, sid in enumerate(order)}
    return all(pos[a] < pos[b] for a, b in s.causal())


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
