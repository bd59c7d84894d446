"""The tolerance policy end to end: inputs accepted at the edge of their
tolerances evaluate cleanly, inputs outside them are rejected with exit 2
and a message, and no input ends in a traceback."""

import copy
import json
import math
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spacelike import CMatrix, Event, Evolution, Frame, Intervention, LocalIntervention, Outcome, Scenario, Station
from spacelike import experiment, tolerance
from spacelike.cli import main
from spacelike.experiment import StateError, check_order_invariance, evaluate_in_order
from spacelike.intervention import CompletenessError
from spacelike.scenarios import spin_analyzer
from spacelike.schema import SchemaError, parse_scenario
from spacelike.spacetime import causal_order, frame_groups, linear_extensions

SCENARIO_DIR = Path(__file__).resolve().parent.parent / "scenarios"
SHIPPED = {p.name: json.loads(p.read_text()) for p in sorted(SCENARIO_DIR.glob("*.json"))}


def flat(m):
    return [[float(z.real), float(z.imag)] for z in np.asarray(m, dtype=complex).reshape(-1)]


def qubit_file(rho0, kraus_up, kraus_down, stations=(("M", 0.0, 0.0),)):
    """One Z-like instrument per station, station i on qubit i."""
    iv = {
        "d_in": 2,
        "outcomes": [
            {"label": "up", "d_out": 2, "kraus": [flat(kraus_up)]},
            {"label": "down", "d_out": 2, "kraus": [flat(kraus_down)]},
        ],
    }
    return {
        "dims": [2] * len(stations),
        "rho0": flat(rho0),
        "stations": [
            {"event": {"id": sid, "t": t, "x": x}, "subsystem": i, "intervention": iv}
            for i, (sid, t, x) in enumerate(stations)
        ],
    }


def write(tmp_path, doc):
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(doc))
    return str(path)


def test_completeness_at_the_edge_evaluates(tmp_path, capsys):
    # sum A^dagger A = (1 + 9e-10) I: accepted, and the branch trace exceeds 1.
    c = math.sqrt(1.0 + 9e-10)
    path = write(tmp_path, qubit_file(np.diag([1.0, 0.0]), np.diag([c, 0.0]), np.diag([0.0, c])))
    assert main(["check-povm", path]) == 0
    assert main(["simulate", path]) == 0
    assert main(["check-invariance", path]) == 0
    assert "sum of probabilities: 1.0000000009" in capsys.readouterr().out


@pytest.mark.parametrize("command", ["simulate", "check-invariance", "check-povm"])
def test_non_psd_rho0_exits_2_with_message(tmp_path, capsys, command):
    doc = qubit_file(np.diag([1.5, -0.5]), np.diag([1.0, 0.0]), np.diag([0.0, 1.0]))
    assert main([command, write(tmp_path, doc)]) == 2
    err = capsys.readouterr().err
    assert "$.rho0" in err and "positive semidefinite" in err


def test_non_psd_rho0_rejected_by_scenario_and_schema():
    bad = CMatrix(np.diag([1.5, -0.5]).astype(complex))
    station = Station(Event("M", 0.0, 0.0), LocalIntervention(0, spin_analyzer(0.0)))
    with pytest.raises(StateError, match="positive semidefinite"):
        Scenario(dims0=(2,), rho0=bad, stations=(station,))
    doc = qubit_file(bad.array, np.diag([1.0, 0.0]), np.diag([0.0, 1.0]))
    with pytest.raises(SchemaError, match=r"\$\.rho0.*positive semidefinite"):
        parse_scenario(json.dumps(doc))


def shifted_cholesky_accepts(rho0):
    """The positivity rule the factor replaced: 2 (h + STATE / D I) has a Cholesky factor."""
    d = len(rho0)
    shifted = rho0 + rho0.conj().T
    shifted.flat[:: d + 1] += 2 * tolerance.STATE / d
    try:
        np.linalg.cholesky(shifted)
    except np.linalg.LinAlgError:
        return False
    return True


def test_positivity_verdict_equals_the_shifted_cholesky_rule():
    # One eigenvalue placed from -3 to +0.5 cutoffs, 2% either side of
    # -STATE / D included, at sizes from 2 to 256.
    verdicts = {True: 0, False: 0}
    for d in (2, 3, 9, 16, 17, 32, 64, 128, 256):
        for k, small in enumerate((-3.0, -2.0, -1.5, -1.02, -0.98, -0.5, 0.0, 0.5)):
            for rank, seed, diagonal in ((1, d, True), (1, 100 * d + k, False), (min(d - 1, 4), 200 * d + k, False)):
                rho0 = spectrum_state(d, rank, (small,), seed, diagonal)
                try:
                    Scenario(dims0=(d,), rho0=CMatrix(rho0), stations=())
                    accepted = True
                except StateError as exc:
                    assert str(exc) == "initial state must be positive semidefinite"
                    accepted = False
                assert accepted == shifted_cholesky_accepts(rho0), (d, small, rank, seed, diagonal)
                verdicts[accepted] += 1
    assert verdicts[True] > 90 and verdicts[False] > 90, verdicts


def test_building_a_scenario_calls_no_cholesky(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("np.linalg.cholesky called")

    monkeypatch.setattr(np.linalg, "cholesky", refuse)
    for d, rank, small in ((2, 1, ()), (4, 4, ()), (32, 2, (-0.5,)), (64, 3, ()), (256, 1, ())):
        Scenario(dims0=(d,), rho0=CMatrix(spectrum_state(d, rank, small, seed=d)), stations=())
    with pytest.raises(StateError, match="positive semidefinite"):
        Scenario(dims0=(32,), rho0=CMatrix(spectrum_state(32, 2, (-2.0,), seed=1)), stations=())
    for doc in SHIPPED.values():
        parse_scenario(json.dumps(doc))


def eigh_calls(monkeypatch):
    """The shapes of the matrices np.linalg.eigh decomposes from now on, in call order."""
    decomposed = []
    eigh = np.linalg.eigh

    def spy(a, *args, **kwargs):
        decomposed.append(a.shape)
        return eigh(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigh", spy)
    return decomposed


def test_a_negative_eigenvalue_past_the_certificate_is_rejected_by_eigh(monkeypatch):
    # D = 32 with one eigenvalue at -2 cutoffs: the factor leaves it out, so
    # the certificate fails, and eigh of the whole state finds it.
    d = 32
    rho0 = spectrum_state(d, 3, (-2.0,), seed=11)
    assert np.linalg.eigvalsh(rho0)[0] == pytest.approx(-2 * tolerance.rank_cutoff(d), rel=1e-3)
    decomposed = eigh_calls(monkeypatch)
    with pytest.raises(StateError, match="positive semidefinite"):
        Scenario(dims0=(d,), rho0=CMatrix(rho0), stations=())
    assert decomposed == [(d, d)]
    stations = tuple((sid, 0.0, 2.0 * i) for i, sid in enumerate("ABCDE"))
    doc = qubit_file(rho0, np.diag([1.0, 0.0]), np.diag([0.0, 1.0]), stations)
    with pytest.raises(SchemaError, match=r"\$\.rho0.*positive semidefinite"):
        parse_scenario(json.dumps(doc))


def test_rho0_eigenvalues_at_both_cutoffs_evaluate_under_every_ordering():
    # One eigenvalue inside the positivity shift, one just below the factor's
    # rank cutoff and the trace at the edge of STATE: the factor drops both
    # small eigenvalues, and every runtime bound still holds.
    d = 4
    cutoff = tolerance.rank_cutoff(d)
    assert cutoff == tolerance.STATE / d
    rng = np.random.default_rng(3)
    q, _ = np.linalg.qr(rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d)))
    eigenvalues = np.array([-0.9 * cutoff, 0.99 * cutoff, 0.3, 0.7 + 0.9 * tolerance.STATE])
    rho0 = CMatrix(q @ np.diag(eigenvalues) @ q.conj().T)
    stations = (
        Station(Event("A", 0.0, 0.0), LocalIntervention(0, spin_analyzer(0.4))),
        Station(Event("B", 0.1, 10.0), LocalIntervention(1, spin_analyzer(1.3))),
        Station(Event("C", 3.0, 0.0), LocalIntervention(0, spin_analyzer(2.2))),
    )
    s = Scenario(dims0=(2, 2), rho0=rho0, stations=stations)
    assert s._factor[0].shape == (d, 2)
    report = check_order_invariance(s, 1e-9)
    assert report.ok and report.orders_checked == 3
    for order in linear_extensions(causal_order(s.events()), s.events()):
        total = sum(evaluate_in_order(s, order).probabilities.values())
        assert abs(total - 1.0) <= tolerance.FLOOR


def spectrum_state(d, rank, small=(), seed=0, diagonal=False):
    """A d x d rho0 of trace 1: ``rank`` weights drawn from ``seed``, then ``small`` (in units of
    ``rank_cutoff(d)``), then zeros, on the diagonal if ``diagonal``, else in a random eigenbasis drawn next."""
    if rank + len(small) > d:
        raise ValueError(f"{rank} + {len(small)} eigenvalues do not fit in dimension {d}")
    rng = np.random.default_rng(seed)
    eigenvalues = np.zeros(d)
    tail = np.asarray(small, dtype=float) * tolerance.rank_cutoff(d)
    eigenvalues[rank : rank + len(tail)] = tail
    bulk = rng.uniform(0.1, 1.0, rank)
    eigenvalues[:rank] = bulk / bulk.sum() * (1.0 - tail.sum())
    if diagonal:
        return np.diag(eigenvalues).astype(complex)
    q, _ = np.linalg.qr(rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d)))
    return (q * eigenvalues) @ q.conj().T


def test_spectrum_state_refuses_eigenvalues_that_do_not_fit():
    with pytest.raises(ValueError, match="do not fit"):
        spectrum_state(2, 2, (-3.0,))
    assert np.trace(spectrum_state(3, 2, (-3.0,))).real == pytest.approx(1.0, abs=1e-15)


NEAR_CUTOFF = (-0.9, -0.4, 0.3, 0.6, 1.6, 2.5, 4.0)


@pytest.mark.parametrize(
    "d, rank, small, seed",
    [
        *((d, 1, (), d) for d in (2, 9, 64, 256)),  # pure
        (32, 3, (), 1),
        (27, 9, (), 2),
        (8, 8, (), 3),  # full rank
        (27, 27, (), 4),
        (8, 3, (), None),  # diagonal, weights from seed 0
        (64, 5, (), None),
        (32, 2, NEAR_CUTOFF, 5),
        (64, 3, NEAR_CUTOFF * 3, 6),
        (64, 1, (0.99,) * 40, 7),
        (32, 2, (0.3, 1.6, 2.5, 4.0), 9),  # certified, keeping the 0.3 cutoffs too
        (64, 2, (-0.4, 0.3, 1.6, 2.5, 4.0), 10),
    ],
)
def test_rho0_factor_matches_eigh(monkeypatch, d, rank, small, seed):
    rho0 = spectrum_state(d, rank, small, seed or 0, diagonal=seed is None)
    decomposed = eigh_calls(monkeypatch)
    s = Scenario(dims0=(d,), rho0=CMatrix(rho0), stations=())
    c, w = s._factor
    h = (rho0 + rho0.conj().T) / 2
    cutoff = tolerance.rank_cutoff(d)
    assert c.shape == (d, len(w)) and np.all(w > cutoff / d)
    assert abs(np.trace(h).real - w @ np.linalg.norm(c, axis=0) ** 2) <= tolerance.STATE
    # Certified: within the cutoff; eigh's dropped eigenvalues: within sqrt(d) cutoffs.
    bound = math.sqrt(d) * cutoff if decomposed else cutoff
    assert np.linalg.norm(h - (c * w) @ c.conj().T) <= bound
    if seed is None:
        assert np.array_equal((c * w) @ c.conj().T, h)
    if not small:
        assert len(w) == rank


def test_a_clean_rho0_is_factored_without_qr_or_eigh(monkeypatch):
    states = [spectrum_state(d, 1, (), seed=d) for d in (2, 4, 16, 256)]
    states += [spectrum_state(8, 3, (), 8, diagonal=True), spectrum_state(64, 5, (), 64, diagonal=True)]

    def refuse(*args, **kwargs):
        raise AssertionError("rho0 factored by a dense decomposition")

    for name in ("eigh", "qr"):
        monkeypatch.setattr(np.linalg, name, refuse)
    for rho0 in states:
        s = Scenario(dims0=(len(rho0),), rho0=CMatrix(rho0), stations=())
        assert s._factor[0].shape[1] == np.linalg.matrix_rank(rho0)


@pytest.mark.parametrize("small", [(0.99,) * 29, (-0.9, -0.9)], ids=["pivot-budget", "certificate"])
def test_rho0_factor_falls_back_to_eigh_below_the_cutoff(monkeypatch, small):
    # Eigenvalues just below the cutoff, too many to pivot past within D / 2
    # pivots, or two just inside the positivity shift, which the certificate
    # cannot tell from a negative one; either way the factor is eigh(h),
    # which drops them.
    d = 32
    # Built before the spy, which then counts only rho0's decompositions.
    stations = (
        Station(Event("A", 0.0, 0.0), LocalIntervention(0, spin_analyzer(0.4))),
        Station(Event("B", 0.1, 10.0), LocalIntervention(1, spin_analyzer(1.3))),
        Station(Event("C", 3.0, 0.0), LocalIntervention(0, spin_analyzer(2.2))),
        Station(Event("E", 0.2, -10.0), LocalIntervention(4, spin_analyzer(0.9))),
    )
    rho0 = spectrum_state(d, 2, small, seed=8)
    decomposed = eigh_calls(monkeypatch)
    s = Scenario(dims0=(2,) * 5, rho0=CMatrix(rho0), stations=stations)
    assert s._factor[0].shape == (d, 2)
    assert decomposed == [(d, d)]
    report = check_order_invariance(s, 1e-9)
    assert report.ok
    for order in linear_extensions(causal_order(s.events()), s.events()):
        total = sum(evaluate_in_order(s, order).probabilities.values())
        assert abs(total - 1.0) <= tolerance.FLOOR


def test_rho0_factor_stops_at_the_rounding_of_the_diagonal():
    # At D = 2,048 the floor rank_cutoff(D) / D lies below the rounding of a
    # pure state's diagonal: pivoting down to it took 5 columns where 1 spans.
    d = 2048
    rng = np.random.Generator(np.random.Philox(key=0))
    psi = rng.standard_normal(d) + 1j * rng.standard_normal(d)
    psi /= np.linalg.norm(psi)
    h = np.outer(psi, psi.conj())
    c, w = experiment._ldl(h, h.conj().T)
    assert c.shape == (d, 1)
    assert abs(np.vdot(c[:, 0], psi)) * math.sqrt(w[0]) == pytest.approx(1.0, abs=1e-12)


def edge_instrument(high, seed):
    """A qubit instrument accepted at a completeness edge whose POVM element
    "a" has an eigenvalue below the root cutoff, which its root drops."""
    rng = np.random.default_rng(seed)
    q, _ = np.linalg.qr(rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2)))
    small = 0.5 * tolerance.root_cutoff(2)
    edge = 1.0 + (0.9 if high else -0.9) * tolerance.COMPLETENESS
    a = np.diag([math.sqrt(edge), math.sqrt(small)]) @ q.conj().T
    b = np.diag([0.0, math.sqrt(edge - small)]) @ q.conj().T
    return Intervention(2, (Outcome("a", 2, (CMatrix(a),)), Outcome("b", 2, (CMatrix(b),))))


def test_spent_stations_at_the_completeness_edge_stay_within_every_bound():
    # Eight qubits measured once each, so every station, the last included, fires
    # through roots that drop mass; half raise every trace, half lower it.
    n = 8
    ivs = [edge_instrument(i % 2 == 0, seed=i) for i in range(n)]
    for iv in ivs:
        assert iv._povm_roots.shape == (2, 1, 1, 2)
        assert iv.growth > tolerance.growth(2, iv.deviation)
    stations = tuple(
        Station(Event(f"q{i}", 0.05 * i, 2.0 * i), LocalIntervention(i, iv)) for i, iv in enumerate(ivs)
    )
    rng = np.random.default_rng(80)
    psi = rng.standard_normal(2**n) + 1j * rng.standard_normal(2**n)
    psi /= np.linalg.norm(psi)
    s = Scenario(dims0=(2,) * n, rho0=CMatrix(np.outer(psi, psi.conj())), stations=stations)
    ids = [st.id for st in stations]
    for order in (ids, ids[::-1]):
        total = sum(evaluate_in_order(s, order).probabilities.values())
        assert 2.0 - s.growth - tolerance.FLOOR <= total <= s.growth + tolerance.FLOOR


def test_simulate_three_station_tie_evaluates_every_resolution(tmp_path, capsys):
    rho0 = np.zeros((8, 8))
    rho0[0, 0] = 1.0
    stations = (("A", 0.0, 0.0), ("B", 0.0, 2.0), ("C", 0.0, 4.0))
    doc = qubit_file(rho0, np.diag([1.0, 0.0]), np.diag([0.0, 1.0]), stations)
    assert main(["simulate", write(tmp_path, doc), "--format", "json"]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["tie"] is True and out["ok"] is True
    orderings = {tuple(r["ordering"]) for r in out["resolutions"]}
    assert len(orderings) == 6


def _kraus_entries(doc):
    for i, station in enumerate(doc["stations"]):
        for j, outcome in enumerate(station["intervention"]["outcomes"]):
            for k, matrix in enumerate(outcome["kraus"]):
                for e in range(len(matrix)):
                    yield ("stations", i, "intervention", "outcomes", j, "kraus", k, e)


PERTURBATION_SITES = [
    (name, site, tolerance.COMPLETENESS if site[0] == "stations" else tolerance.STATE)
    for name, doc in SHIPPED.items()
    for site in [("rho0", e) for e in range(len(doc["rho0"]))] + list(_kraus_entries(doc))
]


@settings(max_examples=100, deadline=None)
@given(
    where=st.sampled_from(PERTURBATION_SITES),
    part=st.sampled_from([0, 1]),
    scale=st.floats(min_value=-2.0, max_value=2.0),
)
def test_perturbed_shipped_files_never_raise(tmp_path_factory, where, part, scale):
    name, site, tol = where
    doc = copy.deepcopy(SHIPPED[name])
    node = doc
    for key in site:
        node = node[key]
    node[part] += scale * tol
    path = write(tmp_path_factory.mktemp("fuzz"), doc)
    try:
        parse_scenario(Path(path).read_text())
        accepted = True
    except SchemaError:
        accepted = False
    # An accepted file evaluates without tripping any runtime bound.
    assert main(["simulate", path]) == (0 if accepted else 2)
    assert main(["check-invariance", path]) in ((0, 1) if accepted else (2,))


# Each tolerance constant pinned by a literal value well inside and well outside it, so that
# loosening the constant (or the allowance it feeds) fails a test.


def test_a_runtime_bound_allows_the_floor_and_no_more():
    assert tolerance.check(1 + 1.5e-12, 0.0, 1.0, "probability") == 1 + 1.5e-12
    with pytest.raises(ValueError, match="internal invariant failure"):
        tolerance.check(1 + 6e-12, 0.0, 1.0, "probability")


def test_completeness_accepts_5e_10_and_rejects_2e_9():
    def scaled_identity(excess):
        return Intervention(d_in=2, outcomes=(Outcome("s", 2, (CMatrix(math.sqrt(1 + excess) * np.eye(2)),)),))

    assert scaled_identity(5e-10).deviation == pytest.approx(5e-10, rel=1e-6)
    with pytest.raises(CompletenessError):
        scaled_identity(2e-9)


def test_boosted_times_5e_13_apart_tie_and_2e_12_apart_do_not():
    def groups(dt):
        return [[e.id for e in g] for g in frame_groups([Event("a", 0.0, 0.0), Event("b", dt, 1.0)], Frame(0.0))]

    assert groups(5e-13) == [["a", "b"]]
    assert groups(2e-12) == [["a"], ["b"]]


def test_a_movable_evolution_5e_13_from_identity_counts_as_none_and_2e_12_does_not():
    def scenario(eps):
        rho0 = np.zeros((4, 4), dtype=complex)
        rho0[0, 0] = 1.0
        return Scenario(
            dims0=(2, 2),
            rho0=CMatrix(rho0),
            stations=(
                Station(Event("A", 0.0, 0.0), LocalIntervention(0, spin_analyzer(0.0))),
                Station(Event("B", 0.0, 5.0), LocalIntervention(1, spin_analyzer(0.0))),
            ),
            evolutions=(Evolution("A", "B", CMatrix(np.diag([1, 1, 1, np.exp(1j * eps)]))),),
        )

    report = check_order_invariance(scenario(5e-13), 1e-9)
    assert report.ok and report.method == "exhaustive"
    with pytest.raises(ValueError, match="order-dependent"):
        check_order_invariance(scenario(2e-12), 1e-9)
