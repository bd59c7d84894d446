import math

import numpy as np
import pytest

from spacelike.linalg import CMatrix, dagger, kron, matmul, max_abs_diff, trace
from spacelike.experiment import ConditionalLocal, Evolution, Scenario, Station, evaluate_in_order
from spacelike.spacetime import Event
from spacelike.intervention import (
    CompletenessError,
    Intervention,
    LocalIntervention,
    Outcome,
    _branches,
    apply,
    embed,
    povm_elements,
    random_intervention,
)

P0 = CMatrix(np.diag([1.0, 0.0]).astype(complex))
P1 = CMatrix(np.diag([0.0, 1.0]).astype(complex))


def z_measurement():
    return Intervention(
        d_in=2,
        outcomes=(Outcome("up", 2, (P0,)), Outcome("down", 2, (P1,))),
    )


def random_density(rng, d):
    v = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    rho = v @ v.conj().T
    return CMatrix(rho / np.trace(rho))


def test_intervention_validates_completeness():
    leaky = Outcome("only", 2, (CMatrix(0.9 * np.eye(2, dtype=complex)),))
    with pytest.raises(CompletenessError) as excinfo:
        Intervention(d_in=2, outcomes=(leaky,))
    assert excinfo.value.worst == pytest.approx(1.0 - 0.81, abs=1e-12)
    assert "completeness" in str(excinfo.value).lower()


def test_intervention_validates_kraus_shapes():
    bad = Outcome("o", 3, (CMatrix.identity(2),))
    with pytest.raises(ValueError, match="o"):
        Intervention(d_in=2, outcomes=(bad, Outcome("p", 2, (P0,))))


def test_intervention_rejects_duplicate_labels():
    with pytest.raises(ValueError, match="label"):
        Intervention(d_in=2, outcomes=(Outcome("x", 2, (P0,)), Outcome("x", 2, (P1,))))


def test_intervention_lookup():
    iv = z_measurement()
    assert iv.labels() == ("up", "down")
    assert iv.outcome("down").d_out == 2
    with pytest.raises(KeyError):
        iv.outcome("sideways")


def test_apply_projective_hand_values():
    rho = CMatrix(np.array([[0.75, 0.25], [0.25, 0.25]], dtype=complex))
    iv = z_measurement()
    up = apply(rho, iv, "up")
    assert trace(up).real == pytest.approx(0.75)
    np.testing.assert_allclose(up.array, [[0.75, 0.0], [0.0, 0.0]], atol=1e-15)
    down = apply(rho, iv, "down")
    assert trace(down).real == pytest.approx(0.25)


def test_apply_trace_bookkeeping_random():
    """Summed branch traces give back the input trace for any valid map."""
    rng = np.random.default_rng(20)
    for seed in range(25):
        d_in = int(rng.integers(1, 5))
        n_out = int(rng.integers(1, 4))
        dims = [int(rng.integers(1, 4)) for _ in range(n_out)]
        while sum(dims) < d_in:
            dims.append(int(rng.integers(1, 4)))
        iv = random_intervention(d_in, dims, seed=seed)
        rho = random_density(rng, d_in)
        total = sum(trace(apply(rho, iv, lab)).real for lab in iv.labels())
        assert total == pytest.approx(1.0, abs=1e-9)


def test_apply_validates_inputs():
    iv = z_measurement()
    with pytest.raises(ValueError, match="2"):
        apply(CMatrix.identity(3), iv, "up")
    with pytest.raises(ValueError, match="[Hh]ermitian"):
        apply(CMatrix(np.array([[0.5, 0.5], [0.0, 0.5]], dtype=complex)), iv, "up")
    with pytest.raises(KeyError):
        apply(CMatrix(np.eye(2, dtype=complex) / 2.0), iv, "nope")


def test_apply_identity_intervention_preserves_state():
    iv = Intervention(d_in=3, outcomes=(Outcome("id", 3, (CMatrix.identity(3),)),))
    rho = random_density(np.random.default_rng(21), 3)
    out = apply(rho, iv, "id")
    assert max_abs_diff(out, rho) == 0.0


def test_povm_elements_properties():
    rng = np.random.default_rng(22)
    for seed in range(100):
        d_in = int(rng.integers(1, 5))
        dims = [int(rng.integers(1, 4))]
        while sum(dims) < d_in:
            dims.append(int(rng.integers(1, 4)))
        iv = random_intervention(d_in, dims, seed=seed)
        elements = povm_elements(iv)
        total = np.zeros((d_in, d_in), dtype=complex)
        for label, e in elements:
            # Hermitian within 1e-12
            assert max_abs_diff(e, dagger(e)) <= 1e-12
            total += e.array
        assert float(np.max(np.abs(total - np.eye(d_in)))) <= 1e-9


def test_povm_element_traces_match_branch_traces():
    rng = np.random.default_rng(23)
    iv = random_intervention(3, [2, 2], seed=77)
    rho = random_density(rng, 3)
    for label, e in povm_elements(iv):
        predicted = trace(matmul(e, rho)).real
        branch = trace(apply(rho, iv, label)).real
        assert branch == pytest.approx(predicted, abs=1e-12)


def test_embed_on_first_factor_is_kron_with_identity():
    iv = z_measurement()
    lifted = embed(LocalIntervention(0, iv), (2, 3))
    assert lifted.d_in == 6
    up = lifted.outcome("up")
    assert up.d_out == 6
    np.testing.assert_allclose(up.kraus[0].array, np.kron(P0.array, np.eye(3)), atol=1e-15)


def test_embed_on_middle_factor():
    iv = z_measurement()
    lifted = embed(LocalIntervention(1, iv), (3, 2, 2))
    expected = np.kron(np.kron(np.eye(3), P1.array), np.eye(2))
    np.testing.assert_allclose(lifted.outcome("down").kraus[0].array, expected, atol=1e-15)


def test_embed_rectangular_changes_composite_dimension():
    grow = random_intervention(2, [3], seed=5)
    lifted = embed(LocalIntervention(0, grow), (2, 2))
    out = lifted.outcomes[0]
    assert out.kraus[0].shape == (6, 4)
    assert out.d_out == 6


def test_embed_validates_subsystem():
    iv = z_measurement()
    with pytest.raises(ValueError):
        embed(LocalIntervention(2, iv), (2, 2))
    with pytest.raises(ValueError, match="dimension"):
        embed(LocalIntervention(0, iv), (3, 2))


def two_kraus_intervention(d_in, seed):
    """Outcome "p" (d_out 2) and "q" (d_out 3), each with two Kraus matrices."""
    k = [o.kraus[0] for o in random_intervention(d_in, [2, 2, 3, 3], seed=seed).outcomes]
    return Intervention(
        d_in=d_in, outcomes=(Outcome("p", 2, (k[0], k[1])), Outcome("q", 3, (k[2], k[3])))
    )


@pytest.mark.parametrize(
    "dims, sub", [((3, 2, 2), 0), ((3, 2, 2), 1), ((3, 2, 2), 2), ((2, 3), 0), ((2, 3), 1)]
)
def test_branch_kernel_matches_kron_embedding(dims, sub):
    # Two branches, each a full-rank factor V (rho = V V^dagger) of width 3; outcome
    # "p" (d_out 2) is zero-padded to the d_out 3 of "q".
    iv = two_kraus_intervention(dims[sub], seed=30 + sub)
    b, d, a = math.prod(dims[:sub]), dims[sub], math.prod(dims[sub + 1 :])
    rng = np.random.default_rng(len(dims) + sub)
    v = rng.standard_normal((2, b * d * a, 3)) + 1j * rng.standard_normal((2, b * d * a, 3))
    v /= np.linalg.norm(v, axis=(1, 2), keepdims=True)
    out = _branches(v.reshape(2, b, d, a, 3), iv)
    assert out.shape == (2 * len(iv.outcomes), b, 3, a, 3 * 2)
    lifted = embed(LocalIntervention(sub, iv), dims)
    for n, factor in enumerate(v):
        rho = CMatrix(factor @ factor.conj().T)
        for i, o in enumerate(iv.outcomes):
            branch = out[n * len(iv.outcomes) + i]
            assert not branch[:, o.d_out :].any()
            got = branch[:, : o.d_out].reshape(b * o.d_out * a, -1)
            want = apply(rho, lifted, o.label)
            assert max_abs_diff(CMatrix(got @ got.conj().T), want) <= 1e-12


def test_evaluated_chain_matches_explicit_kron_products():
    # A (qubit, factor 0) changes the composite to 6 or 9 dimensions; a
    # history-keyed unitary follows; B on factor 1 is conditioned on A.
    a_iv = two_kraus_intervention(2, seed=40)
    cases = {
        ("p",): two_kraus_intervention(3, seed=41),
        ("q",): random_intervention(3, [1, 2, 3], seed=42),
    }
    rng = np.random.default_rng(43)
    unitaries = {}
    for label, d in (("p", 6), ("q", 9)):
        q, _ = np.linalg.qr(rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d)))
        unitaries[label] = q
    rho = random_density(rng, 6)
    s = Scenario(
        dims0=(2, 3),
        rho0=rho,
        stations=(
            Station(Event("A", 0.0, 0.0), LocalIntervention(0, a_iv)),
            Station(Event("B", 1.0, 0.0), ConditionalLocal(1, ("A",), cases)),
        ),
        evolutions=tuple(
            Evolution("A", "B", CMatrix(u), history={"A": label}) for label, u in unitaries.items()
        ),
    )
    result = evaluate_in_order(s, ["A", "B"])
    records = 0
    for oa in a_iv.outcomes:
        u = unitaries[oa.label]
        for ob in cases[(oa.label,)].outcomes:
            want = np.zeros((oa.d_out * ob.d_out,) * 2, dtype=complex)
            for ka in oa.kraus:
                for kb in ob.kraus:
                    k = np.kron(np.eye(oa.d_out), kb.array) @ u @ np.kron(ka.array, np.eye(3))
                    want += k @ rho.array @ k.conj().T
            rec = (("A", oa.label), ("B", ob.label))
            assert max_abs_diff(result.final_states[rec], CMatrix(want)) <= 1e-12
            assert result.probabilities[rec] == pytest.approx(np.trace(want).real, abs=1e-12)
            records += 1
    assert records == len(result.probabilities) == 5


def test_embedded_distinct_subsystems_always_commute():
    rng = np.random.default_rng(24)
    for seed in range(10):
        dims = tuple(int(rng.integers(2, 4)) for _ in range(2))
        iv_a = random_intervention(dims[0], [dims[0]], seed=seed)
        iv_b = random_intervention(dims[1], [dims[1]], seed=seed + 1000)
        lifted_a = embed(LocalIntervention(0, iv_a), dims)
        lifted_b = embed(LocalIntervention(1, iv_b), dims)
        mats_a = [k for o in lifted_a.outcomes for k in o.kraus]
        mats_b = [k for o in lifted_b.outcomes for k in o.kraus]
        # Largest entry of any commutator [a, b] = ab - ba.
        worst = max(max_abs_diff(matmul(a, b), matmul(b, a)) for a in mats_a for b in mats_b)
        assert worst <= 1e-12, worst


def test_random_intervention_is_deterministic():
    a = random_intervention(3, [2, 2], seed=42)
    b = random_intervention(3, [2, 2], seed=42)
    for o1, o2 in zip(a.outcomes, b.outcomes):
        assert o1.label == o2.label
        assert max_abs_diff(o1.kraus[0], o2.kraus[0]) == 0.0
    c = random_intervention(3, [2, 2], seed=43)
    assert max_abs_diff(a.outcomes[0].kraus[0], c.outcomes[0].kraus[0]) > 1e-3


def test_random_intervention_single_block_is_isometry():
    iv = random_intervention(3, [3], seed=9)
    k = iv.outcomes[0].kraus[0]
    gram = matmul(dagger(k), k)
    assert max_abs_diff(gram, CMatrix.identity(3)) <= 1e-12
    rho = random_density(np.random.default_rng(25), 3)
    assert trace(apply(rho, iv, iv.labels()[0])).real == pytest.approx(1.0, abs=1e-12)


def test_random_intervention_rejects_undersized_outcome_space():
    with pytest.raises(ValueError):
        random_intervention(4, [1, 2], seed=0)
    with pytest.raises(ValueError):
        random_intervention(2, [], seed=0)
