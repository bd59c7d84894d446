import numpy as np
import pytest

from spacelike.linalg import (
    CMatrix,
    DimensionError,
    dagger,
    kron,
    matmul,
    max_abs_diff,
    trace,
)


def rand_matrix(rng, rows, cols):
    return CMatrix(rng.standard_normal((rows, cols)) + 1j * rng.standard_normal((rows, cols)))


def test_construction_copies_and_freezes():
    data = np.zeros((2, 2), dtype=complex)
    m = CMatrix(data)
    data[0, 0] = 5.0
    assert m.array[0, 0] == 0.0
    with pytest.raises(ValueError):
        m.array[0, 0] = 1.0


@pytest.mark.parametrize(
    "bad",
    [
        np.zeros(3),
        np.zeros((2, 2, 2)),
        np.zeros((0, 2)),
        np.array([[np.nan, 0], [0, 0]]),
        np.array([[np.inf, 0], [0, 0]]),
        np.array([[complex(0, np.inf), 0], [0, 0]]),
    ],
)
def test_construction_rejects_bad_shapes_and_values(bad):
    with pytest.raises(ValueError):
        CMatrix(bad)


def test_identity_zeros_diag():
    assert np.array_equal(CMatrix.identity(3).array, np.eye(3))
    assert np.array_equal(CMatrix.zeros(2, 4).array, np.zeros((2, 4)))
    d = CMatrix.diag([1.0, 2j])
    assert d.array[0, 0] == 1.0 and d.array[1, 1] == 2j and d.array[0, 1] == 0.0


def test_matmul_shapes_and_values():
    rng = np.random.default_rng(1)
    a = rand_matrix(rng, 2, 3)
    b = rand_matrix(rng, 3, 4)
    c = matmul(a, b)
    assert c.shape == (2, 4)
    np.testing.assert_allclose(c.array, a.array @ b.array)
    # operator form matches the function
    np.testing.assert_array_equal((a @ b).array, c.array)


def test_matmul_inner_dimension_error_names_both_shapes():
    a = CMatrix.zeros(2, 3)
    b = CMatrix.zeros(4, 2)
    with pytest.raises(DimensionError, match=r"2x3.*4x2"):
        matmul(a, b)


def test_dagger_is_conjugate_transpose():
    rng = np.random.default_rng(2)
    a = rand_matrix(rng, 3, 2)
    np.testing.assert_array_equal(dagger(a).array, a.array.conj().T)


def test_kron_matches_numpy_and_shapes():
    rng = np.random.default_rng(3)
    a = rand_matrix(rng, 2, 3)
    b = rand_matrix(rng, 4, 5)
    k = kron(a, b)
    assert k.shape == (8, 15)
    np.testing.assert_allclose(k.array, np.kron(a.array, b.array))


def test_trace_requires_square():
    assert trace(CMatrix.identity(4)) == pytest.approx(4.0)
    with pytest.raises(DimensionError):
        trace(CMatrix.zeros(2, 3))


def test_max_abs_diff():
    a = CMatrix.identity(2)
    b = CMatrix(np.array([[1.0, 0.0], [0.0, 1.0 + 3e-4j]]))
    assert max_abs_diff(a, b) == pytest.approx(3e-4)
    with pytest.raises(DimensionError):
        max_abs_diff(a, CMatrix.zeros(3, 3))
