"""Dense complex matrices with strict shape checking.

Everything else in the package moves states and operators through this
module: matrices are immutable, double-precision complex, and every
operation validates dimensions before touching numbers.
"""

from __future__ import annotations

from collections.abc import Iterable, Sequence

import numpy as np

__all__ = [
    "CMatrix",
    "DimensionError",
    "dagger",
    "deviation",
    "is_hermitian",
    "is_unitary",
    "kron",
    "matmul",
    "max_abs_diff",
    "partial_trace",
    "trace",
]


class DimensionError(ValueError):
    """Raised when matrix shapes do not fit the requested operation."""


class CMatrix:
    """An immutable dense complex matrix.

    Wraps a read-only ``numpy`` array of dtype complex128. Construction
    rejects non-2D input, empty axes, and non-finite entries, so any
    CMatrix in flight is a well-formed matrix.
    """

    __slots__ = ("_a",)

    def __init__(self, entries):
        a = np.array(entries, dtype=np.complex128, order="C")
        if a.ndim != 2:
            raise DimensionError(f"expected a 2-D matrix, got {a.ndim} dimension(s)")
        if a.shape[0] < 1 or a.shape[1] < 1:
            raise DimensionError(f"matrix axes must be positive, got shape {a.shape}")
        if not np.all(np.isfinite(a.real)) or not np.all(np.isfinite(a.imag)):
            raise ValueError("matrix entries must be finite (no NaN/Inf)")
        a.setflags(write=False)
        self._a = a

    @classmethod
    def identity(cls, n: int) -> "CMatrix":
        return cls(np.eye(n))

    @classmethod
    def zeros(cls, rows: int, cols: int) -> "CMatrix":
        return cls(np.zeros((rows, cols)))

    @classmethod
    def diag(cls, values: Iterable[complex]) -> "CMatrix":
        return cls(np.diag(np.asarray(list(values), dtype=np.complex128)))

    @property
    def rows(self) -> int:
        return self._a.shape[0]

    @property
    def cols(self) -> int:
        return self._a.shape[1]

    @property
    def shape(self) -> tuple[int, int]:
        return self._a.shape

    @property
    def array(self) -> np.ndarray:
        """The underlying read-only ndarray."""
        return self._a

    def __matmul__(self, other: "CMatrix") -> "CMatrix":
        return matmul(self, other)

    def __repr__(self) -> str:
        return f"CMatrix({self.rows}x{self.cols})"


def matmul(a: CMatrix, b: CMatrix) -> CMatrix:
    """Matrix product a @ b."""
    if a.cols != b.rows:
        raise DimensionError(
            f"cannot multiply {a.rows}x{a.cols} by {b.rows}x{b.cols}: "
            f"inner dimensions {a.cols} and {b.rows} differ"
        )
    return CMatrix(a.array @ b.array)


def dagger(a: CMatrix) -> CMatrix:
    """Conjugate transpose."""
    return CMatrix(a.array.conj().T)


def kron(a: CMatrix, b: CMatrix) -> CMatrix:
    """Kronecker product; block (i, j) equals a[i, j] * b."""
    return CMatrix(np.kron(a.array, b.array))


def trace(a: CMatrix) -> complex:
    """Sum of diagonal entries of a square matrix."""
    if a.rows != a.cols:
        raise DimensionError(f"trace requires a square matrix, got {a.rows}x{a.cols}")
    return complex(np.trace(a.array))


def partial_trace(a: CMatrix, dims: Sequence[int], keep: Iterable[int]) -> CMatrix:
    """Trace out all tensor factors except those in ``keep``.

    ``dims`` lists the factor dimensions whose product must equal the
    (square) matrix order; ``keep`` names the factor positions retained,
    in their original order. The trace of the result equals the trace of
    the input.
    """
    if a.rows != a.cols:
        raise DimensionError(f"partial_trace requires a square matrix, got {a.rows}x{a.cols}")
    dims = list(dims)
    if any(d < 1 for d in dims):
        raise DimensionError(f"factor dimensions must be positive, got {dims}")
    total = 1
    for d in dims:
        total *= d
    if total != a.rows:
        raise DimensionError(
            f"product of dims {dims} is {total}, but the matrix order is {a.rows}"
        )
    keep = sorted(set(keep))
    if not keep:
        raise DimensionError("keep must name at least one factor")
    if keep[0] < 0 or keep[-1] >= len(dims):
        raise DimensionError(f"keep indices {keep} out of range for {len(dims)} factors")

    n = len(dims)
    t = a.array.reshape(dims + dims)
    # Contract each traced factor pair (row index k, column index k + n),
    # renumbering as axes disappear.
    removed = 0
    for k in range(n):
        if k in keep:
            continue
        t = np.trace(t, axis1=k - removed, axis2=k - removed + (n - removed))
        removed += 1
    kept = 1
    for k in keep:
        kept *= dims[k]
    return CMatrix(t.reshape(kept, kept))


def deviation(a: np.ndarray, b: np.ndarray | None = None) -> float:
    """Largest entrywise |a - b| of two same-shape arrays; ``b`` defaults to the identity."""
    if b is None:
        b = np.eye(a.shape[0])
    return float(np.max(np.abs(a - b)))


def max_abs_diff(a: CMatrix, b: CMatrix) -> float:
    """Largest entrywise absolute difference between two same-shape matrices."""
    if a.shape != b.shape:
        raise DimensionError(
            f"cannot compare {a.rows}x{a.cols} with {b.rows}x{b.cols}: shapes differ"
        )
    return deviation(a.array, b.array)


def is_hermitian(a: CMatrix, tol: float) -> bool:
    return a.rows == a.cols and deviation(a.array, a.array.conj().T) <= tol


def is_unitary(a: CMatrix, tol: float) -> bool:
    return a.rows == a.cols and deviation(a.array.conj().T @ a.array) <= tol
