"""Dense complex matrices with strict shape checking.

``CMatrix`` is the package's boundary type: scenarios, interventions and
final states hold immutable double-precision complex matrices, and every
operation here validates dimensions before touching numbers. Between
stations the evaluator carries the underlying read-only arrays instead.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "CMatrix",
    "DimensionError",
    "dagger",
    "deviation",
    "kron",
    "matmul",
    "max_abs_diff",
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
        # One contiguous pass over the real and imaginary parts of the C-ordered copy.
        if not np.isfinite(a.view(np.float64)).all():
            raise ValueError("matrix entries must be finite (no NaN/Inf)")
        a.setflags(write=False)
        self._a = a

    @classmethod
    def identity(cls, n: int) -> "CMatrix":
        return cls(np.eye(n))

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


def deviation(a: np.ndarray, b: np.ndarray | None = None) -> float:
    """Largest entrywise |a - b| of two same-shape arrays; ``b`` defaults to the identity."""
    if b is None:
        # a - I without building I: one copy of a, 1 taken from its diagonal.
        d = a.astype(np.result_type(a, np.float64), order="C")
        d.reshape(-1)[:: len(d) + 1] -= 1.0
        return float(np.abs(d).max())
    return float(np.max(np.abs(a - b)))


def max_abs_diff(a: CMatrix, b: CMatrix) -> float:
    """Largest entrywise absolute difference between two same-shape matrices."""
    if a.shape != b.shape:
        raise DimensionError(
            f"cannot compare {a.rows}x{a.cols} with {b.rows}x{b.cols}: shapes differ"
        )
    return deviation(a.array, b.array)
