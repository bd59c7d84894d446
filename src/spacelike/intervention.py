"""Kraus-operator interventions, possibly rectangular and dimension-changing.

An intervention maps a d_in-dimensional state to one unnormalized branch
state per outcome, rho -> sum_m A_m rho A_m^dagger, where the Kraus
matrices of an outcome may have more or fewer rows than columns (the
output Hilbert space need not match the input). Completeness of the full
branch set is enforced at construction so that branch traces always form
a probability distribution. The same branch acts on a factor V of
rho = V V^dagger as V -> [A_1 V, ..., A_k V], one product per Kraus matrix;
the evaluator's kernels apply it to a whole stack of factors at once.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property
from typing import Sequence

import numpy as np

from . import tolerance
from .linalg import CMatrix, DimensionError, deviation, kron

__all__ = [
    "CompletenessError",
    "Intervention",
    "LocalIntervention",
    "Outcome",
    "apply",
    "embed",
    "povm_elements",
    "random_intervention",
]


class CompletenessError(ValueError):
    """Kraus matrices fail sum_m A_m^dagger A_m = identity.

    Carries the worst entrywise deviation in ``worst``.
    """

    def __init__(self, message: str, worst: float):
        super().__init__(message)
        self.worst = worst


@dataclass(frozen=True)
class Outcome:
    """One labeled outcome: its output dimension and Kraus matrices."""

    label: str
    d_out: int
    kraus: tuple[CMatrix, ...]

    def __post_init__(self):
        if not self.kraus:
            raise ValueError(f"outcome {self.label!r} has no Kraus matrices")
        if self.d_out < 1:
            raise ValueError(f"outcome {self.label!r}: d_out must be positive")
        object.__setattr__(self, "kraus", tuple(self.kraus))


@dataclass(frozen=True)
class Intervention:
    """A complete set of outcome-labeled Kraus matrices on a d_in-dimensional input.

    Invariants checked here:
      * every Kraus matrix of an outcome has shape (outcome.d_out, d_in);
      * outcome labels are distinct;
      * sum over all outcomes and Kraus indices of A^dagger A equals the
        d_in identity within ``tolerance.COMPLETENESS``; the measured
        deviation is kept in ``deviation``.

    ``povm`` holds each outcome's POVM element E = sum_m A_m^dagger A_m, in
    outcome order, as one read-only (outcomes, d_in, d_in) array.
    ``_kraus_stack`` holds the Kraus matrices, built on first use.
    """

    d_in: int
    outcomes: tuple[Outcome, ...]
    deviation: float = field(init=False, repr=False, compare=False)
    povm: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "outcomes", tuple(self.outcomes))
        if self.d_in < 1:
            raise ValueError("d_in must be positive")
        if not self.outcomes:
            raise ValueError("an intervention needs at least one outcome")
        labels = [o.label for o in self.outcomes]
        if len(set(labels)) != len(labels):
            raise ValueError(f"outcome labels must be distinct, got {labels}")
        for o in self.outcomes:
            for k, m in enumerate(o.kraus):
                if m.shape != (o.d_out, self.d_in):
                    raise DimensionError(
                        f"outcome {o.label!r} Kraus[{k}] is {m.rows}x{m.cols}, "
                        f"expected {o.d_out}x{self.d_in}"
                    )
        products = ([m.array.conj().T @ m.array for m in o.kraus] for o in self.outcomes)
        elements = [sum(rest, first) for first, *rest in products]
        povm = np.array(elements)
        povm.setflags(write=False)
        worst = deviation(sum(elements))
        if worst > tolerance.COMPLETENESS:
            raise CompletenessError(
                f"Kraus completeness violated: sum of A^dagger A deviates from the "
                f"{self.d_in}-dim identity by {worst:.3e} (tolerance {tolerance.COMPLETENESS})",
                worst,
            )
        object.__setattr__(self, "deviation", worst)
        object.__setattr__(self, "povm", povm)

    @cached_property
    def _kraus_stack(self) -> np.ndarray:
        """Read-only (outcomes, Kraus, d_out max, d_in) array of the Kraus matrices, zero-padded."""
        stack = np.zeros(
            (
                len(self.outcomes),
                max(len(o.kraus) for o in self.outcomes),
                max(o.d_out for o in self.outcomes),
                self.d_in,
            ),
            dtype=complex,
        )
        for i, o in enumerate(self.outcomes):
            for k, m in enumerate(o.kraus):
                stack[i, k, : o.d_out] = m.array
        stack.setflags(write=False)
        return stack

    def labels(self) -> tuple[str, ...]:
        return tuple(o.label for o in self.outcomes)

    def outcome(self, label: str) -> Outcome:
        for o in self.outcomes:
            if o.label == label:
                return o
        raise KeyError(f"unknown outcome label {label!r}; known: {list(self.labels())}")


@dataclass(frozen=True)
class LocalIntervention:
    """An intervention acting on one tensor factor of a composite system."""

    subsystem: int
    local: Intervention

    def __post_init__(self):
        if self.subsystem < 0:
            raise ValueError(f"subsystem index must be non-negative, got {self.subsystem}")


def apply(rho: CMatrix, iv: Intervention, mu: str) -> CMatrix:
    """Unnormalized branch state for outcome ``mu``: sum_m A_m rho A_m^dagger.

    The trace of the result is the outcome probability when rho has unit
    trace; more generally branch traces sum to trace(rho) over outcomes,
    within the intervention's completeness deviation. A branch trace above
    trace(rho) times the derived growth is an invariant failure.
    """
    if rho.rows != rho.cols:
        raise DimensionError(f"state must be square, got {rho.rows}x{rho.cols}")
    if rho.rows != iv.d_in:
        raise DimensionError(
            f"state dimension {rho.rows} does not match intervention d_in {iv.d_in}"
        )
    if deviation(rho.array, rho.array.conj().T) > tolerance.HERMITICITY:
        raise ValueError("state must be Hermitian")
    out = sum(m.array @ rho.array @ m.array.conj().T for m in iv.outcome(mu).kraus)
    high = float(np.trace(rho.array).real) * tolerance.growth(iv.d_in, iv.deviation)
    tolerance.check(float(np.trace(out).real), 0.0, high, f"branch trace for outcome {mu!r}")
    return CMatrix(out)


def _factor_sizes(dims: Sequence[int], sub: int, d_in: int) -> tuple[int, int]:
    """Products of the factor dimensions before and after ``sub``, once ``sub`` fits d_in."""
    if not 0 <= sub < len(dims):
        raise DimensionError(f"subsystem index {sub} out of range for {len(dims)} factors")
    if dims[sub] != d_in:
        raise DimensionError(
            f"factor {sub} has dimension {dims[sub]}, but the local intervention "
            f"expects d_in {d_in}"
        )
    return math.prod(dims[:sub]), math.prod(dims[sub + 1 :])


def _trace(v: np.ndarray, weights: np.ndarray | None = None) -> np.ndarray:
    """Trace of V diag(weights) V^dagger for each factor V along ``v``'s leading (branch) axis.

    ``weights`` weighs the columns; None weighs each by 1, giving ||V||_F^2.
    """
    if weights is not None:
        v = v * np.sqrt(weights)
    x = np.ascontiguousarray(v).reshape(len(v), -1).view(np.float64)
    return np.einsum("ij,ij->i", x, x)


def _first_outside(values: np.ndarray, high) -> int | None:
    """Flat index of the first value outside [0, high] by more than ``tolerance.FLOOR``, if any.

    ``high`` broadcasts against ``values``; NaN is outside.
    """
    if values.min() >= -tolerance.FLOOR and (values - high).max() <= tolerance.FLOOR:
        return None
    inside = (values >= -tolerance.FLOOR) & (values <= high + tolerance.FLOOR)
    return int(np.flatnonzero(~inside)[0])


def _check_outcomes(traces: np.ndarray, parent: np.ndarray, iv: Intervention) -> None:
    """Bound every branch trace of ``iv``'s outcomes by the derived growth of its parent's trace.

    ``traces`` is outcome-minor, ``parent`` holds one trace per parent.
    """
    m = len(iv.outcomes)
    high = parent * tolerance.growth(iv.d_in, iv.deviation)
    if (i := _first_outside(traces.reshape(-1, m), high[:, None])) is not None:
        label = iv.outcomes[i % m].label
        what = f"branch trace for outcome {label!r}"
        tolerance.check(float(traces[i]), 0.0, float(high[i // m]), what)


def _branches(v: np.ndarray, iv: Intervention) -> np.ndarray:
    """Factors of every outcome's branch of every branch in ``v``, in one contraction.

    ``v`` is (branch n, b, d_in, a, width w), each branch's factor V with
    ``iv`` acting on its middle index after b dimensions. Outcome o's
    branch factor is [L_1 V, ..., L_k V] with L = I_b (x) A (x) I_a: the
    zero-padded Kraus stack (outcomes m, Kraus K, d_out max, d_in)
    contracts d_in once for all of them. Returns (n * m, b, d_out max, a,
    w * K), outcome-minor; column j * K + k holds Kraus matrix k on V's
    column j.
    """
    n, b, d, a, w = v.shape
    m, k, d_out, _ = iv._kraus_stack.shape
    rows = v.transpose(2, 0, 1, 3, 4).reshape(d, -1)
    out = (iv._kraus_stack.reshape(m * k * d_out, d) @ rows).reshape(m, k, d_out, n, b, a, w)
    return out.transpose(3, 0, 4, 2, 5, 6, 1).reshape(n * m, b, d_out, a, w * k)


def _outcome_probabilities(v: np.ndarray, iv: Intervention) -> np.ndarray:
    """Branch trace of every outcome of ``iv`` for every branch in ``v``, no branch built.

    ``v`` is laid out as for ``_branches``. An outcome's branch trace is
    Tr(E rho_red), with E its POVM element and rho_red = W W^dagger the
    state reduced to the addressed factor, W gathering every row of V that
    addresses factor entry x. Returns the traces outcome-minor.
    """
    n, b, d, a, w = v.shape
    x = v.transpose(0, 2, 1, 3, 4).reshape(n, d, b * a * w)
    red_t = (x.conj() @ x.transpose(0, 2, 1)).reshape(n, d * d)
    return (red_t @ iv.povm.reshape(-1, d * d).T).real.reshape(-1)


def povm_elements(iv: Intervention) -> list[tuple[str, CMatrix]]:
    """POVM element E = sum_m A_m^dagger A_m for each outcome.

    Each element is Hermitian and positive semidefinite by construction,
    and Tr(E rho) equals the branch trace of ``apply`` for that outcome.
    """
    return [(o.label, CMatrix(e)) for o, e in zip(iv.outcomes, iv.povm)]


def embed(liv: LocalIntervention, dims: Sequence[int]) -> Intervention:
    """Lift a one-factor intervention to the full composite space.

    Each local Kraus matrix a becomes I_before (x) a (x) I_after, where
    the identities cover the untouched factors. The embedded outcome
    dimensions replace the addressed factor's dimension with the local
    output dimension; completeness is inherited.
    """
    before, after = _factor_sizes(dims, liv.subsystem, liv.local.d_in)
    eye_b = CMatrix.identity(before)
    eye_a = CMatrix.identity(after)
    outcomes = []
    for o in liv.local.outcomes:
        lifted = tuple(kron(kron(eye_b, m), eye_a) for m in o.kraus)
        outcomes.append(Outcome(label=o.label, d_out=before * o.d_out * after, kraus=lifted))
    return Intervention(d_in=before * liv.local.d_in * after, outcomes=tuple(outcomes))


def random_intervention(
    d_in: int, outcome_dims: Sequence[int], seed: int
) -> Intervention:
    """Deterministic random complete intervention.

    Builds a Haar-style random isometry from the input space into the
    direct sum of the outcome spaces (QR of a complex Gaussian matrix,
    phases fixed by the R diagonal), then slices its rows into one Kraus
    matrix per outcome. Completeness holds by construction. The same
    seed always yields the same matrices; the generator is counter-based
    (Philox) keyed by the 64-bit seed.
    """
    outcome_dims = list(outcome_dims)
    if d_in < 1:
        raise ValueError("d_in must be positive")
    if not outcome_dims or any(d < 1 for d in outcome_dims):
        raise ValueError(f"outcome dimensions must be positive, got {outcome_dims}")
    total = sum(outcome_dims)
    if total < d_in:
        raise ValueError(
            f"sum of outcome dimensions {total} is smaller than d_in {d_in}; "
            "no isometry exists"
        )
    rng = np.random.Generator(np.random.Philox(key=seed))
    w = rng.standard_normal((total, d_in)) + 1j * rng.standard_normal((total, d_in))
    q, r = np.linalg.qr(w)
    d = np.diagonal(r)
    phases = np.where(np.abs(d) > 0, d / np.abs(np.where(np.abs(d) > 0, d, 1)), 1.0)
    q = q * phases.conj()
    outcomes = []
    row = 0
    for i, k in enumerate(outcome_dims):
        block = CMatrix(q[row : row + k, :])
        outcomes.append(Outcome(label=f"o{i}", d_out=k, kraus=(block,)))
        row += k
    return Intervention(d_in=d_in, outcomes=tuple(outcomes))
