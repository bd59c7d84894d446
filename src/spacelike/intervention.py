"""Kraus-operator interventions, possibly rectangular and dimension-changing.

An intervention maps a d_in-dimensional state to one unnormalized branch
state per outcome, rho -> sum_m A_m rho A_m^dagger, where the Kraus
matrices of an outcome may have more or fewer rows than columns (the
output Hilbert space need not match the input). Completeness of the full
branch set is enforced at construction so that branch traces always form
a probability distribution.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from . import tolerance
from .linalg import CMatrix, DimensionError, deviation, kron, matmul, max_abs_diff, trace

__all__ = [
    "CompletenessError",
    "CommutationReport",
    "Intervention",
    "LocalIntervention",
    "Outcome",
    "apply",
    "commutes",
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
    """

    d_in: int
    outcomes: tuple[Outcome, ...]
    deviation: float = field(init=False, repr=False, compare=False)

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
        worst = deviation(sum(m.array.conj().T @ m.array for o in self.outcomes for m in o.kraus))
        if worst > tolerance.COMPLETENESS:
            raise CompletenessError(
                f"Kraus completeness violated: sum of A^dagger A deviates from the "
                f"{self.d_in}-dim identity by {worst:.3e} (tolerance {tolerance.COMPLETENESS})",
                worst,
            )
        object.__setattr__(self, "deviation", worst)

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
    within the intervention's completeness deviation.
    """
    if rho.rows != rho.cols:
        raise DimensionError(f"state must be square, got {rho.rows}x{rho.cols}")
    if rho.rows != iv.d_in:
        raise DimensionError(
            f"state dimension {rho.rows} does not match intervention d_in {iv.d_in}"
        )
    if deviation(rho.array, rho.array.conj().T) > tolerance.HERMITICITY:
        raise ValueError("state must be Hermitian")
    o = iv.outcome(mu)
    acc = np.zeros((o.d_out, o.d_out), dtype=np.complex128)
    for m in o.kraus:
        acc += m.array @ rho.array @ m.array.conj().T
    out = CMatrix(acc)
    in_tr = trace(rho).real
    tolerance.check(
        trace(out).real,
        0.0,
        in_tr * tolerance.growth(iv.d_in, iv.deviation),
        f"branch trace for outcome {mu!r}",
    )
    return out


def povm_elements(iv: Intervention) -> list[tuple[str, CMatrix]]:
    """POVM element E = sum_m A_m^dagger A_m for each outcome.

    Each element is Hermitian and positive semidefinite by construction,
    and Tr(E rho) equals the branch trace of ``apply`` for that outcome.
    """
    out = []
    for o in iv.outcomes:
        acc = np.zeros((iv.d_in, iv.d_in), dtype=np.complex128)
        for m in o.kraus:
            acc += m.array.conj().T @ m.array
        out.append((o.label, CMatrix(acc)))
    return out


def embed(liv: LocalIntervention, dims: Sequence[int]) -> Intervention:
    """Lift a one-factor intervention to the full composite space.

    Each local Kraus matrix a becomes I_before (x) a (x) I_after, where
    the identities cover the untouched factors. The embedded outcome
    dimensions replace the addressed factor's dimension with the local
    output dimension; completeness is inherited.
    """
    dims = list(dims)
    if not 0 <= liv.subsystem < len(dims):
        raise DimensionError(
            f"subsystem index {liv.subsystem} out of range for {len(dims)} factors"
        )
    if dims[liv.subsystem] != liv.local.d_in:
        raise DimensionError(
            f"factor {liv.subsystem} has dimension {dims[liv.subsystem]}, but the "
            f"local intervention expects d_in {liv.local.d_in}"
        )
    before = math.prod(dims[: liv.subsystem])
    after = math.prod(dims[liv.subsystem + 1 :])
    d_in_full = before * liv.local.d_in * after
    eye_b = CMatrix.identity(before)
    eye_a = CMatrix.identity(after)
    outcomes = []
    for o in liv.local.outcomes:
        lifted = tuple(kron(kron(eye_b, m), eye_a) for m in o.kraus)
        outcomes.append(Outcome(label=o.label, d_out=before * o.d_out * after, kraus=lifted))
    return Intervention(d_in=d_in_full, outcomes=tuple(outcomes))


@dataclass(frozen=True)
class CommutationReport:
    ok: bool
    worst: float


def commutes(
    a_set: Sequence[CMatrix], b_set: Sequence[CMatrix], tol: float
) -> CommutationReport:
    """Check that every matrix of one set commutes with every matrix of the other.

    All matrices must be square and of one common dimension; compare
    dimension-changing interventions by embedding both into the composite
    space first.
    """
    mats = list(a_set) + list(b_set)
    if not mats:
        raise ValueError("commutes needs at least one matrix per set")
    n = mats[0].rows
    for m in mats:
        if m.rows != m.cols or m.rows != n:
            raise DimensionError(
                f"commutation check needs square matrices of one dimension; "
                f"got {m.rows}x{m.cols} alongside {n}x{n}"
            )
    worst = 0.0
    for a in a_set:
        for b in b_set:
            worst = max(worst, max_abs_diff(matmul(a, b), matmul(b, a)))
    return CommutationReport(ok=worst <= tol, worst=worst)


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
