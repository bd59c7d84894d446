"""Kraus-operator interventions, possibly rectangular and dimension-changing.

An intervention maps a d_in-dimensional state to one unnormalized branch
state per outcome, rho -> sum_m A_m rho A_m^dagger, where the Kraus
matrices of an outcome may have more or fewer rows than columns (the
output Hilbert space need not match the input). Completeness of the full
branch set is enforced at construction so that branch traces always form
a probability distribution. The same branch acts on a factor V of
rho = V V^dagger as V -> [A_1 V, ..., A_k V], one product per Kraus matrix;
the evaluator's kernel applies it to a whole stack of factors at once.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
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

    Every other field is derived once, here, as a read-only array:
    ``_kraus_stack`` holds the Kraus matrices, zero-padded to (outcomes,
    Kraus, d_out max, d_in); ``povm`` each outcome's POVM element
    E = sum_m A_m^dagger A_m, in outcome order, as (outcomes, d_in, d_in),
    from one contraction of that stack; ``_povm_roots`` a root F of each,
    F^dagger F = E, from one eigh of ``povm``: the rows sqrt(lambda) u^dagger
    of E's eigenpairs above ``tolerance.root_cutoff``, largest first,
    zero-padded to (outcomes, 1, largest rank, d_in). ``growth`` bounds how
    much firing either stack can raise a trace: ``tolerance.growth`` at the
    deviation plus the absolute sum of the eigenvalues the roots drop.
    ``_one_d_out`` says whether every outcome has the same d_out. Equality
    and the hash are over (d_in, outcomes); Kraus matrices compare by identity.
    """

    d_in: int
    outcomes: tuple[Outcome, ...]
    deviation: float = field(init=False, repr=False, compare=False)
    growth: float = field(init=False, repr=False, compare=False)
    povm: np.ndarray = field(init=False, repr=False, compare=False)
    _kraus_stack: np.ndarray = field(init=False, repr=False, compare=False)
    _povm_roots: np.ndarray = field(init=False, repr=False, compare=False)
    _one_d_out: bool = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "outcomes", tuple(self.outcomes))
        if self.d_in < 1:
            raise ValueError("d_in must be positive")
        if not self.outcomes:
            raise ValueError("an intervention needs at least one outcome")
        labels = [o.label for o in self.outcomes]
        if len(set(labels)) != len(labels):
            raise ValueError(f"outcome labels must be distinct, got {labels}")
        m, d = len(self.outcomes), self.d_in
        stack = np.zeros(
            (m, max(len(o.kraus) for o in self.outcomes), max(o.d_out for o in self.outcomes), d),
            dtype=complex,
        )
        for i, o in enumerate(self.outcomes):
            for k, a in enumerate(o.kraus):
                if a.shape != (o.d_out, d):
                    raise DimensionError(
                        f"outcome {o.label!r} Kraus[{k}] is {a.rows}x{a.cols}, "
                        f"expected {o.d_out}x{d}"
                    )
                stack[i, k, : o.d_out] = a.array
        rows = stack.reshape(m, -1, d)
        povm = rows.conj().transpose(0, 2, 1) @ rows
        worst = deviation(povm.sum(axis=0))
        if worst > tolerance.COMPLETENESS:
            raise CompletenessError(
                f"Kraus completeness violated: sum of A^dagger A deviates from the "
                f"{d}-dim identity by {worst:.3e} (tolerance {tolerance.COMPLETENESS})",
                worst,
            )
        w, u = np.linalg.eigh(povm)
        kept = w > tolerance.root_cutoff(d)
        # eigh sorts ascending, so each outcome's kept eigenpairs lie among its last ``rank``.
        rank = kept.sum(axis=1).max()
        top = slice(None, -rank - 1, -1)
        roots = np.sqrt(np.where(kept, w, 0.0)[:, top, None]) * u[:, :, top].conj().transpose(0, 2, 1)
        roots = np.ascontiguousarray(roots[:, None])
        for name, value in (("_kraus_stack", stack), ("povm", povm), ("_povm_roots", roots)):
            value.setflags(write=False)
            object.__setattr__(self, name, value)
        object.__setattr__(self, "deviation", worst)
        object.__setattr__(self, "_one_d_out", len({o.d_out for o in self.outcomes}) == 1)
        object.__setattr__(self, "growth", tolerance.growth(d, worst + float(np.abs(w[~kept]).sum())))

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
    high = float(np.trace(rho.array).real) * iv.growth
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
    return np.add.reduce(x * x, axis=1)


def _first_outside(traces: np.ndarray, high) -> int | None:
    """Flat index of the first trace above ``high`` by more than ``tolerance.FLOOR``, or NaN, if any.

    ``high`` broadcasts against ``traces``. A trace from ``_trace`` is a sum
    of squares, never below 0, so one maximum checks the bound, and it
    propagates NaN, which then fails the comparison.
    """
    excess = traces - high
    if np.maximum.reduce(excess, axis=None) <= tolerance.FLOOR:
        return None
    return int(np.flatnonzero(~(excess <= tolerance.FLOOR))[0])


def _check_outcomes(traces: np.ndarray, parent: np.ndarray, outcomes: Sequence[Outcome], growth) -> None:
    """Bound every branch trace of ``outcomes`` by a derived growth times its parent's trace.

    ``traces`` is outcome-minor, ``parent`` holds one trace per parent, and
    ``growth`` is one bound for all outcomes or an array of one per outcome.
    """
    m = len(outcomes)
    if (i := _first_outside(traces.reshape(-1, m), parent[:, None] * growth)) is not None:
        what = f"branch trace for outcome {outcomes[i % m].label!r}"
        high = parent[i // m] * (growth if np.ndim(growth) == 0 else growth[i % m])
        tolerance.check(float(traces[i]), 0.0, float(high), what)


def _branches(v: np.ndarray, stack: np.ndarray) -> np.ndarray:
    """Factors of every outcome's branch of every branch in ``v``, in one contraction.

    ``v`` is (branch n, b, d_in, a, width w), each branch's factor V with
    the intervention acting on its middle index after b dimensions.
    ``stack`` is (outcomes m, K, rows, d_in), zero-padded: the intervention's
    ``_kraus_stack``, or its ``_povm_roots`` (K = 1) where no later map acts
    on the factor, so only F^dagger F = E matters. Outcome o's branch factor
    is [L_1 V, ..., L_K V] with L = I_b (x) A (x) I_a, A the stack's matrices
    of o; one product contracts d_in for all of them. Returns (n * m, b,
    rows, a, w * K), outcome-minor; column j * K + k holds matrix k on V's
    column j. The a and w axes stay adjacent, so the output transpose
    moves them as one.
    """
    n, b, d, a, w = v.shape
    m, k, rows_out, _ = stack.shape
    rows = v.transpose(2, 0, 1, 3, 4).reshape(d, -1)
    out = (stack.reshape(m * k * rows_out, d) @ rows).reshape(m, k, rows_out, n, b, a * w)
    return out.transpose(3, 0, 4, 2, 5, 1).reshape(n * m, b, rows_out, a, w * k)


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
