"""The package's one tolerance policy.

Acceptance tolerances say how far an input may sit from its ideal form.
Runtime bounds are derived from them, so an accepted input cannot fail a
later check; one that still fails is an internal invariant failure and
raises ValueError.

* A d x d matrix's operator norm is at most d times its largest entry, so
  an intervention accepted at completeness deviation delta (largest entry
  of sum A^dagger A - I), or an evolution at unitarity deviation delta,
  multiplies a trace by at most ``growth(d, delta)`` = 1 + d * delta.
* rho0 is accepted with |tr - 1| <= STATE and no eigenvalue below
  -STATE / D, checked by the certified factorization that gives the
  evaluator its factor V (rho0 ~ V V^dagger); what V leaves out has trace
  at most STATE in size (``rank_cutoff``), of either sign, and float
  rounding adds far less than STATE to a trace. ``FLOOR`` covers all three.
* A station that no later station or evolution acts on fires through a
  root F of each POVM element E (F^dagger F = E) that drops E's eigenvalues
  at or below ``root_cutoff``. The dropped ones change the sum of
  F^dagger F over outcomes by at most their absolute sum in any entry, so
  ``Intervention.growth`` is ``growth`` at the completeness deviation plus
  that sum: the bound covers the roots as well as the Kraus matrices, and
  composes, by product, over any number of such stations.
"""

import math
import sys

EPS = sys.float_info.epsilon  # 2^-52, the relative rounding of one float operation

TIE = 1e-12  # boosted times this close are a tie, reported rather than broken
COMPLETENESS = 1e-9  # largest entry of sum A^dagger A - I of an intervention
UNITARITY = 1e-9  # largest entry of U^dagger U - I of an evolution
HERMITICITY = 1e-9  # largest entry of rho - rho^dagger of a state passed to apply
STATE = 1e-12  # rho0: largest |tr - 1|, entry of rho0 - rho0^dagger, negative mass
IDENTITY = 1e-12  # an evolution this close to I, entrywise, counts as none
FLOOR = 3 * STATE  # absolute allowance of every runtime trace bound


def growth(d: int, deviation: float) -> float:
    """Bound on how much a map accepted at ``deviation`` on d dimensions can raise a trace."""
    return 1.0 + d * deviation


def rank_cutoff(d: int) -> float:
    """Largest eigenvalue of a d x d rho0 dropped from its factor, and the most negative accepted.

    With h rho0's Hermitian part and R = h - C diag(w) C^dagger, all w > 0,
    either a pivoted LDL^dagger of h is certified by ||R||_F <= rank_cutoff(d),
    as a positive semidefinite h is up to rounding (R is then a positive
    semidefinite Schur complement, no diagonal entry above rank_cutoff(d) / d),
    so by Weyl no eigenvalue of h lies below -rank_cutoff(d), and |tr R| <=
    sqrt(d) ||R||_F <= STATE; or eigh(h) rejects h below that and drops at
    most d eigenvalues in [-STATE / d, STATE / d], so |tr R| <= STATE. The
    factor's trace is then within 2 STATE of 1 for a rho0 accepted at
    |tr - 1| <= STATE, and ``FLOOR`` = 3 STATE covers both with rounding.
    """
    return STATE / d


def root_cutoff(d: int) -> float:
    """Largest eigenvalue of a d x d POVM element E dropped from its root.

    eigh's eigenvalues are exact for a matrix within a small multiple of
    EPS ||E|| of E, and ||E|| <= 1 up to the completeness deviation, so one
    at or below d EPS is rounding of a zero one (measured: at most 0.73 d
    EPS from 0 over 3,000 seeded random interventions). The dropped mass
    enters ``Intervention.growth``, so no runtime bound rests on this value.
    """
    return d * EPS


def check(value: float, low: float, high: float, what: str) -> float:
    """Return ``value`` if it lies in [low, high] within FLOOR; raise ValueError otherwise."""
    if not low - FLOOR <= value <= high + FLOOR:
        raise ValueError(
            f"{what} is {value!r}, outside the derived bounds [{low!r}, {high!r}] "
            "(internal invariant failure)"
        )
    return value


def positive_finite(tol: float) -> float:
    """Return a certifier's ``tol`` if it is positive and finite; raise ValueError naming it otherwise."""
    if not 0.0 < tol < math.inf:
        raise ValueError(f"tolerance must be positive and finite, got {tol!r}")
    return tol
