"""Built-in scenarios: entangled-pair measurements, a dimension-changing
teleportation chain, a noncommuting negative control, and the seeded random
draws feeding the certifiers: product scenarios and the CLI's alternatives.
"""

from __future__ import annotations

import math

import numpy as np

from .linalg import CMatrix
from .intervention import Intervention, LocalIntervention, Outcome, random_intervention
from .experiment import Scenario, Station, evaluate_in_order
from .spacetime import Event, IntervalKind, classify

__all__ = [
    "builtin_scenarios",
    "chsh",
    "correlation",
    "dimension_change_scenario",
    "eprb",
    "export_builtin_scenarios",
    "noncommuting_counterexample",
    "random_product_scenario",
    "spin_analyzer",
    "teleport_intervention",
]

_DEFAULT_LAYOUT = (Event(id="A", t=0.0, x=1.0), Event(id="B", t=0.5, x=-1.0))


def spin_analyzer(angle: float) -> Intervention:
    """Binary projective measurement of spin along an in-plane direction.

    The "+" outcome projects onto the eigenvector of
    cos(angle) sigma_z + sin(angle) sigma_x with eigenvalue +1.
    """
    c, s = math.cos(angle), math.sin(angle)
    p_plus = 0.5 * np.array([[1.0 + c, s], [s, 1.0 - c]], dtype=complex)
    p_minus = np.eye(2, dtype=complex) - p_plus
    return Intervention(
        d_in=2,
        outcomes=(
            Outcome(label="+", d_out=2, kraus=(CMatrix(p_plus),)),
            Outcome(label="-", d_out=2, kraus=(CMatrix(p_minus),)),
        ),
    )


def _singlet() -> CMatrix:
    rho = np.zeros((4, 4), dtype=complex)
    # (|01> - |10>)/sqrt(2), written with exact entries
    rho[1, 1] = rho[2, 2] = 0.5
    rho[1, 2] = rho[2, 1] = -0.5
    return CMatrix(rho)


def eprb(
    angle_a: float,
    angle_b: float,
    layout: tuple[Event, Event] = _DEFAULT_LAYOUT,
) -> Scenario:
    """Singlet pair with one spin analyzer per side at spacelike events."""
    ev_a, ev_b = layout
    kind = classify(ev_a, ev_b)
    if kind is not IntervalKind.SPACELIKE:
        raise ValueError(
            f"analyzer events must be spacelike, got {kind.value} for "
            f"{ev_a.id!r} and {ev_b.id!r}"
        )
    return Scenario(
        dims0=(2, 2),
        rho0=_singlet(),
        stations=(
            Station(event=ev_a, local=LocalIntervention(0, spin_analyzer(angle_a))),
            Station(event=ev_b, local=LocalIntervention(1, spin_analyzer(angle_b))),
        ),
    )


def correlation(angle_a: float, angle_b: float) -> float:
    """Product expectation of the two +/-1 analyzer outcomes on the singlet."""
    s = eprb(angle_a, angle_b)
    result = evaluate_in_order(s, ["A", "B"])
    value = 0.0
    for rec, p in result.probabilities.items():
        outcomes = dict(rec)
        sign = (1.0 if outcomes["A"] == "+" else -1.0) * (
            1.0 if outcomes["B"] == "+" else -1.0
        )
        value += sign * p
    return value


def chsh(angles_a: tuple[float, float], angles_b: tuple[float, float]) -> float:
    """|E(a1,b1) + E(a1,b2) + E(a2,b1) - E(a2,b2)| from singlet evaluations."""
    a1, a2 = angles_a
    b1, b2 = angles_b
    return abs(
        correlation(a1, b1)
        + correlation(a1, b2)
        + correlation(a2, b1)
        - correlation(a2, b2)
    )


_BELL = {
    "phi+": np.array([[1.0, 0.0], [0.0, 1.0]], dtype=complex) / math.sqrt(2.0),
    "phi-": np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex) / math.sqrt(2.0),
    "psi+": np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex) / math.sqrt(2.0),
    "psi-": np.array([[0.0, 1.0], [-1.0, 0.0]], dtype=complex) / math.sqrt(2.0),
}

_PAULI = {
    "phi+": np.eye(2, dtype=complex),
    "phi-": np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex),
    "psi+": np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex),
    "psi-": np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
    @ np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex),
}


def teleport_intervention(d_out: int) -> Intervention:
    """Four-outcome qubit-to-qudit conversion by teleportation.

    An ancilla pair is prepared maximally entangled between a qubit and
    the first two levels of a d_out-dimensional system; the incoming
    qubit and the ancilla qubit are measured in the Bell basis, the
    outcome-conditioned correction is applied to the d_out system, and
    the measured pair is discarded. Each outcome's net Kraus matrix is
    the correction times the measured-projection matrix; all four
    branches compose to the same embedding isometry.
    """
    if d_out < 3:
        raise ValueError(f"teleportation target dimension must be at least 3, got {d_out}")
    e = np.zeros((d_out, 2), dtype=complex)
    e[0, 0] = e[1, 1] = 1.0
    # ancilla pair amplitudes: rows ancilla qubit, columns outgoing qudit
    phi = e.T.copy() / math.sqrt(2.0)
    rest = np.eye(d_out, dtype=complex) - e @ e.conj().T
    outcomes = []
    for label, beta in _BELL.items():
        measured = phi.T @ beta.conj().T  # (d_out, 2): project (in, ancilla) on the Bell state
        correction = e @ _PAULI[label].conj().T @ e.conj().T + rest
        outcomes.append(
            Outcome(label=label, d_out=d_out, kraus=(CMatrix(correction @ measured),))
        )
    return Intervention(d_in=2, outcomes=tuple(outcomes))


def dimension_change_scenario() -> Scenario:
    """Singlet pair converted to higher spins at two spacelike stations.

    Station A teleports its qubit into a 3-dimensional system and station
    B into a 5-dimensional one, so the composite dimension moves from 4
    to 15 along any admissible ordering (through 6 when A fires first,
    10 when B does).
    """
    ev_a, ev_b = _DEFAULT_LAYOUT
    return Scenario(
        dims0=(2, 2),
        rho0=_singlet(),
        stations=(
            Station(event=ev_a, local=LocalIntervention(0, teleport_intervention(3))),
            Station(event=ev_b, local=LocalIntervention(1, teleport_intervention(5))),
        ),
    )


def noncommuting_counterexample() -> Scenario:
    """Two spacelike stations measuring sigma_z then sigma_x on one qubit.

    Both address the same subsystem with noncommuting projectors, so the
    record probabilities depend on the chronological ordering; this is
    the negative control for the order-invariance certifier.
    """
    rho = np.zeros((2, 2), dtype=complex)
    rho[0, 0] = 1.0
    z = Intervention(
        d_in=2,
        outcomes=(
            Outcome("z+", 2, (CMatrix(np.diag([1.0, 0.0]).astype(complex)),)),
            Outcome("z-", 2, (CMatrix(np.diag([0.0, 1.0]).astype(complex)),)),
        ),
    )
    half = 0.5 * np.ones((2, 2), dtype=complex)
    x = Intervention(
        d_in=2,
        outcomes=(
            Outcome("x+", 2, (CMatrix(half),)),
            Outcome("x-", 2, (CMatrix(np.eye(2, dtype=complex) - half),)),
        ),
    )
    return Scenario(
        dims0=(2,),
        rho0=CMatrix(rho),
        stations=(
            Station(event=Event(id="Z", t=0.0, x=1.0), local=LocalIntervention(0, z)),
            Station(event=Event(id="X", t=0.5, x=-1.0), local=LocalIntervention(0, x)),
        ),
    )


def random_product_scenario(seed: int) -> Scenario:
    """Random spacelike product scenario, deterministic in the seed.

    Two to four stations each address their own qubit or qutrit with a
    random isometric intervention, events are mutually spacelike, and the
    initial state is a random pure state, so both certifiers must pass by
    construction.
    """
    rng = np.random.Generator(np.random.Philox(key=seed))
    n_stations = int(rng.integers(2, 5))
    dims = tuple(int(rng.integers(2, 4)) for _ in range(n_stations))
    total = int(np.prod(dims))
    v = rng.standard_normal(total) + 1j * rng.standard_normal(total)
    v /= np.linalg.norm(v)
    rho0 = CMatrix(np.outer(v, v.conj()))
    stations = []
    for i, d_in in enumerate(dims):
        iv = _drawn_intervention(rng, d_in)
        t = float(rng.uniform(-0.4, 0.4))
        stations.append(
            Station(
                event=Event(id=f"s{i}", t=t, x=2.0 * i),
                local=LocalIntervention(i, iv),
            )
        )
    return Scenario(dims0=dims, rho0=rho0, stations=tuple(stations))


def _drawn_intervention(rng: np.random.Generator, d_in: int) -> Intervention:
    """A random intervention on d_in dimensions: 1-3 outcomes of 1-3 dimensions, topped up to d_in."""
    outcome_dims = [int(rng.integers(1, 4)) for _ in range(int(rng.integers(1, 4)))]
    while sum(outcome_dims) < d_in:
        outcome_dims.append(int(rng.integers(1, 4)))
    return random_intervention(d_in, outcome_dims, seed=int(rng.integers(0, 2**62)))


def _generated_alternatives(s: Scenario, varied_id: str, seed: int) -> list[LocalIntervention]:
    """The CLI's no-signaling alternatives at a station: the identity and two drawn interventions."""
    st = s.station(varied_id)
    # Cases that differ in d_in cannot share one alternative; evaluation then
    # rejects it with the station named.
    d_in = next(iter(st.interventions().values())).d_in
    rng = np.random.Generator(np.random.Philox(key=seed))
    identity = Intervention(d_in, (Outcome("id", d_in, (CMatrix.identity(d_in),)),))
    drawn = [_drawn_intervention(rng, d_in) for _ in range(2)]
    return [LocalIntervention(st.subsystem, iv) for iv in (identity, *drawn)]


# The builder of each named scenario shipped with the package, keyed by file
# stem; each looks its generator up when called, so a rebound one is used.
_BUILTINS = {
    "eprb": lambda: eprb(0.0, math.pi / 3.0),
    "counterexample": lambda: noncommuting_counterexample(),
    "dimension_change": lambda: dimension_change_scenario(),
}


def builtin_scenarios() -> dict[str, Scenario]:
    """The named scenarios shipped with the package, keyed by file stem."""
    return {name: build() for name, build in _BUILTINS.items()}


def export_builtin_scenarios(directory) -> list:
    """Write every built-in scenario as a JSON file; returns the paths."""
    from pathlib import Path

    from .schema import serialize_scenario

    out = Path(directory)
    out.mkdir(parents=True, exist_ok=True)
    paths = []
    for name, scenario in builtin_scenarios().items():
        path = out / f"{name}.json"
        path.write_text(serialize_scenario(scenario), encoding="utf-8")
        paths.append(path)
    return paths
