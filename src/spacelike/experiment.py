"""Scenario assembly and the core evaluators.

A scenario is an initial density matrix over listed subsystem
dimensions, a set of stations (spacetime event plus a local
intervention), and optional unitary evolutions between chain positions.
Evaluating a scenario under a chronological ordering produces one
unnormalized final state per outcome record; its trace is the record's
probability.

Two certifiers operate on top of the evaluator:

* ``check_order_invariance`` evaluates every admissible chronological
  ordering (every linear extension of the causal partial order, a
  strictly stronger set than the frame-realizable ones) and reports the
  worst spread of any record probability across orderings.
* ``check_no_signaling`` replaces one station's intervention by
  alternatives and reports the worst change in a spacelike-separated
  station's marginal distribution.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Mapping, Sequence

import numpy as np

from . import tolerance
from .linalg import CMatrix, DimensionError, deviation, trace
from .intervention import Intervention, LocalIntervention, _branch, _factor_sizes
# Not called here (_branch contracts each Kraus matrix on its own factor); bound
# only because the benchmark's tracer, bench/tracer.py, rebinds these names.
from .intervention import apply, embed  # noqa: F401
from .spacetime import (
    Event,
    Frame,
    IntervalKind,
    TieReport,
    causal_order,
    classify,
    frame_ordering,
    linear_extensions,
)

__all__ = [
    "ConditionalLocal",
    "EvaluationResult",
    "Evolution",
    "InvarianceReport",
    "NoSignalingReport",
    "Record",
    "Scenario",
    "StateError",
    "Station",
    "TieError",
    "check_no_signaling",
    "check_order_invariance",
    "compare_orderings",
    "evaluate_in_frame",
    "evaluate_in_order",
    "marginal",
    "state_at_cut",
]

# A record assigns one outcome label per station; stored canonically as
# (station id, label) pairs sorted by station id so that results from
# different evaluation orders are directly comparable.
Record = tuple[tuple[str, str], ...]


class StateError(ValueError):
    """The initial state is not a density matrix within ``tolerance.STATE``."""


class TieError(RuntimeError):
    """Frame ordering hit a tie; carries the TieReport for the caller."""

    def __init__(self, report: TieReport):
        super().__init__(
            f"boosted times coincide at velocity {report.velocity} for pairs {report.pairs}; "
            "evaluate both resolutions explicitly"
        )
        self.report = report


@dataclass(frozen=True)
class ConditionalLocal:
    """A station whose intervention depends on outcomes of earlier stations.

    ``depends_on`` lists the station ids whose outcomes select the case;
    ``cases`` maps the tuple of their labels (in depends_on order) to the
    intervention to fire. The certifiers accept such stations only when
    every station in depends_on is causally prior.
    """

    subsystem: int
    depends_on: tuple[str, ...]
    cases: Mapping[tuple[str, ...], Intervention]

    def __post_init__(self):
        if not self.depends_on:
            raise ValueError("depends_on must name at least one station")
        if not self.cases:
            raise ValueError("cases must not be empty")
        for key in self.cases:
            if len(key) != len(self.depends_on):
                raise ValueError(
                    f"case key {key} does not match depends_on arity {len(self.depends_on)}"
                )


@dataclass(frozen=True)
class Station:
    """A spacetime event together with the intervention fired there."""

    event: Event
    local: LocalIntervention | ConditionalLocal

    @property
    def id(self) -> str:
        return self.event.id

    @property
    def subsystem(self) -> int:
        return self.local.subsystem

    def interventions(self) -> dict[tuple[str, ...], Intervention]:
        """Every intervention the station may fire, keyed by the outcomes selecting it."""
        if isinstance(self.local, LocalIntervention):
            return {(): self.local.local}
        return dict(self.local.cases)

    def resolve(self, history: Mapping[str, str]) -> Intervention:
        """Intervention to fire given the outcomes recorded so far."""
        if isinstance(self.local, LocalIntervention):
            return self.local.local
        key = []
        for dep in self.local.depends_on:
            if dep not in history:
                raise ValueError(
                    f"station {self.id!r} depends on {dep!r}, which has not fired yet"
                )
            key.append(history[dep])
        key = tuple(key)
        if key not in self.local.cases:
            raise ValueError(f"station {self.id!r} has no intervention case for {key}")
        return self.local.cases[key]

    def possible_labels(self) -> set[str]:
        return {label for iv in self.interventions().values() for label in iv.labels()}


@dataclass(frozen=True)
class Evolution:
    """Unitary free evolution between two chain positions.

    ``after`` is the station that has just fired (None for the segment
    before the first station) and ``before`` the station about to fire
    (None for the segment after the last). ``history`` restricts the
    entry to runs whose recorded outcomes extend it; entries for one
    (after, before) pair must have mutually exclusive histories. A
    missing entry means identity evolution.
    """

    after: str | None
    before: str | None
    matrix: CMatrix
    history: Mapping[str, str] = field(default_factory=dict)

    def matches(self, after: str | None, before: str | None, history: Mapping[str, str]) -> bool:
        if self.after != after or self.before != before:
            return False
        return all(history.get(k) == v for k, v in self.history.items())


def _histories_compatible(h1: Mapping[str, str], h2: Mapping[str, str]) -> bool:
    return all(h1[k] == h2[k] for k in h1.keys() & h2.keys())


@dataclass(frozen=True)
class Scenario:
    """Initial state, stations, and inter-station evolutions.

    ``growth`` bounds how much the whole chain can raise a trace: the
    product of ``tolerance.growth`` over every station's worst
    intervention and every evolution.
    """

    dims0: tuple[int, ...]
    rho0: CMatrix
    stations: tuple[Station, ...]
    evolutions: tuple[Evolution, ...] = ()
    growth: float = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "dims0", tuple(self.dims0))
        object.__setattr__(self, "stations", tuple(self.stations))
        object.__setattr__(self, "evolutions", tuple(self.evolutions))
        if any(d < 1 for d in self.dims0):
            raise ValueError(f"subsystem dimensions must be positive, got {self.dims0}")
        total = math.prod(self.dims0)
        if self.rho0.shape != (total, total):
            raise DimensionError(
                f"initial state is {self.rho0.rows}x{self.rho0.cols}, but the "
                f"dimensions {list(self.dims0)} require {total}x{total}"
            )
        rho, adj = self.rho0.array, self.rho0.array.conj().T
        tr = trace(self.rho0)
        if abs(tr - 1.0) > tolerance.STATE:
            raise StateError(f"initial state trace must be 1, got {tr}")
        if deviation(rho, adj) > tolerance.STATE:
            raise StateError("initial state must be Hermitian")
        # rho + rho^dagger + 2 (STATE / total) I has a Cholesky factor iff no eigenvalue
        # of rho's Hermitian part lies below -STATE / total; far cheaper than eigvalsh.
        shifted = rho + adj
        shifted.flat[:: total + 1] += 2 * tolerance.STATE / total
        try:
            np.linalg.cholesky(shifted)
        except np.linalg.LinAlgError:
            raise StateError("initial state must be positive semidefinite") from None
        ids = [s.id for s in self.stations]
        if len(set(ids)) != len(ids):
            raise ValueError(f"station ids must be unique, got {ids}")
        known = set(ids)
        growth = 1.0
        for st in self.stations:
            growth *= max(
                tolerance.growth(iv.d_in, iv.deviation) for iv in st.interventions().values()
            )
        for ev in self.evolutions:
            for end in (ev.after, ev.before):
                if end is not None and end not in known:
                    raise ValueError(f"evolution references unknown station {end!r}")
            if ev.after is None and ev.before is None:
                raise ValueError("evolution must attach to at least one station")
            for k, v in ev.history.items():
                if k not in known:
                    raise ValueError(f"evolution history references unknown station {k!r}")
                labels = self.station(k).possible_labels()
                if v not in labels:
                    raise ValueError(
                        f"evolution history names outcome {v!r} unknown to station {k!r}"
                    )
            m = ev.matrix
            if m.rows != m.cols:
                raise DimensionError("evolution matrices must be square")
            dev = deviation(m.array.conj().T @ m.array)
            if dev > tolerance.UNITARITY:
                raise ValueError(
                    f"evolution between {ev.after!r} and {ev.before!r} is not unitary "
                    f"(deviation {dev:.3e})"
                )
            growth *= tolerance.growth(m.rows, dev)
        object.__setattr__(self, "growth", growth)
        for i, e1 in enumerate(self.evolutions):
            for e2 in self.evolutions[i + 1 :]:
                if (e1.after, e1.before) == (e2.after, e2.before) and _histories_compatible(
                    e1.history, e2.history
                ):
                    raise ValueError(
                        f"evolutions between {e1.after!r} and {e1.before!r} have "
                        "overlapping history conditions; matches must be unambiguous"
                    )

    def station(self, station_id: str) -> Station:
        for s in self.stations:
            if s.id == station_id:
                return s
        raise KeyError(f"unknown station {station_id!r}")

    def events(self) -> list[Event]:
        return [s.event for s in self.stations]

    def causal(self) -> set[tuple[str, str]]:
        return causal_order(self.events())

    def _evolution_for(
        self, after: str | None, before: str | None, history: Mapping[str, str]
    ) -> CMatrix | None:
        hits = (ev.matrix for ev in self.evolutions if ev.matches(after, before, history))
        return next(hits, None)


@dataclass(frozen=True)
class EvaluationResult:
    """Per-record probabilities and unnormalized final states for one ordering."""

    ordering: tuple[str, ...]
    probabilities: dict[Record, float]
    final_states: dict[Record, CMatrix]

    def records(self) -> list[Record]:
        return sorted(self.probabilities)

    def as_dict(self) -> dict:
        return {
            "ordering": list(self.ordering),
            "records": [
                {"outcomes": dict(rec), "probability": self.probabilities[rec]}
                for rec in self.records()
            ],
        }


def _apply_unitary(state: np.ndarray, u: CMatrix, position: str) -> np.ndarray:
    if u.rows != state.shape[0]:
        raise DimensionError(
            f"evolution {position} is {u.rows}x{u.cols}, but the state there is "
            f"{state.shape[0]}-dimensional"
        )
    out = u.array @ state @ u.array.conj().T
    out.setflags(write=False)
    return out


def evaluate_in_order(s: Scenario, order: Sequence[str]) -> EvaluationResult:
    """Evaluate every outcome record under one chronological ordering.

    The ordering must be a permutation of the station ids and a linear
    extension of the causal partial order of their events. For each
    record the final state is the sum over Kraus index tuples of
    K rho0 K^dagger with K the right-to-left product of evolutions and
    Kraus matrices in chain order, each Kraus matrix acting on its own
    factor; its trace is the record probability. States travel between
    stations as read-only arrays; only the final states become CMatrix.
    """
    order = tuple(order)
    ids = {st.id for st in s.stations}
    if set(order) != ids or len(order) != len(ids):
        raise ValueError(f"order {order} is not a permutation of station ids {sorted(ids)}")
    causal = s.causal()
    pos = {sid: i for i, sid in enumerate(order)}
    for (a, b) in causal:
        if pos[a] > pos[b]:
            raise ValueError(
                f"order places {a!r} after {b!r}, violating their causal order"
            )

    probabilities: dict[Record, float] = {}
    final_states: dict[Record, CMatrix] = {}

    def emit(state: np.ndarray, history: dict[str, str]):
        rec: Record = tuple(sorted(history.items()))
        p = float(np.trace(state).real)
        probabilities[rec] = tolerance.check(p, 0.0, s.growth, f"probability of record {rec}")
        final_states[rec] = CMatrix(state)

    def walk(state: np.ndarray, dims: tuple[int, ...], history: dict[str, str], idx: int):
        prev = order[idx - 1] if idx > 0 else None
        if idx == len(order):
            u = s._evolution_for(prev, None, history)
            if u is not None:
                state = _apply_unitary(state, u, f"after {prev!r}")
            emit(state, history)
            return
        cur = order[idx]
        u = s._evolution_for(prev, cur, history)
        if u is not None:
            state = _apply_unitary(state, u, f"between {prev!r} and {cur!r}")
        st = s.station(cur)
        sub = st.subsystem
        iv = st.resolve(history)
        try:
            before, _ = _factor_sizes(dims, sub, iv.d_in)
        except DimensionError as exc:
            raise DimensionError(f"station {cur!r} at this point in the chain: {exc}") from exc
        for o in iv.outcomes:
            new_dims = dims[:sub] + (o.d_out,) + dims[sub + 1 :]
            walk(_branch(state, iv, o, before), new_dims, {**history, cur: o.label}, idx + 1)

    walk(s.rho0.array, tuple(s.dims0), {}, 0)
    tolerance.check(
        sum(probabilities.values()), 2.0 - s.growth, s.growth, "sum of record probabilities"
    )
    return EvaluationResult(
        ordering=order, probabilities=probabilities, final_states=final_states
    )


def evaluate_in_frame(s: Scenario, f: Frame) -> EvaluationResult:
    """Evaluate under the chronological ordering the boosted frame induces.

    Raises TieError when two stations share a boosted time within
    tolerance; the caller may then evaluate both resolutions explicitly.
    """
    ordered = frame_ordering(s.events(), f)
    if isinstance(ordered, TieReport):
        raise TieError(ordered)
    return evaluate_in_order(s, [e.id for e in ordered])


def marginal(result: EvaluationResult, station_id: str) -> dict[str, float]:
    """Outcome distribution of one station, summed over all other outcomes."""
    out: dict[str, float] = {}
    for rec, p in result.probabilities.items():
        entry = dict(rec)
        if station_id in entry:
            out[entry[station_id]] = out.get(entry[station_id], 0.0) + p
    if not out:
        raise KeyError(f"station {station_id!r} did not participate in this evaluation")
    return out


@dataclass(frozen=True)
class InvarianceWitness:
    record: Record
    order_low: tuple[str, ...]
    order_high: tuple[str, ...]
    p_low: float
    p_high: float


@dataclass(frozen=True)
class InvarianceReport:
    ok: bool
    worst: float
    orders_checked: int
    witness: InvarianceWitness | None = None

    def as_dict(self) -> dict:
        d = {"ok": self.ok, "worst": self.worst, "orders_checked": self.orders_checked}
        if self.witness is None:
            d["witness"] = None
        else:
            d["witness"] = {
                "record": dict(self.witness.record),
                "order_low": list(self.witness.order_low),
                "order_high": list(self.witness.order_high),
                "p_low": self.witness.p_low,
                "p_high": self.witness.p_high,
            }
        return d


def _require_causal_conditions(s: Scenario, causal: set[tuple[str, str]]) -> None:
    """Reject outcome-conditioned stations that depend on a station not causally prior."""
    for st in s.stations:
        if isinstance(st.local, ConditionalLocal):
            for dep in st.local.depends_on:
                if (dep, st.id) not in causal:
                    raise ValueError(
                        f"station {st.id!r} conditions on {dep!r}, which is not "
                        "causally prior; outcome dependence across spacelike "
                        "separation is rejected"
                    )


def _require_order_comparable(
    s: Scenario, causal: set[tuple[str, str]], extensions: list[tuple[str, ...]]
) -> None:
    """Reject scenarios whose dynamics cannot be compared across orderings.

    Non-identity evolutions must sit at a chain position that is the same
    in every admissible ordering (first, last, or an adjacency that every
    linear extension preserves); spacelike, reorderable segments must
    carry identity evolution. Outcome-conditioned stations may depend
    only on causally prior stations.
    """
    _require_causal_conditions(s, causal)
    for ev in s.evolutions:
        if deviation(ev.matrix.array) <= tolerance.IDENTITY:
            continue
        if ev.after is None:
            if not all(ext[0] == ev.before for ext in extensions):
                raise ValueError(
                    f"initial evolution before {ev.before!r} is order-dependent: "
                    f"{ev.before!r} is not first in every admissible ordering"
                )
        elif ev.before is None:
            if not all(ext[-1] == ev.after for ext in extensions):
                raise ValueError(
                    f"final evolution after {ev.after!r} is order-dependent: "
                    f"{ev.after!r} is not last in every admissible ordering"
                )
        else:
            for ext in extensions:
                i, j = ext.index(ev.after), ext.index(ev.before)
                if j != i + 1:
                    raise ValueError(
                        f"evolution between {ev.after!r} and {ev.before!r} is not an "
                        "invariant adjacency: a non-identity unitary on a reorderable "
                        "segment makes orderings incomparable"
                    )


def check_order_invariance(s: Scenario, tol: float) -> InvarianceReport:
    """Certify that record probabilities agree across every admissible ordering.

    Evaluates the scenario under every linear extension of the causal
    partial order and reports the maximal spread of any record
    probability; the witness names a maximal-spread record and the two
    orderings realizing it when the check fails.
    """
    causal = s.causal()
    extensions = linear_extensions(causal, s.events())
    _require_order_comparable(s, causal, extensions)
    results = [evaluate_in_order(s, ext) for ext in extensions]
    return compare_orderings(results, tol)


def compare_orderings(results: Sequence[EvaluationResult], tol: float) -> InvarianceReport:
    """Worst spread of any record probability across evaluations of one scenario.

    A record missing from an evaluation counts as probability 0; the
    witness names a maximal-spread record and the two orderings realizing
    it when the spread exceeds ``tol``.
    """
    all_records: set[Record] = set()
    for r in results:
        all_records.update(r.probabilities)
    worst = 0.0
    witness: InvarianceWitness | None = None
    for rec in sorted(all_records):
        values = [(r.probabilities.get(rec, 0.0), r.ordering) for r in results]
        lo = min(values)
        hi = max(values)
        spread = hi[0] - lo[0]
        if spread > worst:
            worst = spread
            witness = InvarianceWitness(
                record=rec, order_low=lo[1], order_high=hi[1], p_low=lo[0], p_high=hi[0]
            )
    ok = worst <= tol
    return InvarianceReport(
        ok=ok, worst=worst, orders_checked=len(results), witness=None if ok else witness
    )


@dataclass(frozen=True)
class NoSignalingReport:
    ok: bool
    worst: float
    target: str
    varied: str
    alternatives_checked: int

    def as_dict(self) -> dict:
        return {
            "ok": self.ok,
            "worst": self.worst,
            "target": self.target,
            "varied": self.varied,
            "alternatives_checked": self.alternatives_checked,
        }


def _chronological_ids(s: Scenario) -> list[str]:
    # Time-sorted station ids; always a linear extension of the causal order.
    return [st.id for st in sorted(s.stations, key=lambda st: (st.event.t, st.id))]


def _infer_varied(s: Scenario, target: str, alternatives: Sequence[LocalIntervention]) -> str:
    if not alternatives:
        raise ValueError("cannot infer the varied station from an empty alternatives list")
    subsystems = {alt.subsystem for alt in alternatives}
    if len(subsystems) != 1:
        raise ValueError(
            f"alternatives address several subsystems {sorted(subsystems)}; "
            "pass the varied station explicitly"
        )
    sub = subsystems.pop()
    hits = [st.id for st in s.stations if st.subsystem == sub and st.id != target]
    if len(hits) != 1:
        raise ValueError(
            f"{len(hits)} non-target stations act on subsystem {sub}; "
            "pass the varied station explicitly"
        )
    return hits[0]


def check_no_signaling(
    s: Scenario,
    target: str,
    alternatives: Sequence[LocalIntervention],
    tol: float,
    varied: str | None = None,
) -> NoSignalingReport:
    """Certify that one station's marginal ignores a spacelike station's choice.

    Replaces the varied station's intervention by each alternative in
    turn (the original is always included), evaluates in one admissible
    ordering, and reports the worst change of any entry of the
    ``target`` station's marginal distribution. The two stations must be
    mutually spacelike; each alternative must act on the varied station's
    own subsystem. When ``varied`` is omitted it is inferred from the
    subsystem the alternatives address, provided exactly one
    non-target station acts there.
    """
    if varied is None:
        varied = _infer_varied(s, target, alternatives)
    if target == varied:
        raise ValueError("target and varied station must differ")
    t_st = s.station(target)
    v_st = s.station(varied)
    kind = classify(v_st.event, t_st.event)
    if kind is not IntervalKind.SPACELIKE:
        raise ValueError(
            f"stations {varied!r} and {target!r} are {kind.value}, not spacelike; "
            "the no-signaling claim applies only to spacelike separation"
        )
    _require_causal_conditions(s, s.causal())
    for alt in alternatives:
        if alt.subsystem != v_st.subsystem:
            raise ValueError(
                f"alternative addresses subsystem {alt.subsystem}, but station "
                f"{varied!r} acts on subsystem {v_st.subsystem}"
            )

    order = _chronological_ids(s)

    def with_varied(local: LocalIntervention) -> Scenario:
        stations = tuple(Station(st.event, local) if st.id == varied else st for st in s.stations)
        return Scenario(dims0=s.dims0, rho0=s.rho0, stations=stations, evolutions=s.evolutions)

    # The original candidate is s itself; only the alternatives need a rebuilt scenario.
    variants = [s, *map(with_varied, alternatives)]
    marginals = [marginal(evaluate_in_order(v, order), target) for v in variants]
    worst = max(
        max(m.get(label, 0.0) for m in marginals) - min(m.get(label, 0.0) for m in marginals)
        for label in set().union(*marginals)
    )
    return NoSignalingReport(
        ok=worst <= tol,
        worst=worst,
        target=target,
        varied=varied,
        alternatives_checked=len(variants),
    )


@dataclass(frozen=True)
class CutState:
    """Unnormalized state of one record prefix at a causal cut point."""

    record: Record
    dims: tuple[int, ...]
    state: CMatrix


def state_at_cut(s: Scenario, t: float, x: float) -> list[CutState]:
    """Chain-prefix states at a spacetime point no station is spacelike to.

    Experimental. Valid only when every station is strictly inside the
    past or future light cone of (t, x); the returned states are the
    unnormalized branch states right after the last past-cone
    intervention (with the evolutions between past stations applied, and
    none of the slab crossing the cut).
    """
    cut = Event(id="__cut__", t=t, x=x)
    past, future = [], []
    for st in s.stations:
        kind = classify(cut, st.event)
        if kind in (IntervalKind.TIMELIKE_FUTURE, IntervalKind.LIGHTLIKE_FUTURE):
            future.append(st)
        elif kind in (IntervalKind.TIMELIKE_PAST, IntervalKind.LIGHTLIKE_PAST):
            past.append(st)
        else:
            raise ValueError(
                f"station {st.id!r} is {kind.value} with respect to the cut point; "
                "an intermediate state is well-defined only when no intervention is "
                "spacelike from it"
            )
    prefix = Scenario(
        dims0=s.dims0,
        rho0=s.rho0,
        stations=tuple(past),
        evolutions=tuple(
            ev
            for ev in s.evolutions
            if (ev.after is None or any(st.id == ev.after for st in past))
            and ev.before is not None
            and any(st.id == ev.before for st in past)
        ),
    )
    if not past:
        return [CutState(record=(), dims=tuple(s.dims0), state=s.rho0)]
    result = evaluate_in_order(prefix, _chronological_ids(prefix))
    out = []
    for rec in result.records():
        state = result.final_states[rec]
        dims = _dims_after(s, rec)
        out.append(CutState(record=rec, dims=dims, state=state))
    return out


def _dims_after(s: Scenario, rec: Record) -> tuple[int, ...]:
    dims = list(s.dims0)
    assigned = dict(rec)
    for st in sorted(s.stations, key=lambda st: (st.event.t, st.id)):
        if st.id not in assigned:
            continue
        iv = st.resolve({k: v for k, v in assigned.items()})
        o = iv.outcome(assigned[st.id])
        dims[st.subsystem] = o.d_out
    return tuple(dims)
