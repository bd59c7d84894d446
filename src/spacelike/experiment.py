"""Scenario assembly and the core evaluators.

A scenario is an initial density matrix over listed subsystem
dimensions, a set of stations (spacetime event plus a local
intervention), and optional unitary evolutions between chain positions.
Evaluating a scenario under a chronological ordering gives every outcome
record's probability: the trace of the record's unnormalized final state.
The evaluator carries a factor V of rho0 = V V^dagger, D x r with
r = rank(rho0), found when the scenario is built by a pivoted LDL^dagger
of rho0 that also checks its positivity, and walks one ordering level by
level: all live branches sit in stacked arrays, one contraction per
station applies its Kraus matrices to every branch, and a branch wider
than its dimension is recompressed. A station after which nothing acts on
its factor fires through roots of its POVM elements, so the final states,
V V^dagger per record, are built only when a caller reads them.

Two certifiers operate on top of the evaluator:

* ``check_order_invariance`` reports the worst spread of any record
  probability across every linear extension of the causal partial order
  (a strictly stronger set than the frame-realizable orderings). Where
  causally incomparable stations act on different subsystems and no
  evolution can move, they differ by swaps of commuting maps, and one is
  walked for its runtime checks, with no record built ("pairwise");
  otherwise all are evaluated, one at a time, and each record keeps only
  its least and greatest probability ("exhaustive").
* ``check_no_signaling`` replaces one station's intervention by
  alternatives and reports the worst change in a spacelike-separated
  station's marginal distribution, in an ordering that fires the varied
  station before the target. The candidates differ at the varied station
  only, so one walk serves them all: the varied station fires the union of
  their interventions, every other station fires once on all of their
  branches, and the last levels are split back into one table per
  candidate.

A scenario remembers only its last no-signaling walk, keyed by the
varied station and the alternatives, and the table that walk gave each
candidate (``_Memo``), so checking one varied station against each of
its targets walks once; nothing else writes the memo.
"""

from __future__ import annotations

import bisect
import itertools
import math
import operator
from dataclasses import asdict, dataclass, field, replace
from functools import cached_property
from typing import Collection, Iterable, Mapping, Sequence

import numpy as np

from . import tolerance
from .linalg import CMatrix, DimensionError, deviation, trace
from .intervention import Intervention, LocalIntervention, _factor_sizes, _trace
from .intervention import _branches, _check_outcomes
# Not called here (the evaluator contracts Kraus stacks on factors, and a
# scenario closes its causal order with ``_causal_pasts``); bound only
# because the benchmark's tracer, bench/tracer.py, rebinds these names.
from .intervention import apply, embed  # noqa: F401
from .spacetime import causal_order  # noqa: F401
from .spacetime import (
    Event,
    Frame,
    IntervalKind,
    TieReport,
    _causal_pasts,
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
]

# A record assigns one outcome label per station; stored canonically as
# (station id, label) pairs sorted by station id so that results from
# different evaluation orders are directly comparable.
Record = tuple[tuple[str, str], ...]

class StateError(ValueError):
    """The initial state is not a density matrix within ``tolerance.STATE``."""


class TieError(RuntimeError):
    """A frame's ordering has a tie the causal order leaves open; carries ``frame_ordering``'s TieReport."""

    def __init__(self, report: TieReport):
        super().__init__(
            f"boosted times coincide at velocity {report.velocity} for pairs {report.pairs}, "
            "and the causal order leaves more than one ordering; evaluate each explicitly"
        )
        self.report = report


@dataclass(frozen=True)
class ConditionalLocal:
    """A station whose intervention depends on outcomes of earlier stations.

    ``depends_on`` lists the station ids whose outcomes select the case;
    ``cases`` maps the tuple of their labels (in depends_on order) to the
    intervention to fire. A scenario rejects a depends_on naming a station
    it lacks or the station itself; the certifiers accept such stations
    only when every station in depends_on is causally prior.
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

    @property
    def depends_on(self) -> tuple[str, ...]:
        """Stations whose outcomes select the intervention; () for a fixed one."""
        return () if isinstance(self.local, LocalIntervention) else self.local.depends_on

    def interventions(self) -> dict[tuple[str, ...], Intervention]:
        """Every intervention the station may fire, keyed by the outcomes selecting it."""
        if isinstance(self.local, LocalIntervention):
            return {(): self.local.local}
        return dict(self.local.cases)

    def resolve(self, history: Mapping[str, str]) -> Intervention:
        """Intervention to fire given the outcomes recorded so far."""
        if isinstance(self.local, LocalIntervention):
            return self.local.local
        if (dep := next((d for d in self.local.depends_on if d not in history), None)) is not None:
            raise ValueError(f"station {self.id!r} depends on {dep!r}, which has not fired yet")
        key = tuple(history[dep] for dep in self.local.depends_on)
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


def _require_history_label(st: Station, label: str) -> None:
    """Reject an evolution-history label that ``st`` can never record."""
    if label not in st.possible_labels():
        raise ValueError(f"evolution history names outcome {label!r} unknown to station {st.id!r}")


def _ldl(rho: np.ndarray, adj: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(C, d), rho0's Hermitian part h ~ C diag(d) C^dagger, every weight above cutoff / D.

    A pivoted LDL^dagger: each step takes the largest residual diagonal
    entry as a weight and the residual column there, divided by it, as a
    column of C (1 at its pivot row, so a diagonal h gives unit vectors and
    its own entries exactly), until no entry exceeds cutoff / D or k + 2
    ulps of h's largest diagonal entry, the rounding of k updates. C is kept
    if it reproduces h within the cutoff, ``tolerance.rank_cutoff``, in
    Frobenius norm, as a positive semidefinite h does up to rounding. Past
    D / 2 pivots or on a failed certificate, eigh(h) gives C and d, and
    raises StateError on an eigenvalue below -cutoff.
    """
    h = rho + adj
    h *= 0.5
    cutoff = tolerance.rank_cutoff(len(h))
    diag, rows, d = h.diagonal().real.copy(), np.empty((len(h) // 2, len(h)), complex), np.empty(len(h) // 2)
    k, ulp = 0, tolerance.EPS * diag.max()
    while diag.max() > max(cutoff / len(h), (k + 2) * ulp):
        if k == len(d):
            break
        p = int(np.argmax(diag))
        d[k], c = diag[p], rows[k]
        c[:] = h[:, p] - rows[:k].T @ (rows[:k, p].conj() * d[:k])
        c.view(np.float64)[:] /= d[k]  # a real division: x / x is 1 exactly, unlike a complex one
        diag -= d[k] * (c.real**2 + c.imag**2)
        diag[p] = 0.0
        k += 1
    else:
        c, d = rows[:k].T.copy(), d[:k]
        residual = (c * d) @ c.conj().T
        residual -= h
        if np.linalg.norm(residual) <= cutoff:
            return c, d
    w, u = np.linalg.eigh(h)
    if w[0] < -cutoff:
        raise StateError("initial state must be positive semidefinite")
    return u[:, w > cutoff], w[w > cutoff]


class _Memo:
    """What a no-signaling check leaves for its next call to read back; only that check writes it.

    ``evaluation`` is the (ordering, probabilities) the last walk that
    included this scenario as a candidate gave it, None before the first;
    ``signaling`` is ((varied, alternatives), candidates) of this
    scenario's last no-signaling walk, None before the first: the scenario
    and one copy per alternative, in that order; equal alternatives share
    a copy.
    """

    __slots__ = ("evaluation", "signaling")

    def __init__(self):
        self.evaluation: tuple[tuple[str, ...], dict[Record, float]] | None = None
        self.signaling: tuple[tuple, list[Scenario]] | None = None


@dataclass(frozen=True)
class Scenario:
    """Initial state, stations, and inter-station evolutions.

    Building one validates it and derives, once, all that evaluation reads:
    ``growth``, the product of ``tolerance.growth`` over every station's worst
    intervention and every evolution (``_evolution_growth``), bounds how much
    the chain can raise a trace; ``_factor`` holds (C, d), rho0 ~ C diag(d)
    C^dagger, from ``_ldl``, which also checks positivity; ``_start`` the
    walk's read-only first level, V0 = C sqrt(d); ``_by_id`` the stations by id;
    ``_pasts`` each one's causal past and direct predecessors; ``_covering``
    the covering pairs (a, b) of that order; ``_evolutions_at`` the
    evolutions by their (after, before) pair; ``_movable`` the evolutions
    some ordering moves to another chain position; ``_chains`` whether each
    subsystem's stations form a chain of the causal order; ``_time_order``
    the station ids sorted by (t, id); ``_memo`` what a no-signaling check
    remembers (``_Memo``).
    """

    dims0: tuple[int, ...]
    rho0: CMatrix
    stations: tuple[Station, ...]
    evolutions: tuple[Evolution, ...] = ()
    growth: float = field(init=False, repr=False, compare=False)
    _evolution_growth: float = field(init=False, repr=False, compare=False)
    _factor: tuple[np.ndarray, np.ndarray] = field(init=False, repr=False, compare=False)
    _start: _Level = field(init=False, repr=False, compare=False)
    _by_id: dict[str, Station] = field(init=False, repr=False, compare=False)
    _pasts: tuple[dict[str, set[str]], dict[str, list[str]]] = field(init=False, repr=False, compare=False)
    _covering: list[tuple[str, str]] = field(init=False, repr=False, compare=False)
    _evolutions_at: dict[tuple[str | None, str | None], list[Evolution]] = field(init=False, repr=False, compare=False)
    _movable: tuple[Evolution, ...] = field(init=False, repr=False, compare=False)
    _chains: bool = field(init=False, repr=False, compare=False)
    _time_order: tuple[str, ...] = field(init=False, repr=False, compare=False)
    _memo: _Memo = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        for name in ("dims0", "stations", "evolutions"):
            object.__setattr__(self, name, tuple(getattr(self, name)))
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
        c, d = _ldl(rho, adj)
        object.__setattr__(self, "_factor", (c, d))
        v0 = c * np.sqrt(d)
        start = _Level(v0.reshape(1, *self.dims0, len(d)), _trace(v0[None]))
        for a in (c, d, start.v, start.tr):
            a.setflags(write=False)
        object.__setattr__(self, "_start", start)
        ids = [s.id for s in self.stations]
        if len(set(ids)) != len(ids):
            raise ValueError(f"station ids must be unique, got {ids}")
        object.__setattr__(self, "_by_id", dict(zip(ids, self.stations)))
        for st in self.stations:
            if not (math.isfinite(st.event.t) and math.isfinite(st.event.x)):
                raise ValueError(
                    f"station {st.id!r} has event coordinates t={st.event.t}, x={st.event.x}; both must be finite"
                )
            if not 0 <= st.subsystem < len(self.dims0):
                raise DimensionError(
                    f"station {st.id!r} acts on subsystem {st.subsystem}, but the "
                    f"scenario's subsystems are 0 to {len(self.dims0) - 1}"
                )
            for dep in st.depends_on:
                if dep == st.id or dep not in self._by_id:
                    raise ValueError(f"station {st.id!r} depends on {dep!r}, which is not another station")
        object.__setattr__(self, "_memo", _Memo())
        object.__setattr__(self, "_pasts", _causal_pasts(self.events()))
        object.__setattr__(self, "_covering", [(a, b) for b, pre in self._pasts[1].items() for a in pre])
        growth, past, at, movable = 1.0, self._pasts[0], {}, []
        for ev in self.evolutions:
            for end in (ev.after, ev.before):
                if end is not None and end not in self._by_id:
                    raise ValueError(f"evolution references unknown station {end!r}")
            if ev.after is None and ev.before is None:
                raise ValueError("evolution must attach to at least one station")
            a, b = ev.after, ev.before
            # Stations some ordering puts between a and b (None: the start or end of the chain): for y
            # neither before a nor after b, the edges a -> y -> b keep the order acyclic.
            between = [y for y in past if y not in (a, b) and y not in past.get(a, ()) and b not in past[y]]
            # Some ordering puts a right before b iff b is not before a and no station lies causally between.
            if a == b or b in past.get(a, ()) or any(
                (a is None or a in past[y]) and (b is None or y in past[b]) for y in between
            ):
                raise ValueError(
                    f"evolution after {a!r} and before {b!r} fits no admissible ordering: "
                    "none puts its ends next to each other, so it would never apply"
                )
            if between or (None not in (a, b) and a not in past[b]):
                movable.append(ev)
            for k, v in ev.history.items():
                if k not in self._by_id:
                    raise ValueError(f"evolution history references unknown station {k!r}")
                _require_history_label(self.station(k), v)
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
            at.setdefault((a, b), []).append(ev)
        object.__setattr__(self, "_evolution_growth", growth)
        object.__setattr__(self, "growth", self._station_growth() * growth)
        object.__setattr__(self, "_evolutions_at", at)
        object.__setattr__(self, "_movable", tuple(movable))
        by_factor = sorted(self.stations, key=lambda st: (st.subsystem, st.event.t))
        chains = all(x.id in past[y.id] for x, y in zip(by_factor, by_factor[1:]) if x.subsystem == y.subsystem)
        object.__setattr__(self, "_chains", chains)
        object.__setattr__(self, "_time_order", tuple(sorted(ids, key=lambda i: (self._by_id[i].event.t, i))))
        for (a, b), evs in at.items():
            for e1, e2 in itertools.combinations(evs, 2):
                if all(e1.history[k] == e2.history[k] for k in e1.history.keys() & e2.history.keys()):
                    raise ValueError(
                        f"evolutions between {a!r} and {b!r} have "
                        "overlapping history conditions; matches must be unambiguous"
                    )

    def station(self, station_id: str) -> Station:
        try:
            return self._by_id[station_id]
        except KeyError:
            raise KeyError(f"unknown station {station_id!r}") from None

    def events(self) -> list[Event]:
        return [s.event for s in self.stations]

    def _with_station(self, station_id: str, local: LocalIntervention) -> Scenario:
        """This scenario with one station's intervention replaced, nothing decomposed again.

        The copy takes this instance's ``__dict__``: it shares every derived
        field that does not depend on the intervention, ``_movable`` and
        ``_chains`` too, as every caller keeps the station's subsystem, and
        replaces ``stations``, ``_by_id``, ``growth`` and, by an empty one,
        ``_memo``, after checking the evolution-history labels naming the
        station. A no-signaling check builds one per distinct alternative.
        """
        new = Station(self.station(station_id).event, local)
        for ev in self.evolutions:
            if station_id in ev.history:
                _require_history_label(new, ev.history[station_id])
        stations = tuple(new if st.id == station_id else st for st in self.stations)
        s = object.__new__(type(self))
        s.__dict__.update(self.__dict__, stations=stations, _by_id={**self._by_id, station_id: new}, _memo=_Memo())
        s.__dict__["growth"] = s._station_growth() * self._evolution_growth
        return s

    def _station_growth(self) -> float:
        """The product, in station order, of each station's largest intervention growth."""
        return math.prod(
            st.local.local.growth if isinstance(st.local, LocalIntervention)
            else max(iv.growth for iv in st.local.cases.values())
            for st in self.stations
        )


@dataclass(frozen=True)
class EvaluationResult:
    """Per-record probabilities for one ordering; final states are built on first read.

    ``scenario`` is the evaluated scenario. The first read of
    ``final_states`` walks it again along ``ordering`` and keeps the result.
    """

    ordering: tuple[str, ...]
    probabilities: dict[Record, float]
    scenario: Scenario = field(repr=False, compare=False)

    @cached_property
    def final_states(self) -> dict[Record, CMatrix]:
        """Unnormalized final state V V^dagger of every record; its trace is its probability.

        The walk runs again with ``build`` on, so every station fires through
        its Kraus stack, and each row of a level's V is its record's factor.
        """
        states: dict[Record, CMatrix] = {}
        for lv in _walk(self.scenario, self.ordering, build=True):
            for rec, v in zip(_records(lv.labels), lv.v.reshape(len(lv.v), -1, lv.v.shape[-1])):
                state = (v if lv.weights is None else v * lv.weights) @ v.conj().T
                state.setflags(write=False)
                states[rec] = CMatrix(state)
        return states

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


@dataclass(slots=True)
class _Level:
    """The live branches of one sub-batch after the stations fired so far; never changed once built.

    ``v`` is (branch, factor dims..., width): every branch's factor V, with
    the factor dimensions all of the level's branches have, zero past a
    branch's own width; its state is V diag(weights) V^dagger, with
    ``weights`` None for all ones. ``tr`` holds each branch's trace.
    ``fired`` lists the stations fired so far as (id, intervention), the
    intervention a ``_Union`` on a no-signaling walk's varied station, and
    ``fixed`` maps each station the level was split or cut on to the index
    of the outcome all its branches took there. The branches are every
    combination of the other fired stations' outcomes, outcome-minor.
    """

    v: np.ndarray
    tr: np.ndarray
    weights: np.ndarray | None = None
    fired: tuple[tuple[str, Intervention | _Union], ...] = ()
    fixed: dict[str, int] = field(default_factory=dict)

    def split(self, names: Collection[str]) -> list[tuple[dict[str, str], _Level]]:
        """Sub-batches of branches that took the same outcomes at the fired stations in ``names``.

        Each comes, in lexicographic outcome order, with those outcomes by
        station id, which omit a station not fired yet; the level itself
        where all branches agree. A conditional station's cases and
        history-keyed evolutions split here.
        """
        # A fixed or one-outcome station has one label; each part sets the other named stations'.
        history = {sid: iv.outcomes[self.fixed.get(sid, 0)].label for sid, iv in self.fired if sid in names}
        free = [(sid, iv) for sid, iv in self.fired if sid not in self.fixed]
        axes = [k for k, (sid, iv) in enumerate(free) if sid in history and len(iv.outcomes) > 1]
        if not axes:
            return [(history, self)]
        # The named outcome axes lead, so each combination of them is one contiguous block.
        counts = [len(iv.outcomes) for _, iv in free]
        shape = [counts[k] for k in axes]
        blocks = [np.moveaxis(a.reshape(*counts, *a.shape[1:]), axes, range(len(axes))) for a in (self.v, self.tr)]
        v, tr = (a.reshape(math.prod(shape), -1, *a.shape[len(counts) :]) for a in blocks)
        parts = []
        for n, combo in enumerate(itertools.product(*map(range, shape))):
            fixed, labels = dict(self.fixed), dict(history)
            for k, i in zip(axes, combo):
                sid, iv = free[k]
                fixed[sid], labels[sid] = i, iv.outcomes[i].label
            parts.append((labels, replace(self, v=v[n], tr=tr[n], fixed=fixed)))
        return parts

    @property
    def labels(self) -> list[list[tuple[str, str]]]:
        """For each fired station, in firing order, the (id, label) of every outcome its branches take."""
        return [
            [(sid, iv.outcomes[self.fixed[sid]].label)] if sid in self.fixed else [(sid, o.label) for o in iv.outcomes]
            for sid, iv in self.fired
        ]


def _records(labels: list[list[tuple[str, str]]]) -> list[Record]:
    """Each branch's record, from its level's ``labels``: one (id, label) per fired station, sorted by id."""
    by_id = sorted(range(len(labels)), key=lambda j: labels[j][0][0])
    rows = itertools.product(*labels)
    return list(map(operator.itemgetter(*by_id), rows) if len(by_id) > 1 else rows)


def _apply_unitary(lv: _Level, u: CMatrix, position: str) -> _Level:
    """Every branch of ``lv`` evolved by u, V -> U V."""
    size = math.prod(lv.v.shape[1:-1])
    if size != u.rows:
        raise DimensionError(
            f"evolution {position} is {u.rows}x{u.cols}, but the state there is {size}-dimensional"
        )
    v = (u.array @ lv.v.reshape(len(lv.v), size, -1)).reshape(lv.v.shape)
    return replace(lv, v=v, tr=_trace(v, lv.weights))


def _evolve(s: Scenario, lv: _Level, prev: str | None, cur: str | None) -> list[_Level]:
    """``lv`` past the evolution from ``prev`` to ``cur``, split where histories differ."""
    evs = s._evolutions_at.get((prev, cur))
    if evs is None:
        return [lv]
    position = f"between {prev!r} and {cur!r}" if cur is not None else f"after {prev!r}"
    out = []
    for history, part in lv.split({k for ev in evs for k in ev.history}):
        ev = next((ev for ev in evs if ev.matches(prev, cur, history)), None)
        out.append(part if ev is None else _apply_unitary(part, ev.matrix, position))
    return out


def _factor_at(st: Station, dims: Sequence[int], d_in: int) -> tuple[int, int]:
    """``_factor_sizes`` of ``st``'s subsystem for an intervention of ``d_in``; its error names ``st``."""
    try:
        return _factor_sizes(dims, st.subsystem, d_in)
    except DimensionError as exc:
        raise DimensionError(f"station {st.id!r} at this point in the chain: {exc}") from exc


def _padded(stacks: Sequence[np.ndarray]) -> np.ndarray:
    """(outcomes, K, rows, d_in) stacks concatenated along their outcomes, zero-padded to the largest K and rows."""
    k, rows = max(a.shape[1] for a in stacks), max(a.shape[2] for a in stacks)
    out, i = np.zeros((sum(map(len, stacks)), k, rows, stacks[0].shape[3]), complex), 0
    for a in stacks:
        out[i : i + len(a), : a.shape[1], : a.shape[2]] = a
        i += len(a)
    return out


class _Union:
    """Every candidate's intervention at the varied station, fired as one.

    ``parts`` are the candidates' interventions in candidate order, of one
    d_in. The union's outcomes are theirs in that order, candidate k's from
    ``starts[k]`` to ``starts[k + 1]``, so an outcome index names its
    candidate and that candidate's own label; labels may repeat across
    candidates. ``growth`` holds each outcome's own candidate's growth; the
    Kraus stack and POVM roots are theirs, concatenated and zero-padded to a
    common Kraus count and row count, each built on first use.
    """

    def __init__(self, parts: tuple[Intervention, ...]):
        counts = [len(iv.outcomes) for iv in parts]
        self.parts, self.d_in = parts, parts[0].d_in
        self.outcomes = tuple(o for iv in parts for o in iv.outcomes)
        self.starts = list(itertools.accumulate(counts, initial=0))
        self.growth = np.array([iv.growth for iv, m in zip(parts, counts) for _ in range(m)])
        self._one_d_out = len({o.d_out for o in self.outcomes}) == 1

    @cached_property
    def _kraus_stack(self) -> np.ndarray:
        return _padded([iv._kraus_stack for iv in self.parts])

    @cached_property
    def _povm_roots(self) -> np.ndarray:
        return _padded([iv._povm_roots for iv in self.parts])


def _unions(
    st: Station, parts: list[tuple[_Level, Intervention]], alternatives: Sequence[Intervention]
) -> list[tuple[_Level, _Union]]:
    """``parts`` with each intervention replaced by its union with ``alternatives``, one ``_Union`` per case.

    Raises ``_fire``'s DimensionError for the first candidate, in candidate
    order, whose d_in does not fit its factor on some part.
    """
    for k in range(len(alternatives) + 1):
        for lv, iv in parts:
            if lv.v.shape[1 + st.subsystem] != (d_in := (alternatives[k - 1] if k else iv).d_in):
                _factor_at(st, lv.v.shape[1:-1], d_in)
    cases = {id(iv): iv for _, iv in parts}
    unions = {key: _Union((iv, *alternatives)) for key, iv in cases.items()}
    return [(lv, unions[id(iv)]) for lv, iv in parts]


def _fire(st: Station, lv: _Level, iv: Intervention | _Union, spent: bool) -> list[_Level]:
    """Fire ``iv`` at ``st`` on every branch of ``lv``: the next levels.

    One kernel pass, on shapes read once: one contraction of ``iv``'s stack
    gives every outcome branch of every branch (``_branches``), one
    square-and-reduce their traces (``_trace``), and one max-reduce bounds
    each by its parent's trace times the derived growth (``_check_outcomes``).
    Outcomes whose d_out differ leave one level each, fixed at the outcome:
    it is the fastest branch index, so outcome i is a strided view of every
    m-th branch, cut to its d_out. A ``spent`` station, one after which
    nothing acts on its factor, fires through ``iv``'s POVM roots instead of
    its Kraus stack, so each branch keeps only its outcome's rank on that
    factor, not d_out rows per Kraus matrix; its branches stay one level,
    the roots' padded rank on that factor, which nothing reads again.
    ``iv`` may be a ``_Union``, whose outcomes are bounded each by its own
    candidate's growth.
    """
    sub, d, (n, *pdims, w) = st.subsystem, iv.d_in, lv.v.shape
    if pdims[sub] != d:
        _factor_at(st, pdims, d)  # raises, naming the station
    b, a = math.prod(pdims[:sub]), math.prod(pdims[sub + 1 :])
    out = _branches(lv.v.reshape(n, b, d, a, w), iv._povm_roots if spent else iv._kraus_stack)
    _, _, r, _, width = out.shape
    weights = None if lv.weights is None else np.repeat(lv.weights, width // w)
    tr = _trace(out, weights)
    _check_outcomes(tr, lv.tr, iv.outcomes, iv.growth)
    if width > b * r * a:
        if weights is not None:
            out = out * np.sqrt(weights)
        out, weights = _recompress(out.reshape(len(out), b * r * a, -1)), None
    out = out.reshape(len(out), *pdims[:sub], r, *pdims[sub + 1 :], -1)
    fired = (*lv.fired, (st.id, iv))
    if spent or iv._one_d_out:
        return [_Level(out, tr, weights, fired, lv.fixed)]
    m, cut = len(iv.outcomes), (slice(None),) * sub
    return [
        _Level(out[(slice(i, None, m), *cut, slice(0, o.d_out))], tr[i::m], weights, fired, {**lv.fixed, st.id: i})
        for i, o in enumerate(iv.outcomes)
    ]


def _recompress(v: np.ndarray) -> np.ndarray:
    """Factors of the same states no wider than their dimension: V^dagger = QR, V -> R^dagger."""
    r = np.linalg.qr(v.conj().transpose(0, 2, 1), mode="r")
    return r.conj().transpose(0, 2, 1)


def _walk(
    s: Scenario,
    order: tuple[str, ...],
    build: bool = False,
    varied: str | None = None,
    alternatives: Sequence[Intervention] = (),
) -> list[_Level]:
    """The last sub-batches of branches of one ordering; each level's ``tr`` is its probabilities.

    The walk starts from the scenario's ``_start``, a factor V of rho0 from
    its weighted factor (``_factor``), and goes through the ordering's
    stations, looked up once, carrying each sub-batch of live branches as
    one ``_Level``: a station's Kraus stack acts on every branch at once
    (``_fire``, ``_branches``), an evolution U maps each V to U V, and a
    record's probability is ||V||_F^2. A station that is the last in the
    ordering to act on its factor, with no evolution at any later chain
    position, is spent: only its POVM elements E matter to what follows, so
    it fires through their roots F (F^dagger F = E), and the factor keeps
    each outcome's rank, 1 for a projective measurement, instead of its
    d_out rows per Kraus matrix. A branch whose width would exceed its
    dimension is recompressed by QR. A fixed intervention fires on each
    level as it is; only a conditional station's case or a history-keyed
    evolution splits a level into sub-batches.

    With ``build`` every branch is built, through Kraus stacks only, and the
    walk starts from the columns C of rho0's factor weighted by d; those of
    a diagonal rho0 are unit vectors and its diagonal entries exactly, so
    it passes through identities exactly. Weights are folded into V if it is
    recompressed.

    Memory: a level holds prod(outcomes of the fired stations it was not
    split or cut on) x D x width entries, D the dimension its branches share,
    and one trace per branch; a branch's outcomes are its position in that
    product (see ``_Level``). The width is at most D, except on the levels
    a station cuts by d_out, views of one array, which the next station
    recompresses. Spent factors shrink D to the product of the roots' ranks
    and the unspent factors, so a GHZ state measured one qubit per station
    never holds more than 2^n entries per level, the last included: 4 kB
    for 8 qubits, 16 kB for 10.

    With ``varied``, one walk serves every candidate of a no-signaling
    check: s, then s with the ``varied`` station's intervention replaced by
    each of ``alternatives`` in turn. That station fires the union of their
    interventions (``_unions``), its own resolved per case, so each outcome
    is its own candidate's, bounded by that candidate's growth, and every
    other station fires once on all candidates' branches. A level split on
    the varied station, by a condition or an evolution keyed on it, splits
    per union outcome, so each part's history holds its own candidate's
    label; outcomes of different d_out, across candidates too, are cut per
    union outcome. ``_record_tables`` reads the last levels back. The
    levels hold the candidates' branches side by side, about the sum of
    their own walks' sizes.
    """
    c, d = s._factor
    levels = [_Level(c.reshape(1, *s.dims0, len(d)), _trace(c[None], d), d) if build else s._start]
    stations = [s._by_id[sid] for sid in order]
    # Chain position i lies between order[i - 1] and order[i]. A station last
    # on its factor and at or after the last position an evolution acts at is spent.
    steps = enumerate(zip((None, *order), (*order, None))) if s.evolutions else ()
    start = max((i for i, pair in steps if pair in s._evolutions_at), default=0)
    last = {st.subsystem: j for j, st in enumerate(stations)}
    spent = set() if build else {j for j in last.values() if j >= start}
    for j, cur in enumerate((*order, None)):
        if s.evolutions:
            prev = order[j - 1] if j else None
            levels = [out for lv in levels for out in _evolve(s, lv, prev, cur)]
        if cur is None:
            return levels
        st = stations[j]
        if isinstance(st.local, LocalIntervention):
            parts = [(lv, st.local.local) for lv in levels]
        else:
            parts = [(part, st.resolve(history)) for lv in levels for history, part in lv.split(st.depends_on)]
        if cur == varied:
            parts = _unions(st, parts, alternatives)
        levels = [out for part, iv in parts for out in _fire(st, part, iv, j in spent)]


def _require_admissible(s: Scenario, order: tuple[str, ...]) -> None:
    """Reject an ordering that is not a permutation of the stations extending their causal order."""
    if len(order) != len(s.stations) or set(order) != s._by_id.keys():
        raise ValueError(f"order {order} is not a permutation of station ids {sorted(s._by_id)}")
    if s._covering:
        pos = {sid: i for i, sid in enumerate(order)}
        for a, b in s._covering:
            if pos[a] > pos[b]:
                raise ValueError(f"order places {a!r} after {b!r}, violating their causal order")


def _record_tables(
    levels: list[_Level], growths: Sequence[float], varied: str | None = None, table: bool = True
) -> list[dict[Record, float]]:
    """One checked record table per candidate of a walk's last ``levels``, the k-th bounded by ``growths[k]``.

    Each level's records and probabilities are listed once; a candidate's
    are runs of those lists. Without ``varied`` a run is a whole level. With
    it the walk fired the candidates' union there (``_Union``): a level
    fixed there is one run of its union outcome's candidate, and a level
    free there, outcome-minor, gives each candidate one run per combination
    of the free stations fired before it. Candidates are checked in order,
    each probability in run order, then their sum by 2 - growth and growth.
    Records are listed only with ``table`` or to name one out of bounds.
    """
    runs: list[list] = [[] for _ in growths]
    for lv in levels:
        rows = (lv, _records(lv.labels) if table else None, lv.tr.tolist())
        first, starts, inner = 0, [0, 1], len(lv.tr)
        if varied in lv.fixed:
            first = bisect.bisect(dict(lv.fired)[varied].starts, lv.fixed[varied]) - 1
        elif varied is not None:
            free = [(sid, iv) for sid, iv in lv.fired if sid not in lv.fixed]
            axis = next(a for a, (sid, _) in enumerate(free) if sid == varied)
            starts, inner = free[axis][1].starts, math.prod(len(iv.outcomes) for _, iv in free[axis + 1 :])
        for k, (lo, hi) in enumerate(zip(starts, starts[1:]), first):
            runs[k].extend((*rows, i + lo * inner, i + hi * inner) for i in range(0, len(lv.tr), starts[-1] * inner))
    tables = []
    for growth, own in zip(growths, runs):
        out, total = {}, 0.0
        for lv, records, probabilities, lo, hi in own:
            run = probabilities[lo:hi]
            total = sum(run, total)
            # A NaN makes the sum NaN; without one, the largest probability bounds them all.
            if total != total or not max(run) - growth <= tolerance.FLOOR:
                i = next(i for i, p in enumerate(run) if not p - growth <= tolerance.FLOOR)
                tolerance.check(run[i], 0.0, growth, f"probability of record {_records(lv.labels)[lo + i]}")
            if table:
                out.update(zip(records[lo:hi], run))
        tolerance.check(total, 2.0 - growth, growth, "sum of record probabilities")
        tables.append(out)
    return tables


def evaluate_in_order(s: Scenario, order: Sequence[str]) -> EvaluationResult:
    """Evaluate every outcome record under one chronological ordering.

    The ordering must be a permutation of the station ids and a linear
    extension of the causal partial order of their events. For each
    record the final state is the sum over Kraus index tuples of
    K rho0 K^dagger with K the right-to-left product of evolutions and
    Kraus matrices in chain order, each Kraus matrix acting on its own
    factor; its trace is the record probability. The probabilities are
    computed as ||K V||_F^2, summed over the Kraus index tuples, from a
    factor V of rho0 = V V^dagger, level by level: one contraction per
    station acts on every live branch at once. A station after which
    nothing acts on its factor fires through roots F of its POVM elements
    E = F^dagger F, so no final state is built; the result builds them on
    first read of ``final_states``. An inadmissible ordering is rejected
    (``_require_admissible``); ``_record_tables`` checks the walk's records
    and builds their table.

    An ordering whose table a no-signaling check left in ``Scenario._memo``
    is neither checked nor walked: the result holds a copy of that table,
    so a caller that changes it changes nothing else. Any other ordering is
    walked, and the result holds the table the walk built. Nothing here
    writes the memo.
    """
    order = tuple(order)
    known = s._memo.evaluation
    if known is not None and known[0] == order:
        return EvaluationResult(ordering=order, probabilities=dict(known[1]), scenario=s)
    _require_admissible(s, order)
    return EvaluationResult(ordering=order, probabilities=_record_tables(_walk(s, order), [s.growth])[0], scenario=s)


def evaluate_in_frame(s: Scenario, f: Frame) -> EvaluationResult:
    """Evaluate under the chronological ordering the boosted frame induces (``frame_ordering``).

    Where stations share a boosted time within ``tolerance.TIE``, the causal
    order ranks them. TieError is raised only when more than one ordering
    remains, as when tied stations are spacelike; its report names every
    pair of tied stations neither of which is in the other's causal past,
    and the caller may evaluate each ordering with ``evaluate_in_order``.
    """
    ordered = frame_ordering(s.events(), f)
    if isinstance(ordered, TieReport):
        raise TieError(ordered)
    return evaluate_in_order(s, [e.id for e in ordered])


def marginal(result: EvaluationResult, station_id: str) -> dict[str, float]:
    """Outcome distribution of one station, summed over all other outcomes.

    Every record of one evaluation names the same stations, sorted by id,
    so the station's label sits at one position, found in the first
    record; KeyError if the station is absent.
    """
    first = next(iter(result.probabilities), ())
    j = next((j for j, (sid, _) in enumerate(first) if sid == station_id), None)
    if j is None:
        raise KeyError(f"station {station_id!r} did not participate in this evaluation")
    out: dict[str, float] = {}
    for rec, p in result.probabilities.items():
        label = rec[j][1]
        out[label] = out.get(label, 0.0) + p
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
    method: str = "exhaustive"

    def as_dict(self) -> dict:
        d = asdict(self)
        if (w := self.witness) is not None:
            d["witness"].update(
                record=dict(w.record), order_low=list(w.order_low), order_high=list(w.order_high)
            )
        return d


def _require_causal_conditions(s: Scenario) -> None:
    """Reject outcome-conditioned stations that depend on a station not causally prior."""
    for st in s.stations:
        for dep in st.depends_on:
            if dep not in s._pasts[0][st.id]:
                raise ValueError(
                    f"station {st.id!r} conditions on {dep!r}, which is not "
                    "causally prior; outcome dependence across spacelike "
                    "separation is rejected"
                )


def _require_order_comparable(s: Scenario, target: str | None = None) -> None:
    """Reject scenarios whose dynamics cannot be compared across orderings.

    No evolution some ordering moves (``Scenario._movable``) may differ from
    the identity by more than ``tolerance.IDENTITY``. With a ``target``, as a
    no-signaling check has, only those that can change its marginal are
    refused (``_reaches_marginal``).
    """
    for ev in s._movable:
        if deviation(ev.matrix.array) > tolerance.IDENTITY and (target is None or _reaches_marginal(s, ev, target)):
            raise ValueError(
                f"evolution after {ev.after!r} and before {ev.before!r} is order-dependent"
                f"{'' if target is None else f' for target {target!r}'}: the "
                "segment is reorderable, so its ends are not first, last or adjacent "
                "in every admissible ordering; a non-identity unitary there makes "
                "orderings incomparable"
            )


def _reaches_marginal(s: Scenario, ev: Evolution, target: str) -> bool:
    """Whether a movable evolution can change ``target``'s marginal.

    It cannot if its ``after`` station lies in the target's causal future,
    so it fires after the target in every ordering, or if its unitary U
    keeps U^dagger L U = L within ``tolerance.IDENTITY`` for every POVM
    element L of the target's cases, lifted to ``dims0``. A case or a U
    whose size does not match ``dims0`` counts as reaching it.
    """
    if ev.after is not None and target in s._pasts[0][ev.after]:
        return False
    st, u = s.station(target), ev.matrix.array
    b, a = math.prod(s.dims0[: st.subsystem]), math.prod(s.dims0[st.subsystem + 1 :])
    for iv in st.interventions().values():
        if iv.d_in != s.dims0[st.subsystem] or len(u) != math.prod(s.dims0):
            return True
        for e in iv.povm:
            lifted = np.kron(np.kron(np.eye(b), e), np.eye(a))
            if deviation(u.conj().T @ lifted @ u, lifted) > tolerance.IDENTITY:
                return True
    return False


def check_order_invariance(s: Scenario, tol: float) -> InvarianceReport:
    """Certify that record probabilities agree across every admissible ordering.

    Validates the scenario and counts the linear extensions of the causal
    order, the orderings the verdict covers (``orders_checked``). Where
    causally incomparable stations act on different subsystems
    (``Scenario._chains``) and no evolution can move (``Scenario._movable``
    is empty), adjacent swaps of maps on different tensor factors, which
    commute, link any two extensions, so every record's unnormalized final
    state is the same in all: the first is walked for its runtime checks
    (``_record_tables``), which builds no record and no result, and
    ``worst`` is 0.0 exactly (``method`` "pairwise"). Otherwise every
    extension is evaluated, one at a time, and ``compare_orderings`` reads
    the results as they come, so memory grows with the records, not with
    the orderings.
    """
    tolerance.positive_finite(tol)
    _require_causal_conditions(s)
    _require_order_comparable(s)
    extensions = linear_extensions(s._covering, s.events())
    if not s._movable and s._chains:
        _record_tables(_walk(s, extensions[0]), [s.growth], table=False)
        return InvarianceReport(True, 0.0, len(extensions), method="pairwise")
    return compare_orderings((evaluate_in_order(s, o) for o in extensions), tol)


def _spread(keyed: Iterable[tuple[object, Mapping]]) -> tuple[float, tuple | None, int]:
    """Worst spread of any entry across distributions, its witness, and how many were read.

    ``keyed`` yields (key, distribution) pairs and is read once; each
    entry keeps only its least and greatest (p, key), and an entry
    missing from a distribution counts as p = 0 there. The witness (entry,
    key low, key high, p low, p high) is the first entry in sorted order
    whose spread is within ``tolerance.FLOOR`` of the worst, so rounding
    cannot pick it; None when there are no entries.
    """
    ends: dict = {}
    n = 0
    for key, dist in keyed:
        # Earlier entries this distribution does not name are 0 here; most name them all.
        absent = () if ends.keys() <= dist.keys() else dict.fromkeys(ends.keys() - dist.keys(), 0.0).items()
        for entry, p in itertools.chain(dist.items(), absent):
            pk = (p, key)
            extremes = ends.get(entry)
            if extremes is None:
                # Missing from every earlier distribution: 0 at the least and the greatest key.
                extremes = ends[entry] = [(0.0, least), (0.0, greatest)] if n else [pk, pk]
            # The least never exceeds the greatest, so pk passes at most one of them.
            if pk < extremes[0]:
                extremes[0] = pk
            elif pk > extremes[1]:
                extremes[1] = pk
        least, greatest = (min(least, key), max(greatest, key)) if n else (key, key)
        n += 1
    if not ends:
        return 0.0, None, n
    spread = {entry: high[0] - low[0] for entry, (low, high) in ends.items()}
    worst = max(spread.values())
    entry = min(e for e, d in spread.items() if d >= worst - tolerance.FLOOR)
    (p_low, key_low), (p_high, key_high) = ends[entry]
    return worst, (entry, key_low, key_high, p_low, p_high), n


def compare_orderings(results: Iterable[EvaluationResult], tol: float) -> InvarianceReport:
    """Worst spread of any record probability across evaluations of one scenario.

    ``results`` is read once, so it may be a generator: only each
    record's least and greatest (probability, ordering) are kept, and
    ``orders_checked`` counts the results read. A record missing from an
    evaluation counts as probability 0; when the spread exceeds ``tol``,
    the witness names the first record whose spread is within
    ``tolerance.FLOOR`` of the worst and the two orderings realizing it.
    """
    tolerance.positive_finite(tol)
    worst, witness, n = _spread((r.ordering, r.probabilities) for r in results)
    ok = worst <= tol
    return InvarianceReport(
        ok=ok,
        worst=worst,
        orders_checked=n,
        witness=None if ok or witness is None else InvarianceWitness(*witness),
    )


@dataclass(frozen=True)
class NoSignalingWitness:
    """A target outcome whose marginal differs most between two candidates.

    Candidates are indexed as ``check_no_signaling`` evaluates them: 0 is
    the original intervention, i the i-th alternative.
    """

    label: str
    candidate_low: int
    candidate_high: int
    p_low: float
    p_high: float


@dataclass(frozen=True)
class NoSignalingReport:
    ok: bool
    worst: float
    target: str
    varied: str
    alternatives_checked: int
    ordering: tuple[str, ...]
    witness: NoSignalingWitness | None = None

    def as_dict(self) -> dict:
        return {**asdict(self), "ordering": list(self.ordering)}


def _varied_first_ids(s: Scenario, varied: str) -> tuple[str, ...]:
    """Station ids in (t, id) order, but ``varied`` and its causal past first.

    That head is a down-set of the causal order, so the whole is a linear
    extension, and every station spacelike to ``varied`` fires after it.
    Both parts keep the scenario's ``_time_order``.
    """
    head = s._pasts[0][varied] | {varied}
    return (*[i for i in s._time_order if i in head], *[i for i in s._time_order if i not in head])


def check_no_signaling(
    s: Scenario,
    target: str,
    alternatives: Iterable[LocalIntervention],
    tol: float,
    varied: str,
) -> NoSignalingReport:
    """Certify that one station's marginal ignores a spacelike station's choice.

    Replaces the varied station's intervention by each alternative in
    turn (the original is always included), evaluates in one admissible
    ordering that fires the varied station before the target
    (``_varied_first_ids``, reported as ``ordering``), and reports the
    worst change of any entry of the ``target`` station's marginal
    distribution; when the check fails, the witness names that entry and
    the two candidates realizing it. The two stations must be mutually
    spacelike; each alternative must act on the varied station's own
    subsystem. ``tol`` must be positive and finite. A movable evolution
    that can change the target's marginal makes the verdict depend on the
    ordering chosen, so it is refused on every call, as its rule depends on
    the target (``_require_order_comparable``).

    Every candidate is evaluated in one ordering, which depends only on
    the varied station, and all in one walk (``_walk`` with ``varied``):
    they differ only at the varied station, which fires the union of their
    interventions, and every other station fires once for all of them.
    One pass over its last levels (``_record_tables``) gives each
    candidate's table, checked in candidate order against its own growth.
    An alternative equal (==) to an earlier one shares its copy of s and
    its table. Only once every candidate passed, each gets its table in
    its ``_Memo.evaluation`` and s keeps the candidates in
    ``_Memo.signaling``, keyed by the varied station and the alternatives,
    the only inputs of the walk and of the checks before it. A call with
    that key reads the ordering and the marginals back, the latter through
    ``evaluate_in_order``, without checking or walking again. So checking
    one varied station against each of its targets walks once, and a
    report depends only on (s, target, alternatives, varied).
    """
    tolerance.positive_finite(tol)
    alternatives = tuple(alternatives)
    if not alternatives:
        raise ValueError("alternatives must not be empty: there is nothing to compare the original with")
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
    _require_order_comparable(s, target)
    key = (varied, alternatives)
    if s._memo.signaling is not None and s._memo.signaling[0] == key:
        order = s._memo.evaluation[0]
    else:
        order = _varied_first_ids(s, varied)
        _require_causal_conditions(s)
        for alt in alternatives:
            if alt.subsystem != v_st.subsystem:
                raise ValueError(
                    f"alternative addresses subsystem {alt.subsystem}, but station "
                    f"{varied!r} acts on subsystem {v_st.subsystem}"
                )
        _require_admissible(s, order)
        # Candidate 0 is s itself; each alternative equal to no earlier one gets the next, one copy of s.
        firsts = [alternatives.index(alt) for alt in alternatives]
        distinct = [i for k, i in enumerate(firsts) if i == k]
        copies = [s, *(s._with_station(varied, alternatives[i]) for i in distinct)]
        walk = _walk(s, order, varied=varied, alternatives=[alternatives[i].local for i in distinct])
        tables = _record_tables(walk, [v.growth for v in copies], varied)
        for v, table in zip(copies, tables):
            v._memo.evaluation = (order, table)
        s._memo.signaling = (key, [copies[0], *(copies[distinct.index(i) + 1] for i in firsts)])
    candidates = s._memo.signaling[1]
    marginals = [marginal(evaluate_in_order(v, order), target) for v in candidates]
    worst, witness, _ = _spread(enumerate(marginals))
    ok = worst <= tol
    return NoSignalingReport(
        ok=ok,
        worst=worst,
        target=target,
        varied=varied,
        alternatives_checked=len(candidates),
        ordering=order,
        witness=None if ok or witness is None else NoSignalingWitness(*witness),
    )

