"""Scenario assembly and the core evaluators.

A scenario is an initial density matrix over listed subsystem
dimensions, a set of stations (spacetime event plus a local
intervention), and optional unitary evolutions between chain positions.
Evaluating a scenario under a chronological ordering gives every outcome
record's probability: the trace of the record's unnormalized final state.
The evaluator carries a factor V of rho0 = V V^dagger, D x r with
r = rank(rho0), and walks level by level: all live branches sit in
stacked arrays, one contraction per station applies its Kraus matrices
to every branch, and a branch wider than its dimension is recompressed.
Several orderings are walked together: a prefix they share is evaluated
once, and the sub-batches of every prefix that fire the same
intervention at the same depth share one contraction, zero-padded to a
common shape. The orderings go in consecutive chunks whose levels stay
within ``MAX_LEVEL_BYTES``. The last station's outcome probabilities
come from its POVM elements, so the final states, V V^dagger per record,
are built only when a caller reads them.

Two certifiers operate on top of the evaluator:

* ``check_order_invariance`` reports the worst spread of any record
  probability across every linear extension of the causal partial order
  (a strictly stronger set than the frame-realizable orderings). Where
  causally incomparable stations act on different subsystems and no
  evolution can move, they differ by swaps of commuting maps, and one is
  evaluated ("pairwise"); otherwise all are, batched ("exhaustive").
* ``check_no_signaling`` replaces one station's intervention by
  alternatives and reports the worst change in a spacelike-separated
  station's marginal distribution, in an ordering that fires the varied
  station before the target.
"""

from __future__ import annotations

import copy
import itertools
import math
import operator
from dataclasses import asdict, dataclass, field, replace
from functools import cached_property
from typing import Mapping, Sequence

import numpy as np

from . import tolerance
from .linalg import CMatrix, DimensionError, deviation, trace
from .intervention import Intervention, LocalIntervention, _factor_sizes, _trace
from .intervention import _branches, _check_outcomes, _first_outside, _outcome_probabilities
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
    "evaluate_orderings",
    "marginal",
]

# A record assigns one outcome label per station; stored canonically as
# (station id, label) pairs sorted by station id so that results from
# different evaluation orders are directly comparable.
Record = tuple[tuple[str, str], ...]

# Bound on the bytes of factor arrays one level of the walk holds when it
# evaluates several orderings together; see ``_chunks``.
MAX_LEVEL_BYTES = 2**25


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
    _evolution_growth: float = field(init=False, repr=False, compare=False)

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
        object.__setattr__(self, "_evolution_growth", growth)
        object.__setattr__(self, "growth", self._station_growth() * growth)
        for i, e1 in enumerate(self.evolutions):
            for e2 in self.evolutions[i + 1 :]:
                if (e1.after, e1.before) == (e2.after, e2.before) and _histories_compatible(
                    e1.history, e2.history
                ):
                    raise ValueError(
                        f"evolutions between {e1.after!r} and {e1.before!r} have "
                        "overlapping history conditions; matches must be unambiguous"
                    )

    @cached_property
    def _eigen(self) -> tuple[np.ndarray, np.ndarray]:
        """Read-only eigenvectors (as columns) and eigenvalues of rho0's Hermitian part.

        Eigenvalues at or below ``tolerance.rank_cutoff`` are dropped with
        their eigenvectors.
        """
        rho = self.rho0.array
        w, q = np.linalg.eigh((rho + rho.conj().T) / 2)
        keep = w > tolerance.rank_cutoff(self.rho0.rows)
        q, w = q[:, keep], w[keep]
        q.setflags(write=False)
        w.setflags(write=False)
        return q, w

    @cached_property
    def _factor(self) -> np.ndarray:
        """Read-only factor V of rho0 = V V^dagger, D x rank, for the evaluator.

        V's columns are rho0's eigenvectors scaled by the square roots of
        their eigenvalues, less those dropped by ``_eigen``. It depends on
        rho0 alone.
        """
        q, w = self._eigen
        v = q * np.sqrt(w)
        v.setflags(write=False)
        return v

    @cached_property
    def _pasts(self) -> tuple[dict[str, set[str]], dict[str, list[str]]]:
        """Each station's causal past and its direct predecessors, from one closing pass."""
        return _causal_pasts(self.events())

    @cached_property
    def _covering(self) -> list[tuple[str, str]]:
        """The covering pairs of the causal order: each station b with each direct predecessor a."""
        return [(a, b) for b, direct in self._pasts[1].items() for a in direct]

    @cached_property
    def _by_id(self) -> dict[str, Station]:
        return {st.id: st for st in self.stations}

    def station(self, station_id: str) -> Station:
        try:
            return self._by_id[station_id]
        except KeyError:
            raise KeyError(f"unknown station {station_id!r}") from None

    def events(self) -> list[Event]:
        return [s.event for s in self.stations]

    def causal(self) -> set[tuple[str, str]]:
        """The causal order: pairs (a, b) with b in a's future, as ``causal_order`` gives it."""
        return {(a, b) for b, past in self._pasts[0].items() for a in past}

    def _with_station(self, station_id: str, local: LocalIntervention) -> Scenario:
        """This scenario with one station's intervention replaced, rho0 not validated again.

        The copy keeps rho0's factor and the causal order with its covering
        pairs, which do not depend on the intervention, and recomputes
        ``growth`` and the evolution-history labels that name the station.
        """
        new = Station(self.station(station_id).event, local)
        for ev in self.evolutions:
            v = ev.history.get(station_id)
            if v is not None and v not in new.possible_labels():
                raise ValueError(
                    f"evolution history names outcome {v!r} unknown to station {station_id!r}"
                )
        self._factor, self._covering  # computed here, once, so that every copy shares them
        s = copy.copy(self)
        s.__dict__.pop("_by_id", None)
        object.__setattr__(
            s, "stations", tuple(new if st.id == station_id else st for st in self.stations)
        )
        object.__setattr__(s, "growth", s._station_growth() * self._evolution_growth)
        return s

    def _station_growth(self) -> float:
        return math.prod(
            max(tolerance.growth(iv.d_in, iv.deviation) for iv in st.interventions().values())
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

        The walk runs again with the last-station shortcut off, and each
        record's factor V is cut to the record's own factor dimensions.
        """
        states: dict[Record, CMatrix] = {}
        for lv, _ in _walk(self.scenario, [self.ordering], build=True)[0]:
            for rec, v, dims in zip(lv.records(), lv.v, lv.dims.tolist()):
                v = v[tuple(map(slice, dims))].reshape(math.prod(dims), -1)
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

    ``v`` is (branch, padded factor dims..., width): every branch's factor
    V, zero past a branch's own dimension of a factor and past its own
    width; its state is V diag(weights) V^dagger, with ``weights`` None
    for all ones. ``tr`` holds each branch's trace, ``dims`` (branch,
    factor) its actual factor dimensions and ``idx`` (branch, station) the
    outcome it took at each station of ``fired``, which lists the stations
    fired so far with the intervention each fired. ``complete``: the rows
    are every combination of those outcomes, in order.
    """

    v: np.ndarray
    tr: np.ndarray
    dims: np.ndarray
    idx: np.ndarray
    weights: np.ndarray | None = None
    fired: tuple[tuple[str, Intervention], ...] = ()
    complete: bool = True

    def history(self, row: int) -> dict[str, str]:
        return {sid: iv.outcomes[i].label for (sid, iv), i in zip(self.fired, self.idx[row])}

    def matches(self, history: Mapping[str, str]) -> np.ndarray:
        """Which branches recorded every outcome of ``history``."""
        hit = np.ones(len(self.idx), dtype=bool)
        pos = {sid: j for j, (sid, _) in enumerate(self.fired)}
        for sid, label in history.items():
            labels = self.fired[pos[sid]][1].labels() if sid in pos else ()
            if label not in labels:
                return np.zeros_like(hit)
            hit &= self.idx[:, pos[sid]] == labels.index(label)
        return hit

    def split(self, key: np.ndarray) -> list[tuple[np.ndarray, _Level]]:
        """Sub-batches of branches sharing a row of ``key`` (1-D: one column), first seen first."""
        if (key == key[0]).all():
            return [(key[0], self)]
        _, group = _unique_rows(key.reshape(len(key), -1))
        parts = []
        for g in dict.fromkeys(group.tolist()):
            rows = np.flatnonzero(group == g)
            part = replace(
                self, v=self.v[rows], tr=self.tr[rows], dims=self.dims[rows], idx=self.idx[rows],
                complete=False,
            )
            parts.append((key[rows[0]], part))
        return parts

    def records(self) -> list[Record]:
        """Each branch's record: its outcome labels keyed by station id, sorted by id."""
        pairs = [[(sid, o.label) for o in iv.outcomes] for sid, iv in self.fired]
        by_id = sorted(range(len(pairs)), key=lambda j: self.fired[j][0])
        if not self.complete:
            return [tuple(pairs[j][row[j]] for j in by_id) for row in self.idx.tolist()]
        rows = itertools.product(*pairs)
        return list(map(operator.itemgetter(*by_id), rows) if len(by_id) > 1 else rows)


def _apply_unitary(lv: _Level, u: CMatrix, position: str) -> _Level:
    """Every branch of ``lv`` evolved by u, V -> U V, on the branches' own factor dims."""
    sizes = lv.dims.prod(axis=1)
    bad = np.flatnonzero(sizes != u.rows)
    if bad.size:
        raise DimensionError(
            f"evolution {position} is {u.rows}x{u.cols}, but the state there is "
            f"{sizes[bad[0]]}-dimensional"
        )
    # Branches of one sub-batch fired the same interventions, so equal sizes
    # with different factor dims would need dimension errors elsewhere.
    if (lv.dims != lv.dims[0]).any():
        raise DimensionError(
            f"branches reach the evolution {position} with different factor dimensions"
        )
    v = lv.v[(slice(None), *map(slice, lv.dims[0].tolist()))]
    v = (u.array @ v.reshape(len(v), u.rows, -1)).reshape(v.shape)
    return replace(lv, v=v, tr=_trace(v, lv.weights))


def _evolve(s: Scenario, lv: _Level, prev: str | None, cur: str | None) -> list[_Level]:
    """``lv`` past the evolution from ``prev`` to ``cur``, split where histories differ."""
    evs = [ev for ev in s.evolutions if ev.after == prev and ev.before == cur]
    if not evs:
        return [lv]
    position = f"between {prev!r} and {cur!r}" if cur is not None else f"after {prev!r}"
    which = np.full(len(lv.idx), -1)
    for i, ev in reversed(list(enumerate(evs))):
        which[lv.matches(ev.history)] = i
    return [
        part if i < 0 else _apply_unitary(part, evs[i].matrix, position)
        for i, part in lv.split(which)
    ]


def _resolve(st: Station, lv: _Level) -> list[tuple[_Level, Intervention]]:
    """The intervention ``st`` fires on each branch of ``lv``, split where a case differs."""
    if isinstance(st.local, LocalIntervention):
        return [(lv, st.local.local)]
    pos = {sid: j for j, (sid, _) in enumerate(lv.fired)}
    if not all(dep in pos for dep in st.local.depends_on):
        st.resolve(lv.history(0))  # raises: a dependency has not fired
    cases = lv.idx[:, [pos[dep] for dep in st.local.depends_on]]
    return [(part, st.resolve(part.history(0))) for _, part in lv.split(cases)]


def _pad(arrays: Sequence[np.ndarray]) -> np.ndarray:
    """The arrays stacked along their first axis, zero-padded to the largest extent of the rest."""
    shapes = [a.shape[1:] for a in arrays]
    if shapes.count(shapes[0]) == len(shapes):
        return np.concatenate(arrays)
    out = np.zeros((sum(map(len, arrays)), *map(max, zip(*shapes))), dtype=complex)
    start = 0
    for a in arrays:
        out[(slice(start, start + len(a)), *map(slice, a.shape[1:]))] = a
        start += len(a)
    return out


def _fire(
    st: Station, parts: Sequence[_Level], iv: Intervention, leaf: bool
) -> list[tuple[_Level, np.ndarray]]:
    """Fire ``iv`` at ``st`` on every branch of ``parts``: each part's next level and branch traces.

    One contraction serves all the parts. Several parts are stacked, each
    zero-padded to the largest padded dims and width among them, with
    their weights folded into their factors; one part is used as it is.
    Each trace is bounded by its parent's times the derived growth. With
    ``leaf`` the branches are not built: the traces are the outcome
    probabilities from ``_outcome_probabilities``, and each returned level
    records the outcomes but keeps its part's factors and traces.
    """
    if len(parts) == 1:
        (lv,) = parts
        v, parent, dims, idx, weights = lv.v, lv.tr, lv.dims, lv.idx, lv.weights
    else:
        v = _pad([p.v if p.weights is None else p.v * np.sqrt(p.weights) for p in parts])
        parent, dims, idx = (
            np.concatenate(x) for x in zip(*((p.tr, p.dims, p.idx) for p in parts))
        )
        weights = None
    sub, d = st.subsystem, iv.d_in
    n, nfactors = dims.shape
    if not (0 <= sub < nfactors and (dims[:, sub] == d).all()):
        bad = np.flatnonzero(dims[:, sub] != d)[0] if 0 <= sub < nfactors else 0
        try:
            _factor_sizes(dims[bad].tolist(), sub, d)
        except DimensionError as exc:
            raise DimensionError(f"station {st.id!r} at this point in the chain: {exc}") from exc
    pdims = v.shape[1:-1]
    # Every branch has d on this factor, so its padding beyond d is zero.
    v = v[(slice(None),) * (sub + 1) + (slice(0, d),)]
    v = v.reshape(n, math.prod(pdims[:sub]), d, math.prod(pdims[sub + 1 :]), -1)
    m = len(iv.outcomes)
    dims = np.repeat(dims, m, axis=0)
    dims.reshape(n, m, nfactors)[:, :, sub] = [o.d_out for o in iv.outcomes]
    next_idx = np.empty((n, m, idx.shape[1] + 1), dtype=int)
    next_idx[:, :, :-1] = idx[:, None]
    next_idx[:, :, -1] = np.arange(m)
    idx = next_idx.reshape(n * m, -1)
    if leaf:
        tr = _outcome_probabilities(v, iv)
        _check_outcomes(tr, parent, iv)
    else:
        out = _branches(v, iv)
        if weights is not None:
            weights = np.repeat(weights, out.shape[-1] // v.shape[-1])
        tr = _trace(out, weights)
        _check_outcomes(tr, parent, iv)
        shape = (n * m, *pdims[:sub], out.shape[2], *pdims[sub + 1 :])
        size = math.prod(shape[1:])
        if out.shape[-1] > size:
            if weights is not None:
                out = out * np.sqrt(weights)
            out, weights = _recompress(out.reshape(n * m, size, -1)), None
        out = out.reshape(*shape, -1)
    if len(parts) == 1:
        (p,) = parts
        fired = (*p.fired, (st.id, iv))
        if leaf:
            return [(_Level(p.v, p.tr, dims, idx, p.weights, fired, p.complete), tr)]
        return [(_Level(out, tr, dims, idx, weights, fired, p.complete), tr)]
    levels = []
    start = 0
    for p in parts:
        rows = slice(start, start + len(p.tr) * m)
        start = rows.stop
        fired = (*p.fired, (st.id, iv))
        if leaf:
            lv = _Level(p.v, p.tr, dims[rows], idx[rows], p.weights, fired, p.complete)
        else:
            lv = _Level(out[rows], tr[rows], dims[rows], idx[rows], weights, fired, p.complete)
        levels.append((lv, tr[rows]))
    return levels


def _recompress(v: np.ndarray) -> np.ndarray:
    """Factors of the same states no wider than their dimension: V^dagger = QR, V -> R^dagger."""
    r = np.linalg.qr(v.conj().transpose(0, 2, 1), mode="r")
    return r.conj().transpose(0, 2, 1)


def _walk(
    s: Scenario, orders: Sequence[tuple[str, ...]], build: bool = False
) -> list[list[tuple[_Level, np.ndarray]]]:
    """Each ordering's last sub-batches of branches and their traces, all orderings walked at once.

    The walk starts from the scenario's factor V of rho0 and goes through
    the orderings one depth at a time. At each depth every live node is
    one prefix shared by one or more orderings, holding its live branches
    as sub-batches (``_Level``); a node branches where its orderings'
    next stations differ. Each node's sub-batches pass the evolution into
    their next station and resolve the intervention it fires there; then
    all sub-batches that fire the same intervention at the same station,
    whatever their prefix, are contracted at once (``_fire``): its Kraus
    stack gives every branch's outcome branches (``_branches``), an
    evolution U maps each V to U V, and a record's probability is
    ||V||_F^2. A branch whose width would exceed its dimension is
    recompressed by QR. Branches of one prefix split into sub-batches only
    where a conditional station's case or a history-keyed evolution
    differs between them. The last station's outcome probabilities come
    from its POVM elements on the reduced states (``_outcome_probabilities``)
    and its branches are not built, unless an evolution follows that
    station in its ordering.

    With ``build`` every branch is built, and the walk starts from rho0's
    eigenvectors weighted by their eigenvalues, so a diagonal rho0 passes
    through identities exactly; weights are folded into V if it is
    recompressed or stacked with other sub-batches.

    Memory: a level holds, for each prefix, prod(outcomes of the stations
    fired so far) x D x width entries, D the padded dimension and width at
    most D: 0.5 MB for an 8-qubit GHZ state, 8 MB for 10 qubits. The
    callers walk the orderings in chunks (``_chunks``) that keep a level
    within ``MAX_LEVEL_BYTES``.
    """
    v0, weights = s._eigen if build else (s._factor, None)
    root = _Level(
        v0.reshape(1, *s.dims0, v0.shape[1]),
        _trace(v0[None], weights),
        np.array([s.dims0]),
        np.empty((1, 0), dtype=int),
        weights,
    )
    depth = len(s.stations)
    # Stations an evolution follows at the end of the chain: their branches are built.
    ends = {ev.after for ev in s.evolutions if ev.before is None}
    finals: list = [None] * len(orders)
    # A node: the orderings sharing one prefix, and that prefix's sub-batches.
    nodes = [(range(len(orders)), [root])] if orders else []
    for j in range(depth):
        leaf = j == depth - 1 and not build
        # (station, intervention, leaf) -> its sub-batches, and the output slot of each.
        fires: dict[tuple, tuple[Station, Intervention, bool, list, list]] = {}
        children = []
        for members, levels in nodes:
            if len(members) == 1:
                branches = ((orders[members[0]][j], members),)
            else:
                by_station: dict[str, list[int]] = {}
                for i in members:
                    by_station.setdefault(orders[i][j], []).append(i)
                branches = by_station.items()
            for cur, group in branches:
                live = levels
                if s.evolutions:
                    prev = orders[group[0]][j - 1] if j else None
                    live = [out for lv in levels for out in _evolve(s, lv, prev, cur)]
                st = s._by_id[cur]
                last = leaf and cur not in ends
                outs: list = []
                children.append((group, outs, last))
                for lv in live:
                    for part, iv in _resolve(st, lv):
                        entry = fires.get((cur, id(iv), last))
                        if entry is None:
                            entry = fires[cur, id(iv), last] = (st, iv, last, [], [])
                        entry[3].append((outs, len(outs)))
                        entry[4].append(part)
                        outs.append(None)
        for st, iv, last, slots, batch in fires.values():
            for (outs, k), out in zip(slots, _fire(st, batch, iv, last)):
                outs[k] = out
        nodes = []
        for group, outs, last in children:
            if last:
                for i in group:
                    finals[i] = outs
            else:
                nodes.append((group, [lv for lv, _ in outs]))
    # Past the last station: every node left is one ordering (or copies of it).
    for members, levels in nodes:
        prev = orders[members[0]][-1] if depth else None
        levels = [out for lv in levels for out in _evolve(s, lv, prev, None)]
        for i in members:
            finals[i] = [(lv, lv.tr) for lv in levels]
    return finals


def _level_bytes(s: Scenario) -> int:
    """Bound on the bytes of one ordering's factors at any level of ``_walk``.

    Branches are at most the product of every station's largest outcome
    count; a factor's padded dimension is at most the largest it takes;
    a width is at most rank(rho0) times the product of the largest Kraus
    counts, or the padded dimension once recompressed.
    """
    branches, kraus, dims = 1, 1, list(s.dims0)
    for st in s.stations:
        outcomes = [o for iv in st.interventions().values() for o in iv.outcomes]
        branches *= max(len(iv.outcomes) for iv in st.interventions().values())
        kraus *= max(len(o.kraus) for o in outcomes)
        if st.subsystem < len(dims):
            dims[st.subsystem] = max(dims[st.subsystem], *(o.d_out for o in outcomes))
    size = math.prod(dims)
    return 16 * branches * size * min(size, s._factor.shape[1] * kraus)


def _chunks(s: Scenario, orders: list[tuple[str, ...]]) -> list[list[tuple[str, ...]]]:
    """Consecutive runs of ``orders`` for ``_walk`` to take together within MAX_LEVEL_BYTES.

    A run holds at least one ordering, however large its levels.
    """
    if len(orders) <= 1:
        return [orders]
    size = max(1, MAX_LEVEL_BYTES // _level_bytes(s))
    return [orders[i : i + size] for i in range(0, len(orders), size)]


def _require_admissible(s: Scenario, order: tuple[str, ...]) -> None:
    """Reject an ordering that is not a permutation of the stations extending their causal order."""
    if len(order) != len(s.stations) or set(order) != s._by_id.keys():
        raise ValueError(f"order {order} is not a permutation of station ids {sorted(s._by_id)}")
    if s._covering:
        pos = {sid: i for i, sid in enumerate(order)}
        for a, b in s._covering:
            if pos[a] > pos[b]:
                raise ValueError(f"order places {a!r} after {b!r}, violating their causal order")


def _probabilities(s: Scenario, parts: list[tuple[_Level, np.ndarray]]) -> dict[Record, float]:
    """One ordering's record probabilities from its last sub-batches, each within its bound."""
    probabilities: dict[Record, float] = {}
    for lv, tr in parts:
        records = lv.records()
        if (i := _first_outside(tr, s.growth)) is not None:
            tolerance.check(float(tr[i]), 0.0, s.growth, f"probability of record {records[i]}")
        probabilities.update(zip(records, tr.tolist()))
    total = sum(probabilities.values())
    tolerance.check(total, 2.0 - s.growth, s.growth, "sum of record probabilities")
    return probabilities


def evaluate_orderings(s: Scenario, orders: Sequence[Sequence[str]]) -> list[EvaluationResult]:
    """Evaluate every outcome record under each of several chronological orderings.

    Each result is the one ``evaluate_in_order`` gives for its ordering;
    the orderings are walked together, in chunks, so that prefixes they
    share are evaluated once and each station's contraction serves every
    prefix that fires it at the same depth.
    """
    orders = [tuple(order) for order in orders]
    for order in orders:
        _require_admissible(s, order)
    return [
        EvaluationResult(ordering=order, probabilities=_probabilities(s, parts), scenario=s)
        for chunk in _chunks(s, orders)
        for order, parts in zip(chunk, _walk(s, chunk))
    ]


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
    station acts on every live branch at once. At the last station, when
    no evolution follows it, each outcome's probability is Tr(E rho_red)
    from its POVM element E and the state reduced to the station's factor,
    so no final state is built; the result builds them on first read of
    ``final_states``. It is ``evaluate_orderings`` on one ordering.
    """
    return evaluate_orderings(s, [order])[0]


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
        if isinstance(st.local, ConditionalLocal):
            for dep in st.local.depends_on:
                if dep not in s._pasts[0][st.id]:
                    raise ValueError(
                        f"station {st.id!r} conditions on {dep!r}, which is not "
                        "causally prior; outcome dependence across spacelike "
                        "separation is rejected"
                    )


def _require_order_comparable(s: Scenario) -> bool:
    """Reject scenarios whose dynamics cannot be compared across orderings.

    A non-identity evolution from ``after`` to ``before`` (None: the start
    or end of the chain) must sit at the same chain position in every
    admissible ordering: ``after`` causally precedes ``before`` when both
    are stations, and every other station precedes ``after`` or follows
    ``before``. Were some station y neither, the edges after -> y -> before
    would keep the order acyclic, so some linear extension would place y
    inside the segment. Spacelike, reorderable segments must therefore
    carry identity evolution. Outcome-conditioned stations may depend only
    on causally prior stations. Returns whether every evolution, identity
    within ``tolerance.IDENTITY`` or not, sits at a fixed position.
    """
    _require_causal_conditions(s)
    past = s._pasts[0]
    fixed = True
    for ev in s.evolutions:
        a, b = ev.after, ev.before
        # A None end precedes and follows nothing, so every other station must lie beyond the other end.
        movable = (None not in (a, b) and a not in past[b]) or any(
            y not in past.get(a, ()) and b not in past[y]
            for y in (st.id for st in s.stations)
            if y not in (a, b)
        )
        fixed &= not movable
        if movable and deviation(ev.matrix.array) > tolerance.IDENTITY:
            raise ValueError(
                f"evolution after {a!r} and before {b!r} is order-dependent: the "
                "segment is reorderable, so its ends are not first, last or adjacent "
                "in every admissible ordering; a non-identity unitary there makes "
                "orderings incomparable"
            )
    return fixed


def _factors_disjoint(s: Scenario) -> bool:
    """Whether the stations of each subsystem form a chain, each in the next one's past in time order."""
    past, last = s._pasts[0], {}
    for st in sorted(s.stations, key=lambda st: st.event.t):
        prev = last.get(st.subsystem)
        if prev is not None and prev not in past[st.id]:
            return False
        last[st.subsystem] = st.id
    return True


def _table(
    s: Scenario, finals: list[list[tuple[_Level, np.ndarray]]]
) -> tuple[np.ndarray, np.ndarray]:
    """Each ordering's record probabilities as one row of a dense table, and the records.

    A record is a row of label indices, one column per station in id
    order, each label numbered in sorted order, so sorted rows are sorted
    records. Returns the table and its sorted records; a record missing
    from an ordering has probability 0. Every probability is checked
    against its bound and every ordering's sum against the sum's.
    """
    ids = sorted(s._by_id)
    column = {sid: j for j, sid in enumerate(ids)}
    labels = {sid: sorted(s.station(sid).possible_labels()) for sid in ids}
    numbers: dict[tuple[str, int], np.ndarray] = {}
    rows, values, counts = [], [], []
    for parts in finals:
        counts.append(sum(len(tr) for _, tr in parts))
        for lv, tr in parts:
            row = np.empty((len(tr), len(ids)), dtype=int)
            for (sid, iv), k in zip(lv.fired, lv.idx.T):
                lut = numbers.get((sid, id(iv)))
                if lut is None:
                    lut = np.array([labels[sid].index(x) for x in iv.labels()])
                    numbers[sid, id(iv)] = lut
                row[:, column[sid]] = lut[k]
            rows.append(row)
            values.append(tr)
    records, where = _unique_rows(np.concatenate(rows))
    values = np.concatenate(values)
    if (i := _first_outside(values, s.growth)) is not None:
        record = _record(s, records[where[i]])
        tolerance.check(float(values[i]), 0.0, s.growth, f"probability of record {record}")
    table = np.zeros((len(finals), len(records)))
    table[np.repeat(np.arange(len(finals)), counts), where] = values
    for total in table.sum(axis=1).tolist():
        tolerance.check(total, 2.0 - s.growth, s.growth, "sum of record probabilities")
    return table, records


def _unique_rows(rows: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The distinct rows in lexicographic order, and where each row of ``rows`` went."""
    # Without columns (no stations) every row is the same.
    order = np.lexsort(rows.T[::-1]) if rows.size else np.arange(len(rows))
    ranked = rows[order]
    first = np.ones(len(rows), dtype=bool)
    first[1:] = (ranked[1:] != ranked[:-1]).any(axis=1)
    where = np.empty(len(rows), dtype=int)
    where[order] = np.cumsum(first) - 1
    return ranked[first], where


def _record(s: Scenario, row: np.ndarray) -> Record:
    """The record a row of label indices stands for (see ``_table``)."""
    ids = sorted(s._by_id)
    return tuple(
        (sid, sorted(s.station(sid).possible_labels())[k]) for sid, k in zip(ids, row.tolist())
    )


def check_order_invariance(s: Scenario, tol: float) -> InvarianceReport:
    """Certify that record probabilities agree across every admissible ordering.

    Validates the scenario and counts the linear extensions of the causal
    order, the orderings the verdict covers (``orders_checked``). When
    causally incomparable stations act on different subsystems and every
    evolution sits at a fixed position (``method`` "pairwise"), adjacent
    swaps of maps on different tensor factors, which commute, link any two
    extensions, so every record's unnormalized final state is the same in
    all: one is evaluated, for its runtime checks, and ``worst`` is 0.0
    exactly. Otherwise ``_exhaustive`` evaluates them all.
    """
    fixed = _require_order_comparable(s)
    extensions = linear_extensions(s._covering, s.events())
    if fixed and _factors_disjoint(s):
        evaluate_in_order(s, extensions[0])
        return InvarianceReport(True, 0.0, len(extensions), method="pairwise")
    return _exhaustive(s, tol, extensions)


def _exhaustive(s: Scenario, tol: float, extensions: list[tuple[str, ...]]) -> InvarianceReport:
    """Evaluate every extension and report the worst spread of any record probability.

    The witness names a maximal-spread record and the two orderings
    realizing it when the check fails. Chunks of extensions are walked
    together into dense tables, and past the first chunk only each
    record's extreme orderings are kept, so memory stays bounded.
    """
    table, records, keys = None, None, []
    for chunk in _chunks(s, extensions):
        for order in chunk:
            _require_admissible(s, order)
        more, more_records = _table(s, _walk(s, chunk))
        if table is None:
            table, records, keys = more, more_records, chunk
            continue
        both, where = _unique_rows(np.concatenate([records, more_records]))
        merged = np.zeros((len(table) + len(more), len(both)))
        merged[: len(table), where[: len(records)]] = table
        merged[len(table) :, where[len(records) :]] = more
        keys = keys + chunk
        kept = np.unique(np.concatenate(_extremes(merged, keys)))
        table, records, keys = merged[kept], both, [keys[i] for i in kept]
    worst, witness = _worst_spread(table, records, keys)
    ok = worst <= tol
    return InvarianceReport(
        ok=ok,
        worst=worst,
        orders_checked=len(extensions),
        witness=None
        if ok or witness is None
        else InvarianceWitness(_record(s, witness[0]), *witness[1:]),
    )


def _dense(dists: Sequence[Mapping]) -> tuple[np.ndarray, list]:
    """The distributions as rows of a table over their sorted entries; a missing entry is 0."""
    entries = sorted(set().union(*dists))
    return np.array([[d.get(entry, 0.0) for entry in entries] for d in dists]), entries


def _extremes(table: np.ndarray, keys: Sequence) -> tuple[np.ndarray, np.ndarray]:
    """Each column's row of least and of greatest (value, key), rows named by ``keys``."""
    by_key = np.array(sorted(range(len(keys)), key=keys.__getitem__))
    ranked = table[by_key]
    return by_key[ranked.argmin(axis=0)], by_key[::-1][ranked[::-1].argmax(axis=0)]


def _worst_spread(
    table: np.ndarray, entries: Sequence, keys: Sequence
) -> tuple[float, tuple | None]:
    """Worst spread of any entry across distributions, and its witness.

    ``table`` holds one distribution per row and one entry per column,
    ``entries`` names the columns in sorted order and ``keys`` the rows.
    The witness (entry, key low, key high, p low, p high) is the first
    entry whose spread is within ``tolerance.FLOOR`` of the worst, so
    rounding cannot pick it, with (p low, key low) and (p high, key high)
    its least and greatest (p, key); None when there are no entries.
    """
    if not table.size:
        return 0.0, None
    spread = table.max(axis=0) - table.min(axis=0)
    worst = float(spread.max())
    e = int(np.argmax(spread >= worst - tolerance.FLOOR))
    values = list(zip(table[:, e].tolist(), keys))
    (p_low, low), (p_high, high) = min(values), max(values)
    return worst, (entries[e], low, high, p_low, p_high)


def compare_orderings(results: Sequence[EvaluationResult], tol: float) -> InvarianceReport:
    """Worst spread of any record probability across evaluations of one scenario.

    A record missing from an evaluation counts as probability 0; when the
    spread exceeds ``tol``, the witness names the first record whose spread
    is within ``tolerance.FLOOR`` of the worst and the two orderings
    realizing it.
    """
    table, records = _dense([r.probabilities for r in results])
    worst, witness = _worst_spread(table, records, [r.ordering for r in results])
    ok = worst <= tol
    return InvarianceReport(
        ok=ok,
        worst=worst,
        orders_checked=len(results),
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
    """Station ids in time order, but ``varied`` and its causal past first.

    That head is a down-set of the causal order, so the whole is a linear
    extension, and every station spacelike to ``varied`` fires after it.
    """
    head = s._pasts[0][varied] | {varied}
    by_time = sorted(s.stations, key=lambda st: (st.id not in head, st.event.t, st.id))
    return tuple(st.id for st in by_time)


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
    ordering that fires the varied station before the target
    (``_varied_first_ids``, reported as ``ordering``), and reports the
    worst change of any entry of the ``target`` station's marginal
    distribution; when the check fails, the witness names that entry and
    the two candidates realizing it. The two stations must be mutually
    spacelike; each alternative must act on the varied station's own
    subsystem. When ``varied`` is omitted it is inferred from the
    subsystem the alternatives address, provided exactly one non-target
    station acts there.
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
    _require_causal_conditions(s)
    for alt in alternatives:
        if alt.subsystem != v_st.subsystem:
            raise ValueError(
                f"alternative addresses subsystem {alt.subsystem}, but station "
                f"{varied!r} acts on subsystem {v_st.subsystem}"
            )

    order = _varied_first_ids(s, varied)
    # The original candidate is s itself; each alternative is s with one station swapped.
    variants = [s, *(s._with_station(varied, alt) for alt in alternatives)]
    marginals = [marginal(evaluate_in_order(v, order), target) for v in variants]
    table, labels = _dense(marginals)
    worst, witness = _worst_spread(table, labels, range(len(marginals)))
    ok = worst <= tol
    return NoSignalingReport(
        ok=ok,
        worst=worst,
        target=target,
        varied=varied,
        alternatives_checked=len(variants),
        ordering=order,
        witness=None if ok or witness is None else NoSignalingWitness(*witness),
    )

