"""Events in 1+1-dimensional Minkowski spacetime (c = 1).

Provides Lorentz boosts, interval classification, the causal partial
order on a set of events, the chronological ordering a moving frame
induces, and enumeration of all total orders compatible with the causal
order. Every frame rule lives here: the causal order ranks events whose
boosted times tie, ``frame_ordering`` reports a tie it leaves open, never
breaking it, and ``frame_resolutions`` lists each of its resolutions.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from enum import Enum

from . import tolerance

__all__ = [
    "Event",
    "Frame",
    "IntervalKind",
    "TieReport",
    "boost",
    "causal_order",
    "classify",
    "frame_groups",
    "frame_ordering",
    "frame_resolutions",
    "linear_extensions",
]

MAX_EXTENSIONS = math.factorial(8)


@dataclass(frozen=True)
class Event:
    """A labeled point (t, x) in the reference frame."""

    id: str
    t: float
    x: float


@dataclass(frozen=True)
class Frame:
    """An inertial frame moving at velocity v (|v| < 1) relative to the reference frame."""

    v: float = 0.0

    def __post_init__(self):
        if not abs(self.v) < 1.0:
            raise ValueError(f"frame velocity must satisfy |v| < 1, got {self.v}")

    @property
    def gamma(self) -> float:
        return 1.0 / math.sqrt(1.0 - self.v * self.v)


class IntervalKind(Enum):
    SPACELIKE = "spacelike"
    TIMELIKE_FUTURE = "timelike-future"
    TIMELIKE_PAST = "timelike-past"
    LIGHTLIKE_FUTURE = "lightlike-future"
    LIGHTLIKE_PAST = "lightlike-past"
    COINCIDENT = "coincident"


@dataclass(frozen=True)
class TieReport:
    """Tied events the causal order leaves unordered.

    Returned by frame_ordering instead of an order: ``pairs`` names every
    pair of events whose boosted times tie (``frame_groups``) and neither of
    which is in the other's causal past, each pair once. A tie is reported,
    never silently broken.
    """

    velocity: float
    pairs: tuple[tuple[str, str], ...]


def boost(e: Event, f: Frame) -> tuple[float, float]:
    """Coordinates (t', x') of the event in the boosted frame."""
    g = f.gamma
    return (g * (e.t - f.v * e.x), g * (e.x - f.v * e.t))


def classify(e1: Event, e2: Event) -> IntervalKind:
    """Interval type of e2 relative to e1.

    FUTURE means e2 lies in e1's causal future. Swapping the arguments
    time-reverses the answer. |dt| is compared with |dx|, not their squares,
    which can underflow or overflow; where both overflow, every coordinate is halved, exactly.
    """
    dt, dx = e2.t - e1.t, e2.x - e1.x
    if abs(dt) == abs(dx) == math.inf:
        dt, dx = e2.t / 2 - e1.t / 2, e2.x / 2 - e1.x / 2
    if abs(dt) < abs(dx):
        return IntervalKind.SPACELIKE
    if abs(dt) > abs(dx):
        return IntervalKind.TIMELIKE_FUTURE if dt > 0 else IntervalKind.TIMELIKE_PAST
    if dt > 0:
        return IntervalKind.LIGHTLIKE_FUTURE
    if dt < 0:
        return IntervalKind.LIGHTLIKE_PAST
    return IntervalKind.COINCIDENT


def _causal_pasts(events: list[Event]) -> tuple[dict[str, set[str]], dict[str, list[str]]]:
    """Each event's causal past, and its direct predecessors, keyed by event id.

    One pass in time order: an event's past is final before any later
    event reads it, and an earlier event already in the past needs no
    interval test. An event that joins the past without already being in
    it has no event of the past between it and this one, so those are
    exactly the direct predecessors (the covering pairs of the order).
    """
    ids = [e.id for e in events]
    if len(set(ids)) != len(ids):
        dup = sorted({i for i in ids if ids.count(i) > 1})
        raise ValueError(f"duplicate event ids: {dup}")
    future = (IntervalKind.TIMELIKE_FUTURE, IntervalKind.LIGHTLIKE_FUTURE)
    # NaN times sort last: comparisons with NaN would scramble the time order.
    timeline = sorted(events, key=lambda e: (math.isnan(e.t), e.t))
    past: dict[str, set[str]] = {}
    direct: dict[str, list[str]] = {}
    for j, b in enumerate(timeline):
        mine = past[b.id] = set()
        nearest = direct[b.id] = []
        for a in reversed(timeline[:j]):
            if a.id not in mine and classify(a, b) in future:
                nearest.append(a.id)
                mine.add(a.id)
                mine |= past[a.id]
    return past, direct


def causal_order(events: list[Event]) -> set[tuple[str, str]]:
    """Causal partial order as the set of pairs (a, b) with b in a's future.

    Transitively closed, and acyclic because every pair strictly increases t.
    """
    past, _ = _causal_pasts(events)
    return {(a, b) for b, mine in past.items() for a in mine}


def frame_groups(events: list[Event], f: Frame) -> list[list[Event]]:
    """Events sorted by boosted time t', grouped where consecutive t' values tie.

    Within a group events keep their input order; a group of one is an
    event the frame orders unambiguously. Raises ValueError on a boosted
    time that is not finite, which no rank can be read from.
    """
    times = {e.id: boost(e, f)[0] for e in events}
    if bad := next((e.id for e in events if not math.isfinite(times[e.id])), None):
        raise ValueError(f"event {bad!r} has boosted time {times[bad]} in the frame at velocity {f.v}")
    groups: list[list[Event]] = []
    for e in sorted(events, key=lambda e: times[e.id]):
        if groups and times[e.id] - times[groups[-1][-1].id] <= tolerance.TIE:
            groups[-1].append(e)
        else:
            groups.append([e])
    return groups


def frame_ordering(events: list[Event], f: Frame) -> list[Event] | TieReport:
    """Events sorted by boosted time t'; a TieReport where the causal order leaves a tie open.

    Events whose t' tie within ``tolerance.TIE`` (``frame_groups``) are
    ranked by the causal order alone: rounding can give causally ordered
    events equal t'. An event causally between two tied ones has t' between
    theirs, so it ties with them too, and each group's own causal pasts
    decide it. A group of one needs no ranking.
    """
    ordered, pairs = [], []
    for g in frame_groups(events, f):
        if len(g) > 1:
            past, _ = _causal_pasts(g)
            tied = itertools.combinations(g, 2)
            pairs += [(a.id, b.id) for a, b in tied if a.id not in past[b.id] and b.id not in past[a.id]]
            g.sort(key=lambda e: len(past[e.id]))
        ordered += g
    if pairs:
        return TieReport(velocity=f.v, pairs=tuple(pairs))
    return ordered


def frame_resolutions(events: list[Event], f: Frame) -> list[tuple[str, ...]]:
    """Every ordering of the event ids frame f admits: the one ``frame_ordering`` gives, or each resolution of a tie.

    The ``frame_groups`` are chained in time order, and within a group only
    the causal order ranks events; ValueError past 8! (``linear_extensions``).
    """
    groups = frame_groups(events, f)
    later = {(a.id, b.id) for g, h in zip(groups, groups[1:]) for a in g for b in h}
    return linear_extensions(later | causal_order(events), [e for g in groups for e in g])


def linear_extensions(
    order: set[tuple[str, str]], events: list[Event]
) -> list[tuple[str, ...]]:
    """All total orders of the events consistent with the partial order.

    ``order`` may be the partial order or any relation it is the
    transitive closure of, such as its covering pairs. The orders come
    depth-first, each depth trying the ready events in ``events`` order,
    so consecutive orders share their longest prefixes. An event is ready
    when none of its predecessors is unplaced; a count per event keeps
    that up to date, so each step costs its event's successors, not a
    scan of every event. A running count of the order pairs whose source
    is unplaced spots a free tail: when it is 0, no pair joins two
    unplaced events, so every permutation of them, in ``events`` order,
    ends the prefix, and they are listed in one step, in the order the
    search would give. For mutually spacelike events the tail is every
    event: with no pair of the relation joining two of them, up to 8 of
    them are listed before any count or stack is built, and more go on to
    the refusal below. Otherwise the tail is at least the last event.

    Refuses more than MAX_EXTENSIONS (8!) of them: their count grows
    factorially with the number of mutually spacelike events. Such a
    scenario can still be evaluated one frame at a time. The events
    ready in each round of Kahn's algorithm are mutually unordered, so
    the product of the rounds' factorials bounds the count from below,
    and a bound over the limit refuses before any ordering is listed.
    The bound can be far below the count, so listing stops, a free tail
    included, at the first ordering past the limit.
    """
    ids = [e.id for e in events]
    at = {i: k for k, i in enumerate(ids)}
    if len(at) != len(ids):
        raise ValueError("event ids must be unique")
    if math.factorial(min(len(ids), 9)) <= MAX_EXTENSIONS and not any(a in at and b in at for a, b in order):
        return list(itertools.permutations(ids))
    # succs[k]: positions of k's successors; missing[k]: k's predecessors not yet placed.
    succs: list[list[int]] = [[] for _ in ids]
    missing = [0] * len(ids)
    for a, b in order:
        if a in at and b in at:
            succs[at[a]].append(at[b])
            missing[at[b]] += 1
    ready = {k for k, m in enumerate(missing) if not m}
    bound, left, layer = 1, missing.copy(), list(ready)
    while layer and bound <= MAX_EXTENSIONS:
        bound *= math.factorial(min(len(layer), 9))
        reached = [y for x in layer for y in succs[x]]
        for y in reached:
            left[y] -= 1
        layer = list(dict.fromkeys(y for y in reached if not left[y]))

    out: list[tuple[str, ...]] = []
    chosen: list[int] = []
    # Order pairs whose source is unplaced. No target is placed before its
    # source, so these are exactly the pairs among the unplaced events.
    pairs = sum(map(len, succs))
    # Depth-first backtracking with an explicit stack: stack[k] holds the
    # events ready at depth k, in ``ids`` order, and the next one to try.
    # The ready set is the same whenever the search returns to a depth.
    stack = [[sorted(ready), 0]] if bound <= MAX_EXTENSIONS else []
    while stack and len(out) <= MAX_EXTENSIONS:
        top = stack[-1]
        candidates, k = top
        if not pairs and not k:
            # A free tail: every unplaced event is ready, so each permutation
            # of them, in ``ids`` order, ends this prefix, as depth-first would.
            head = tuple(ids[j] for j in chosen)
            tails = itertools.permutations([ids[j] for j in candidates])
            out += (head + p for p in itertools.islice(tails, MAX_EXTENSIONS + 1 - len(out)))
            k = top[1] = len(candidates)
        if k < len(candidates):
            top[1] = k + 1
            x = candidates[k]
            chosen.append(x)
            pairs -= len(succs[x])
            ready.remove(x)
            for y in succs[x]:
                missing[y] -= 1
                if not missing[y]:
                    ready.add(y)
            stack.append([sorted(ready), 0])
            continue
        stack.pop()
        if chosen:
            x = chosen.pop()
            pairs += len(succs[x])
            for y in succs[x]:
                if not missing[y]:
                    ready.remove(y)
                missing[y] += 1
            ready.add(x)
    if bound > MAX_EXTENSIONS or len(out) > MAX_EXTENSIONS:
        raise ValueError(
            f"{len(ids)} events have more than {MAX_EXTENSIONS} orderings (8!), "
            "the limit for enumerating every ordering; evaluate single frames "
            "instead (simulate --frame-velocity, evaluate_in_frame)"
        )
    return out
