"""Events in 1+1-dimensional Minkowski spacetime (c = 1).

Provides Lorentz boosts, interval classification, the causal partial
order on a set of events, the chronological ordering a moving frame
induces, and enumeration of all total orders compatible with the causal
order.
"""

from __future__ import annotations

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
    """Events whose boosted times coincide within ``tolerance.TIE``.

    Returned by frame_ordering instead of an order; a tie is reported,
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
    time-reverses the answer.
    """
    dt = e2.t - e1.t
    dx = e2.x - e1.x
    s = dt * dt - dx * dx
    if s < 0.0:
        return IntervalKind.SPACELIKE
    if s > 0.0:
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
    event the frame orders unambiguously.
    """
    times = {e.id: boost(e, f)[0] for e in events}
    groups: list[list[Event]] = []
    for e in sorted(events, key=lambda e: times[e.id]):
        if groups and times[e.id] - times[groups[-1][-1].id] <= tolerance.TIE:
            groups[-1].append(e)
        else:
            groups.append([e])
    return groups


def frame_ordering(events: list[Event], f: Frame) -> list[Event] | TieReport:
    """Events sorted by boosted time t', or a TieReport when t' values collide."""
    groups = frame_groups(events, f)
    ties = tuple((a.id, b.id) for g in groups for a, b in zip(g, g[1:]))
    if ties:
        return TieReport(velocity=f.v, pairs=ties)
    return [e for g in groups for e in g]


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
    scan of every event.

    Refuses more than MAX_EXTENSIONS (8!) of them: their count grows
    factorially with the number of mutually spacelike events. Such a
    scenario can still be evaluated one frame at a time. The events
    ready in each round of Kahn's algorithm are mutually unordered, so
    the product of the rounds' factorials bounds the count from below,
    and a bound over the limit refuses before any ordering is listed.
    """
    ids = [e.id for e in events]
    if len(set(ids)) != len(ids):
        raise ValueError("event ids must be unique")
    at = {i: k for k, i in enumerate(ids)}
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
    # Depth-first backtracking with an explicit stack: stack[k] holds the
    # events ready at depth k, in ``ids`` order, and the next one to try.
    # The ready set is the same whenever the search returns to a depth.
    stack = [[sorted(ready), 0]] if bound <= MAX_EXTENSIONS else []
    while stack:
        top = stack[-1]
        candidates, k = top
        if k < len(candidates):
            top[1] = k + 1
            x = candidates[k]
            chosen.append(x)
            ready.remove(x)
            for y in succs[x]:
                missing[y] -= 1
                if not missing[y]:
                    ready.add(y)
            stack.append([sorted(ready), 0])
            continue
        if len(chosen) == len(ids):
            out.append(tuple(ids[j] for j in chosen))
            if len(out) > MAX_EXTENSIONS:
                break
        stack.pop()
        if chosen:
            x = chosen.pop()
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
