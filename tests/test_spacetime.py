import itertools
import math
import time
import tracemalloc

import numpy as np
import pytest

from spacelike.scenarios import builtin_scenarios, random_product_scenario
from spacelike.spacetime import (
    Event,
    Frame,
    IntervalKind,
    TieReport,
    _causal_pasts,
    boost,
    causal_order,
    classify,
    frame_groups,
    frame_ordering,
    frame_resolutions,
    linear_extensions,
)


def test_frame_validates_velocity():
    assert Frame(0.0).gamma == pytest.approx(1.0)
    assert Frame(0.6).gamma == pytest.approx(1.25)
    for v in (1.0, -1.0, 1.5):
        with pytest.raises(ValueError):
            Frame(v)


def test_boost_identity_at_zero_velocity():
    e = Event("e", 0.7, -2.3)
    assert boost(e, Frame(0.0)) == (0.7, -2.3)


def test_boost_hand_value():
    # gamma = 1.25 at v = 0.6; t' = 1.25*(0.5 + 0.6) and x' = 1.25*(-1 - 0.3)
    t, x = boost(Event("e", 0.5, -1.0), Frame(0.6))
    assert t == pytest.approx(1.375, abs=1e-12)
    assert x == pytest.approx(-1.625, abs=1e-12)


def test_boost_composition_is_velocity_addition():
    rng = np.random.default_rng(10)
    for _ in range(50):
        t, x = rng.uniform(-5, 5, size=2)
        v1, v2 = rng.uniform(-0.9, 0.9, size=2)
        e = Event("e", float(t), float(x))
        t1, x1 = boost(e, Frame(v1))
        t2, x2 = boost(Event("e", t1, x1), Frame(v2))
        v12 = (v1 + v2) / (1.0 + v1 * v2)
        t12, x12 = boost(e, Frame(v12))
        assert t2 == pytest.approx(t12, abs=1e-12)
        assert x2 == pytest.approx(x12, abs=1e-12)


@pytest.mark.parametrize(
    "e2,expected",
    [
        (Event("b", 0.5, -1.0), IntervalKind.SPACELIKE),
        (Event("b", 2.0, 0.5), IntervalKind.TIMELIKE_FUTURE),
        (Event("b", -2.0, 0.5), IntervalKind.TIMELIKE_PAST),
        (Event("b", 1.0, 1.0), IntervalKind.LIGHTLIKE_FUTURE),
        (Event("b", -1.0, -1.0), IntervalKind.LIGHTLIKE_PAST),
        (Event("b", 0.0, 0.0), IntervalKind.COINCIDENT),
        # Squares that underflow to 0 or overflow to inf would read as lightlike.
        (Event("b", 5e-171, -2e-170), IntervalKind.SPACELIKE),
        (Event("b", -2e-170, 5e-171), IntervalKind.TIMELIKE_PAST),
        (Event("b", 1e308, 1.5e308), IntervalKind.SPACELIKE),
        (Event("b", 1.5e308, -1e308), IntervalKind.TIMELIKE_FUTURE),
        (Event("b", 1e-170, -1e-170), IntervalKind.LIGHTLIKE_FUTURE),
    ],
)
def test_classify_kinds(e2, expected):
    assert classify(Event("a", 0.0, 0.0), e2) is expected


def test_classify_halves_coordinates_whose_differences_overflow():
    # The counterexample's layout near the top of the float range: dt and dx both overflow.
    z, x = Event("Z", 1e308, 1.5e308), Event("X", -1e308, -1.7e308)
    assert classify(z, x) is classify(x, z) is IntervalKind.SPACELIKE
    assert causal_order([z, x]) == set()
    z, x = Event("Z", 1.7e308, 1e308), Event("X", -1.7e308, -1e308)
    assert (classify(z, x), classify(x, z)) == (IntervalKind.TIMELIKE_PAST, IntervalKind.TIMELIKE_FUTURE)
    assert causal_order([z, x]) == {("X", "Z")}


def test_frame_groups_refuses_a_boosted_time_that_overflows():
    # Timelike, Z after X, but at v = 0.9 both boosted times are inf.
    events = [Event("Z", 1.7e308, 0.0), Event("X", 1.6e308, 0.0)]
    assert [[e.id for e in g] for g in frame_groups(events, Frame(0.0))] == [["X"], ["Z"]]
    with pytest.raises(ValueError, match="event 'Z' has boosted time inf in the frame at velocity 0.9"):
        frame_groups(events, Frame(0.9))
    with pytest.raises(ValueError, match="event 'Z'"):
        frame_ordering(events, Frame(0.9))


def test_classify_swaps_direction():
    a, b = Event("a", 0.0, 0.0), Event("b", 2.0, 0.5)
    assert classify(a, b) is IntervalKind.TIMELIKE_FUTURE
    assert classify(b, a) is IntervalKind.TIMELIKE_PAST


def test_classify_is_boost_invariant():
    rng = np.random.default_rng(11)
    for _ in range(300):
        e1 = Event("a", float(rng.uniform(-3, 3)), float(rng.uniform(-3, 3)))
        e2 = Event("b", float(rng.uniform(-3, 3)), float(rng.uniform(-3, 3)))
        v = float(rng.uniform(-0.95, 0.95))
        f = Frame(v)
        b1 = Event("a", *boost(e1, f))
        b2 = Event("b", *boost(e2, f))
        assert classify(b1, b2) is classify(e1, e2)


def test_causal_order_chain_and_transitivity():
    events = [Event("a", 0.0, 0.0), Event("b", 2.0, 0.0), Event("c", 4.0, 0.5)]
    order = causal_order(events)
    assert ("a", "b") in order and ("b", "c") in order
    assert ("a", "c") in order  # transitive closure
    assert ("b", "a") not in order


def test_causal_order_spacelike_pair_is_empty():
    assert causal_order([Event("a", 0.0, 1.0), Event("b", 0.5, -1.0)]) == set()


def test_causal_order_rejects_duplicate_ids():
    with pytest.raises(ValueError, match="duplicate"):
        causal_order([Event("a", 0.0, 0.0), Event("a", 1.0, 0.0)])


FUTURE = (IntervalKind.TIMELIKE_FUTURE, IntervalKind.LIGHTLIKE_FUTURE)


def fixpoint_closure(events):
    """Reference: every direct future pair, then closed by rescanning all pairs."""
    order = {(a.id, b.id) for a in events for b in events if classify(a, b) in FUTURE}
    changed = True
    while changed:
        changed = False
        for (a, b) in list(order):
            for (c, d) in list(order):
                if b == c and (a, d) not in order:
                    order.add((a, d))
                    changed = True
    return order


def seeded_layout(rng, n):
    """n events: a lightlike-collinear decimal grid one time in three, else uniform."""
    if rng.integers(3) == 0:
        # On a light ray in exact arithmetic; rounding the decimals makes some
        # intervals spacelike, so the direct pairs need not be transitive.
        sign = float(rng.choice([-1.0, 1.0]))
        x0 = int(rng.integers(-9, 10)) / 10
        steps = rng.choice(np.arange(-30, 31), size=n, replace=False)
        return [
            Event(f"e{i}", int(k) / 10, round(x0 + sign * int(k) / 10, 1))
            for i, k in enumerate(steps)
        ]
    return [
        Event(f"e{i}", float(rng.uniform(-2, 2)), float(rng.uniform(-2, 2)))
        for i in range(n)
    ]


def test_causal_order_equals_the_fixpoint_closure():
    rng = np.random.default_rng(14)
    needed_closing = 0
    for _ in range(1200):
        events = seeded_layout(rng, int(rng.integers(2, 10)))
        order = causal_order(events)
        assert order == fixpoint_closure(events)
        direct = {(a.id, b.id) for a in events for b in events if classify(a, b) in FUTURE}
        needed_closing += order != direct
    assert needed_closing > 0
    # A NaN time compares false both ways; it must not scramble the time order.
    scrambled = [Event("b", 2.0, 0.0), Event("n", math.nan, 0.0), Event("a", 0.0, 0.0)]
    assert causal_order(scrambled) == fixpoint_closure(scrambled) == {("a", "b")}


def test_direct_predecessors_are_the_covering_pairs():
    rng = np.random.default_rng(16)
    for _ in range(600):
        events = seeded_layout(rng, int(rng.integers(1, 9)))
        order = causal_order(events)
        ids = [e.id for e in events]
        covering = {
            (a, b) for a, b in order if not any((a, c) in order and (c, b) in order for c in ids)
        }
        direct = _causal_pasts(events)[1]
        assert {(a, b) for b, preds in direct.items() for a in preds} == covering
        assert direct.keys() == set(ids)
    scrambled = [Event("b", 2.0, 0.0), Event("n", math.nan, 0.0), Event("a", 0.0, 0.0)]
    assert _causal_pasts(scrambled)[1] == {"a": [], "b": ["a"], "n": []}
    chain = [Event(f"c{i}", 2.0 * i, 0.0) for i in range(5)]
    assert _causal_pasts(chain)[1] == {"c0": [], **{f"c{i}": [f"c{i - 1}"] for i in range(1, 5)}}


def test_causal_order_closes_a_long_chain_in_one_pass():
    chain = [Event(f"c{i}", 2.0 * i, 0.0) for i in range(1200)]
    start = time.perf_counter()
    order = causal_order(chain)
    elapsed = time.perf_counter() - start
    assert len(order) == 1200 * 1199 // 2 == 719_400
    assert elapsed < 1.0


def test_frame_ordering_flips_spacelike_pair():
    """The layout with A at (0, 1) and B at (0.5, -1) reorders under boosts."""
    a, b = Event("A", 0.0, 1.0), Event("B", 0.5, -1.0)
    lab = frame_ordering([a, b], Frame(0.0))
    assert [e.id for e in lab] == ["A", "B"]
    moving = frame_ordering([a, b], Frame(-0.6))
    assert [e.id for e in moving] == ["B", "A"]
    # hand values for the boosted times behind the flip
    assert boost(a, Frame(-0.6))[0] == pytest.approx(0.75, abs=1e-12)
    assert boost(b, Frame(-0.6))[0] == pytest.approx(-0.125, abs=1e-12)


def test_frame_ordering_reports_ties():
    events = [Event("a", 0.0, 1.0), Event("b", 0.0, -1.0)]
    report = frame_ordering(events, Frame(0.0))
    assert isinstance(report, TieReport)
    assert report.velocity == 0.0
    assert ("a", "b") in report.pairs or ("b", "a") in report.pairs


def test_frame_ordering_ranks_a_tie_the_causal_order_settles():
    # Z and X on one worldline 1e-13 apart tie in the frame, but only Z -> X is causal.
    z, x = Event("Z", 0.0, 0.0), Event("X", 1e-13, 0.0)
    for events in ([z, x], [x, z]):
        assert frame_ordering(events, Frame(0.0)) == [z, x]
    # A lightlike pair whose boosted times round to the same float: only the causal order ranks it.
    a, b = Event("A", 1000.0, 1000.0), Event("B", 1000.0 + 1e-13, 1000.0 + 1e-13)
    assert boost(a, Frame(0.8))[0] == boost(b, Frame(0.8))[0]
    assert frame_ordering([b, a], Frame(0.8)) == [a, b]
    # Y ties with both at x = 5 and is spacelike to both: exactly (Z, Y) and (X, Y) are open.
    report = frame_ordering([z, x, Event("Y", 1e-13, 5.0)], Frame(0.0))
    assert isinstance(report, TieReport)
    assert len(report.pairs) == 2
    assert set(map(frozenset, report.pairs)) == {frozenset("ZY"), frozenset("XY")}


def tie_prone_cases():
    """400 event sets and frames on a coarse grid, with events 1e-13 apart on one worldline: ties are common and some are causal."""
    rng = np.random.default_rng(26)
    for _ in range(400):
        events = [
            Event(
                f"e{i}",
                int(rng.integers(0, 3)) / 2 + int(rng.integers(0, 3)) * 1e-13,
                float(rng.integers(-1, 2)),
            )
            for i in range(int(rng.integers(2, 7)))
        ]
        yield events, Frame(float(rng.choice([0.0, 0.5, -0.5])))


def test_frame_ordering_is_the_one_extension_of_its_groups_or_names_the_open_pairs():
    ranked = reported = 0
    for events, f in tie_prone_cases():
        order = causal_order(events)
        groups = frame_groups(events, f)
        chained = {(a.id, b.id) for g, h in zip(groups, groups[1:]) for a in g for b in h}
        extensions = linear_extensions(chained | order, events)
        open_pairs = {
            frozenset((a.id, b.id))
            for g in groups
            for a, b in itertools.combinations(g, 2)
            if (a.id, b.id) not in order and (b.id, a.id) not in order
        }
        result = frame_ordering(events, f)
        if len(extensions) == 1:
            assert not open_pairs
            assert [e.id for e in result] == list(extensions[0]), events
            ranked += any(len(g) > 1 for g in groups)
        else:
            assert isinstance(result, TieReport), events
            assert len(result.pairs) == len(open_pairs)
            assert set(map(frozenset, result.pairs)) == open_pairs, events
            reported += 1
    assert ranked > 20 and reported > 20, (ranked, reported)


def test_frame_resolutions_are_the_extensions_of_the_chained_groups():
    tied = 0
    for events, f in tie_prone_cases():
        groups = frame_groups(events, f)
        chained = {(a.id, b.id) for g, h in zip(groups, groups[1:]) for a in g for b in h}
        resolutions = frame_resolutions(events, f)
        assert sorted(resolutions) == sorted(linear_extensions(chained | causal_order(events), events)), events
        ordered = frame_ordering(events, f)
        if isinstance(ordered, TieReport):
            tied += 1
        else:
            assert resolutions == [tuple(e.id for e in ordered)], events
    assert tied > 20, tied


def test_frame_resolutions_refuse_nine_simultaneous_spacelike_events():
    events = [Event(f"q{i}", 0.0, 2.0 * i) for i in range(9)]
    with pytest.raises(ValueError, match=r"9 events have more than 40320 orderings \(8!\), the limit"):
        frame_resolutions(events, Frame(0.0))
    # A frame that separates their boosted times orders them.
    assert frame_resolutions(events, Frame(0.5)) == [tuple(f"q{i}" for i in reversed(range(9)))]


def test_frame_ordering_extends_causal_order():
    rng = np.random.default_rng(12)
    for _ in range(80):
        events = [
            Event(f"e{i}", float(rng.uniform(-2, 2)), float(rng.uniform(-2, 2)))
            for i in range(5)
        ]
        order = causal_order(events)
        v = float(rng.uniform(-0.9, 0.9))
        result = frame_ordering(events, Frame(v))
        if isinstance(result, TieReport):
            continue
        pos = {e.id: i for i, e in enumerate(result)}
        for earlier, later in order:
            assert pos[earlier] < pos[later]


def test_both_orders_of_a_spacelike_pair_are_realizable():
    a, b = Event("a", 0.0, 1.0), Event("b", 0.3, -1.0)
    seen = set()
    for v in np.linspace(-0.9, 0.9, 37):
        result = frame_ordering([a, b], Frame(float(v)))
        if isinstance(result, TieReport):
            continue
        seen.add(tuple(e.id for e in result))
    assert seen == {("a", "b"), ("b", "a")}


def test_linear_extensions_of_antichain_and_chain():
    spacelike = [Event(f"e{i}", 0.1 * i, 3.0 * i) for i in range(3)]
    exts = linear_extensions(causal_order(spacelike), spacelike)
    assert len(exts) == 6
    assert len(set(exts)) == 6
    chain = [Event(f"c{i}", 2.0 * i, 0.0) for i in range(4)]
    exts = linear_extensions(causal_order(chain), chain)
    assert exts == [("c0", "c1", "c2", "c3")]


def test_linear_extensions_diamond():
    # bottom -> {left, right} -> top; left/right mutually spacelike
    events = [
        Event("bottom", -4.0, 0.0),
        Event("left", 0.0, 2.0),
        Event("right", 0.0, -2.0),
        Event("top", 4.0, 0.0),
    ]
    exts = linear_extensions(causal_order(events), events)
    assert sorted(exts) == [
        ("bottom", "left", "right", "top"),
        ("bottom", "right", "left", "top"),
    ]


def test_linear_extensions_respect_the_partial_order():
    rng = np.random.default_rng(13)
    events = [
        Event(f"e{i}", float(rng.uniform(-2, 2)), float(rng.uniform(-2, 2)))
        for i in range(6)
    ]
    order = causal_order(events)
    exts = linear_extensions(order, events)
    assert len(set(exts)) == len(exts)
    for ext in exts:
        pos = {sid: i for i, sid in enumerate(ext)}
        for earlier, later in order:
            assert pos[earlier] < pos[later]


def recursive_extensions(order, events):
    """Reference: the recursive backtracking the enumeration replaced, one frame per event."""
    ids = [e.id for e in events]
    preds = {i: {a for a, b in order if b == i} for i in ids}
    out, chosen = [], []

    def backtrack():
        if len(chosen) == len(ids):
            out.append(tuple(chosen))
            return
        for i in ids:
            if i not in chosen and preds[i] <= set(chosen):
                chosen.append(i)
                backtrack()
                chosen.pop()

    backtrack()
    return out


def test_linear_extensions_list_equal_the_recursive_enumeration():
    # The same orderings in the same order, so witnesses and pinned counts keep.
    layouts = [random_product_scenario(seed=k).events() for k in range(200)]
    layouts += [s.events() for s in builtin_scenarios().values()]
    rng = np.random.default_rng(15)
    layouts += [seeded_layout(rng, int(rng.integers(0, 7))) for _ in range(1200)]
    for events in layouts:
        order = causal_order(events)
        expected = recursive_extensions(order, events)
        assert linear_extensions(order, events) == expected, events
        # The covering pairs alone give the same orderings.
        direct = _causal_pasts(events)[1]
        covering = {(a, b) for b, preds in direct.items() for a in preds}
        assert linear_extensions(covering, events) == expected, events
    # Relations given directly, whose last events are free of each other:
    # once the head is placed the rest is a free tail, whose permutations
    # must come in the order depth-first gives them.
    relations = []
    for _ in range(300):
        n = int(rng.integers(0, 8))
        head = int(rng.integers(0, n + 1))
        names = [f"e{i}" for i in rng.permutation(n)]
        pairs = {(names[i], names[j]) for i in range(head) for j in range(i + 1, n) if rng.random() < 0.5}
        events = [Event(i, 0.0, 0.0) for i in sorted(names, key=lambda _: rng.random())]
        relations.append((pairs, events))
    diamond = {("bottom", "left"), ("bottom", "right"), ("left", "top"), ("right", "top")}
    for k in range(4):
        events = [Event(i, 0.0, 0.0) for i in ("bottom", "left", "right", "top", *(f"a{j}" for j in range(k)))]
        relations.append((diamond | {("top", f"a{j}") for j in range(k)}, events))
    for order, events in relations:
        assert linear_extensions(order, events) == recursive_extensions(order, events), (order, events)


def test_linear_extensions_list_an_antichain_in_one_step():
    # No pair of the relation joins two of the events, including pairs that
    # name only other events: every permutation, in ``events`` order.
    rng = np.random.default_rng(36)
    elsewhere = {("u0", "u1"), ("u1", "u2"), ("u0", "u2")}
    for n in range(8):
        events = [Event(f"e{i}", 0.0, 0.0) for i in rng.permutation(n)]
        for order in (set(), elsewhere):
            assert linear_extensions(order, events) == recursive_extensions(order, events), (n, order)
    events = [Event(f"e{i}", 0.0, 0.0) for i in rng.permutation(8)]
    for order in (set(), elsewhere):
        assert linear_extensions(order, events) == list(itertools.permutations(e.id for e in events))


def test_linear_extensions_of_a_chain_deeper_than_the_recursion_limit():
    chain = [Event(f"c{i}", 2.0 * i, 0.0) for i in range(1100)]
    assert linear_extensions(causal_order(chain), chain) == [tuple(e.id for e in chain)]


def test_linear_extensions_take_a_step_per_placed_event():
    # Each placement updates its successors' counts; nothing rescans the
    # events. 20,000 events: a rescan at every depth would make 2e8 tests.
    n = 20_000
    chain = [Event(f"c{i}", 2.0 * i, 0.0) for i in range(n)]
    covering = {(f"c{i}", f"c{i + 1}") for i in range(n - 1)}
    start = time.perf_counter()
    assert linear_extensions(covering, chain) == [tuple(e.id for e in chain)]
    assert time.perf_counter() - start < 2.0


def test_linear_extensions_guard_on_event_count():
    events = [Event(f"e{i}", 0.0, 5.0 * i) for i in range(9)]
    with pytest.raises(ValueError, match="8"):
        linear_extensions(causal_order(events), events)


def test_linear_extensions_refuse_wide_antichains_before_listing():
    # Kahn's first round is the whole antichain: 9! and 30! exceed 8! at once.
    message = r"more than 40320 orderings \(8!\), the limit"
    for n in (9, 30):
        events = [Event(f"e{i}", 0.0, 5.0 * i) for i in range(n)]
        best = math.inf
        for _ in range(3):
            start = time.perf_counter()
            with pytest.raises(ValueError, match=message):
                linear_extensions(set(), events)
            best = min(best, time.perf_counter() - start)
        assert best < 0.01, (n, best)
    events = [Event(f"e{i}", 0.0, 5.0 * i) for i in range(8)]
    assert len(linear_extensions(set(), events)) == math.factorial(8)


def test_linear_extensions_refuse_past_the_round_bound_while_listing():
    # Two 10-event chains: the rounds pair them, a bound of 2^10, but they
    # interleave in C(20, 10) = 184,756 ways.
    events = [Event(f"{c}{i}", 2.0 * i, x) for i in range(10) for c, x in (("a", 0.0), ("b", 50.0))]
    with pytest.raises(ValueError, match=r"20 events have more than 40320 orderings"):
        linear_extensions(causal_order(events), events)


def test_linear_extensions_cap_a_free_tail_at_the_limit():
    # A chain c0..c8 with each y_i after c_i: the rounds bound the count by
    # 2^8, yet once the chain is placed the nine y's are a free tail of 9!
    # orderings. Listing stops one past the limit, before the rest of it.
    events = [Event(f"{c}{i}", 0.0, 0.0) for c in "cy" for i in range(9)]
    order = {(f"c{i}", f"c{i + 1}") for i in range(8)} | {(f"c{i}", f"y{i}") for i in range(9)}
    tracemalloc.start()
    try:
        with pytest.raises(ValueError, match=r"18 events have more than 40320 orderings \(8!\), the limit"):
            linear_extensions(order, events)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 12e6, peak


def test_event_equality_and_immutability():
    e = Event("a", 1.0, 2.0)
    assert e == Event("a", 1.0, 2.0)
    with pytest.raises(AttributeError):
        e.t = 3.0
