import copy
import json
import math
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spacelike.linalg import CMatrix, max_abs_diff
from spacelike.intervention import Intervention, LocalIntervention, Outcome
from spacelike.experiment import ConditionalLocal, Evolution, Scenario, Station, evaluate_in_order
from spacelike.cli import main
from spacelike.scenarios import builtin_scenarios, eprb, random_product_scenario
from spacelike.schema import SchemaError, parse_scenario, serialize_scenario
from spacelike.spacetime import Event


def valid_doc():
    """Minimal valid scenario document, one z measurement on one qubit."""
    return {
        "dims": [2],
        "rho0": [[0.5, 0.0], [0.0, 0.0], [0.0, 0.0], [0.5, 0.0]],
        "stations": [
            {
                "event": {"id": "A", "t": 0.0, "x": 0.0},
                "subsystem": 0,
                "intervention": {
                    "d_in": 2,
                    "outcomes": [
                        {"label": "up", "d_out": 2, "kraus": [[[1.0, 0.0], [0.0, 0.0], [0.0, 0.0], [0.0, 0.0]]]},
                        {"label": "down", "d_out": 2, "kraus": [[[0.0, 0.0], [0.0, 0.0], [0.0, 0.0], [1.0, 0.0]]]},
                    ],
                },
            }
        ],
    }


def test_parse_minimal_document():
    s = parse_scenario(json.dumps(valid_doc()))
    assert s.dims0 == (2,)
    result = evaluate_in_order(s, ["A"])
    assert result.probabilities[(("A", "up"),)] == pytest.approx(0.5)


def test_round_trip_is_entrywise_exact():
    for name, s in builtin_scenarios().items():
        text = serialize_scenario(s)
        s2 = parse_scenario(text)
        assert s2.dims0 == s.dims0
        assert max_abs_diff(s2.rho0, s.rho0) == 0.0
        for st, st2 in zip(s.stations, s2.stations):
            assert st.event == st2.event
            iv, iv2 = st.resolve({}), st2.resolve({})
            assert iv.labels() == iv2.labels()
            for o, o2 in zip(iv.outcomes, iv2.outcomes):
                for k, k2 in zip(o.kraus, o2.kraus):
                    assert max_abs_diff(k, k2) == 0.0
        # serializing again reproduces the same bytes
        assert serialize_scenario(s2) == text


def test_round_trip_conditional_and_evolutions():
    flip = Intervention(
        d_in=2,
        outcomes=(Outcome("flip", 2, (CMatrix(np.array([[0, 1], [1, 0]], dtype=complex)),)),),
    )
    ident = Intervention(d_in=2, outcomes=(Outcome("id", 2, (CMatrix.identity(2),)),))
    z = Intervention(
        d_in=2,
        outcomes=(
            Outcome("z+", 2, (CMatrix(np.diag([1.0, 0.0]).astype(complex)),)),
            Outcome("z-", 2, (CMatrix(np.diag([0.0, 1.0]).astype(complex)),)),
        ),
    )
    h = CMatrix(np.array([[1, 1], [1, -1]], dtype=complex) / math.sqrt(2))
    s = Scenario(
        dims0=(2,),
        rho0=CMatrix(np.eye(2, dtype=complex) / 2.0),
        stations=(
            Station(Event("M", 0.0, 0.0), LocalIntervention(0, z)),
            Station(
                Event("C", 2.0, 0.0),
                ConditionalLocal(0, ("M",), {("z+",): ident, ("z-",): flip}),
            ),
        ),
        evolutions=(Evolution("M", "C", h, history={"M": "z+"}),),
    )
    s2 = parse_scenario(serialize_scenario(s))
    r1 = evaluate_in_order(s, ["M", "C"])
    r2 = evaluate_in_order(s2, ["M", "C"])
    assert r1.probabilities == r2.probabilities
    assert s2.evolutions[0].history == {"M": "z+"}


def test_invalid_json_reports_position():
    with pytest.raises(SchemaError, match="line 1"):
        parse_scenario("{not json")


def test_unknown_field_is_rejected_with_path():
    doc = valid_doc()
    doc["extra"] = 1
    with pytest.raises(SchemaError, match=r"\$: unknown fields \['extra'\]"):
        parse_scenario(json.dumps(doc))
    doc = valid_doc()
    doc["stations"][0]["intervention"]["outcomes"][0]["color"] = "red"
    with pytest.raises(SchemaError, match=r"outcomes\[0\].*color"):
        parse_scenario(json.dumps(doc))


def test_missing_d_out_names_path():
    doc = valid_doc()
    del doc["stations"][0]["intervention"]["outcomes"][1]["d_out"]
    with pytest.raises(SchemaError, match=r"\$\.stations\[0\]\.intervention\.outcomes\[1\]") as excinfo:
        parse_scenario(json.dumps(doc))
    assert "d_out" in str(excinfo.value)


def test_non_hermitian_rho0_diagnostic():
    doc = valid_doc()
    doc["rho0"] = [[0.5, 0.0], [0.3, 0.0], [0.0, 0.0], [0.5, 0.0]]
    with pytest.raises(SchemaError, match=r"\$\.rho0.*Hermitian"):
        parse_scenario(json.dumps(doc))


def test_wrong_trace_rho0_diagnostic():
    doc = valid_doc()
    doc["rho0"] = [[0.5, 0.0], [0.0, 0.0], [0.0, 0.0], [0.4, 0.0]]
    with pytest.raises(SchemaError, match=r"\$\.rho0.*trace"):
        parse_scenario(json.dumps(doc))


def test_completeness_violation_names_intervention_path():
    doc = valid_doc()
    doc["stations"][0]["intervention"]["outcomes"][0]["kraus"][0][0] = [0.9, 0.0]
    with pytest.raises(SchemaError, match=r"stations\[0\]\.intervention") as excinfo:
        parse_scenario(json.dumps(doc))
    assert "completeness" in str(excinfo.value).lower()


def test_matrix_shape_and_entry_diagnostics():
    doc = valid_doc()
    doc["rho0"] = [[0.5, 0.0], [0.5, 0.0]]
    with pytest.raises(SchemaError, match="4 entries"):
        parse_scenario(json.dumps(doc))
    doc = valid_doc()
    doc["rho0"][2] = [0.0]
    with pytest.raises(SchemaError, match=r"rho0\[2\]"):
        parse_scenario(json.dumps(doc))
    doc = valid_doc()
    doc["rho0"][2] = [0.0, "x"]
    with pytest.raises(SchemaError, match=r"rho0\[2\]\[1\]"):
        parse_scenario(json.dumps(doc))


def test_non_finite_entries_rejected():
    text = json.dumps(valid_doc()).replace("[0.5, 0.0]", "[Infinity, 0.0]", 1)
    with pytest.raises(SchemaError, match="finite"):
        parse_scenario(text)


def test_integers_beyond_float_range_rejected_with_their_path():
    # float() of such an integer overflows; it must be a schema error, not an OverflowError.
    huge = "1" + "0" * 400
    doc = valid_doc()
    doc["stations"][0]["event"]["t"] = 0
    text = json.dumps(doc).replace('"t": 0', f'"t": {huge}', 1)
    with pytest.raises(SchemaError, match=r"stations\[0\]\.event\.t: .*finite") as exc:
        parse_scenario(text)
    assert exc.value.path == "$.stations[0].event.t"
    text = json.dumps(valid_doc()).replace("[0.5, 0.0]", f"[0.5, -{huge}]", 1)
    with pytest.raises(SchemaError, match=r"rho0\[0\]\[1\]: .*finite"):
        parse_scenario(text)


def test_station_requires_exactly_one_intervention_form():
    doc = valid_doc()
    doc["stations"][0]["depends_on"] = ["A"]
    doc["stations"][0]["cases"] = []
    with pytest.raises(SchemaError, match="exactly one"):
        parse_scenario(json.dumps(doc))
    doc = valid_doc()
    del doc["stations"][0]["intervention"]
    with pytest.raises(SchemaError, match="exactly one"):
        parse_scenario(json.dumps(doc))


def test_depends_on_and_cases_must_pair():
    doc = valid_doc()
    del doc["stations"][0]["intervention"]
    doc["stations"][0]["depends_on"] = ["B"]
    with pytest.raises(SchemaError, match="together"):
        parse_scenario(json.dumps(doc))


@pytest.mark.parametrize("dep", ["Q", "C"])
def test_a_condition_on_an_unknown_station_or_itself_is_rejected_at_the_root(dep):
    doc = valid_doc()
    conditional = copy.deepcopy(doc["stations"][0])
    conditional["event"] = {"id": "C", "t": 1.0, "x": 0.0}
    iv = conditional.pop("intervention")
    conditional["depends_on"] = [dep]
    conditional["cases"] = [{"when": ["up"], "intervention": iv}, {"when": ["down"], "intervention": iv}]
    doc["stations"].append(conditional)
    with pytest.raises(SchemaError, match=f"station 'C' depends on '{dep}'") as excinfo:
        parse_scenario(json.dumps(doc))
    assert excinfo.value.path == "$"


def test_non_square_evolution_matrix_rejected():
    doc = valid_doc()
    doc["evolutions"] = [{"after": None, "before": "A", "matrix": [[1.0, 0.0], [0.0, 0.0]]}]
    with pytest.raises(SchemaError, match="square"):
        parse_scenario(json.dumps(doc))


def test_scenario_level_invariants_surface_as_schema_errors():
    doc = valid_doc()
    doc["evolutions"] = [
        {
            "after": None,
            "before": "A",
            "matrix": [[1.0, 0.0], [0.0, 0.0], [0.0, 0.0], [0.5, 0.0]],
        }
    ]
    with pytest.raises(SchemaError, match="unitary"):
        parse_scenario(json.dumps(doc))


def conditional_doc():
    """``valid_doc`` and a second station B that fires A's intervention whatever A recorded."""
    doc = valid_doc()
    iv = doc["stations"][0]["intervention"]
    doc["stations"].append(
        {
            "event": {"id": "B", "t": 1.0, "x": 0.0},
            "subsystem": 0,
            "depends_on": ["A"],
            "cases": [{"when": ["up"], "intervention": iv}, {"when": ["down"], "intervention": iv}],
        }
    )
    return doc


def test_conditional_doc_is_valid():
    assert len(parse_scenario(json.dumps(conditional_doc())).stations) == 2


IDENTITY = [[1.0, 0.0], [0.0, 0.0], [0.0, 0.0], [1.0, 0.0]]


@pytest.mark.parametrize(
    "path, mutate",
    [
        ("$.stations[0].intervention.d_in", lambda d: d["stations"][0]["intervention"].update(d_in=0)),
        ("$.stations[0].intervention.outcomes", lambda d: d["stations"][0]["intervention"].update(outcomes=[])),
        (
            "$.stations[0].intervention.outcomes[0].kraus",
            lambda d: d["stations"][0]["intervention"]["outcomes"][0].update(kraus=[]),
        ),
        ("$.stations[1].cases[1]", lambda d: d["stations"][1]["cases"][1].update(when=["up"])),
        ("$.stations[1]", lambda d: d["stations"][1].update(depends_on=[])),
        (
            "$.evolutions[0].history",
            lambda d: d.update(evolutions=[{"after": "A", "history": ["A"], "matrix": IDENTITY}]),
        ),
        ("$.dims", lambda d: d.update(dims=[])),
    ],
)
def test_rejection_names_the_field(path, mutate):
    doc = conditional_doc()
    mutate(doc)
    with pytest.raises(SchemaError) as exc:
        parse_scenario(json.dumps(doc))
    assert exc.value.path == path


@pytest.mark.parametrize(
    "path, key, fragment, repeat",
    [
        ("$", "dims", '"dims": [2]', '"dims": [2]'),
        ("$.stations[0].event", "t", '"t": 0.0', '"t": 50.0'),
        ("$.stations[0].intervention.outcomes[0]", "label", '"label": "up"', '"label": "down"'),
        ("$.evolutions[0].history", "A", '"history": {"A": "up"', '"A": "down"'),
    ],
)
def test_a_repeated_key_is_rejected_naming_the_object_and_the_key(path, key, fragment, repeat):
    # json.loads would keep the last value and drop the first without a word.
    doc = conditional_doc()
    doc["evolutions"] = [{"after": "A", "before": "B", "history": {"A": "up"}, "matrix": IDENTITY}]
    text = json.dumps(doc)
    parse_scenario(text)
    with pytest.raises(SchemaError) as exc:
        parse_scenario(text.replace(fragment, f"{fragment}, {repeat}", 1))
    assert (exc.value.path, str(exc.value)) == (path, f"{path}: repeated key {key!r}")


def test_nesting_past_the_recursion_limit_is_a_schema_error():
    with pytest.raises(SchemaError) as exc:
        parse_scenario("[" * 100_000 + "]" * 100_000)
    assert exc.value.path == "$"


@pytest.mark.skipif(not hasattr(sys, "get_int_max_str_digits"), reason="no integer digit limit")
def test_an_integer_literal_past_the_digit_limit_is_a_schema_error():
    text = json.dumps(valid_doc()).replace('"t": 0.0', '"t": ' + "1" * 5000, 1)
    with pytest.raises(SchemaError, match="digits") as exc:
        parse_scenario(text)
    assert exc.value.path == "$"


def test_utf8_and_bytes_input():
    text = serialize_scenario(eprb(0.0, 1.0))
    assert parse_scenario(text.encode("utf-8")).dims0 == (2, 2)
    with pytest.raises(SchemaError, match="UTF-8"):
        parse_scenario(b"\xff\xfe{}")


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(min_value=0, max_value=2**63 - 1))
def test_round_trip_of_generated_scenarios_is_exact(seed):
    s = random_product_scenario(seed)
    back = parse_scenario(serialize_scenario(s))
    assert back.dims0 == s.dims0
    assert np.array_equal(back.rho0.array, s.rho0.array)
    for a, b in zip(s.stations, back.stations, strict=True):
        assert (a.event, a.subsystem) == (b.event, b.subsystem)
        for oa, ob in zip(a.local.local.outcomes, b.local.local.outcomes, strict=True):
            assert (oa.label, oa.d_out) == (ob.label, ob.d_out)
            for ka, kb in zip(oa.kraus, ob.kraus, strict=True):
                assert np.array_equal(ka.array, kb.array)
    order = [st.id for st in s.stations]
    want = evaluate_in_order(s, order).probabilities
    got = evaluate_in_order(back, order).probabilities
    assert got.keys() == want.keys()
    assert max(abs(got[rec] - want[rec]) for rec in want) <= 1e-15


SCENARIO_DIR = Path(__file__).resolve().parent.parent / "scenarios"
SHIPPED = {p.name: json.loads(p.read_text()) for p in sorted(SCENARIO_DIR.glob("*.json"))}


def _is_matrix(node):
    """A flat list of [re, im] pairs."""
    first = node[0] if isinstance(node, list) and node else None
    return isinstance(first, list) and len(first) == 2 and all(
        isinstance(x, (int, float)) for x in first
    )


def _sites(node, path=()):
    """Paths of every node of a document, not descending into matrices."""
    yield path, node
    if isinstance(node, dict):
        for key, value in node.items():
            yield from _sites(value, path + (key,))
    elif isinstance(node, list) and not _is_matrix(node):
        for i, value in enumerate(node):
            yield from _sites(value, path + (i,))


# (file, mutation, path): drop a key, add an unknown key, replace a value by
# one of another type, or drop a matrix's last entry.
MUTATIONS = []
for _name, _doc in SHIPPED.items():
    for _path, _node in _sites(_doc):
        if isinstance(_node, dict):
            MUTATIONS += [(_name, "drop", _path + (key,)) for key in _node]
            MUTATIONS.append((_name, "add", _path))
        if _path:
            MUTATIONS.append((_name, "retype", _path))
        if _is_matrix(_node):
            MUTATIONS.append((_name, "truncate", _path))
OTHER_TYPES = ["x", 1, 2.5, None, True, [], {}, [1], {"x": 1}]


@settings(max_examples=150, deadline=None)
@given(
    mutation=st.sampled_from(MUTATIONS),
    replacement=st.sampled_from(OTHER_TYPES),
    command=st.sampled_from(["simulate", "check-invariance", "check-no-signaling", "check-povm"]),
)
def test_structurally_mutated_files_exit_0_1_or_2(tmp_path_factory, mutation, replacement, command):
    name, kind, path = mutation
    doc = copy.deepcopy(SHIPPED[name])
    parent = doc
    for key in path[:-1] if kind != "add" else path:
        parent = parent[key]
    if kind == "drop":
        del parent[path[-1]]
    elif kind == "add":
        parent["unexpected"] = replacement
    elif kind == "truncate":
        del parent[path[-1]][-1]
    else:
        if type(parent[path[-1]]) is type(replacement):
            replacement = [replacement]
        parent[path[-1]] = replacement
    target = tmp_path_factory.mktemp("mutated") / name
    target.write_text(json.dumps(doc))
    assert main([command, str(target)]) in (0, 1, 2)
