"""Strict JSON schema for scenario files.

The file layout:

    {
      "dims": [2, 2],
      "rho0": <matrix>,
      "stations": [
        {"event": {"id": "A", "t": 0.0, "x": 1.0},
         "subsystem": 0,
         "intervention": {"d_in": 2,
                          "outcomes": [{"label": "+", "d_out": 2,
                                        "kraus": [<matrix>, ...]}, ...]}},
        ...
      ],
      "evolutions": [
        {"after": "A", "before": "B", "history": {"A": "+"}, "matrix": <matrix>},
        ...
      ]
    }

A matrix is a flat row-major list of [re, im] pairs; its length must
equal rows*cols for the dimensions implied by its position. A station
may carry "depends_on"/"cases" instead of "intervention" for
outcome-conditioned interventions; "evolutions" may be omitted.
Unknown fields and repeated keys are rejected everywhere, and every
diagnostic names the JSON path it refers to.
"""

from __future__ import annotations

import json
import math
from collections import Counter
from typing import Any

import numpy as np

from .linalg import CMatrix
from .intervention import Intervention, LocalIntervention, Outcome
from .experiment import ConditionalLocal, Evolution, Scenario, StateError, Station
from .spacetime import Event

__all__ = ["SchemaError", "parse_scenario", "serialize_scenario"]


class SchemaError(ValueError):
    """A scenario file violated the schema; `path` names where."""

    def __init__(self, path: str, message: str):
        super().__init__(f"{path}: {message}")
        self.path = path


def _load(text: str) -> Any:
    """``json.loads``, but an object that repeats a key, whose last value json would keep, is refused."""
    # Each such object with a key it repeats; holding the object keeps its id from being reused.
    repeats: list[tuple[dict, str]] = []

    def pairs_hook(pairs: list) -> dict:
        obj = dict(pairs)
        if len(obj) < len(pairs):
            repeats.append((obj, next(k for k, n in Counter(k for k, _ in pairs).items() if n > 1)))
        return obj

    try:
        root = json.loads(text, object_pairs_hook=pairs_hook)
    except json.JSONDecodeError as exc:
        raise SchemaError("$", f"invalid JSON at line {exc.lineno} column {exc.colno}: {exc.msg}") from exc
    except (RecursionError, ValueError) as exc:
        # Nesting past the recursion limit, or an integer literal past int's digit limit.
        raise SchemaError("$", f"unreadable JSON: {exc}") from exc
    # Only a file that repeats a key is walked, in document order, for the object's path.
    repeated = {id(obj): key for obj, key in repeats}
    stack = [(root, "$")] if repeated else []
    while stack:
        value, path = stack.pop()
        if isinstance(value, dict):
            if id(value) in repeated:
                raise SchemaError(path, f"repeated key {repeated[id(value)]!r}")
            stack.extend(reversed([(v, f"{path}.{k}") for k, v in value.items()]))
        elif isinstance(value, list):
            stack.extend(reversed([(v, f"{path}[{i}]") for i, v in enumerate(value)]))
    return root


def _require_object(value: Any, path: str, required: set[str], optional: set[str] = frozenset()) -> dict:
    if not isinstance(value, dict):
        raise SchemaError(path, f"expected an object, got {type(value).__name__}")
    unknown = set(value) - required - optional
    if unknown:
        raise SchemaError(path, f"unknown fields {sorted(unknown)}")
    missing = required - set(value)
    if missing:
        raise SchemaError(path, f"missing required fields {sorted(missing)}")
    return value


def _require_list(value: Any, path: str) -> list:
    if not isinstance(value, list):
        raise SchemaError(path, f"expected an array, got {type(value).__name__}")
    return value


def _require_number(value: Any, path: str) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise SchemaError(path, f"expected a number, got {type(value).__name__}")
    try:
        number = float(value)
    except OverflowError:
        raise SchemaError(path, "expected a finite number, got an integer beyond float range") from None
    if not math.isfinite(number):
        raise SchemaError(path, f"expected a finite number, got {value}")
    return number


def _require_int(value: Any, path: str, minimum: int = 1) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        raise SchemaError(path, f"expected an integer, got {type(value).__name__}")
    if value < minimum:
        raise SchemaError(path, f"expected an integer >= {minimum}, got {value}")
    return value


def _require_str(value: Any, path: str) -> str:
    if not isinstance(value, str) or not value:
        raise SchemaError(path, "expected a non-empty string")
    return value


def _parse_matrix(value: Any, rows: int, cols: int, path: str) -> CMatrix:
    entries = _require_list(value, path)
    if len(entries) != rows * cols:
        raise SchemaError(
            path,
            f"expected {rows * cols} entries for a {rows}x{cols} matrix, got {len(entries)}",
        )
    data = np.empty((rows, cols), dtype=complex)
    for i, pair in enumerate(entries):
        ppath = f"{path}[{i}]"
        pair_list = _require_list(pair, ppath)
        if len(pair_list) != 2:
            raise SchemaError(ppath, f"expected an [re, im] pair, got {len(pair_list)} values")
        re = _require_number(pair_list[0], f"{ppath}[0]")
        im = _require_number(pair_list[1], f"{ppath}[1]")
        data[i // cols, i % cols] = complex(re, im)
    return CMatrix(data)


def _parse_intervention(value: Any, path: str) -> Intervention:
    obj = _require_object(value, path, {"d_in", "outcomes"})
    d_in = _require_int(obj["d_in"], f"{path}.d_in")
    raw_outcomes = _require_list(obj["outcomes"], f"{path}.outcomes")
    if not raw_outcomes:
        raise SchemaError(f"{path}.outcomes", "at least one outcome is required")
    outcomes = []
    for i, raw in enumerate(raw_outcomes):
        opath = f"{path}.outcomes[{i}]"
        oobj = _require_object(raw, opath, {"label", "d_out", "kraus"})
        label = _require_str(oobj["label"], f"{opath}.label")
        d_out = _require_int(oobj["d_out"], f"{opath}.d_out")
        raw_kraus = _require_list(oobj["kraus"], f"{opath}.kraus")
        if not raw_kraus:
            raise SchemaError(f"{opath}.kraus", "at least one Kraus matrix is required")
        kraus = tuple(
            _parse_matrix(m, d_out, d_in, f"{opath}.kraus[{j}]")
            for j, m in enumerate(raw_kraus)
        )
        outcomes.append(Outcome(label=label, d_out=d_out, kraus=kraus))
    try:
        return Intervention(d_in=d_in, outcomes=tuple(outcomes))
    except ValueError as exc:
        raise SchemaError(path, str(exc)) from exc


def _parse_event(value: Any, path: str) -> Event:
    obj = _require_object(value, path, {"id", "t", "x"})
    return Event(
        id=_require_str(obj["id"], f"{path}.id"),
        t=_require_number(obj["t"], f"{path}.t"),
        x=_require_number(obj["x"], f"{path}.x"),
    )


def _parse_station(value: Any, path: str) -> Station:
    obj = _require_object(
        value,
        path,
        {"event", "subsystem"},
        {"intervention", "depends_on", "cases"},
    )
    event = _parse_event(obj["event"], f"{path}.event")
    subsystem = _require_int(obj["subsystem"], f"{path}.subsystem", minimum=0)
    has_fixed = "intervention" in obj
    has_cases = "depends_on" in obj or "cases" in obj
    if has_fixed == has_cases:
        raise SchemaError(
            path, 'exactly one of "intervention" or "depends_on"+"cases" is required'
        )
    if has_fixed:
        iv = _parse_intervention(obj["intervention"], f"{path}.intervention")
        return Station(event=event, local=LocalIntervention(subsystem, iv))
    if "depends_on" not in obj or "cases" not in obj:
        raise SchemaError(path, '"depends_on" and "cases" must appear together')
    deps = tuple(
        _require_str(d, f"{path}.depends_on[{i}]")
        for i, d in enumerate(_require_list(obj["depends_on"], f"{path}.depends_on"))
    )
    cases = {}
    for i, raw in enumerate(_require_list(obj["cases"], f"{path}.cases")):
        cpath = f"{path}.cases[{i}]"
        cobj = _require_object(raw, cpath, {"when", "intervention"})
        when = tuple(
            _require_str(w, f"{cpath}.when[{j}]")
            for j, w in enumerate(_require_list(cobj["when"], f"{cpath}.when"))
        )
        if when in cases:
            raise SchemaError(cpath, f"duplicate case for outcomes {list(when)}")
        cases[when] = _parse_intervention(cobj["intervention"], f"{cpath}.intervention")
    try:
        local = ConditionalLocal(subsystem=subsystem, depends_on=deps, cases=cases)
    except ValueError as exc:
        raise SchemaError(path, str(exc)) from exc
    return Station(event=event, local=local)


def _parse_evolution(value: Any, path: str) -> Evolution:
    obj = _require_object(value, path, {"matrix"}, {"after", "before", "history"})
    after = obj.get("after")
    before = obj.get("before")
    if after is not None:
        after = _require_str(after, f"{path}.after")
    if before is not None:
        before = _require_str(before, f"{path}.before")
    history = {}
    if "history" in obj:
        hobj = obj["history"]
        if not isinstance(hobj, dict):
            raise SchemaError(f"{path}.history", "expected an object of station: label pairs")
        for k, v in hobj.items():
            history[k] = _require_str(v, f"{path}.history.{k}")
    raw = _require_list(obj["matrix"], f"{path}.matrix")
    n2 = len(raw)
    n = math.isqrt(n2)
    if n * n != n2 or n == 0:
        raise SchemaError(
            f"{path}.matrix", f"evolution matrices are square; {n2} entries fit no square shape"
        )
    matrix = _parse_matrix(raw, n, n, f"{path}.matrix")
    return Evolution(after=after, before=before, matrix=matrix, history=history)


def parse_scenario(data: bytes | str) -> Scenario:
    """Parse and fully validate a scenario file; diagnostics name JSON paths."""
    if isinstance(data, bytes):
        try:
            data = data.decode("utf-8")
        except UnicodeDecodeError as exc:
            raise SchemaError("$", f"not valid UTF-8: {exc}") from exc
    obj = _require_object(_load(data), "$", {"dims", "rho0", "stations"}, {"evolutions"})
    dims = tuple(
        _require_int(d, f"$.dims[{i}]") for i, d in enumerate(_require_list(obj["dims"], "$.dims"))
    )
    if not dims:
        raise SchemaError("$.dims", "at least one subsystem dimension is required")
    total = math.prod(dims)
    rho0 = _parse_matrix(obj["rho0"], total, total, "$.rho0")
    stations = tuple(
        _parse_station(raw, f"$.stations[{i}]")
        for i, raw in enumerate(_require_list(obj["stations"], "$.stations"))
    )
    evolutions = tuple(
        _parse_evolution(raw, f"$.evolutions[{i}]")
        for i, raw in enumerate(_require_list(obj.get("evolutions", []), "$.evolutions"))
    )
    try:
        return Scenario(dims0=dims, rho0=rho0, stations=stations, evolutions=evolutions)
    except StateError as exc:
        raise SchemaError("$.rho0", str(exc)) from exc
    except ValueError as exc:
        raise SchemaError("$", str(exc)) from exc


def _matrix_json(m: CMatrix) -> list:
    return [[float(z.real), float(z.imag)] for z in m.array.reshape(-1)]


def _intervention_json(iv: Intervention) -> dict:
    return {
        "d_in": iv.d_in,
        "outcomes": [
            {
                "label": o.label,
                "d_out": o.d_out,
                "kraus": [_matrix_json(k) for k in o.kraus],
            }
            for o in iv.outcomes
        ],
    }


def _station_json(st: Station) -> dict:
    base = {
        "event": {"id": st.event.id, "t": st.event.t, "x": st.event.x},
        "subsystem": st.subsystem,
    }
    if isinstance(st.local, LocalIntervention):
        base["intervention"] = _intervention_json(st.local.local)
    else:
        base["depends_on"] = list(st.local.depends_on)
        base["cases"] = [
            {"when": list(when), "intervention": _intervention_json(iv)}
            for when, iv in sorted(st.local.cases.items())
        ]
    return base


def serialize_scenario(s: Scenario) -> str:
    """Scenario back to schema JSON; parse(serialize(s)) is entrywise exact."""
    doc: dict = {
        "dims": list(s.dims0),
        "rho0": _matrix_json(s.rho0),
        "stations": [_station_json(st) for st in s.stations],
    }
    if s.evolutions:
        doc["evolutions"] = [
            {
                "after": ev.after,
                "before": ev.before,
                "history": dict(sorted(ev.history.items())),
                "matrix": _matrix_json(ev.matrix),
            }
            for ev in s.evolutions
        ]
    return json.dumps(doc, indent=2, sort_keys=True) + "\n"
