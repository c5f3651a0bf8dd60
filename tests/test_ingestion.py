"""Array-based discrete-law ingestion against the former per-atom code.

The oracles below are the former bodies of ``modelio._discrete_from_dict``
(one ``_real_in`` call per coordinate, each with its own field path) and
of ``DiscreteJoint.__init__`` (a per-atom validate-and-insert loop, then
``sorted``).  The array path must store the same atoms in the same order,
with the same signs of zero, and raise the same exception type, message
and field path at the same first bad atom.  The JSON loader, which packs
atoms while the text is decoded, is held to the former loader that decoded
the whole text and then converted a list of plain atoms in bulk.  The
oracles read each field through ``modelio._real_in`` itself, so they follow
its checks; an integer too large for a float is held to its own cases.
"""

import functools
import itertools
import json
import math
import tracemalloc
import warnings
from collections.abc import Mapping
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from opdep import modelio
from opdep.discrete import DiscreteJoint
from opdep.errors import (
    DimensionMismatch,
    MassNotOne,
    ModelFormatError,
    ModelStructureError,
    NonFiniteInput,
    OpdepError,
)
from opdep.modelio import (
    _atom_from_dict,
    _dict_in,
    _int_in,
    _list_in,
    _order_in,
    _piecewise_from_dict,
    _real_in,
    model_from_dict,
    model_from_json,
    model_to_dict,
    save_model,
)
from opdep.scenarios import build_counterexample


# --- oracles: the former per-atom code ---------------------------------------

def oracle_joint(order, atoms):
    """Former ``DiscreteJoint.__init__``; returns the (order, atoms) it stored."""
    order = int(order)
    if order < 1:
        raise ModelStructureError(f"order must be >= 1, got {order}")
    items = atoms.items() if isinstance(atoms, Mapping) else atoms
    cleaned = {}
    for raw_point, raw_prob in items:
        point = tuple(float(v) for v in raw_point)
        prob = float(raw_prob)
        if len(point) != 2 * order:
            raise DimensionMismatch(
                f"atom {point} has {len(point)} coordinates, expected {2 * order}"
            )
        if any(not math.isfinite(v) for v in point):
            raise NonFiniteInput(f"atom {point} has a non-finite coordinate")
        if not math.isfinite(prob) or prob <= 0.0:
            raise ModelStructureError(f"atom probability must be positive, got {prob!r}")
        if point in cleaned:
            raise ModelStructureError(f"duplicate atom {point}")
        cleaned[point] = prob
    if not cleaned:
        raise ModelStructureError("a law needs at least one atom")
    mass = math.fsum(cleaned.values())
    if abs(mass - 1.0) > 1e-12:
        raise MassNotOne(mass)
    return order, tuple(sorted(cleaned.items()))


def oracle_discrete_from_dict(data):
    """Former ``modelio._discrete_from_dict``, building with ``oracle_joint``."""
    order = _int_in(data["order"], "order")
    atoms = []
    for ai, raw_atom in enumerate(_list_in(data["atoms"], "atoms")):
        field = f"atoms[{ai}]"
        obj = _dict_in(raw_atom, field, {"point", "prob"})
        point = [
            _real_in(v, f"{field}.point[{k}]")
            for k, v in enumerate(_list_in(obj["point"], f"{field}.point"))
        ]
        atoms.append((tuple(point), _real_in(obj["prob"], f"{field}.prob")))
    try:
        return oracle_joint(order, atoms)
    except OpdepError as exc:
        raise ModelFormatError("atoms", str(exc)) from exc


def oracle_model_from_dict(data):
    _dict_in(data, "", {"kind", "order", "atoms"})
    return oracle_discrete_from_dict(data)


_ATOM_FIELDS = frozenset({"point", "prob"})
_PLAIN_REALS = frozenset({float, int, str})


def _plain_atom_arrays(raw_atoms: list, width: int) -> tuple[np.ndarray, np.ndarray] | None:
    """Points and probabilities of a list of plain atoms, converted in bulk
    and in input order; None if any atom is not plain.

    A plain atom has exactly the keys ``point`` and ``prob``, a list of
    ``width`` coordinates, and only JSON numbers and strings (not booleans)
    that ``float`` converts.  ``float`` strips whitespace as ``_real_in``
    does, so plain atoms get the field checkers' values.
    """
    if not all(type(atom) is dict and atom.keys() == _ATOM_FIELDS for atom in raw_atoms):
        return None
    points = [atom["point"] for atom in raw_atoms]
    probs = [atom["prob"] for atom in raw_atoms]
    if not all(type(point) is list and len(point) == width for point in points):
        return None
    values = list(itertools.chain.from_iterable(points))
    if not (_PLAIN_REALS.issuperset(map(type, values)) and _PLAIN_REALS.issuperset(map(type, probs))):
        return None
    try:
        values = list(map(float, values))
        probs = list(map(float, probs))
    except (ValueError, OverflowError):
        return None
    return np.array(values, dtype=float).reshape(len(points), width), np.array(probs, dtype=float)


def former_discrete_from_dict(data):
    """Former ``modelio._discrete_from_dict``: the bulk converter above, else atom by atom."""
    order = _order_in(data)
    raw_atoms = _list_in(data["atoms"], "atoms")
    arrays = _plain_atom_arrays(raw_atoms, 2 * order)
    try:
        if arrays is not None:
            return DiscreteJoint._from_arrays(order, *arrays)
        # Atom by atom: the field checkers raise every schema error.
        atoms = [_atom_from_dict(raw_atom, f"atoms[{ai}]") for ai, raw_atom in enumerate(raw_atoms)]
        return DiscreteJoint(order=order, atoms=atoms)
    except ModelFormatError:
        raise
    except OpdepError as exc:
        raise ModelFormatError("atoms", str(exc)) from exc


def former_model_from_json(text):
    """Former ``modelio.model_from_json``: decode the whole text, then read the tree."""
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ModelFormatError("", f"invalid JSON: {exc}") from exc
    if not isinstance(data, dict):
        raise ModelFormatError("", f"expected a JSON object, got {type(data).__name__}")
    kind = data.get("kind")
    if kind == "piecewise":
        _dict_in(data, "", {"kind", "order", "cells"})
        return _piecewise_from_dict(data)
    if kind == "discrete":
        _dict_in(data, "", {"kind", "order", "atoms"})
        return former_discrete_from_dict(data)
    raise ModelFormatError("kind", f"expected 'piecewise' or 'discrete', got {kind!r}")


def outcome(fn, *args):
    """The stored (order, atoms) with their repr, which shows the sign of
    every zero, or the type, message and field path of the error raised."""
    try:
        result = fn(*args)
    except Exception as exc:  # compared, never swallowed
        return type(exc).__name__, str(exc), getattr(exc, "field", None)
    if isinstance(result, DiscreteJoint):
        result = (result.order, result.atoms)
    return "ok", result, repr(result)


# --- strategies -----------------------------------------------------------------

COORDS = [0.0, 1.0, 2.0, 3.0, -1.5, 0.1, 1e-300, 2.5e10]
# ASCII and Unicode whitespace: ``float`` and ``str.strip`` both drop them.
PADDING = st.sampled_from(["", " ", "\t", "\n", "\r\n", "\x0b\x0c", "\u2003", "\u3000 "])


@functools.lru_cache(maxsize=None)
def spelling(value):
    """One JSON spelling of a real: a number, an integer, a repr string or a padded one."""
    forms = [
        st.just(value),
        st.just(repr(value)),
        st.tuples(PADDING, PADDING).map(lambda pad: pad[0] + repr(value) + pad[1]),
    ]
    if value == 0.0:
        forms += [st.just(-0.0), st.just("-0.0"), st.just(" -0.0\t"), st.just("0.0"), st.just(0)]
    elif value.is_integer():
        forms.append(st.just(int(value)))
    return st.one_of(forms)


@st.composite
def law_dicts(draw, min_order=1, max_order=8, max_atoms=6):
    """Valid discrete-law dicts: distinct lattice points with ties, spelled in every accepted way."""
    order = draw(st.integers(min_value=min_order, max_value=max_order))
    coords = st.sampled_from(COORDS)
    points = draw(
        st.lists(st.tuples(*[coords] * (2 * order)), min_size=1, max_size=max_atoms, unique=True)
    )
    weights = draw(
        st.lists(st.integers(min_value=1, max_value=9), min_size=len(points), max_size=len(points))
    )
    total = sum(weights)
    atoms = [
        {"point": [draw(spelling(v)) for v in point], "prob": draw(spelling(w / total))}
        for point, w in zip(points, weights)
    ]
    return {"kind": "discrete", "order": order, "atoms": atoms}


def _parsed(value):
    return float(value.strip()) if isinstance(value, str) else float(value)


def _flip_zero_signs(point):
    """The same point with every zero written with the other sign."""
    out = []
    for v in point:
        try:
            zero = not isinstance(v, bool) and _parsed(v) == 0.0
        except (TypeError, ValueError, OverflowError):
            zero = False
        out.append(("0.0" if math.copysign(1.0, _parsed(v)) < 0 else "-0.0") if zero else v)
    return out


COORD_FAULTS = [True, False, None, [1.0], {"v": 1.0}, "abc", "", "nan", " inf", "-inf",
                math.nan, math.inf, 10**400]
PROB_FAULTS = [0, 0.0, "0.0", "-0.0", -0.25, "nan", "inf", math.inf, True, None, "one", 10**400]
FAULTS = ["coord", "prob", "unknown_key", "missing_key", "short_point", "long_point", "duplicate",
          "duplicate_signed_zero", "not_an_object", "point_not_a_list", "mass_off", "mass_nudge"]


@st.composite
def faulty_law_dicts(draw):
    """Law dicts with one to three faults at atoms drawn in any order."""
    data = draw(law_dicts(max_order=4, max_atoms=8))
    atoms = data["atoms"]
    for _ in range(draw(st.integers(min_value=1, max_value=3))):
        i = draw(st.integers(min_value=0, max_value=len(atoms) - 1))
        j = draw(st.integers(min_value=0, max_value=len(atoms) - 1))
        atom, other = atoms[i], atoms[j]
        fault = draw(st.sampled_from(FAULTS))
        if not isinstance(atom, dict) or not isinstance(atom.get("point"), list) or not atom["point"]:
            continue
        point = atom["point"]
        if fault == "coord":
            point[draw(st.integers(min_value=0, max_value=len(point) - 1))] = draw(
                st.sampled_from(COORD_FAULTS))
        elif fault == "prob":
            atom["prob"] = draw(st.sampled_from(PROB_FAULTS))
        elif fault == "unknown_key":
            atom[draw(st.sampled_from(["weight", "Point", "a"]))] = 1
        elif fault == "missing_key":
            atom.pop(draw(st.sampled_from(["point", "prob"])), None)
        elif fault == "short_point":
            point.pop()
        elif fault == "long_point":
            point.append("1.0")
        elif fault in ("duplicate", "duplicate_signed_zero") and i != j and isinstance(other, dict):
            if not isinstance(other.get("point"), list):
                continue
            copy = list(other["point"])
            atom["point"] = _flip_zero_signs(copy) if fault == "duplicate_signed_zero" else copy
        elif fault == "not_an_object":
            atoms[i] = [point, atom.get("prob")]
        elif fault == "point_not_a_list":
            atom["point"] = draw(st.sampled_from([tuple(point), "0.0 1.0", None, 1.0]))
        elif fault in ("mass_off", "mass_nudge") and "prob" in atom:
            try:
                prob = _parsed(atom["prob"])
            except (TypeError, ValueError, OverflowError):
                continue
            atom["prob"] = prob + (1e-9 if fault == "mass_off" else 1e-13)
    return data


# --- the loader ---------------------------------------------------------------------

@settings(max_examples=150, derandomize=True, deadline=None)
@given(law_dicts())
def test_valid_law_dicts_load_as_the_per_atom_oracle(data):
    result = outcome(model_from_dict, data)
    assert result[0] == "ok"
    assert result == outcome(oracle_model_from_dict, data)


@settings(max_examples=300, derandomize=True, deadline=None)
@given(faulty_law_dicts())
def test_faulty_law_dicts_fail_as_the_per_atom_oracle(data):
    assert outcome(model_from_dict, data) == outcome(oracle_model_from_dict, data)


def _bits(values):
    return np.asarray(values, dtype=float).view(np.uint64)


@settings(max_examples=150, derandomize=True, deadline=None)
@given(law_dicts())
def test_bulk_loaded_arrays_match_the_oracle_bit_for_bit(data):
    order, atoms = oracle_model_from_dict(data)
    points = [point for point, _ in atoms]
    probs = [prob for _, prob in atoms]
    # The dict is read atom by atom and its JSON text packed as it is decoded.
    laws = model_from_dict(data), model_from_json(json.dumps(data))
    for law in laws:
        assert "atoms" not in vars(law)
        assert law.order == order
        assert law._points.shape == (len(atoms), 2 * order)
        assert np.array_equal(_bits(law._points), _bits(points))
        assert np.array_equal(_bits(law._probs), _bits(probs))
        assert np.array_equal(_bits([point for point, _ in law.atoms]), _bits(points))
        assert np.array_equal(_bits([prob for _, prob in law.atoms]), _bits(probs))
        assert all(type(point) is tuple for point, _ in law.atoms)
    assert laws[0] == laws[1]


@settings(max_examples=300, derandomize=True, deadline=None)
@given(faulty_law_dicts())
def test_a_dict_and_its_json_text_fail_alike(data):
    text = json.dumps(data)
    # The dict as the JSON text holds it: tuples are written as lists.
    assert outcome(model_from_json, text) == outcome(model_from_dict, json.loads(text))


def _with_second_atom(**fields):
    """A valid order-1 law dict whose second atom has the given fields replaced."""
    atoms = [{"point": ["0.0", "1.0"], "prob": "0.25"}, {"point": ["1.0", "0.0"], "prob": "0.75"}]
    atoms[1].update(fields)
    return {"kind": "discrete", "order": 1, "atoms": atoms}


SCREEN_CASES = {
    "padded strings": _with_second_atom(point=[" 1.0", "\u20030.0\t"], prob="\n0.75 "),
    "underscore digits": _with_second_atom(point=["1_0", "0.0"]),
    "underscore prob": _with_second_atom(prob="0.7_5"),
    "ints": _with_second_atom(point=[1, 0]),
    "int prob": _with_second_atom(prob=1),
    "huge int": _with_second_atom(point=[10**400, 0]),
    "bool coordinate": _with_second_atom(point=[True, 0.0]),
    "bool prob": _with_second_atom(prob=False),
    "overflowing string": _with_second_atom(point=["1e400", "0.0"]),
    "overflowing prob": _with_second_atom(prob="1e400"),
    "nan string": _with_second_atom(point=["nan", "0.0"]),
    "nan prob": _with_second_atom(prob="nan"),
    "not a number": _with_second_atom(point=["1.0", "one"]),
    "signed zero duplicate": _with_second_atom(point=["-0.0", "1.0"]),
    "exact duplicate": _with_second_atom(point=[0, 1]),
    "short point": _with_second_atom(point=["1.0"]),
    "long point": _with_second_atom(point=["1.0", "0.0", "2.0"]),
    "empty point": _with_second_atom(point=[]),
    "point is a string": _with_second_atom(point="1.0 0.0"),
    "point is an object": _with_second_atom(point={"x": "1.0", "y": "0.0"}),
    "point is null": _with_second_atom(point=None),
    "extra key": _with_second_atom(weight=1),
    "atom is a list": {"kind": "discrete", "order": 1, "atoms": [
        {"point": ["0.0", "1.0"], "prob": "0.5"}, [["1.0", "0.0"], "0.5"]]},
    "no atoms": {"kind": "discrete", "order": 1, "atoms": []},
    "mass off": _with_second_atom(prob="0.7500001"),
}


@pytest.mark.parametrize("name", SCREEN_CASES)
def test_screened_atoms_give_the_oracle_outcome(name):
    data = SCREEN_CASES[name]
    assert outcome(model_from_dict, data) == outcome(oracle_model_from_dict, data)


def test_a_law_compares_hashes_and_prints_as_before_atoms_is_read():
    data = {"kind": "discrete", "order": 1, "atoms": [
        {"point": ["2.0", "-0.0"], "prob": "0.5"}, {"point": [0, 1], "prob": 0.25},
        {"point": ["-0.0", " 3.5"], "prob": "0.25"}]}
    eager = model_from_dict(data)
    eager.atoms
    built = DiscreteJoint(1, [((2.0, -0.0), 0.5), ((0.0, 1.0), 0.25), ((-0.0, 3.5), 0.25)])
    # 0.0 and -0.0 tie, so the second coordinate orders the first two atoms.
    expected = "DiscreteJoint(order=1, atoms=(((0.0, 1.0), 0.25), ((-0.0, 3.5), 0.25), ((2.0, -0.0), 0.5)))"
    for compare in (
        lambda law: law == eager and eager == law and law == built and not law != eager,
        lambda law: hash(law) == hash(eager) == hash(built) == hash((1, eager.atoms)),
        lambda law: repr(law) == repr(eager) == repr(built) == expected,
    ):
        law = model_from_dict(data)
        assert "atoms" not in vars(law)
        assert compare(law)
    other = model_from_dict(_with_second_atom())
    assert other != eager and eager != other
    assert eager != (1, eager.atoms)


def test_first_bad_atom_in_input_order_is_reported():
    data = {"kind": "discrete", "order": 1, "atoms": [
        {"point": ["0.0", "1.0"], "prob": "0.25"},
        {"point": ["1.0", "nan"], "prob": "0.25"},  # a non-finite coordinate comes first
        {"point": ["0.0", "1.0"], "prob": "0.25"},  # a duplicate of atoms[0]
        {"point": ["2.0", True], "prob": "0.25"},  # a schema fault
    ]}
    with pytest.raises(ModelFormatError, match=r"^atoms\[3\]\.point\[1\]: expected a real number"):
        model_from_dict(data)
    data["atoms"][3]["point"][1] = "2.0"
    with pytest.raises(ModelFormatError, match=r"^atoms: atom \(1\.0, nan\) has a non-finite"):
        model_from_dict(data)
    data["atoms"][1]["point"][1] = "-0.0"
    data["atoms"][2]["point"][0] = "-0.0"
    with pytest.raises(ModelFormatError, match=r"^atoms: duplicate atom \(-0\.0, 1\.0\)$"):
        model_from_dict(data)


def test_loader_keeps_json_values_and_signed_zeros():
    law = model_from_json(
        '{"kind": "discrete", "order": 1, "atoms": ['
        '{"point": [" -0.0 ", 1], "prob": 0.5}, {"point": [0.0, "\\u2003 2.5"], "prob": "0.5"}]}'
    )
    assert repr(law.atoms) == "(((-0.0, 1.0), 0.5), ((0.0, 2.5), 0.5))"


# --- the JSON loader ----------------------------------------------------------------

# An order-1 atom, for objects of atom shape outside a law's own atoms.
STRAY_ATOM = {"point": ["0.0", "1.0"], "prob": "1.0"}
ODD_VALUES = [True, False, None, [1.0], {"v": 1.0}, STRAY_ATOM, " 1.0 ", "\t-0.0\n", "1_0", "0.2_5",
              "\u0661\u0662", "\u0663.\u0665", "\uff11", "nan", "-inf", math.nan, math.inf, 10**400,
              -(10**30), 0, 1, "abc", "", "1e400", "0x10"]
ATOM_FAULTS = ["reordered", "odd coordinate", "odd prob", "duplicate prob", "duplicate point", "extra key",
               "missing key", "short", "long", "nested", "not an object", "point not a list",
               "wrapped in a list", "wrapped in an object"]


def _atom_text(point, prob):
    return f'{{"point": {json.dumps(point)}, "prob": {json.dumps(prob)}}}'


@st.composite
def atom_texts(draw, atom):
    """One atom as JSON text, as written or with one fault."""
    point, prob = list(atom["point"]), atom["prob"]
    fault = draw(st.sampled_from(["none"] * len(ATOM_FAULTS) + ATOM_FAULTS))
    odd = st.sampled_from(ODD_VALUES)
    if fault == "reordered":
        return f'{{"prob": {json.dumps(prob)}, "point": {json.dumps(point)}}}'
    if fault == "odd coordinate":
        point[draw(st.integers(min_value=0, max_value=len(point) - 1))] = draw(odd)
    elif fault == "odd prob":
        prob = draw(odd)
    elif fault in ("duplicate prob", "duplicate point"):
        # JSON keeps the last of duplicate keys; either one may be the odd value.
        key, value = ("prob", prob) if fault == "duplicate prob" else ("point", point)
        values = [value, draw(st.sampled_from([*ODD_VALUES, "0.5", ["1.0"] * len(point)]))]
        first, last = values if draw(st.booleans()) else values[::-1]
        other = "point" if key == "prob" else "prob"
        return (f'{{"{key}": {json.dumps(first)}, "{other}": {json.dumps(atom[other])}, '
                f'"{key}": {json.dumps(last)}}}')
    elif fault == "extra key":
        return f'{{"point": {json.dumps(point)}, "prob": {json.dumps(prob)}, "weight": 1}}'
    elif fault == "missing key":
        return f'{{"point": {json.dumps(point)}}}'
    elif fault == "short":
        point.pop()
    elif fault == "long":
        point.append("1.0")
    elif fault == "nested":
        point[0] = STRAY_ATOM
    elif fault == "not an object":
        return json.dumps([point, prob])
    elif fault == "point not a list":
        return _atom_text(" ".join(map(str, point)), prob)
    elif fault == "wrapped in a list":
        return f"[{_atom_text(point, prob)}]"
    elif fault == "wrapped in an object":
        return f'{{"atom": {_atom_text(point, prob)}}}'
    return _atom_text(point, prob)


LAW_LAYOUTS = ["order last", "empty atoms", "extra key", "stray atom at top level", "odd order", "odd kind",
               "duplicate order", "duplicate atoms", "wrapped in a list", "repeated atom", "truncated"]


@st.composite
def law_texts(draw):
    """Discrete-law JSON texts, as ``save_model`` writes them or with faults in the atoms or around them."""
    data = draw(law_dicts(max_order=4, max_atoms=8))
    atoms = [draw(atom_texts(atom)) for atom in data["atoms"]] if draw(st.booleans()) else [
        json.dumps(atom) for atom in data["atoms"]]
    fields = [("kind", '"discrete"'), ("order", json.dumps(data["order"]))]
    layout = draw(st.sampled_from(["none"] * len(LAW_LAYOUTS) + LAW_LAYOUTS))
    if layout == "empty atoms":
        atoms = []
    elif layout == "repeated atom":
        atoms.append(atoms[0])
    fields.append(("atoms", "[" + ", ".join(atoms) + "]"))
    if layout == "order last":
        fields.append(fields.pop(1))
    elif layout == "extra key":
        fields.append(("note", '"x"'))
    elif layout == "stray atom at top level":
        fields.insert(draw(st.integers(min_value=0, max_value=3)), ("stray", json.dumps(STRAY_ATOM)))
    elif layout == "odd order":
        fields[1] = ("order", json.dumps(draw(st.sampled_from([0, -1, True, "2", 2.0, None, 10**30, STRAY_ATOM]))))
    elif layout == "odd kind":
        fields[0] = ("kind", json.dumps(draw(st.sampled_from(["piecewise", "Discrete", None, STRAY_ATOM]))))
    elif layout == "duplicate order":
        fields.insert(draw(st.integers(min_value=0, max_value=3)), ("order", json.dumps(data["order"] + 1)))
    elif layout == "duplicate atoms":
        fields.insert(draw(st.integers(min_value=0, max_value=3)), ("atoms", "[" + json.dumps(STRAY_ATOM) + "]"))
    text = "{" + ", ".join(f'"{key}": {value}' for key, value in fields) + "}"
    if layout == "wrapped in a list":
        text = f"[{text}]"
    elif layout == "truncated":
        text = text[:-1]
    return text


@st.composite
def piecewise_texts(draw):
    """A piecewise model's JSON text, with an object of atom shape in one place or none."""
    data = model_to_dict(build_counterexample().f)
    place = draw(st.sampled_from(["none", "top level", "cell value", "cell key", "block lo", "cells"]))
    cell = data["cells"][draw(st.integers(min_value=0, max_value=len(data["cells"]) - 1))]
    if place == "top level":
        data["stray"] = STRAY_ATOM
    elif place == "cell value":
        cell["value"] = STRAY_ATOM
    elif place == "cell key":
        cell["stray"] = STRAY_ATOM
    elif place == "block lo":
        cell["blocks"][0]["lo"] = STRAY_ATOM
    elif place == "cells":
        data["cells"].append(STRAY_ATOM)
    return json.dumps(data)


@settings(max_examples=600, derandomize=True, deadline=None)
@given(st.one_of(law_texts(), piecewise_texts()))
def test_json_loader_matches_the_former_loader(text):
    assert outcome(model_from_json, text) == outcome(former_model_from_json, text)


def _law_text(*atoms, order="1", extra=""):
    return f'{{"kind": "discrete", "order": {order}, "atoms": [{", ".join(atoms)}]{extra}}}'


FIRST, SECOND = '{"point": ["0.0", "1.0"], "prob": "0.25"}', '{"point": ["1.0", "0.0"], "prob": "0.75"}'
JSON_CASES = {
    "plain": _law_text(FIRST, SECOND),
    "order last": '{"kind": "discrete", "atoms": [' + FIRST + ", " + SECOND + '], "order": 1}',
    "padded strings": _law_text(FIRST, '{"point": [" 1.0 ", "\\u2003 0.0\\t"], "prob": "\\n0.75 "}'),
    "underscore digits": _law_text(FIRST, '{"point": ["1_0", "0.0"], "prob": "0.7_5"}'),
    "non-ASCII digits": _law_text(FIRST, '{"point": ["\\u0661", "\\uff10"], "prob": "0.75"}'),
    "numbers": _law_text(FIRST, '{"point": [1, -0.0], "prob": 0.75}'),
    "nan": _law_text(FIRST, '{"point": ["nan", "0.0"], "prob": "0.75"}'),
    "huge integer": _law_text(FIRST, '{"point": [' + "9" * 400 + ', "0.0"], "prob": "0.75"}'),
    "true coordinate": _law_text('{"point": ["0.0", true], "prob": "1.0"}'),
    "null prob": _law_text(FIRST, '{"point": ["1.0", "0.0"], "prob": null}'),
    "nested point": _law_text(FIRST, '{"point": [' + FIRST + ', "0.0"], "prob": "0.75"}'),
    "duplicate key, last plain": _law_text(FIRST, '{"point": ["1.0", "0.0"], "prob": true, "prob": "0.75"}'),
    "duplicate key, last odd": _law_text(FIRST, '{"point": ["1.0", "0.0"], "prob": "0.75", "prob": true}'),
    "duplicate atom": _law_text(FIRST, FIRST.replace("0.25", "0.75")),
    "short point": _law_text(FIRST, '{"point": ["1.0"], "prob": "0.75"}'),
    "all points too short": _law_text(FIRST, SECOND, order="2"),
    "order 0": _law_text(FIRST, SECOND, order="0"),
    "order true": _law_text(FIRST, SECOND, order="true"),
    "order 1.0": _law_text(FIRST, SECOND, order="1.0"),
    "empty atoms": _law_text(),
    "atom wrapped in a list": _law_text(FIRST, f"[{SECOND}]"),
    "atom wrapped in an object": _law_text(FIRST, f'{{"atom": {SECOND}}}'),
    "atom outside atoms": _law_text(FIRST, SECOND, extra=f', "note": {FIRST}'),
    "piecewise with an atom": json.dumps(dict(model_to_dict(build_counterexample().f), note=STRAY_ATOM)),
    "atom-shaped cell": json.dumps(
        dict(model_to_dict(build_counterexample().f), cells=[STRAY_ATOM])),
    "top level is an atom": FIRST,
    "invalid JSON": _law_text(FIRST, SECOND)[:-1],
}


@pytest.mark.parametrize("name", JSON_CASES)
def test_json_cases_give_the_former_loaders_outcome(name):
    text = JSON_CASES[name]
    assert outcome(model_from_json, text) == outcome(former_model_from_json, text)


def _piecewise_with(field, value):
    """The counterexample's f with one real field of its first cell replaced."""
    data = model_to_dict(build_counterexample().f)
    cell = data["cells"][0]
    if field == "value":
        cell["value"] = value
    else:
        cell["blocks"][0][field] = value
    return data


HUGE_INTEGER_CASES = {
    "discrete coordinate": (_with_second_atom(point=[10**400, 0]), "atoms[1].point[0]"),
    "discrete prob": (_with_second_atom(prob=-(10**400)), "atoms[1].prob"),
    "piecewise lo": (_piecewise_with("lo", -(10**400)), "cells[0].blocks[0].lo"),
    "piecewise hi": (_piecewise_with("hi", 10**400), "cells[0].blocks[0].hi"),
    "piecewise value": (_piecewise_with("value", 10**400), "cells[0].value"),
}


@pytest.mark.parametrize("name", HUGE_INTEGER_CASES)
def test_an_integer_too_large_for_a_float_is_a_format_error_at_its_field(name):
    data, field = HUGE_INTEGER_CASES[name]
    for load, source in ((model_from_dict, data), (model_from_json, json.dumps(data))):
        with pytest.raises(ModelFormatError) as info:
            load(source)
        assert info.value.field == field
        assert str(info.value) == f"{field}: integer too large for a real number"


def test_an_integer_beyond_the_digit_limit_is_invalid_json():
    text = _law_text('{"point": [' + "9" * 5000 + ', "0.0"], "prob": "1.0"}')
    with pytest.raises(ModelFormatError, match=r"^invalid JSON: Exceeds the limit \(4300 digits\)") as info:
        model_from_json(text)
    assert info.value.field == ""


@settings(max_examples=100, derandomize=True, deadline=None)
@given(law_dicts())
def test_a_plain_law_text_is_decoded_once(data):
    text = json.dumps(data)
    with mock.patch.object(json, "loads", wraps=json.loads) as loads, mock.patch.object(
        modelio, "model_from_dict", side_effect=AssertionError("read from the decoded tree")
    ):
        law = model_from_json(text)
    assert loads.call_count == 1
    assert outcome(lambda: law) == outcome(former_model_from_json, text)


def test_loading_a_large_law_peaks_below_a_quarter_of_the_former_loader(tmp_path):
    # 20,000 distinct order-6 atoms on the lattice {0, ..., 4}, as the benchmark's largest law.
    rng = np.random.default_rng(6)
    points = np.unique(rng.integers(0, 5, size=(20_500, 12)).astype(float), axis=0)
    points = points[rng.permutation(len(points))[:20_000]]
    probs = rng.random(20_000) + 0.5
    law = DiscreteJoint._from_arrays(6, points, probs / probs.sum())
    path = tmp_path / "law.json"
    save_model(law, path)
    text = path.read_text(encoding="utf-8")
    peaks = {}
    for name, load in (("packed", model_from_json), ("former", former_model_from_json)):
        tracemalloc.start()
        try:
            loaded = load(text)
            peaks[name] = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert loaded == law
    assert peaks["packed"] <= peaks["former"] / 4, peaks


# --- the constructor ---------------------------------------------------------------

@st.composite
def atom_items(draw):
    """Constructor input: (point, prob) items or a mapping, valid or with faults."""
    data = draw(law_dicts(max_order=4, max_atoms=8))
    order = data["order"]
    items = [([_parsed(v) for v in atom["point"]], _parsed(atom["prob"])) for atom in data["atoms"]]
    for _ in range(draw(st.integers(min_value=0, max_value=3))):
        i = draw(st.integers(min_value=0, max_value=len(items) - 1))
        j = draw(st.integers(min_value=0, max_value=len(items) - 1))
        point, prob = items[i]
        fault = draw(st.sampled_from(
            ["coord", "prob", "short", "long", "duplicate", "duplicate_signed_zero", "mass_off"]))
        if fault == "coord" and point:
            point[draw(st.integers(min_value=0, max_value=len(point) - 1))] = draw(
                st.sampled_from([math.nan, math.inf, -math.inf, "x", None, 10**400]))
        elif fault == "prob":
            prob = draw(st.sampled_from([0.0, -0.0, -1.0, math.nan, math.inf, "x", None]))
        elif fault == "short":
            point = point[:-1]
        elif fault == "long":
            point = point + [1.0]
        elif fault in ("duplicate", "duplicate_signed_zero") and i != j:
            point = list(items[j][0])
            if fault == "duplicate_signed_zero":
                point = [-v if v == 0.0 else v for v in point]
        elif fault == "mass_off" and isinstance(prob, float):
            prob += 1e-9
        items[i] = (point, prob)
    shape = draw(st.sampled_from(["lists", "tuples", "arrays", "mapping"]))
    if shape == "tuples":
        items = [(tuple(p), q) for p, q in items]
    elif shape == "arrays":
        try:
            items = [(np.array(p, dtype=float), q) for p, q in items]
        except (TypeError, ValueError, OverflowError):
            pass
    elif shape == "mapping":
        try:
            items = {tuple(p): q for p, q in items}
        except TypeError:
            pass
    return order, items


@settings(max_examples=300, derandomize=True, deadline=None)
@given(atom_items())
def test_constructor_matches_the_per_atom_oracle(case):
    order, items = case
    assert outcome(DiscreteJoint, order, items) == outcome(oracle_joint, order, items)


def test_constructor_checks_earlier_atoms_before_a_conversion_error():
    with pytest.raises(NonFiniteInput, match=r"atom \(nan, 1\.0\)"):
        DiscreteJoint(1, [((math.nan, 1.0), 0.5), ((0.0, "x"), 0.5)])
    with pytest.raises(ValueError, match="could not convert string to float: 'x'"):
        DiscreteJoint(1, [((2.0, 1.0), 0.5), ((0.0, "x"), 0.5), ((math.nan, 1.0), 0.5)])
    with pytest.raises(ModelStructureError, match=r"^duplicate atom \(0\.0, 1\.0\)$"):
        DiscreteJoint(1, [((-0.0, 1.0), 0.5), ((0.0, 1.0), 0.5), ((0.0, 1.0), "x")])


def test_constructor_handles_huge_values_as_before():
    huge_points = [((1e308, 1e308), 0.5), ((1.7e308, -1e308), 0.5)]
    huge_probs = [((0.0, 1.0), 1e308), ((1.0, 0.0), 1e308)]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert outcome(DiscreteJoint, 1, huge_points) == outcome(oracle_joint, 1, huge_points)
        assert outcome(DiscreteJoint, 1, huge_probs) == outcome(oracle_joint, 1, huge_probs)
    assert outcome(DiscreteJoint, 1, huge_probs)[0] == "OverflowError"


@settings(max_examples=50, derandomize=True, deadline=None)
@given(law_dicts(max_order=5, max_atoms=20))
def test_kept_arrays_hold_the_atoms_read_only(data):
    law = model_from_dict(data)
    points = np.array([point for point, _ in law.atoms])
    probs = np.array([prob for _, prob in law.atoms])
    assert law._points.shape == (len(law.atoms), 2 * law.order)
    assert np.array_equal(law._points, points)
    assert np.array_equal(np.signbit(law._points), np.signbit(points))
    assert np.array_equal(law._probs, probs)
    for array in (law._points, law._probs):
        with pytest.raises(ValueError, match="read-only"):
            array[0] = 7.0


# --- prob_of ------------------------------------------------------------------

@settings(max_examples=80, derandomize=True, deadline=None)
@given(law_dicts(max_order=4, max_atoms=12), st.data())
def test_prob_of_matches_a_dict_lookup(data, draws):
    law = model_from_dict(data)
    table = dict(law.atoms)
    points = [point for point, _ in law.atoms]
    queries = points + [tuple(-v if v == 0.0 else v for v in p) for p in points] + [
        tuple(draws.draw(st.sampled_from(COORDS + [-0.0, 0.5])) for _ in range(2 * law.order))
        for _ in range(10)
    ] + [points[0][:-1], points[0] + (1.0,), (math.nan,) * (2 * law.order), [int(v) for v in points[0]]]
    for query in queries:
        if len(query) != law.dimension:
            message = f"point has {len(query)} coordinates, law needs {law.dimension}"
            with pytest.raises(DimensionMismatch) as info:
                law.prob_of(query)
            assert str(info.value) == message
            continue
        expected = table.get(tuple(float(v) for v in query), 0.0)
        got = law.prob_of(query)
        assert repr(got) == repr(expected)


def test_prob_of_refuses_a_point_of_the_wrong_length():
    law = modelio.load_model(Path(__file__).resolve().parent.parent / "models" / "example42_law.json")
    with pytest.raises(DimensionMismatch) as info:
        law.prob_of((1.0,))
    assert str(info.value) == "point has 1 coordinates, law needs 4"
    assert law.prob_of((math.nan,) * 4) == 0.0


def test_prob_of_does_not_rebuild_the_atom_dict(monkeypatch):
    law = DiscreteJoint(1, {(0.0, 1.0): 0.25, (1.0, 0.0): 0.75})

    def rebuilt(self):
        raise AssertionError("prob_of rebuilt as_dict()")

    monkeypatch.setattr(DiscreteJoint, "as_dict", rebuilt)
    assert law.prob_of((1.0, 0.0)) == 0.75
    assert law.prob_of((-0.0, 1)) == 0.25
    assert law.prob_of((0.5, 0.5)) == 0.0
    # It reads the arrays, so the law builds no atoms view.
    assert "atoms" not in vars(law)
