"""Array-based discrete-law ingestion against the former per-atom code.

The oracles below are the former bodies of ``modelio._discrete_from_dict``
(one ``_real_in`` call per coordinate, each with its own field path) and
of ``DiscreteJoint.__init__`` (a per-atom validate-and-insert loop, then
``sorted``).  The array path must store the same atoms in the same order,
with the same signs of zero, and raise the same exception type, message
and field path at the same first bad atom.
"""

import functools
import math
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
from opdep.modelio import _dict_in, _int_in, _list_in, _real_in, model_from_dict, model_from_json


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
            del atom[draw(st.sampled_from(["point", "prob"]))]
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
    with mock.patch.object(modelio, "_atom_from_dict", side_effect=AssertionError("read atom by atom")):
        law = model_from_dict(data)
    assert "atoms" not in vars(law)
    order, atoms = oracle_model_from_dict(data)
    points = [point for point, _ in atoms]
    probs = [prob for _, prob in atoms]
    assert law.order == order
    assert law._points.shape == (len(atoms), 2 * order)
    assert np.array_equal(_bits(law._points), _bits(points))
    assert np.array_equal(_bits(law._probs), _bits(probs))
    assert np.array_equal(_bits([point for point, _ in law.atoms]), _bits(points))
    assert np.array_equal(_bits([prob for _, prob in law.atoms]), _bits(probs))
    assert all(type(point) is tuple for point, _ in law.atoms)


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
