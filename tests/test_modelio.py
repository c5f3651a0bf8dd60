"""Model serialization: decimal-string reals, strict schemas, round trips."""

import json

import pytest
from hypothesis import given, settings, strategies as st

from opdep.discrete import DiscreteJoint
from opdep.errors import ModelFormatError
from opdep.modelio import (
    load_model,
    model_from_dict,
    model_from_json,
    model_to_dict,
    model_to_json,
    save_model,
)
from opdep.piecewise import Block, Cell, PiecewiseUniformDensity
from opdep.scenarios import build_counterexample, build_example43


def test_piecewise_round_trip_is_exact():
    for model in build_counterexample():
        data = model_to_dict(model)
        assert model_from_dict(data) == model
        assert model_from_json(model_to_json(model)) == model


def test_discrete_round_trip_is_exact():
    pair = build_example43()
    for law in pair:
        assert model_from_json(model_to_json(law)) == law


def test_reals_survive_as_decimal_strings():
    third = 1.0 / 3.0
    law = DiscreteJoint(
        order=1,
        atoms={(third, 0.1): third, (0.2, 0.3): 1.0 - third},
    )
    text = model_to_json(law)
    payload = json.loads(text)
    probs = {atom["prob"] for atom in payload["atoms"]}
    assert "0.3333333333333333" in probs
    restored = model_from_json(text)
    assert restored.atoms == law.atoms  # bit-for-bit through repr round trip


def test_json_output_shape():
    model = build_counterexample().f
    text = model_to_json(model)
    assert text.endswith("\n")
    payload = json.loads(text)
    assert payload["kind"] == "piecewise"
    assert payload["order"] == 2
    assert isinstance(payload["cells"][0]["value"], str)
    assert isinstance(payload["cells"][0]["blocks"][0]["lo"], str)


def test_numbers_accepted_booleans_rejected():
    base = {
        "kind": "discrete",
        "order": 1,
        "atoms": [{"point": [0, "0.5"], "prob": 1.0}],
    }
    law = model_from_dict(base)
    assert law.prob_of((0.0, 0.5)) == 1.0
    bad = {
        "kind": "discrete",
        "order": 1,
        "atoms": [{"point": [0.0, True], "prob": 1.0}],
    }
    with pytest.raises(ModelFormatError) as err:
        model_from_dict(bad)
    assert err.value.field == "atoms[0].point[1]"


def test_field_paths_in_errors():
    good = model_to_dict(build_counterexample().f)

    def broken(mutate):
        data = json.loads(json.dumps(good))
        mutate(data)
        return data

    cases = [
        (lambda d: d.pop("kind"), "kind"),
        (lambda d: d.__setitem__("kind", "mystery"), "kind"),
        (lambda d: d["cells"][0].pop("value"), "cells[0].value"),
        (lambda d: d["cells"][1]["blocks"][0].__setitem__("lo", "abc"), "cells[1].blocks[0].lo"),
        (lambda d: d["cells"][0]["blocks"][1].__setitem__("kind", "loose"), "cells[0].blocks[1]"),
        (lambda d: d["cells"][0].__setitem__("extra", 1), "cells[0].extra"),
        (lambda d: d["cells"][0]["blocks"][0].__setitem__("positions", [1, "x"]), "positions[1]"),
    ]
    for mutate, expected_fragment in cases:
        with pytest.raises(ModelFormatError) as err:
            model_from_dict(broken(mutate))
        assert expected_fragment in err.value.field or expected_fragment in str(err.value)


def test_structural_errors_are_wrapped():
    # duplicate atoms pass JSON parsing but fail law construction
    data = {
        "kind": "discrete",
        "order": 1,
        "atoms": [
            {"point": ["1", "2"], "prob": "0.5"},
            {"point": ["1", "2"], "prob": "0.5"},
        ],
    }
    with pytest.raises(ModelFormatError) as err:
        model_from_dict(data)
    assert err.value.field == "atoms"


@pytest.mark.parametrize("order", [0, -2])
@pytest.mark.parametrize(
    "data",
    [
        # The parts after the order are malformed too: the order is reported first.
        {"kind": "discrete", "atoms": [{"point": ["1", True], "prob": "1.0"}]},
        {"kind": "piecewise", "cells": [{"value": "1.0", "blocks": [{"axis": "z"}]}]},
    ],
    ids=["discrete", "piecewise"],
)
def test_order_below_one_is_reported_at_field_order(order, data):
    with pytest.raises(ModelFormatError) as err:
        model_from_dict(dict(data, order=order))
    assert err.value.field == "order"
    assert str(err.value) == f"order: must be >= 1, got {order}"


def test_top_level_validation():
    with pytest.raises(ModelFormatError):
        model_from_dict([1, 2, 3])
    with pytest.raises(ModelFormatError):
        model_from_json("{ not json")
    with pytest.raises(ModelFormatError):
        model_to_dict("not a model")


def test_save_and_load(tmp_path):
    path = tmp_path / "law.json"
    law = build_example43().law_star
    save_model(law, path)
    assert load_model(path) == law
    model = build_counterexample().h
    save_model(model, path)
    assert load_model(path) == model


@st.composite
def random_piecewise(draw):
    order = draw(st.integers(min_value=1, max_value=3))
    cells = []
    for _ in range(draw(st.integers(min_value=1, max_value=3))):
        blocks = []
        for axis in ("x", "y"):
            lo = draw(st.floats(min_value=-50, max_value=50, allow_nan=False))
            width = draw(st.floats(min_value=1e-3, max_value=10, allow_nan=False))
            kind = draw(st.sampled_from(["chain", "free"]))
            positions = tuple(draw(st.permutations(range(1, order + 1))))
            blocks.append(Block(axis=axis, positions=positions, lo=lo, hi=lo + width, kind=kind))
        value = draw(st.floats(min_value=1e-3, max_value=10, allow_nan=False))
        cells.append(Cell(value=value, blocks=tuple(blocks)))
    return PiecewiseUniformDensity(order=order, cells=tuple(cells))


@settings(max_examples=150, derandomize=True)
@given(random_piecewise())
def test_round_trip_property(model):
    assert model_from_json(model_to_json(model)) == model
