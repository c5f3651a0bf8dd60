"""Lossless JSON serialization of model objects.

Real numbers are written as decimal strings produced by ``repr(float)``,
which round-trips every double exactly; readers also accept plain JSON
numbers for hand-written files.  Every schema violation raises
:class:`ModelFormatError` carrying the dotted path of the offending field.

Two kinds are supported and distinguished by the top-level ``kind`` field:

``piecewise``::

    {"kind": "piecewise", "order": 2, "cells": [
        {"value": "1.0", "blocks": [
            {"axis": "x", "positions": [1, 2], "lo": "0.0", "hi": "1.0",
             "kind": "chain"}]}]}

``discrete``::

    {"kind": "discrete", "order": 2, "atoms": [
        {"point": ["1.0", "5.0", "3.0", "5.0"], "prob": "0.25"}]}

:func:`model_from_dict` reads a discrete law atom by atom, and its field
checkers raise every schema error with its field path.
:func:`model_from_json` packs the values of atoms into one float buffer as
the text is decoded (see :class:`_AtomPacker`), so loading a law holds
about its float arrays, not its whole JSON tree.
"""

from __future__ import annotations

import json
from array import array
from pathlib import Path
from typing import Any

import numpy as np

from .discrete import DiscreteJoint
from .errors import ModelFormatError, OpdepError
from .piecewise import Block, Cell, PiecewiseUniformDensity

Model = PiecewiseUniformDensity | DiscreteJoint


def _real_out(value: float) -> str:
    return repr(float(value))


def _real_in(value: Any, field: str) -> float:
    if isinstance(value, bool):
        raise ModelFormatError(field, f"expected a real number, got {value!r}")
    if isinstance(value, (int, float)):
        try:
            return float(value)
        except OverflowError:
            raise ModelFormatError(field, "integer too large for a real number") from None
    if isinstance(value, str):
        try:
            return float(value.strip())
        except ValueError:
            raise ModelFormatError(field, f"not a decimal real: {value!r}") from None
    raise ModelFormatError(field, f"expected a real number, got {type(value).__name__}")


def _int_in(value: Any, field: str) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        raise ModelFormatError(field, f"expected an integer, got {value!r}")
    return value


def _order_in(data: dict) -> int:
    """The model order: an integer of at least 1, read before the parts that depend on it."""
    order = _int_in(data["order"], "order")
    if order < 1:
        raise ModelFormatError("order", f"must be >= 1, got {order}")
    return order


def _str_in(value: Any, field: str) -> str:
    if not isinstance(value, str):
        raise ModelFormatError(field, f"expected a string, got {type(value).__name__}")
    return value


def _list_in(value: Any, field: str) -> list:
    if not isinstance(value, list):
        raise ModelFormatError(field, f"expected a list, got {type(value).__name__}")
    return value


def _dict_in(value: Any, field: str, allowed: set[str]) -> dict:
    if not isinstance(value, dict):
        raise ModelFormatError(field, f"expected an object, got {type(value).__name__}")
    prefix = f"{field}." if field else ""
    unknown = set(value) - allowed
    if unknown:
        raise ModelFormatError(prefix + sorted(unknown)[0], "unknown field")
    missing = allowed - set(value)
    if missing:
        raise ModelFormatError(prefix + sorted(missing)[0], "missing field")
    return value


def model_to_dict(model: Model) -> dict:
    """JSON-ready dictionary for either model kind."""
    if isinstance(model, PiecewiseUniformDensity):
        return {
            "kind": "piecewise",
            "order": model.order,
            "cells": [
                {
                    "value": _real_out(cell.value),
                    "blocks": [
                        {
                            "axis": block.axis,
                            "positions": list(block.positions),
                            "lo": _real_out(block.lo),
                            "hi": _real_out(block.hi),
                            "kind": block.kind,
                        }
                        for block in cell.blocks
                    ],
                }
                for cell in model.cells
            ],
        }
    if isinstance(model, DiscreteJoint):
        return {
            "kind": "discrete",
            "order": model.order,
            "atoms": [
                {"point": [_real_out(v) for v in point], "prob": _real_out(prob)}
                for point, prob in model.atoms
            ],
        }
    raise ModelFormatError("kind", f"unsupported model type {type(model).__name__}")


def _block_from_dict(data: Any, field: str) -> Block:
    obj = _dict_in(data, field, {"axis", "positions", "lo", "hi", "kind"})
    positions = [
        _int_in(p, f"{field}.positions[{k}]")
        for k, p in enumerate(_list_in(obj["positions"], f"{field}.positions"))
    ]
    try:
        return Block(
            axis=_str_in(obj["axis"], f"{field}.axis"),
            positions=tuple(positions),
            lo=_real_in(obj["lo"], f"{field}.lo"),
            hi=_real_in(obj["hi"], f"{field}.hi"),
            kind=_str_in(obj["kind"], f"{field}.kind"),
        )
    except ModelFormatError:
        raise
    except OpdepError as exc:
        raise ModelFormatError(field, str(exc)) from exc


def _piecewise_from_dict(data: dict) -> PiecewiseUniformDensity:
    order = _order_in(data)
    cells = []
    for ci, raw_cell in enumerate(_list_in(data["cells"], "cells")):
        field = f"cells[{ci}]"
        obj = _dict_in(raw_cell, field, {"value", "blocks"})
        blocks = [
            _block_from_dict(raw_block, f"{field}.blocks[{bi}]")
            for bi, raw_block in enumerate(_list_in(obj["blocks"], f"{field}.blocks"))
        ]
        try:
            cells.append(Cell(value=_real_in(obj["value"], f"{field}.value"), blocks=tuple(blocks)))
        except ModelFormatError:
            raise
        except OpdepError as exc:
            raise ModelFormatError(field, str(exc)) from exc
    try:
        return PiecewiseUniformDensity(order=order, cells=tuple(cells))
    except OpdepError as exc:
        raise ModelFormatError("cells", str(exc)) from exc


_ATOM_FIELDS = frozenset({"point", "prob"})
_PLAIN_REALS = frozenset({float, int, str})
_LAW_FIELDS = frozenset({"kind", "order", "atoms"})
# What an atom decodes to once its values are queued for packing.
_PACKED = object()
# Values converted at a time.  Converting atom by atom made laws of 1,000
# atoms load about 40 % slower; a block of queued strings takes about 1 MB.
_BLOCK = 2**14


def _atom_from_dict(data: Any, field: str) -> tuple[tuple[float, ...], float]:
    obj = _dict_in(data, field, _ATOM_FIELDS)
    point = tuple(
        _real_in(v, f"{field}.point[{k}]")
        for k, v in enumerate(_list_in(obj["point"], f"{field}.point"))
    )
    return point, _real_in(obj["prob"], f"{field}.prob")


class _AtomPacker:
    """Packs the floats of plain atoms, one decoded object at a time.

    The ``object_hook`` of :func:`model_from_json`: called on each decoded
    JSON object, it returns the object unchanged unless it has exactly the
    keys ``point`` and ``prob`` and its point is a list.  Then it queues
    the point's coordinates and the probability and returns ``_PACKED``,
    so the object and its point are freed at once.  The queue is converted
    in blocks of ``_BLOCK`` values: each block only if all of its values
    are plain, that is JSON numbers or strings (not booleans) that
    ``float`` converts, and ``plain`` turns False otherwise.  ``float``
    strips whitespace as ``_real_in`` does, so plain atoms get the field
    checkers' values.

    A text with a packed atom is a valid model only if it is a discrete law
    of plain atoms, which :meth:`law` returns, so decoding any other such
    text again ends in an error: no object of a piecewise model has an
    atom's keys, a law's atoms are exactly the elements of its ``atoms``
    list, and the field checkers refuse every value that is not plain.
    """

    __slots__ = ("values", "queue", "widths", "count", "plain")

    def __init__(self) -> None:
        self.values = array("d")
        self.queue: list = []
        self.widths: set[int] = set()
        self.count = 0
        self.plain = True

    def __call__(self, obj: dict) -> Any:
        point = obj.get("point")
        if len(obj) != 2 or type(point) is not list or "prob" not in obj:
            return obj
        queue = self.queue
        queue += point
        queue.append(obj["prob"])
        self.widths.add(len(point))
        self.count += 1
        if len(queue) >= _BLOCK:
            self._convert()
        return _PACKED

    def _convert(self) -> None:
        try:
            if self.plain and _PLAIN_REALS.issuperset(map(type, self.queue)):
                self.values.fromlist(list(map(float, self.queue)))
            else:
                self.plain = False
        except (ValueError, OverflowError):
            self.plain = False
        self.queue.clear()

    def law(self, order: int) -> DiscreteJoint | None:
        """The law of every packed atom, in packing order; None if one is not
        plain or its point does not have ``2 * order`` coordinates.  ``order``
        must be >= 1."""
        self._convert()
        width = 2 * order
        if not (self.plain and self.widths <= {width}):
            return None
        table = np.frombuffer(self.values).reshape(self.count, width + 1)
        try:
            return DiscreteJoint._from_arrays(order, table[:, :width], table[:, width])
        except OpdepError as exc:
            raise ModelFormatError("atoms", str(exc)) from exc


def _discrete_from_dict(data: dict) -> DiscreteJoint:
    order = _order_in(data)
    atoms = [_atom_from_dict(atom, f"atoms[{ai}]") for ai, atom in enumerate(_list_in(data["atoms"], "atoms"))]
    try:
        return DiscreteJoint(order=order, atoms=atoms)
    except OpdepError as exc:
        raise ModelFormatError("atoms", str(exc)) from exc


def model_from_dict(data: Any) -> Model:
    """Parse a model dictionary, dispatching on its ``kind`` field."""
    if not isinstance(data, dict):
        raise ModelFormatError("", f"expected a JSON object, got {type(data).__name__}")
    kind = data.get("kind")
    if kind == "piecewise":
        _dict_in(data, "", {"kind", "order", "cells"})
        return _piecewise_from_dict(data)
    if kind == "discrete":
        _dict_in(data, "", {"kind", "order", "atoms"})
        return _discrete_from_dict(data)
    raise ModelFormatError("kind", f"expected 'piecewise' or 'discrete', got {kind!r}")


def model_to_json(model: Model) -> str:
    return json.dumps(model_to_dict(model), indent=2) + "\n"


def model_from_json(text: str) -> Model:
    """Parse a model from JSON text, packing atoms as they are decoded.

    The packed values are the law's arrays when the text is exactly a
    discrete law (the keys ``kind``, ``order`` and ``atoms``, an integer
    order >= 1) of plain atoms with ``2 * order`` coordinates.  Any other
    text with a packed atom is refused by :func:`model_from_dict`, which
    reads it decoded again to name the field at fault.
    """
    packer = _AtomPacker()
    try:
        data = json.loads(text, object_hook=packer)
    except ValueError as exc:
        # A JSONDecodeError, or an integer literal beyond Python's digit limit.
        raise ModelFormatError("", f"invalid JSON: {exc}") from exc
    if not packer.count:
        # Nothing was packed, so ``data`` is the plain decoding.
        return model_from_dict(data)
    if type(data) is dict and data.keys() == _LAW_FIELDS and data["kind"] == "discrete":
        order, atoms = data["order"], data["atoms"]
        # Every packed atom is an element of ``atoms``, and each element is one.
        if (
            type(order) is int and order >= 1 and type(atoms) is list
            and len(atoms) == packer.count == atoms.count(_PACKED)
        ):
            law = packer.law(order)
            if law is not None:
                return law
    return model_from_dict(json.loads(text))


def save_model(model: Model, path: str | Path) -> None:
    Path(path).write_text(model_to_json(model), encoding="utf-8")


def load_model(path: str | Path) -> Model:
    return model_from_json(Path(path).read_text(encoding="utf-8"))
