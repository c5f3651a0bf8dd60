"""The one JSON form of the package's result records."""

from __future__ import annotations

import dataclasses
from collections.abc import Sequence


class Record:
    """Base of the dataclasses that reports are made of.

    :meth:`to_dict` maps each field to a key, in declaration order; a field
    whose metadata holds ``"key"`` is written under that key instead of its
    name.  Tuples and other sequences but strings (a report's violations)
    become lists and nested records dicts, at any depth, so the result is
    ready for ``json.dumps``.  It has no instance fields of its own, so a
    slotted subclass has no ``__dict__``.
    """

    __slots__ = ()

    def to_dict(self) -> dict:
        return {
            field.metadata.get("key", field.name): _plain(getattr(self, field.name))
            for field in dataclasses.fields(self)
        }


def _plain(value: object) -> object:
    if isinstance(value, Record):
        return value.to_dict()
    if isinstance(value, Sequence) and not isinstance(value, str):
        return [_plain(item) for item in value]
    return value
