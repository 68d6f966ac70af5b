"""Strict readers for the fields of JSON that enters a process from outside.

Every decoder of a query file, a wire frame, a cache-log line or a shipped
snapshot reads its fields through these functions, so one rule holds at
every boundary:

* JSON types only: a boolean is never a number, a string never a number or
  a boolean, and an integral float (``3.0``) is an integer;
* a float is finite unless the caller accepts ``±inf``, which travels as
  the sentinel string ``"inf"`` / ``"-inf"`` (a bare ``Infinity`` from an
  old log also reads); NaN never passes;
* a field with a default may be absent, and one whose default is ``None``
  may also be ``null``;
* anything else raises ``ValueError`` naming the field, a missing key and
  a container of the wrong type included.

``data`` is a decoded JSON object and ``key`` one of its field names, or a
JSON array and a position in it.  A reader returns a default unchecked: a
default is valid by construction.
"""

from __future__ import annotations

import math
from typing import Any

#: The default of a required field.
MISSING: Any = object()

_INFINITIES = {"inf": math.inf, "-inf": -math.inf}
_TYPE_NAMES = {bool: "true or false", str: "a string", list: "an array", dict: "an object"}


def _wrong(key: str | int, expected: str, value: Any) -> ValueError:
    return ValueError(f"field {key!r} must be {expected}, got {value!r:.80}")


def _field(data: Any, key: str | int, default: Any) -> Any:
    """``data[key]``, or ``default`` for a field that may be left out.

    The readers' slow path: each first tries ``data.get(key)`` and its own
    type check, and comes here for a list, a default or a refusal.
    """
    if type(data) is dict:
        value = data.get(key, MISSING)
    elif type(data) is list and type(key) is int:
        value = data[key] if 0 <= key < len(data) else MISSING
    else:
        container = _TYPE_NAMES[list if type(key) is int else dict]
        raise ValueError(f"expected {container} holding field {key!r}, got {data!r:.80}")
    if value is MISSING or value is None and default is None:
        if default is MISSING:
            raise ValueError(f"field {key!r} is missing")
        return default
    return value


def read(data: Any, key: str | int, kind: type, default: Any = MISSING, item: Any = None) -> Any:
    """A field of JSON type ``kind``: ``bool``, ``str``, ``list`` or ``dict``.

    With ``item``, an array's elements are read by ``item(array, position)``.
    """
    value = data.get(key) if type(data) is dict else None
    if type(value) is not kind:
        value = _field(data, key, default)
        if type(value) is not kind and value is not default:
            raise _wrong(key, _TYPE_NAMES[kind], value)
    return value if item is None or value is default else [item(value, i) for i in range(len(value))]


def float_from_wire(value: Any, key: str | int = "value") -> float:
    """A float: a JSON number, or the ``"inf"`` / ``"-inf"`` sentinel."""
    if type(value) is int or type(value) is float and value == value:
        return float(value)
    if type(value) is str and value in _INFINITIES:
        return _INFINITIES[value]
    raise _wrong(key, "a number or an 'inf' / '-inf' sentinel", value)


def read_float(
    data: Any, key: str | int, default: Any = MISSING,
    low: float = -math.inf, high: float = math.inf, infinite: bool = False,
) -> float:
    """A float in ``[low, high]``; ``±inf`` only with ``infinite``."""
    value = data.get(key) if type(data) is dict else None
    if type(value) is not float:
        value = _field(data, key, default)
        if value is default:
            return value
        value = float_from_wire(value, key)
    if not low <= value <= high or not (infinite or math.isfinite(value)):
        raise _wrong(key, f"a finite number in [{low}, {high}]", value)
    return value


def read_int(
    data: Any, key: str | int, default: Any = MISSING,
    low: float = -math.inf, high: float = math.inf,
) -> int:
    """An integer in ``[low, high]``."""
    value = data.get(key) if type(data) is dict else None
    if type(value) is not int:
        value = _field(data, key, default)
        if type(value) is float and value.is_integer():
            value = int(value)
    if value is not default and (type(value) is not int or not low <= value <= high):
        raise _wrong(key, f"an integer in [{low}, {high}]", value)
    return value


def read_enum(data: Any, key: str | int, kind: type) -> Any:
    """The member of the string-valued enum ``kind`` whose value is the field."""
    value = read(data, key, str)
    try:
        return kind(value)
    except ValueError:
        raise _wrong(key, f"one of {[member.value for member in kind]}", value) from None
