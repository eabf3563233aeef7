"""Typed JSON readers and writer: the one place that decides what a field may hold.

Every ``from_dict`` in the package reads untrusted JSON - fleet specs,
screen plans, shard plans, checkpoint journals, leases and provisioning
reports - through these readers, as every file is written through
:mod:`repro.durable`.  A reader takes ``(value, path)`` and returns the
value it accepts, or raises :class:`FieldError` naming the field by its
path in the document (``lots[0].weight``, ``decisions[3].index``).

:func:`load` builds a frozen dataclass from a JSON object, reading each
init field with the reader its annotation names, and :func:`dump`, its
inverse, writes the object back by the same annotations.  Formats with
curated keys (the fleet spec's aliases and omitted defaults, a shard's
``id``) read through explicit field tables with :func:`read` and write
through hand-written ``to_dict`` methods instead.
"""

from __future__ import annotations

import dataclasses
import functools
import math
import types
import typing


class FieldError(ValueError):
    """A JSON field holds a value its reader rejects; the message names its path."""


def bad(path: str, problem: str) -> FieldError:
    return FieldError(f"field {path}: {problem}" if path else f"top level: {problem}")


def join(path: str, key: str) -> str:
    return f"{path}.{key}" if path else key


def mapping(value, path: str) -> dict:
    """A JSON object, as a ``dict`` of its own."""
    if not isinstance(value, dict):
        raise bad(path, f"expected a JSON object, got {value!r}")
    return dict(value)


def read(value, path: str, fields: dict, required: tuple[str, ...] = ()) -> dict:
    """Parse a JSON object whose keys ``fields`` defines, key by key."""
    data = mapping(value, path)
    unknown = data.keys() - fields.keys()
    if unknown:
        where = f"{path} block" if path else "top level"
        raise FieldError(
            f"{where} has unknown keys {sorted(map(str, unknown))}; "
            f"the format defines {sorted(fields)}"
        )
    for key in required:
        if key not in data:
            raise bad(join(path, key), "is required")
    return {key: fields[key](item, join(path, key)) for key, item in data.items()}


def optional(parse):
    """``parse``, with ``null`` read as ``None``."""
    return lambda value, path: None if value is None else parse(value, path)


def array(parse):
    """A JSON array whose items ``parse`` reads (as ``path[i]``), as a tuple."""

    def parse_array(value, path: str) -> tuple:
        if not isinstance(value, (list, tuple)):
            raise bad(path, f"expected a JSON array, got {value!r}")
        return tuple(parse(item, f"{path}[{i}]") for i, item in enumerate(value))

    return parse_array


def positive(parse):
    """``parse``, and the value must be positive."""

    def parse_positive(value, path: str):
        parsed = parse(value, path)
        if parsed <= 0:
            raise bad(path, f"must be positive, got {value!r}")
        return parsed

    return parse_positive


def text(value, path: str) -> str:
    if not isinstance(value, str):
        raise bad(path, f"expected a string, got {value!r}")
    return value


def flag(value, path: str) -> bool:
    if not isinstance(value, bool):
        raise bad(path, f"expected true or false, got {value!r}")
    return value


def number(value, path: str) -> int | float:
    """A finite JSON number, unconverted (so canonical forms keep their ints)."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise bad(path, f"expected a number, got {value!r}")
    try:
        finite = math.isfinite(value)
    except OverflowError:  # an int too large for a float
        finite = False
    if not finite:
        raise bad(path, f"must be finite, got {value!r}")
    return value


def real(value, path: str) -> float:
    return float(number(value, path))


def integer(value, path: str) -> int:
    if isinstance(value, float) and value.is_integer():
        return int(value)
    if isinstance(value, bool) or not isinstance(value, int):
        raise bad(path, f"expected an integer, got {value!r}")
    return value


#: The reader each plain annotation names.
_READERS = {int: integer, float: real, str: text, bool: flag, dict: mapping}


def _reader(annotation):
    """The reader for one field annotation (see :func:`load`)."""
    if annotation in _READERS:
        return _READERS[annotation]
    origin, args = typing.get_origin(annotation), typing.get_args(annotation)
    if origin in (typing.Union, types.UnionType) and type(None) in args:
        (inner,) = (arg for arg in args if arg is not type(None))
        return optional(_reader(inner))
    if origin is tuple and len(args) == 2 and args[1] is Ellipsis:
        return array(_reader(args[0]))
    if dataclasses.is_dataclass(annotation):
        return annotation.from_dict
    raise TypeError(f"no JSON reader for annotation {annotation!r}")


@functools.cache
def _fields(cls, ignore: tuple[str, ...]) -> tuple[dict, tuple[str, ...]]:
    """``cls``'s field table and required keys, built once per class."""
    hints = typing.get_type_hints(cls)
    fields = dict.fromkeys(ignore, lambda value, path: None)
    required = []
    for field in dataclasses.fields(cls):
        if field.init:
            fields[field.name] = _reader(hints[field.name])
            if field.default is field.default_factory is dataclasses.MISSING:
                required.append(field.name)
    return fields, tuple(required)


def load(cls, data, path: str = "", ignore: tuple[str, ...] = ()):
    """Build the frozen dataclass ``cls`` from the JSON object ``data``.

    Each init field is read with the reader its annotation names:
    ``int``, ``float``, ``str``, ``bool``, ``dict``, ``X | None``,
    ``tuple[X, ...]``, or a nested dataclass through its own
    ``from_dict(value, path)``.  A field without a default is required.
    The keys in ``ignore`` are values the writer derives (``method``,
    ``kind``) and are skipped; any other unknown key raises.  A
    ``ValueError`` from the constructor of a nested object is re-raised
    naming the object's path.
    """
    fields, required = _fields(cls, ignore)
    values = read(data, path, fields, required)
    for key in ignore:
        values.pop(key, None)
    try:
        return cls(**values)
    except ValueError as error:
        if not path:
            raise
        raise bad(path, str(error)) from None


def _written(annotation, value: str) -> str:
    """Source of an expression writing ``value`` by its annotation (see :func:`dump`)."""
    if annotation is dict:
        return f"dict({value})"
    origin, args = typing.get_origin(annotation), typing.get_args(annotation)
    if origin in (typing.Union, types.UnionType) and type(None) in args:
        (inner,) = (arg for arg in args if arg is not type(None))
        written = _written(inner, value)
        return value if written == value else f"None if {value} is None else {written}"
    if origin is tuple and len(args) == 2 and args[1] is Ellipsis:
        # A comprehension reads its iterable before binding ``item``, so
        # nested tuples can reuse the name.
        written = _written(args[0], "item")
        return f"list({value})" if written == "item" else f"[{written} for item in {value}]"
    if dataclasses.is_dataclass(annotation):
        return f"{value}.to_dict()"
    return value


@functools.cache
def _writer(cls):
    """``cls``'s writer, compiled once per class as ``dataclasses`` compiles ``__init__``."""
    hints = typing.get_type_hints(cls)
    items = "".join(
        f"        {field.name!r}: {_written(hints[field.name], 'obj.' + field.name)},\n"
        for field in dataclasses.fields(cls)
        if field.init
    )
    namespace: dict = {}
    exec(f"def write(obj):\n    return {{\n{items}    }}\n", namespace)
    return namespace["write"]


def dump(obj) -> dict:
    """The JSON object :func:`load` reads back into the frozen dataclass ``obj``.

    Each init field is written, in declaration order, by the rule its
    annotation names: ``dict`` as a copy, ``tuple[X, ...]`` as a list of
    its items written as ``X``, ``X | None`` as ``null`` or as ``X``, and
    a nested dataclass through its own ``to_dict()``.  Any other value
    is written as it is held.  A ``to_dict`` adds by hand only the keys
    it derives, which its ``from_dict`` passes to :func:`load` as
    ``ignore``.
    """
    return _writer(type(obj))(obj)
