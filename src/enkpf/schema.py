"""The config type rule. Every config dataclass calls check_fields(self)
first in its __post_init__, so a Python constructor and the JSON reader
(experiment._from_json) refuse the same values, naming the field:
`q must be an integer, got 40.5`.
"""

from __future__ import annotations

import functools
import json
import sys
import types
import typing
from dataclasses import fields, is_dataclass

_UNIONS = (typing.Union, types.UnionType)
_SCALARS = {bool: "true or false", int: "an integer", float: "a number", str: "a string"}
_PLURALS = {bool: "booleans", int: "integers", float: "numbers", str: "strings"}


class FieldError(ValueError):
    """A value that its field's annotation does not take."""


def _describe(hint) -> str:
    """What JSON a value of type `hint` takes, as error messages say it."""
    origin, args = typing.get_origin(hint), typing.get_args(hint)
    if origin in _UNIONS:  # None goes unsaid, and the model sections read as one
        return " or ".join(dict.fromkeys(_describe(a) for a in args if a is not type(None)))
    if origin is typing.Literal:
        return f"one of {list(args)}"
    if origin is tuple:
        if typing.get_origin(args[0]) is typing.Literal:
            return f"a list drawn from {list(typing.get_args(args[0]))}"
        count = "" if args[-1] is Ellipsis else f"{len(args)} "
        return f"a list of {count}{_PLURALS[args[0]]}"
    return "a JSON object" if is_dataclass(hint) else _SCALARS[hint]


def _mismatch(value, hint, key: str) -> FieldError:
    try:
        shown = json.dumps(value)
    except (TypeError, ValueError):  # not JSON, such as a numpy integer
        shown = repr(value)
    return FieldError(f"{key} must be {_describe(hint)}, got {shown}")


def _reject_unknown(d, allowed, key: str):
    if not isinstance(d, dict):
        raise ValueError(f"{key} must be a JSON object, got {json.dumps(d)}")
    unknown = sorted(set(d) - set(allowed))
    if unknown:
        raise ValueError(f"unknown keys in {key}: {unknown}")


def check_value(value, hint, key: str):
    """`value` as a field of type `hint` holds it, or FieldError naming `key`.

    `X | None` also takes None, a union the first alternative that takes the
    value, a dataclass its instances, `tuple[T, ...]` a list or tuple of T
    and `tuple[T, T]` one of exactly two, a Literal one of its strings, and
    bool, int, float and str their own type, where an integer passes as a
    number, a number must be finite, and True and False are only booleans.
    Numbers come back as floats and sequences as tuples.
    """
    origin, args = typing.get_origin(hint), typing.get_args(hint)
    if origin in _UNIONS:
        if value is None and type(None) in args:
            return None
        for alternative in (a for a in args if a is not type(None)):
            try:
                return check_value(value, alternative, key)
            except ValueError:
                pass
    elif is_dataclass(hint):
        if isinstance(value, hint):
            return value
    elif origin is tuple:
        if isinstance(value, (list, tuple)):
            kinds = args[:1] * len(value) if args[-1] is Ellipsis else args
            try:
                if len(kinds) == len(value):
                    return tuple(check_value(v, kind, key) for v, kind in zip(value, kinds))
            except ValueError:
                pass
    elif origin is typing.Literal:
        if isinstance(value, str) and value in args:
            return value
    elif isinstance(value, (int, float) if hint is float else hint):
        if isinstance(value, bool) == (hint is bool):
            if hint is not float or abs(value) <= sys.float_info.max:  # NaN, inf and 10**400 fail
                return float(value) if hint is float else value
    raise _mismatch(value, hint, key)


@functools.cache
def field_hints(cls) -> dict:
    """{field name: resolved annotation} of dataclass `cls`, in field order."""
    hints = typing.get_type_hints(cls)
    return {f.name: hints[f.name] for f in fields(cls)}


def check_fields(obj):
    """check_value on every field of dataclass `obj`, keeping what it returns."""
    for name, hint in field_hints(type(obj)).items():
        object.__setattr__(obj, name, check_value(getattr(obj, name), hint, name))
