"""The one type rule for config fields, which each config dataclass applies
to its own type hints first in `__post_init__`: a bool is not a number; an
int field stores an int, from an int, a numpy integer or an integral float;
a float field stores a finite float; bool and str fields take only their own
type; an ndarray field holds a finite float64 array; Optional allows None;
and a tuple or a nested config is checked element by element."""
import dataclasses
import functools
import math
import numbers
import types
import typing

import numpy as np


class FieldTypeError(ValueError):
    """A config field's value breaks the type rule; the message names it."""


_hints = functools.cache(typing.get_type_hints)


def check_fields(config) -> None:
    """Apply the rule to each field of the frozen dataclass `config`, in place."""
    for name, hint in _hints(type(config)).items():
        object.__setattr__(config, name, _coerce(getattr(config, name), hint, name))


def _coerce(value, hint, name: str):
    if typing.get_origin(hint) in (typing.Union, types.UnionType):
        if value is None:
            return None
        (hint,) = set(typing.get_args(hint)) - {type(None)}
    if typing.get_origin(hint) is tuple:  # of one element type; its length is the class's to check
        if not isinstance(value, tuple):
            raise FieldTypeError(f"{name} must be tuple, got {value!r}")
        (kind,) = set(typing.get_args(hint)) - {Ellipsis}
        return tuple(_coerce(v, kind, name) for v in value)
    if hint in (bool, str) or dataclasses.is_dataclass(hint):
        if not isinstance(value, hint):
            raise FieldTypeError(f"{name} must be {hint.__name__}, got {value!r}")
        return value
    if hint is np.ndarray:
        if isinstance(value, list):  # JSON's nested lists: each number obeys the float rule
            value = [_coerce(v, np.ndarray if isinstance(v, list) else float, name) for v in value]
        try:
            array = np.asarray(value)
        except ValueError as exc:  # ragged nesting
            raise FieldTypeError(f"{name} must be a rectangular array: {exc}") from exc
        if array.dtype.kind not in "iuf":
            raise FieldTypeError(f"{name} must be a float array, got dtype {array.dtype}")
        if not np.isfinite(array).all():
            raise FieldTypeError(f"{name} must be finite")
        return array.astype(np.float64, copy=False)
    if hint not in (int, float):
        raise TypeError(f"no config rule for {name}: {hint!r}")
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        raise FieldTypeError(f"{name} must be {hint.__name__}, got {value!r}")
    if hint is int and isinstance(value, numbers.Integral):
        return int(value)
    try:
        number = float(value)
    except OverflowError:  # an int beyond the float range
        number = math.inf
    if not math.isfinite(number):
        raise FieldTypeError(f"{name} must be finite, got {value!r}")
    if hint is int and not number.is_integer():
        raise FieldTypeError(f"{name} must be an integer, got {value!r}")
    return hint(number)
