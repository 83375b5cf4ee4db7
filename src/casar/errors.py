"""Exception types shared across the package, and the field type check.

The CLI maps these onto process exit codes: validation/config problems
exit 2, I/O problems exit 3, numeric failures exit 4.  A ``MemoryError``
also exits 3.
"""

import dataclasses
import functools
import math
import numbers
import sys
import typing


class CasarError(Exception):
    """Base class for all errors raised by this package."""

    exit_code = 1


class ValidationError(CasarError, ValueError):
    """Invalid value, configuration, or contract violation."""

    exit_code = 2


class ShapeError(ValidationError):
    """Array or vector with the wrong length/shape for the operation."""


class ParseError(ValidationError):
    """Malformed input file; message names the file and record."""


class CheckpointError(ValidationError):
    """Bad magic, version mismatch, or truncated checkpoint file."""


class DataIOError(CasarError, OSError):
    """Missing or unreadable/unwritable file or directory."""

    exit_code = 3


class NumericError(CasarError, ArithmeticError):
    """Non-finite values encountered where finite math was required."""

    exit_code = 4


def _is_a(value, hint) -> bool:
    if hint is bool or isinstance(value, bool):
        return hint is bool and isinstance(value, bool)
    if hint is int:
        return isinstance(value, numbers.Integral)
    if hint is float:
        # NaN, the infinities and integers too large for a float are refused
        if isinstance(value, numbers.Integral):
            return abs(value) <= sys.float_info.max
        return isinstance(value, numbers.Real) and math.isfinite(value)
    if typing.get_origin(hint) is tuple:
        args = typing.get_args(hint)
        return (isinstance(value, tuple) and len(value) == len(args)
                and all(map(_is_a, value, args)))
    return isinstance(value, hint)


_field_types = functools.cache(typing.get_type_hints)


def check_field_types(obj) -> None:
    """Raise ``ValidationError`` naming the first field of a dataclass of the wrong type.

    An ``int`` field takes any ``numbers.Integral`` and a ``float`` field
    any finite ``numbers.Real`` that a float can hold; ``bool`` counts as
    neither.
    """
    hints = _field_types(type(obj))
    for f in dataclasses.fields(obj):
        value = getattr(obj, f.name)
        if not _is_a(value, hints[f.name]):
            kind = getattr(f.type, "__name__", f.type)
            kind = "finite float" if kind == "float" else kind
            raise ValidationError(f"{f.name} must be of type {kind}, got {value!r}")
