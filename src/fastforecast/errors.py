"""Exception types shared across the package, and the checks on config and
checkpoint fields that raise them."""

import math
import sys

import numpy as np

# numpy rejects an array extent at or above this, and an array whose byte
# size is above it: a width must stay below it
MAX_EXTENT = int(np.iinfo(np.intp).max)


class ShapeError(ValueError):
    """Operand shapes are incompatible with the requested operation."""


class FiniteError(FloatingPointError):
    """A tensor acquired a NaN or Inf value, violating the finiteness contract."""


class DataError(ValueError):
    """Malformed or insufficient input data (CSV parsing, short series, ...);
    ``row``, where given, is the index of the offending row."""

    def __init__(self, message: str, row: int | None = None):
        super().__init__(message)
        self.row = row


class ConfigError(ValueError):
    """Invalid or inconsistent configuration."""


class DivergenceError(RuntimeError):
    """Training produced a non-finite loss and was aborted."""


_KINDS = {int: ("an integer", int), float: ("a finite number", (int, float)),
          bool: ("true or false", bool)}


def check_field(name: str, value, kind: type, low=None, *, above=None, below=None,
                nullable: bool = False) -> None:
    """Raise ConfigError, naming ``name``, unless ``value`` is a ``kind`` in range.

    ``kind`` is ``int`` (an int that is not a bool), ``float`` (an int or a
    float that is not a bool, with a finite float value: json reads ``1e400``
    as infinity, and a 400-digit integer as an int no float can hold) or
    ``bool``.  Where given, the value must be at least ``low``, greater than
    ``above`` and less than ``below``; ``nullable`` also admits None."""
    noun, types = _KINDS[kind]
    ok = (nullable and value is None) or (
        isinstance(value, types) and (kind is bool or not isinstance(value, bool))
        and (kind is not float or abs(value) <= sys.float_info.max)  # False for NaN
        and (low is None or value >= low) and (above is None or value > above)
        and (below is None or value < below))
    if not ok:
        limits = " and ".join(f"{op} {bound}" for op, bound in
                              ((">=", low), (">", above), ("<", below)) if bound is not None)
        raise ConfigError(f"{name} must be {noun}{' ' + limits if limits else ''}"
                          f"{' or null' if nullable else ''}, got {value!r}")


def check_array(name: str, *shape: int) -> None:
    """Raise ConfigError, naming the field ``name`` that sizes it, unless numpy
    can represent the byte size of a float64 array of ``shape``."""
    if 8 * math.prod(shape) > MAX_EXTENT:
        raise ConfigError(f"{name} makes a {' x '.join(map(str, shape))} array, whose byte "
                          "size numpy cannot represent")


def check_keys(name: str, section, allowed, required=()) -> dict:
    """``section`` after checking that it is a dict holding only ``allowed``
    keys and every ``required`` one; ``name`` says where it is."""
    if not isinstance(section, dict):
        raise ConfigError(f"{name} must be an object, got {section!r}")
    unknown = sorted(section.keys() - set(allowed))
    if unknown:
        raise ConfigError(f"{name} has unknown key '{unknown[0]}'")
    missing = [key for key in required if key not in section]
    if missing:
        raise ConfigError(f"{name} is missing key '{missing[0]}'")
    return section
