"""Shared types, errors, checks and line framing; the distribution
and code tables are in `tables`.

Conventions used across the package:

* All costs are measured in bits (base-2 logarithms).
* A cost is a nonnegative float; ``math.inf`` is a legal value meaning
  "impossible / never seen", never an error. NaN is never produced.
* Symbols are plain strings compared by exact identity.
"""

from __future__ import annotations

import json
import re
import sys
from itertools import islice
from typing import Iterable, Iterator, Optional

SymbolId = str
BitLength = float


class UnexpectError(Exception):
    """Base error; ``code`` is the stable machine-readable name."""

    code = "error"


class ValidationError(UnexpectError):
    """`field`, when given, names the config field at fault."""

    code = "validation"

    def __init__(self, message: str = "", field: Optional[str] = None):
        super().__init__(message)
        self.field = field


class KraftViolationError(UnexpectError):
    code = "kraft-violation"


class ImproperDistributionError(UnexpectError):
    code = "improper-distribution"


class SupportMismatchError(UnexpectError):
    code = "support-mismatch"


class NonMonotonicTimeError(UnexpectError):
    code = "non-monotonic-time"


class UnknownNodeError(UnexpectError):
    code = "unknown-node"


class UnreachableError(UnexpectError):
    code = "unreachable"


class VersionMismatchError(UnexpectError):
    code = "version-mismatch"


class InvalidSpecError(UnexpectError):
    code = "invalid-spec"


class IdentityMismatchError(UnexpectError):
    code = "identity-mismatch"


def _require(name: str, value, kind, what: str, ok=None):
    """`value`, if it is of `kind` and `ok(value)` holds (when `ok` is
    given); else ValidationError naming `name`. The type is checked
    first, so that `ok` never compares a str; a bool never counts as a
    number. The one check for values read from outside."""
    if (isinstance(value, bool) or not isinstance(value, kind)
            or ok is not None and not ok(value)):
        raise ValidationError(f"{name} must be {what}, got {value!r}", name)
    return value


def _symbols(name: str, value, distinct: bool = False):
    """`value`, if it is a list (or tuple) of strings, distinct when asked;
    else ValidationError naming `name`. A string is not read as its
    letters, nor an object as its keys."""
    if not isinstance(value, (list, tuple)):
        raise ValidationError(f"{name} must be a list, got {value!r}", name)
    for symbol in value:
        if type(symbol) is not str:
            raise ValidationError(
                f"{name} holds a non-string symbol {symbol!r}", name)
    if distinct and len(set(value)) != len(value):
        raise ValidationError(f"{name} repeats a symbol", name)
    return value


def _unique_keys(pairs: list) -> dict:
    """A JSON object's pairs as a dict, if no key repeats."""
    obj = dict(pairs)
    if len(obj) < len(pairs):
        keys = [key for key, _ in pairs]
        repeated = next(key for i, key in enumerate(keys) if key in keys[:i])
        raise ValidationError(f"JSON object repeats key {repeated!r}")
    return obj


def _decode_json_line(line: str):
    """json.loads(line), or its error and message; but ValidationError for
    an object that repeats a key (json.loads keeps the last value) and an
    integer longer than int() converts (a bare ValueError from json.loads)."""
    try:
        return json.loads(line, object_pairs_hook=_unique_keys)
    except json.JSONDecodeError:
        raise
    except ValueError:  # from int(), past sys.get_int_max_str_digits()
        raise ValidationError(
            f"an integer has more than {sys.get_int_max_str_digits()} digits"
        ) from None


# What a decoder with errors="surrogateescape" makes of each byte that
# is not UTF-8: the byte plus 0xDC00.
_ESCAPED_BYTE = re.compile("[\udc80-\udcff]")


def _require_utf8(line: str) -> None:
    """Raise ValidationError naming the first byte of line that was not
    UTF-8, if line was read with errors="surrogateescape"."""
    found = _ESCAPED_BYTE.search(line)
    if found is not None:
        raise ValidationError(
            f"byte 0x{ord(found.group()) - 0xDC00:02x} is not UTF-8")


# Pieces of the lines `simulate` and `track` write, which JSON decodes
# to the same values: a t of at most 19 digits with no leading zero, so
# int() always converts it, and a string with no escape, JSON's or an
# undecodable byte's, and no raw control character.
_T = r'(?:0|[1-9][0-9]{0,18})'
_PLAIN_STRING = r'"([^"\\\x00-\x1f\udc80-\udcff]*)"'


def _line_blocks(lines: Iterable[str], line_pattern: str, size: int) -> Iterator[tuple]:
    """(1-based number of its first line, block, groups) per block of up
    to `size` items of `lines`; groups is findall's, one per item, if
    every item is one line that line_pattern matches whole, else None.
    The items are joined with NULs, and a match must start the text or
    follow a NUL, and end with its newline and the next NUL, or at the
    text's end, where the newline may be missing."""
    find_all = re.compile(r'(?<![^\x00])' + line_pattern + r'(?:\n\x00|\n?\Z)').findall
    lines, first = iter(lines), 1
    while block := list(islice(lines, size)):
        text = "\x00".join(block)
        found = find_all(text)
        # When no item holds a NUL, a match spans exactly one item, so
        # there are as many matches as items only if every item is one
        # matching line with one newline, at its end (the last may lack it).
        yield first, block, (found if len(found) == len(block) == text.count("\x00") + 1
                             else None)
        first += len(block)


class _Value:
    """Base of the package's value types.

    A subclass lists its fields in ``__slots__``, in ``__init__`` order,
    and its ``__init__`` stores each field once with ``_fill``; a subclass
    of that keeps the same fields. Instances equal instances of the same
    class only, with equal fields; hash and repr are those of the fields;
    assignment and deletion raise AttributeError; pickling and copying
    call the class with the fields. Hand-written, because generating
    these methods at import time would cost every CLI start several
    milliseconds.
    """

    __slots__ = ()
    _fields: tuple[str, ...] = ()

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        cls._fields = cls.__dict__.get("__slots__") or cls._fields

    def _fill(self, *values) -> None:
        for name, value in zip(self._fields, values):
            object.__setattr__(self, name, value)

    def _values(self) -> tuple:
        return tuple([getattr(self, name) for name in self._fields])

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self):
        return hash(self._values())

    def __repr__(self):
        fields = ", ".join(
            f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{self.__class__.__qualname__}({fields})"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __reduce__(self):
        return self.__class__, self._values()
