"""Exception types shared across the toolkit, and its input checks.

Validation problems (bad parameters, broken invariants) and file-format
problems (bad magic, truncation, unparseable records) are kept distinct so
the CLI can map them to different exit codes.

Each kind of input has one check, raising :class:`ValidationError`: :func:`_index`
for integer counts, sizes and seeds, :func:`_real` for real ratios, rates, costs
and thresholds, :func:`_unique` for ids (in :func:`_str_ids` where they must be
strings), :func:`_path` for file paths, and :func:`_instance` for objects. A
numpy number passes as the ``int`` or ``float`` it equals, and a ``bool`` is
never a number.
"""

import numbers
import operator
import os
from collections import Counter
from collections.abc import Iterable
from contextlib import suppress
from itertools import repeat


class ValidationError(ValueError):
    """A precondition or invariant on inputs does not hold."""


def _index(name: str, value, least: int | None = None) -> int:
    """``value`` as an ``int``; ``ValidationError`` unless an integer, not a bool, and >= ``least`` if set."""
    if type(value) is not int:
        if isinstance(value, bool) or not hasattr(value, "__index__"):
            raise ValidationError(f"{name} must be an integer, got {value!r}")
        value = operator.index(value)
    if least is not None and value < least:
        raise ValidationError(f"{name} must be >= {least}, got {value}")
    return value


def _real(name: str, value, interval: str) -> float:
    """``value`` as a ``float``; ``ValidationError`` unless a real number, not a bool, inside ``interval``:
    text such as ``"(0, 1]"`` or ``"[0, inf)"``, where a round bracket excludes its end. NaN is inside none."""
    if isinstance(value, numbers.Real) and not isinstance(value, bool):
        lo, hi = (float(end) for end in interval[1:-1].split(","))
        if (lo <= value if interval[0] == "[" else lo < value) and (value <= hi if interval[-1] == "]" else value < hi):
            with suppress(OverflowError):  # an int too large for a float
                return float(value)
    raise ValidationError(f"{name} must be a number in {interval}, got {value!r}")


def _unique(what: str, ids) -> None:
    """``ValidationError`` naming a repeated id if the sequence ``ids`` holds one twice."""
    if len(set(ids)) != len(ids):
        repeat = next(i for i, count in Counter(ids).items() if count > 1)
        raise ValidationError(f"{what} ids must be unique, {repeat!r} repeats")


def _str_ids(what: str, ids) -> tuple[str, ...]:
    """``ids`` as a tuple; ``ValidationError`` unless an iterable of unique ``str``.
    The types are checked in one pass of C calls, with no Python call per id."""
    ids = tuple(_instance(f"{what} ids", ids, Iterable))
    if not all(map(isinstance, ids, repeat(str))):
        bad = next(i for i in ids if not isinstance(i, str))
        raise ValidationError(f"{what} ids must be str, got {bad!r}")
    _unique(what, ids)
    return ids


def _instance(name: str, value, types):
    """``value`` as given; ``ValidationError`` naming its type and the public ``types`` unless an instance of one."""
    if isinstance(value, types):
        return value
    kind = " or ".join(t.__name__ for t in (types if isinstance(types, tuple) else (types,)) if t.__name__[0] != "_")
    an = kind[0] in "AEIOU" or kind[0] in "FHLMNRSX" and kind[1] not in "aeiouy"  # an NnReport
    raise ValidationError(f"{name} must be {'an' if an else 'a'} {kind}, got {type(value).__name__}")


def _path(path):
    """``path`` as given; ``ValidationError`` unless a ``str`` or ``os.PathLike``, so that an
    int is never taken for a file descriptor, which ``open`` would read and then close."""
    if isinstance(path, (str, os.PathLike)):
        return path
    raise ValidationError(f"path must be a str or os.PathLike, got {path!r}")


class ParseError(ValueError):
    """A line-oriented input file could not be parsed.

    Carries the 1-based line number of the offending line.
    """

    def __init__(self, message: str, line_number: int):
        super().__init__(f"line {line_number}: {message}")
        self.line_number = line_number


class FormatError(ValueError):
    """A binary file failed header or length validation.

    Carries the byte offset at which the problem was detected.
    """

    def __init__(self, message: str, offset: int):
        super().__init__(f"{message} (at byte offset {offset})")
        self.offset = offset
