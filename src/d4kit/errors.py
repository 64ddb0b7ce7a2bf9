"""Exception types shared across the toolkit, and its one integer check.

Validation problems (bad parameters, broken invariants) and file-format
problems (bad magic, truncation, unparseable records) are kept distinct so
the CLI can map them to different exit codes.

:func:`_index` is the one check of every integer count, size and seed: a
numpy integer passes as the ``int`` it equals, and a ``bool``, float, string
or value below the minimum raises :class:`ValidationError`.
"""

import operator


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
