"""Exception types shared across the library, and the argument checks that raise them."""

import operator


class DomainError(ValueError):
    """An argument lies outside an operation's stated domain."""


class HypothesisError(DomainError):
    """A rule's hypothesis is violated; the message names the failed condition."""


class CapacityError(RuntimeError):
    """The input exceeds the supported desk-scale bounds."""


def as_int(v, what: str) -> int:
    """v as an int; DomainError for floats, bools and the rest."""
    if not isinstance(v, bool):
        try:
            return operator.index(v)
        except TypeError:
            pass
    raise DomainError(f"{what} must be an integer, got {_text(v)}")


def int_text(v: int) -> str:
    """v as ``str`` writes it; past Python's limit on the digits of an int made text, its bit length instead.

    For messages: Python refuses a long int by its size alone, so a refusal never waits on a conversion.
    """
    try:
        return str(v)
    except ValueError:
        return f"a {'negative ' if v < 0 else ''}{v.bit_length()}-bit integer"


def _text(v) -> str:
    """v as a refusal names it: ``int_text`` for an int, else ``repr``, or its type where repr passes the limit."""
    try:
        return int_text(v) if type(v) is int else repr(v)
    except ValueError:  # an int inside v, such as a Fraction's numerator, is past the limit
        return f"a {type(v).__name__} past Python's limit on the digits of an int made text"


def require_type(v, cls: type, what: str):
    """v itself if it is a ``cls``; otherwise DomainError "<what> must be a <cls name>, got <v as _text names it>"."""
    if not isinstance(v, cls):
        raise DomainError(f"{what} must be a {cls.__name__}, got {_text(v)}")
    return v
