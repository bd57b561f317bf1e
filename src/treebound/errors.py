"""Exception types shared across the library, and its one rule for scalar inputs.

An admissible integer is an ``int`` (not a ``bool``) in a range; an admissible
real is a finite number (not a ``bool`` or ``str``) above a low, or at it.
"""

import math
import sys
from numbers import Real
from typing import Callable


class ValidationError(ValueError):
    """An input violates a documented precondition or invariant."""


class CapacityError(RuntimeError):
    """A requested computation would exceed a configured size cap."""


class InfeasibleGridError(ValidationError):
    """A parameter search grid contains no admissible point."""


class AmplitudeError(RuntimeError):
    """A field value could leave its amplitude bound ``[-C, C]``: its linear map
    allows it, or a sampled value or innovation fell outside its range."""


def is_integer(value, low=None, high=None) -> bool:
    """An ``int``, not a ``bool``, in ``[low, high)`` (a ``None`` end is open)."""
    return (isinstance(value, int) and not isinstance(value, bool)
            and (low is None or low <= value) and (high is None or value < high))


def is_real(value, op: str, low: float) -> bool:
    """A finite real, not a ``bool``, with ``value > low`` (``op`` ``">"``) or
    ``value >= low`` (``op`` ``">="``); an ``int`` past float range is not finite."""
    try:
        return (isinstance(value, (float, int, Real)) and not isinstance(value, bool)
                and math.isfinite(value)
                and (value > low or (op == ">=" and value == low)))
    except OverflowError:
        return False


def _shown(value) -> str:
    try:
        return repr(value)
    except ValueError:  # an int with more digits than Python prints
        return f"an int of {value.bit_length()} bits"


def reject(msgs: list[str]) -> None:
    """One :class:`ValidationError` listing ``msgs``, if there are any."""
    if msgs:
        raise ValidationError("inadmissible input: " + "; ".join(msgs))


def require(integers=(), reals=()) -> None:
    """One :class:`ValidationError` that names every bad value.  ``integers`` holds
    ``(name, value, low)`` or ``(name, value, low, high)``; ``reals`` holds
    ``(name, value, op, low)``, where a low of ``-inf`` asks only for a finite value."""
    msgs = []
    for spec in integers:
        if not is_integer(*spec[1:]):
            name, value, low, *high = spec
            top = high[0] if high else None
            if top and top > 1 << 32 and top & (top - 1) == 0:  # the label bound reads 2**63
                top = f"2**{top.bit_length() - 1}"
            rule = f" in [{low}, {top})" if high else "" if low is None else f" >= {low}"
            msgs.append(f"{name} = {_shown(value)} must be an integer{rule}")
    for spec in reals:
        if not is_real(*spec[1:]):
            name, value, op, low = spec
            rule = "" if low == -math.inf else f" and {op} {low}"
            msgs.append(f"{name} = {_shown(value)} must be finite{rule}")
    reject(msgs)


def check_printable(what: str, digits: Callable[[], float]) -> None:
    """:class:`CapacityError` ``"<what> may exceed <limit> digits"`` when an
    integer of ``digits()`` decimal digits (an estimate from above, infinite
    when it leaves float range) may not print: ``limit`` is Python's
    ``sys.get_int_max_str_digits()``, and 0 or no such function means none."""
    limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
    try:
        over = bool(limit) and digits() >= limit
    except OverflowError:  # an exponent past float range
        over = True
    if over:
        raise CapacityError(f"{what} may exceed {limit} digits")


def float_in_range(term: str, value) -> float:
    """``float(value)``; :class:`CapacityError` naming ``term`` if it is not finite."""
    try:
        out = float(value)
    except OverflowError:  # an exact integer past about 1.8e308
        out = math.inf
    if not math.isfinite(out):
        raise CapacityError(f"{term} leaves float range")
    return out
