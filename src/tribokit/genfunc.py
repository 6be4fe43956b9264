"""Rational ordinary generating functions and exact series expansion.

A RationalOGF is num(x)/den(x) with integer coefficients and den(0) = 1,
so the coefficient stream is integral and satisfies the fixed linear
recurrence read off the denominator.  Coefficients are extracted by the
convolution

    a(n) = num(n) - sum_{k>=1} den(k) * a(n-k)

entirely in exact integer arithmetic.  ``expand_text`` prints the
expansion in one pass of ``seqcore``'s range kernel: the seed window
through str(), every later term by the recurrence in decimal radix,
linear in the digits of each term.  The builtin S, C and CEven functions
are read off ``seqcore``'s recurrence table, not restated.
"""
from __future__ import annotations

import decimal
import operator
from itertools import islice
from typing import NamedTuple

from . import seqcore


def _trim(coeffs: tuple[int, ...]) -> tuple[int, ...]:
    """Drop trailing zero coefficients; the zero polynomial becomes (0,)."""
    end = len(coeffs)
    while end > 1 and coeffs[end - 1] == 0:
        end -= 1
    return coeffs[:end]


def _coefficient(value: object) -> int:
    """``value`` as an int; 3.7 or "3" is refused, not truncated or parsed."""
    try:
        return operator.index(value)
    except TypeError:
        raise ValueError(f"coefficient must be an integer, got {value!r}") from None


class _RationalOGFFields(NamedTuple):
    numerator: tuple[int, ...]
    denominator: tuple[int, ...]


class RationalOGF(_RationalOGFFields):
    """num(x)/den(x), ascending coefficients with trailing zeros trimmed,
    den[0] = 1 and deg den >= 1.  An immutable named tuple; ``_make`` (and
    so ``_replace``) runs the check too."""

    __slots__ = ()

    def __new__(cls, numerator: tuple[int, ...], denominator: tuple[int, ...]) -> "RationalOGF":
        num = _trim(tuple(map(_coefficient, numerator)))
        den = _trim(tuple(map(_coefficient, denominator)))
        if not den or den[0] != 1:
            raise ValueError("denominator must have constant term 1")
        if len(den) < 2:
            raise ValueError("denominator must have degree >= 1")
        return super().__new__(cls, num, den)

    @classmethod
    def _make(cls, iterable) -> "RationalOGF":
        return cls(*iterable)


def _ogf(recurrence: seqcore.Recurrence) -> RationalOGF:
    """The generating function of a recurrence's sequence: den = 1 - c1*x -
    c2*x^2 - c3*x^3, and num = den * (a0 + a1*x + a2*x^2) cut below x^3."""
    (c1, c2, c3), (a0, a1, a2) = recurrence
    return RationalOGF((a0, a1 - c1 * a0, a2 - c1 * a1 - c2 * a0), (1, -c1, -c2, -c3))


_S, _C = seqcore.SequenceKind.GENERALIZED_LUCAS, seqcore.SequenceKind.MINOR_SUM

# Each builtin's k-th coefficient is a(step*k) of one sequence: its
# generating function, that sequence and the step.
_BUILTINS: dict[str, tuple[RationalOGF, seqcore.SequenceKind, int]] = {
    "S": (_ogf(seqcore.RECURRENCES[_S]), _S, 1),
    "C": (_ogf(seqcore.RECURRENCES[_C]), _C, 1),
    "CEVEN": (_ogf(seqcore._C_EVEN), _C, 2),
}


def _builtin(name: str) -> tuple[RationalOGF, seqcore.SequenceKind, int]:
    try:
        return _BUILTINS[name.strip().upper()]
    except KeyError:
        raise ValueError(
            f"unknown builtin OGF: {name!r} (expected S, C or CEven)"
        ) from None


def builtin_ogf(name: str) -> RationalOGF:
    """The generating function of S, C, or CEven (C at even indices)."""
    return _builtin(name)[0]


def builtin_rows(name: str) -> tuple[seqcore.SequenceKind, int]:
    """The sequence a builtin expands and its index step: coefficient k is a(step*k)."""
    return _builtin(name)[1:]


def expand(ogf: RationalOGF, count: int) -> list[int]:
    """First ``count`` coefficients of the series, exactly."""
    if count < 1:
        raise ValueError(f"count must be >= 1, got {count}")
    num, den = ogf.numerator, ogf.denominator
    out: list[int] = []
    for n in range(count):
        acc = num[n] if n < len(num) else 0
        for k in range(1, min(n, len(den) - 1) + 1):
            acc -= den[k] * out[n - k]
        out.append(acc)
    return out


def recurrence_of(ogf: RationalOGF) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """Recurrence coefficients and seeds equivalent to the expansion.

    Returns (coeffs, seeds) with a(n) = sum_k coeffs[k-1] * a(n-k) valid
    once n is past both the numerator degree and the seed window; the
    seed window covers max(deg num + 1, deg den) initial values.
    """
    den = ogf.denominator
    coeffs = tuple(-c for c in den[1:])
    seed_count = max(len(ogf.numerator), len(den) - 1)
    return coeffs, tuple(expand(ogf, seed_count))


def expand_text(ogf: RationalOGF, count: int) -> list[str]:
    """Decimal text of the first ``count`` coefficients, equal to str() of
    each value of ``expand``, from one decimal pass over the seeds, in
    ``seqcore._EXACT``."""
    if count < 1:
        raise ValueError(f"count must be >= 1, got {count}")
    with decimal.localcontext(seqcore._EXACT):
        return list(islice(seqcore._text_terms(*recurrence_of(ogf)), count))
