"""Rational ordinary generating functions and exact series expansion.

A RationalOGF is num(x)/den(x) with integer coefficients and den(0) = 1,
so the coefficient stream is integral and satisfies the fixed linear
recurrence read off the denominator.  Coefficients are extracted by the
convolution

    a(n) = num(n) - sum_{k>=1} den(k) * a(n-k)

entirely in exact integer arithmetic.  ``expand_text`` prints the
expansion: past the seed window it runs that recurrence in decimal
radix (``seqcore``'s range kernel), linear in the digits of each term.
"""
from __future__ import annotations

from dataclasses import dataclass
from itertools import islice

from . import seqcore


def _trim(coeffs: tuple[int, ...]) -> tuple[int, ...]:
    """Drop trailing zero coefficients; the zero polynomial becomes (0,)."""
    end = len(coeffs)
    while end > 1 and coeffs[end - 1] == 0:
        end -= 1
    return coeffs[:end]


@dataclass(frozen=True)
class RationalOGF:
    """num(x)/den(x), ascending coefficients, den normalized to den[0] = 1."""

    numerator: tuple[int, ...]
    denominator: tuple[int, ...]

    def __post_init__(self) -> None:
        num = _trim(tuple(int(c) for c in self.numerator))
        den = _trim(tuple(int(c) for c in self.denominator))
        if not den or den[0] != 1:
            raise ValueError("denominator must have constant term 1")
        if len(den) < 2:
            raise ValueError("denominator must have degree >= 1")
        object.__setattr__(self, "numerator", num)
        object.__setattr__(self, "denominator", den)


_BUILTINS: dict[str, RationalOGF] = {
    "S": RationalOGF((3, -2, -1), (1, -1, -1, -1)),
    "C": RationalOGF((3, 2, 1), (1, 1, 1, -1)),
    "CEVEN": RationalOGF((3, 2, 3), (1, 1, 3, -1)),
}


def builtin_ogf(name: str) -> RationalOGF:
    """The generating function of S, C, or CEven (C at even indices)."""
    key = name.strip().upper()
    try:
        return _BUILTINS[key]
    except KeyError:
        raise ValueError(
            f"unknown builtin OGF: {name!r} (expected S, C or CEven)"
        ) from None


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
    each value of ``expand``: the head before the recurrence takes over
    from ``expand``, the rest from one decimal pass."""
    if count < 1:
        raise ValueError(f"count must be >= 1, got {count}")
    coeffs, seeds = recurrence_of(ogf)
    head = len(seeds) - len(coeffs)
    texts = [str(value) for value in seeds[:min(head, count)]]
    texts.extend(islice(seqcore._text_terms(coeffs, seeds[head:]), count - len(texts)))
    return texts
