"""Exact evaluation of the Tribonacci-family sequences.

Three integer sequences share the cubic x^3 - x^2 - x - 1:

* ``T`` -- Tribonacci numbers, seeds 0, 1, 1, each term the sum of the
  previous three.
* ``S`` -- the generalized Lucas companion, seeds 3, 1, 3, same
  recurrence.  S(n) is the power sum of the three roots of the cubic.
* ``C`` -- the minor-sum sequence, seeds 3, -1, -1, with recurrence
  C(n) = -C(n-1) - C(n-2) + C(n-3).  C(n) is the power sum of the
  pairwise root products.

``RECURRENCES`` holds each sequence once, as a ``Recurrence`` of
coefficients and seeds (C's read off S's, as C(n) = S(-n)), whose passes
the identity sweeps also read (``memo``; fault injection swaps the seeds).
``T_FORMS`` holds the T-forms of S and C once, as formula texts that
``s_from_t``, ``c_from_t`` and the identity statements compile, and
``T_FROM_S`` the S-form of T.

A term a(n), n >= 0, is x^n modulo the cubic: an O(log n) ladder of
squarings (Fiduccia's method), each of five big squarings.  A negative
index reads the sequence backwards (``Recurrence.reversed``), integral as
c3 is +-1.  A single term is the first value of the window a range starts
from (``Recurrence.window``).  Every linear pass -- range rows, identity
sweeps, printed ranges and expansions -- is one generator compiled per
coefficient tuple (``_pass``) in plain operators, so its arithmetic is its
operands': int, or Decimal, where a printed row costs O(digits) and
CPython's int-to-str is quadratic.  Only compiled passes outlive a call.
"""
from __future__ import annotations

import decimal
import functools
import operator
import sys
from collections.abc import Callable, Iterable, Iterator, Sequence
from decimal import Decimal
from enum import Enum, unique
from itertools import islice
from typing import NamedTuple


@unique
class SequenceKind(Enum):
    """Selector for the three sequences; values are the CLI letters."""

    TRIBONACCI = "T"
    GENERALIZED_LUCAS = "S"
    MINOR_SUM = "C"

    @classmethod
    def from_string(cls, text: str) -> "SequenceKind":
        """Accept the single letters T/S/C or spelled-out names."""
        key = text.strip().upper().replace("-", "_")
        aliases = {
            "T": cls.TRIBONACCI,
            "TRIBONACCI": cls.TRIBONACCI,
            "S": cls.GENERALIZED_LUCAS,
            "LUCAS": cls.GENERALIZED_LUCAS,
            "GENERALIZED_LUCAS": cls.GENERALIZED_LUCAS,
            "C": cls.MINOR_SUM,
            "MINOR_SUM": cls.MINOR_SUM,
            "MINORSUM": cls.MINOR_SUM,
        }
        try:
            return aliases[key]
        except KeyError:
            raise ValueError(f"unknown sequence kind: {text!r} (expected T, S or C)") from None


@unique
class SForm(Enum):
    """The two linear combinations of T values that produce S(n)."""

    MINOR = "minor"
    OGF = "ogf"


@unique
class CForm(Enum):
    """The two quadratic combinations of T values that produce C(n)."""

    MINOR_EXPANSION = "minor-expansion"
    SQUARE = "square"


Coeffs = tuple[int, int, int]


def _square(coeffs: Coeffs, r: Coeffs) -> Coeffs:
    """r(x)^2 mod x^3 - c1*x^2 - c2*x - c3: five big squarings, then a fold.

    r(x)^2 = p0 + p1*x + ... + p4*x^4 is interpolated from p0 = r0^2,
    p4 = r2^2 and the squares of r(1), r(-1) and r(2); its divisions by 2
    and 6 are exact."""
    (c1, c2, c3), (r0, r1, r2) = coeffs, r
    p0, p4 = r0 * r0, r2 * r2
    plus, minus, two = r0 + r1 + r2, r0 - r1 + r2, r0 + 2 * r1 + 4 * r2
    plus, minus, two = plus * plus, minus * minus, two * two
    odd = (plus - minus) // 2  # p1 + p3
    p2 = (plus + minus) // 2 - p0 - p4
    p3 = (two - p0 - 4 * p2 - 16 * p4 - 2 * odd) // 6
    p1 = odd - p3
    p1, p2, p3 = p1 + c3 * p4, p2 + c2 * p4, p3 + c1 * p4  # x^4 = c1*x^3 + c2*x^2 + c3*x
    return p0 + c3 * p3, p1 + c2 * p3, p2 + c1 * p3  # x^3 = c1*x^2 + c2*x + c3


def _times_x(coeffs: Coeffs, r: Coeffs) -> Coeffs:
    """r(x)*x mod the cubic: a shift and a fold, no big products."""
    (c1, c2, c3), (r0, r1, r2) = coeffs, r
    return c3 * r2, r0 + c2 * r2, r1 + c1 * r2


def _power(coeffs: Coeffs, n: int) -> Coeffs:
    """(r0, r1, r2) with x^n = r0 + r1*x + r2*x^2 mod the cubic, for n >= 0,
    so that a(n) = r0*a(0) + r1*a(1) + r2*a(2).  Left-to-right binary on n."""
    r = (1, 0, 0)
    for bit in bin(n)[2:]:
        r = _square(coeffs, r)
        if bit == "1":
            r = _times_x(coeffs, r)
    return r


def _dot(r: Coeffs, seeds: Coeffs) -> int:
    return r[0] * seeds[0] + r[1] * seeds[1] + r[2] * seeds[2]


# Exact decimal arithmetic: integer sums and small multiples never round,
# and any inexact step would raise.  The three callers that build decimal
# rows (``range_text`` here, ``tribomatrix.range_text`` and
# ``genfunc.expand_text``) build their whole list in it, so Decimal operators
# read it; no generator enters it, as a context entered in a generator would
# leak to its caller between yields.
_EXACT = decimal.Context(
    prec=decimal.MAX_PREC, rounding=decimal.ROUND_HALF_EVEN,
    Emax=decimal.MAX_EMAX, Emin=decimal.MIN_EMIN,
    traps=[decimal.Inexact, decimal.Rounded, decimal.InvalidOperation, decimal.Overflow],
)


def _pairwise(xs: list[str]) -> str:
    """xs summed pairwise, log2(len(xs)) deep, within the parser's nesting limit."""
    while len(xs) > 1:
        xs = [f"({a} + {b})" for a, b in zip(xs[::2], xs[1::2])] + xs[len(xs) - len(xs) % 2:]
    return xs[0]


def _linear(coeffs: Iterable[int], names: Iterable[str]) -> str:
    """Source of the sum of coeffs[k]*names[k] in plain operators: a name of
    coefficient +-1 is added or subtracted, one of 0 left out, and only the
    others are multiplied; the sums nest pairwise."""
    plus, minus = [], []
    for c, x in zip(map(operator.index, coeffs), names):
        if c:
            (plus if c > 0 else minus).append(x if abs(c) == 1 else f"{abs(c)} * {x}")
    step = _pairwise(plus or ["0"])
    return f"({step} - {_pairwise(minus)})" if minus else step


@functools.lru_cache(maxsize=256)
def _pass(coeffs: tuple[int, ...]) -> Callable[..., Iterator]:
    """Generator function: from a window a(n), ..., a(n+d-1), d = len(coeffs),
    yield a(n), a(n+1), ... without end, each later a(k) = coeffs[0]*a(k-1)
    + ... + coeffs[d-1]*a(k-d) as one expression that adds or subtracts a
    neighbour of coefficient +-1, leaves out one of 0 and multiplies only by
    the others, its sums nested pairwise.  Its operators follow the window's
    type: int, or Decimal in the caller's context (``_EXACT``).  At most 256
    are cached, as ``expand --num/--den`` brings coefficients from outside."""
    names = [f"x{k}" for k in range(len(coeffs))]  # x0 holds a(k-d), the last a(k-1)
    step = _linear(coeffs, reversed(names))
    window = ", ".join(names)
    source = (f"def _pass({window}):\n    yield from ({window},)[:-1]\n    while True:\n"
              f"        yield {names[-1]}\n        {window} = {', '.join([*names[1:], step])}\n")
    namespace: dict[str, Callable[..., Iterator]] = {}
    exec(source, {}, namespace)
    return namespace["_pass"]


class _RecurrenceFields(NamedTuple):
    coeffs: Coeffs
    seeds: Coeffs


class Recurrence(_RecurrenceFields):
    """a(n) = c1*a(n-1) + c2*a(n-2) + c3*a(n-3) for coeffs (c1, c2, c3), from
    seeds (a(0), a(1), a(2)).  c3 must be 1 or -1, so ``reversed`` is integral.
    An immutable named tuple; ``_make`` (and so ``_replace``) runs the check too."""

    __slots__ = ()

    def __new__(cls, coeffs: Coeffs, seeds: Coeffs) -> "Recurrence":
        if abs(coeffs[2]) != 1:
            raise ValueError(f"c3 must be 1 or -1, got coefficients {coeffs}")
        return super().__new__(cls, coeffs, seeds)

    @classmethod
    def _make(cls, iterable) -> "Recurrence":
        return cls(*iterable)

    @property
    def reversed(self) -> "Recurrence":
        """b(k) = a(2 - k), read for every negative index: as 1/c3 == c3, b has
        coefficients (-c3*c2, -c3*c1, c3) and the seeds reversed."""
        c1, c2, c3 = self.coeffs
        return Recurrence((-c3 * c2, -c3 * c1, c3), self.seeds[::-1])

    def at(self, n: int) -> int:
        """a(n) at any integer n: the first value of ``window``."""
        return self.window(n)[0]

    def window(self, lo: int) -> Coeffs:
        """a(lo), a(lo+1), a(lo+2) from one ladder call and two shifts."""
        if lo < 0:
            return self.reversed.window(-lo)[::-1]
        r0 = _power(self.coeffs, lo)
        r1 = _times_x(self.coeffs, r0)
        r2 = _times_x(self.coeffs, r1)
        return _dot(r0, self.seeds), _dot(r1, self.seeds), _dot(r2, self.seeds)

    def terms(self, lo: int) -> Iterator[int]:
        """a(lo), a(lo+1), ... without end: the ladder's window, then the int pass."""
        return _pass(self.coeffs)(*self.window(lo))

    def memo(self) -> Callable[[int], int]:
        """Bi-infinite evaluator that holds no table: a(n) for n >= 0 continues
        the int pass a(0), a(1), ... of the seeds, and for n < 0 the pass
        a(2), a(1), a(0), a(-1), ... of ``reversed``; a pass asked below its
        position restarts from the seeds.  Asked going out from zero
        (ascending for n >= 0, descending for n < 0), each pass runs once
        and holds only its window and its last value."""

        def walk(r: Recurrence) -> Callable[[int], int]:
            k, value, rest = -1, 0, _pass(r.coeffs)(*r.seeds)

            def at(j: int) -> int:  # the j-th value of r's pass
                nonlocal k, value, rest
                if j != k:
                    if j < k:
                        k, rest = -1, _pass(r.coeffs)(*r.seeds)
                    value = next(rest) if j == k + 1 else next(islice(rest, j - k - 1, None))
                    k = j
                return value

            return at

        ahead, behind = walk(self), walk(self.reversed)
        return lambda n: ahead(n) if n >= 0 else behind(2 - n)


# The one recurrence table of the package.
RECURRENCES: dict[SequenceKind, Recurrence] = {
    SequenceKind.TRIBONACCI: Recurrence((1, 1, 1), (0, 1, 1)),
    SequenceKind.GENERALIZED_LUCAS: Recurrence((1, 1, 1), (3, 1, 3)),
}
# C(n) = S(-n): S read backwards, from S(0), S(-1), S(-2)
RECURRENCES[SequenceKind.MINOR_SUM] = Recurrence(
    RECURRENCES[SequenceKind.GENERALIZED_LUCAS].reversed.coeffs,
    RECURRENCES[SequenceKind.GENERALIZED_LUCAS].reversed.window(2))

# C(2k) satisfies an order-3 recurrence of its own in the half index k.
_C_EVEN = Recurrence((-1, -3, 1), (3, -1, -5))

# S(n) and C(n) as combinations of T values, each the text of one formula
# in T and n: the paper's T-forms, evaluated by s_from_t and c_from_t and
# compiled into the statements of the S_T_FORMS / C_T_FORMS identities.
T_FORMS: dict[SForm | CForm, str] = {
    SForm.MINOR: "T(n) + 2*T(n-1) + 3*T(n-2)",
    SForm.OGF: "3*T(n+1) - 2*T(n) - T(n-1)",
    CForm.MINOR_EXPANSION: "2*T(n+1)*T(n-2) + T(n+1)*T(n-1) - T(n)**2"
                           " - 2*T(n)*T(n-1) - T(n-1)*T(n-3) + T(n-2)**2",
    CForm.SQUARE: "-T(n)**2 + 2*T(n-1)**2 + 3*T(n-2)**2"
                  " - 2*T(n)*T(n-1) + 2*T(n)*T(n-2) + 4*T(n-1)*T(n-2)",
}

T_FROM_S = (22, (5, 1, 2))  # 22*T(n) = 5*S(n-1) + S(n) + 2*S(n+1) at every n: analytic's T


def tribonacci(n: int) -> int:
    """T(n) for any integer n (T(0)=0, T(1)=1, T(2)=1)."""
    return term(SequenceKind.TRIBONACCI, n)


def s_lucas(n: int) -> int:
    """S(n) for any integer n (S(0)=3, S(1)=1, S(2)=3)."""
    return term(SequenceKind.GENERALIZED_LUCAS, n)


def c_seq(n: int) -> int:
    """C(n) for any integer n (C(0)=3, C(1)=-1, C(2)=-1)."""
    return term(SequenceKind.MINOR_SUM, n)


def c_even(k: int) -> int:
    """C(2k) through the dedicated even-index recurrence.

    C(2k) = -C(2k-2) - 3*C(2k-4) + C(2k-6) with seeds C(0)=3, C(2)=-1,
    C(4)=-5, indexed by the half index k, any integer.
    """
    return _C_EVEN.at(k)


def term(kind: SequenceKind, n: int) -> int:
    """Single term of the selected sequence at any integer index."""
    return RECURRENCES[kind].at(n)


def sequence_range(kind: SequenceKind, lo: int, hi: int) -> list[tuple[int, int]]:
    """(n, value) pairs for lo..hi inclusive: one ladder, then one linear pass."""
    if lo > hi:
        raise ValueError(f"empty range: lo={lo} exceeds hi={hi}")
    return list(zip(range(lo, hi + 1), islice(RECURRENCES[kind].terms(lo), hi - lo + 1)))


def tribonacci_window(n: int) -> Callable[[int], int]:
    """k -> T(k) for k in n-3..n+1, read from one range pass."""
    return dict(sequence_range(SequenceKind.TRIBONACCI, n - 3, n + 1)).__getitem__


# Sizes known before any arithmetic.  alpha = 1.839... is the cubic's real
# root and beta, gamma = conj(beta) its pair, |beta|^2 = 1/alpha.  For m >= 0,
# S(m) = alpha^m + 2*Re(beta^m) lies within 2 of alpha^m, and S(-m) =
# 2*Re(beta^-m) + alpha^-m swings with amplitude 2*alpha^(m/2) as m*theta
# turns, theta = arg(beta); T weighs each root r by (5/r + 1 + 2*r)/22
# (T_FROM_S), and C(n) = S(-n).  The rationals below are numerators over
# _ONE; the test suite checks each against mpmath at 50 digits.
_BITS_PER_100 = 88  # log2(alpha) = 0.8791... < 0.88
_ONE = 10**12
_LOG10_ALPHA = (264_649_443_484, 264_649_443_485)  # log10(alpha) = 0.26464944348425...
_FAR = 64  # the least |m| at which the low bounds hold
_PAIR_SHARE = 822  # thousandths: sin(theta) = 0.82225... > 0.822


class _Weights(NamedTuple):
    """log10 bounds on one sequence's leading factors, numerators over _ONE:
    ``alpha``, below that of alpha's weight, 1 for S and 0.3362... for T,
    less one unit for the terms dropped, each below 10^-16 of it at
    m >= _FAR; ``pair``, below that of _PAIR_SHARE times the pair's
    amplitude, 2 for S and 0.5199... for T, less one unit likewise; and
    ``high``, above that of K, where |a(m)| <= K*alpha^m for m >= 0 and
    K*alpha^(-m/2) for m < 0 at every m: 3 for S, 1 for T."""

    alpha: int
    pair: int
    high: int


_WEIGHTS = {
    SequenceKind.GENERALIZED_LUCAS: _Weights(-1, 215_901_813_203, 477_121_254_720),
    SequenceKind.TRIBONACCI: _Weights(-473_365_971_608, -369_141_539_237, 0),
}


def _alpha_bits(k: int) -> int:
    """floor(0.88*k) >= k*log2(alpha), k >= 0: the bits of alpha^k before
    the point, at most, the one bit bound of Binet's working sizes and of
    a sweep's value widths."""
    return _BITS_PER_100 * k // 100


def _growth(kind: SequenceKind, n: int) -> tuple[_Weights, int]:
    """The weights of S or T and the index m at which they read a(n): C(n) = S(-n)."""
    if kind is SequenceKind.MINOR_SUM:
        return _WEIGHTS[SequenceKind.GENERALIZED_LUCAS], -n
    return _WEIGHTS[kind], n


def _at_most(weights: _Weights, first: int, last: int, step: int, pair: bool) -> int:
    """Decimal digits of |a(m)| at most, summed over |m| = first, first +
    step, ..., last: log10(K) + |m|*log10(alpha), halved on the pair's side,
    rounded down, plus one, each; a sum of floors is at most the floor of
    the sum, so the closed form bounds it."""
    count, scale = (last - first) // step + 1, 2 if pair else 1
    return ((first + last) * count // 2 * _LOG10_ALPHA[1] + count * scale * weights.high
            ) // (scale * _ONE) + count


def digit_bounds(kind: SequenceKind, n: int, last: int | None = None,
                 step: int = 1) -> tuple[int, int]:
    """(low, high) with low <= the decimal digits of |a(n)| <= high, in
    O(1) integer arithmetic at any n.

    With ``last``, for the rows a(n), a(n + step), ..., up to a(last), step
    1 or 2: some row has at least low digits, and all of them together at
    most high; (0, 0) if there are none.  low is 0 where no bound is
    certain: at |m| < _FAR, and for a single value where the pair dominates
    (m < 0; n < 0 for S and T, n > 0 for C), as its phase may bring it near
    0.  Three rows there, n*theta apart with step 1 and 2*theta with step 2,
    leave no gap above 69.38 degrees between their phases mod pi, so the
    largest has at least sin(theta) > 0.822 of the amplitude at the third
    largest |m|.
    """
    last = n if last is None else last - (last - n) % step
    if n > last:
        return 0, 0
    weights, m = _growth(kind, n)
    m_lo, m_hi = sorted((m, _growth(kind, last)[1]))
    start = m_lo if m_lo >= 0 else m_lo % step  # the first row at m >= 0
    low = high = 0
    if start <= m_hi:
        if m_hi >= _FAR:
            low = (m_hi * _LOG10_ALPHA[0] + weights.alpha) // _ONE + 1
        high = _at_most(weights, start, m_hi, step, False)
    end = m_hi if m_hi < 0 else start - step  # the last row at m < 0
    if end >= m_lo:
        third = -m_lo - 2 * step
        if third >= max(_FAR, -end):
            low = max(low, (third * _LOG10_ALPHA[0] + 2 * weights.pair) // (2 * _ONE) + 1)
        high += _at_most(weights, -end, -m_lo, step, True)
    return low, high


_STR_LIMIT_MESSAGE = (
    "Exceeds the limit ({} digits) for integer string conversion; "
    "use sys.set_int_max_str_digits() to increase the limit"
)


def _str_limit() -> int:
    """The digits str(int) prints at most, 0 for no limit (none before 3.10.7)."""
    return getattr(sys, "get_int_max_str_digits", lambda: 0)()


def _decimal_texts(values: Iterable[Decimal]) -> Iterator[str]:
    """Text of each exact decimal integer, equal to str() of the int, in
    O(digits) each; past the digit limit of str(int) (sign not counted) it
    raises str(int)'s ValueError, with its message, at the value it meets."""
    limit = _str_limit()
    for value in values:
        if limit and value.adjusted() >= limit:
            raise ValueError(_STR_LIMIT_MESSAGE.format(limit))
        yield _EXACT.to_sci_string(value)


def _text_terms(coeffs: tuple[int, ...], window: Sequence[int]) -> Iterator[str]:
    """Decimal text of the window values, then of each later term
    a(n) = coeffs[0]*a(n-1) + ... + coeffs[d-1]*a(n-d), d = len(coeffs) <= len(window),
    without end.

    Window values go through str(int) one at a time, as they are asked for;
    later terms run the pass over Decimals, O(digits) each to compute and to
    print (``_decimal_texts``), so the caller asks for them in ``_EXACT``.
    """
    texts = []
    for text in map(str, window):
        yield text
        texts.append(text)
    d = len(coeffs)
    yield from _decimal_texts(islice(_pass(coeffs)(*map(Decimal, texts[-d:])), d, None))


def range_text(kind: SequenceKind, lo: int, hi: int) -> list[str]:
    """Decimal text of a(lo)..a(hi), equal to str() of each value of
    ``sequence_range``: one ladder call, then one decimal pass in ``_EXACT``."""
    if lo > hi:
        raise ValueError(f"empty range: lo={lo} exceeds hi={hi}")
    recurrence = RECURRENCES[kind]
    with decimal.localcontext(_EXACT):
        return list(islice(_text_terms(recurrence.coeffs, recurrence.window(lo)), hi - lo + 1))


@functools.cache
def _t_form(text: str) -> Callable[[Callable[[int], int], int], int]:
    """(T, n) -> the value of one ``T_FORMS`` text, compiled once per text."""
    return eval(compile(f"lambda T, n: {text}", text, "eval"), {"__builtins__": {}})


def s_from_t(n: int, form: SForm) -> int:
    """S(n) as a linear combination of Tribonacci numbers."""
    return _t_form(T_FORMS[SForm(form)])(tribonacci_window(n), n)


def c_from_t(n: int, form: CForm) -> int:
    """C(n) as a quadratic combination of Tribonacci numbers."""
    return _t_form(T_FORMS[CForm(form)])(tribonacci_window(n), n)
