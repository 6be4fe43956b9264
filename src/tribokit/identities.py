"""Machine-checkable identity catalogue for the S/C/T sequences.

Every identity is a data record: a name, an index arity, a domain
predicate, and a pair of exact integer evaluators.  ``verify`` sweeps a
record over inclusive index bounds and reports every tuple where the
two sides differ, so a claim is either confirmed over the stated range
or refuted with concrete counterexamples.  Nothing is ever compared in
floating point.

Records evaluate through a SequenceBackend, a triple of pure
int -> int functions for T, S and C.  The default backend runs the
canonical seeds with per-backend memoization; alternative seeds can be
injected to prove the checks are actually sensitive to faults.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

Bounds = tuple[int, int]
Counterexample = tuple[tuple[int, ...], int, int]

_CANONICAL_SEEDS = {
    "t": ((1, 1, 1), (0, 1, 1)),
    "s": ((1, 1, 1), (3, 1, 3)),
    "c": ((-1, -1, 1), (3, -1, -1)),
}


def _memo_sequence(
    coeffs: tuple[int, int, int], seeds: tuple[int, int, int]
) -> Callable[[int], int]:
    """Bi-infinite order-3 recurrence with extend-on-demand caching."""
    c1, c2, c3 = coeffs
    fwd: list[int] = list(seeds)
    bwd: list[int] = []  # bwd[k] holds the term at index -(k+1)

    def at(n: int) -> int:
        if n >= 0:
            while len(fwd) <= n:
                fwd.append(c1 * fwd[-1] + c2 * fwd[-2] + c3 * fwd[-3])
            return fwd[n]
        while len(bwd) < -n:
            # The three terms above the next index, -len(bwd) - 1, read from
            # the lists: calling ``at`` here would tie each memo into a
            # reference cycle that only the cyclic garbage collector frees.
            top = -len(bwd)
            up1, up2, up3 = (fwd[i] if i >= 0 else bwd[-i - 1] for i in range(top, top + 3))
            bwd.append(c3 * (up3 - c1 * up2 - c2 * up1))
        return bwd[-n - 1]

    return at


@dataclass(frozen=True)
class SequenceBackend:
    """The three sequence evaluators the identity records read from."""

    t: Callable[[int], int]
    s: Callable[[int], int]
    c: Callable[[int], int]

    @classmethod
    def with_seeds(
        cls,
        t_seeds: tuple[int, int, int] = (0, 1, 1),
        s_seeds: tuple[int, int, int] = (3, 1, 3),
        c_seeds: tuple[int, int, int] = (3, -1, -1),
    ) -> "SequenceBackend":
        """Backend over possibly mutated seed triples (fault injection)."""
        return cls(
            t=_memo_sequence(_CANONICAL_SEEDS["t"][0], t_seeds),
            s=_memo_sequence(_CANONICAL_SEEDS["s"][0], s_seeds),
            c=_memo_sequence(_CANONICAL_SEEDS["c"][0], c_seeds),
        )

    @classmethod
    def default(cls) -> "SequenceBackend":
        return cls.with_seeds()


@dataclass(frozen=True)
class IdentityRecord:
    name: str
    arity: int
    statement: str
    domain: Callable[..., bool] = field(repr=False)
    lhs: Callable[..., int] = field(repr=False)
    rhs: Callable[..., int] = field(repr=False)


@dataclass(frozen=True)
class VerificationReport:
    identity: str
    bounds: str
    cases_checked: int
    counterexamples: tuple[Counterexample, ...]

    @property
    def ok(self) -> bool:
        return not self.counterexamples


def registry(backend: SequenceBackend | None = None) -> list[IdentityRecord]:
    """The 14 identity records, evaluated over ``backend``."""
    b = backend if backend is not None else SequenceBackend.default()
    t, s, c = b.t, b.s, b.c

    def s_minor(n: int) -> int:
        return t(n) + 2 * t(n - 1) + 3 * t(n - 2)

    def s_ogf(n: int) -> int:
        return 3 * t(n + 1) - 2 * t(n) - t(n - 1)

    def c_minor_expansion(n: int) -> int:
        return (
            2 * t(n + 1) * t(n - 2)
            + t(n + 1) * t(n - 1)
            - t(n) ** 2
            - 2 * t(n) * t(n - 1)
            - t(n - 1) * t(n - 3)
            + t(n - 2) ** 2
        )

    def c_square(n: int) -> int:
        return (
            -t(n) ** 2
            + 2 * t(n - 1) ** 2
            + 3 * t(n - 2) ** 2
            - 2 * t(n) * t(n - 1)
            + 2 * t(n) * t(n - 2)
            + 4 * t(n - 1) * t(n - 2)
        )

    def s_forms_residual(n: int) -> int:
        # zero exactly when both linear T-forms reproduce S(n)
        return (s_minor(n) - s(n)) ** 2 + (s_ogf(n) - s(n)) ** 2

    def c_forms_residual(n: int) -> int:
        return (c_minor_expansion(n) - c(n)) ** 2 + (c_square(n) - c(n)) ** 2

    return [
        IdentityRecord(
            "REC_C", 1, "C(n) = -C(n-1) - C(n-2) + C(n-3)",
            lambda n: True,
            lambda n: c(n),
            lambda n: -c(n - 1) - c(n - 2) + c(n - 3),
        ),
        IdentityRecord(
            "REC_CEVEN", 1, "C(2n) = -C(2n-2) - 3*C(2n-4) + C(2n-6)",
            lambda n: True,
            lambda n: c(2 * n),
            lambda n: -c(2 * n - 2) - 3 * c(2 * n - 4) + c(2 * n - 6),
        ),
        IdentityRecord(
            "PROD_GE", 2,
            "S(n)*S(n+m) = S(2n+m) + S(m)*C(n) - C(n-m)  [n >= m >= 0]",
            lambda n, m: n >= m >= 0,
            lambda n, m: s(n) * s(n + m),
            lambda n, m: s(2 * n + m) + s(m) * c(n) - c(n - m),
        ),
        IdentityRecord(
            "PROD_LT", 2,
            "S(n)*S(n+m) = S(2n+m) + S(m)*C(n) - S(m-n)  [0 <= n < m]",
            lambda n, m: 0 <= n < m,
            lambda n, m: s(n) * s(n + m),
            lambda n, m: s(2 * n + m) + s(m) * c(n) - s(m - n),
        ),
        IdentityRecord(
            "CONS_1", 1, "S(n)*S(n-1) = S(2n-1) + C(n-1) - C(n-2)  [n >= 1]",
            lambda n: n >= 1,
            lambda n: s(n) * s(n - 1),
            lambda n: s(2 * n - 1) + c(n - 1) - c(n - 2),
        ),
        IdentityRecord(
            "CONS_2", 1, "S(n)*S(2n) = S(3n) + S(n)*C(n) - 3  [n >= 0]",
            lambda n: n >= 0,
            lambda n: s(n) * s(2 * n),
            lambda n: s(3 * n) + s(n) * c(n) - 3,
        ),
        IdentityRecord(
            "CONS_3", 2,
            "S(n)*S(n*m) = S(n*(m+1)) + S(n*(m-1))*C(n) - S(n*(m-2))  [n >= 0, m >= 2]",
            lambda n, m: n >= 0 and m >= 2,
            lambda n, m: s(n) * s(n * m),
            lambda n, m: s(n * (m + 1)) + s(n * (m - 1)) * c(n) - s(n * (m - 2)),
        ),
        IdentityRecord(
            "SQUARE", 1, "S(n)^2 = S(2n) + 2*C(n)  [n >= 0]",
            lambda n: n >= 0,
            lambda n: s(n) ** 2,
            lambda n: s(2 * n) + 2 * c(n),
        ),
        IdentityRecord(
            "CUBE", 1, "S(n)^3 = S(3n) + 3*S(n)*C(n) - 3  [n >= 0]",
            lambda n: n >= 0,
            lambda n: s(n) ** 3,
            lambda n: s(3 * n) + 3 * s(n) * c(n) - 3,
        ),
        IdentityRecord(
            "QUARTIC_A", 1,
            "S(n)^4 = S(4n) + 2*C(2n) + 4*C(n)^2 + 4*S(2n)*C(n)  [n >= 0]",
            lambda n: n >= 0,
            lambda n: s(n) ** 4,
            lambda n: s(4 * n) + 2 * c(2 * n) + 4 * c(n) ** 2 + 4 * s(2 * n) * c(n),
        ),
        IdentityRecord(
            "QUARTIC_B", 1,
            "S(n)^4 = S(4n) - 4*S(n) + 4*S(2n)*C(n) + 6*C(n)^2  [n >= 0]",
            lambda n: n >= 0,
            lambda n: s(n) ** 4,
            lambda n: s(4 * n) - 4 * s(n) + 4 * s(2 * n) * c(n) + 6 * c(n) ** 2,
        ),
        IdentityRecord(
            "CN2", 1, "2*S(n) = C(n)^2 - C(2n)  [n >= 0]",
            lambda n: n >= 0,
            lambda n: 2 * s(n),
            lambda n: c(n) ** 2 - c(2 * n),
        ),
        IdentityRecord(
            "S_T_FORMS", 1,
            "both linear T-forms of S(n) equal S(n) (zero squared residual)",
            lambda n: True,
            s_forms_residual,
            lambda n: 0,
        ),
        IdentityRecord(
            "C_T_FORMS", 1,
            "both quadratic T-forms of C(n) equal C(n) (zero squared residual)",
            lambda n: True,
            c_forms_residual,
            lambda n: 0,
        ),
    ]


def _find(records: list[IdentityRecord], name: str) -> IdentityRecord:
    for record in records:
        if record.name == name:
            return record
    known = ", ".join(r.name for r in records)
    raise KeyError(f"no identity named {name!r}; known: {known}")


def _bounds_text(arity: int, n_bounds: Bounds, m_bounds: Bounds) -> str:
    if arity == 1:
        return f"n in [{n_bounds[0]}, {n_bounds[1]}]"
    return (
        f"n in [{n_bounds[0]}, {n_bounds[1]}], "
        f"m in [{m_bounds[0]}, {m_bounds[1]}]"
    )


def _run(record: IdentityRecord, n_bounds: Bounds, m_bounds: Bounds) -> VerificationReport:
    points: list[tuple[int, ...]]
    if record.arity == 1:
        points = [(n,) for n in range(n_bounds[0], n_bounds[1] + 1)]
    else:
        points = [
            (n, m)
            for n in range(n_bounds[0], n_bounds[1] + 1)
            for m in range(m_bounds[0], m_bounds[1] + 1)
        ]
    cases = 0
    bad: list[Counterexample] = []
    for point in points:
        if not record.domain(*point):
            continue
        cases += 1
        left, right = record.lhs(*point), record.rhs(*point)
        if left != right:
            bad.append((point, left, right))
    return VerificationReport(
        identity=record.name,
        bounds=_bounds_text(record.arity, n_bounds, m_bounds),
        cases_checked=cases,
        counterexamples=tuple(bad),
    )


def verify(
    name: str,
    n_bounds: Bounds,
    m_bounds: Bounds | None = None,
    backend: SequenceBackend | None = None,
) -> VerificationReport:
    """Check one identity on every in-domain tuple within the bounds."""
    records = registry(backend)
    return _run(_find(records, name), n_bounds, m_bounds or n_bounds)


def verify_all(
    n_bounds: Bounds,
    m_bounds: Bounds | None = None,
    backend: SequenceBackend | None = None,
) -> list[VerificationReport]:
    """Every registry record over shared bounds, in registry order."""
    records = registry(backend)
    return [_run(record, n_bounds, m_bounds or n_bounds) for record in records]


def boundary_consistency(
    bounds: Bounds = (0, 50), backend: SequenceBackend | None = None
) -> VerificationReport:
    """At n = m the two product-identity right sides must coincide.

    PROD_GE subtracts C(0) and PROD_LT (extended to n = m) subtracts
    S(0); both equal 3, so the diagonal has a single consistent value.
    """
    b = backend if backend is not None else SequenceBackend.default()
    s, c = b.s, b.c
    bad: list[Counterexample] = []
    for n in range(bounds[0], bounds[1] + 1):
        common = s(3 * n) + s(n) * c(n)
        ge_side = common - c(0)
        lt_side = common - s(0)
        if ge_side != lt_side:
            bad.append(((n, n), ge_side, lt_side))
    return VerificationReport(
        identity="BOUNDARY",
        bounds=f"n = m in [{bounds[0]}, {bounds[1]}]",
        cases_checked=bounds[1] - bounds[0] + 1,
        counterexamples=tuple(bad),
    )
