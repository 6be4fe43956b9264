from __future__ import annotations

import gc
import weakref

import pytest

from tribokit.identities import (
    SequenceBackend,
    boundary_consistency,
    registry,
    verify,
    verify_all,
)
from tribokit.seqcore import c_seq, s_lucas

EXPECTED_NAMES = [
    "REC_C", "REC_CEVEN", "PROD_GE", "PROD_LT", "CONS_1", "CONS_2", "CONS_3",
    "SQUARE", "CUBE", "QUARTIC_A", "QUARTIC_B", "CN2", "S_T_FORMS", "C_T_FORMS",
]


def test_registry_has_the_fourteen_records():
    records = registry()
    assert [r.name for r in records] == EXPECTED_NAMES
    assert all(r.arity in (1, 2) for r in records)
    assert {r.name for r in records if r.arity == 2} == {"PROD_GE", "PROD_LT", "CONS_3"}


def test_every_record_evaluates_at_a_small_domain_point():
    for record in registry():
        point = None
        if record.arity == 1:
            for n in range(0, 5):
                if record.domain(n):
                    point = (n,)
                    break
        else:
            for n in range(0, 5):
                for m in range(0, 5):
                    if record.domain(n, m):
                        point = (n, m)
                        break
                if point:
                    break
        assert point is not None, record.name
        assert record.lhs(*point) == record.rhs(*point), record.name


def test_product_domains_partition_the_quadrant():
    records = {r.name: r for r in registry()}
    ge, lt = records["PROD_GE"], records["PROD_LT"]
    for n in range(0, 21):
        for m in range(0, 21):
            assert ge.domain(n, m) != lt.domain(n, m)


def test_backend_memoization_is_bi_infinite():
    backend = SequenceBackend.default()
    assert [backend.t(n) for n in range(-3, 4)] == [-1, 1, 0, 0, 1, 1, 2]
    assert backend.s(-3) == 5
    assert backend.c(-2) == 3
    assert backend.s(40) == s_lucas(40)
    assert backend.c(-40) == c_seq(-40)


def test_backend_memo_is_freed_without_the_garbage_collector():
    enabled = gc.isenabled()
    gc.disable()
    try:
        backend = SequenceBackend.default()
        assert all(report.ok for report in verify_all((-20, 20), backend=backend))
        memos = [weakref.ref(backend.t), weakref.ref(backend.s), weakref.ref(backend.c)]
        del backend
        assert [memo() for memo in memos] == [None, None, None]
    finally:
        if enabled:
            gc.enable()


def test_verify_cn2():
    report = verify("CN2", (0, 50))
    assert report.cases_checked == 51
    assert report.counterexamples == ()
    assert report.ok


def test_verify_square_single_case():
    report = verify("SQUARE", (0, 0))
    assert report.cases_checked == 1
    assert report.ok


def test_verify_prod_ge_case_count():
    report = verify("PROD_GE", (0, 30))
    assert report.cases_checked == 496  # pairs with 0 <= m <= n <= 30
    assert report.ok


def test_verify_unknown_identity():
    with pytest.raises(KeyError):
        verify("NOPE", (0, 10))


def test_verify_all_everything_holds():
    reports = verify_all((0, 60))
    assert [r.identity for r in reports] == EXPECTED_NAMES
    assert all(r.ok for r in reports)
    assert all(r.cases_checked > 0 for r in reports)


def test_verify_all_is_deterministic():
    assert verify_all((0, 30)) == verify_all((0, 30))


def test_negative_bounds_for_all_n_records():
    for name in ("REC_C", "REC_CEVEN", "S_T_FORMS", "C_T_FORMS"):
        assert verify(name, (-40, 40)).ok, name


def test_prod_ge_reduces_to_square_at_m_zero():
    records = {r.name: r for r in registry()}
    ge, square = records["PROD_GE"], records["SQUARE"]
    for n in range(0, 101):
        assert ge.lhs(n, 0) == square.lhs(n)
        assert ge.rhs(n, 0) == square.rhs(n)


def test_quartic_right_sides_agree():
    records = {r.name: r for r in registry()}
    a, b = records["QUARTIC_A"], records["QUARTIC_B"]
    for n in range(0, 101):
        assert a.rhs(n) == b.rhs(n)


def test_cons3_extends_to_small_m_through_negative_indices():
    # the registry restricts CONS_3 to m >= 2; the same formula holds for
    # m in {0, 1} once S at negative indices is read through the reversed
    # recurrence
    backend = SequenceBackend.default()
    s, c = backend.s, backend.c
    for n in range(0, 31):
        for m in (0, 1):
            lhs = s(n) * s(n * m)
            rhs = s(n * (m + 1)) + s(n * (m - 1)) * c(n) - s(n * (m - 2))
            assert lhs == rhs, (n, m)


def test_boundary_consistency():
    report = boundary_consistency()
    assert report.cases_checked == 51
    assert report.ok
    backend = SequenceBackend.default()
    s, c = backend.s, backend.c
    # n = m = 1: both right sides evaluate to S(1)*S(2) = 3
    assert s(3) + s(1) * c(1) - c(0) == 3
    assert s(3) + s(1) * c(1) - s(0) == 3


def test_injected_fault_in_c_is_caught_by_cn2():
    backend = SequenceBackend.with_seeds(c_seeds=(3, 1, -1))  # C(1) flipped to +1
    report = verify("CN2", (0, 30), backend=backend)
    assert not report.ok
    point, lhs, rhs = report.counterexamples[0]
    assert lhs != rhs


@pytest.mark.parametrize("kind,position", [
    (kind, position) for kind in ("t", "s", "c") for position in range(3)
])
def test_any_single_seed_fault_is_caught(kind, position):
    seeds = {"t": [0, 1, 1], "s": [3, 1, 3], "c": [3, -1, -1]}
    seeds[kind][position] += 1
    backend = SequenceBackend.with_seeds(
        t_seeds=tuple(seeds["t"]), s_seeds=tuple(seeds["s"]), c_seeds=tuple(seeds["c"])
    )
    reports = verify_all((0, 25), backend=backend)
    assert any(not r.ok for r in reports), f"{kind}[{position}] mutation went unnoticed"


def test_faulty_backend_still_satisfies_its_own_recurrence():
    # the defining recurrences hold for any seeds; coupling identities are
    # what make the catalogue fault-sensitive
    backend = SequenceBackend.with_seeds(c_seeds=(3, 1, -1))
    assert verify("REC_C", (0, 30), backend=backend).ok
    assert not verify_all((0, 30), backend=backend)[11].ok  # CN2
