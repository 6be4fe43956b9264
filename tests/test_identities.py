from __future__ import annotations

import gc
import runpy
import weakref
from itertools import product
from pathlib import Path

import pytest

from tribokit import identities
from tribokit.identities import (
    SequenceBackend,
    boundary_consistency,
    registry,
    verify,
    verify_all,
)
from tribokit import seqcore
from tribokit.seqcore import CForm, SequenceKind, SForm, c_seq, s_lucas, term

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
    for kind, memo in zip(SequenceKind, (backend.t, backend.s, backend.c)):
        assert [memo(n) for n in range(-50, 51)] == [term(kind, n) for n in range(-50, 51)]
    # each single-seed fault injection, as perfbench's certify workload makes them
    for kind, letter in zip(SequenceKind, "tsc"):
        for position, delta in product(range(3), (-2, -1, 1, 2)):
            recurrence = seqcore.RECURRENCES[kind]
            seeds = tuple(s + delta * (i == position) for i, s in enumerate(recurrence.seeds))
            memo = getattr(SequenceBackend.with_seeds(**{f"{letter}_seeds": seeds}), letter)
            mutated = seqcore.Recurrence(recurrence.coeffs, seeds)
            assert [memo(n) for n in range(-300, 301)] == [mutated.at(n) for n in range(-300, 301)]


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


@pytest.mark.parametrize(
    "make_backend",
    [lambda: None, lambda: SequenceBackend.with_seeds(s_seeds=(3, 1, 4))],
    ids=["default", "fault"],
)
def test_every_sweep_memo_dies_with_the_sweep_without_the_garbage_collector(
    make_backend, monkeypatch
):
    # a memo and its passes must form no reference cycle, or each sweep's
    # memos would wait for the cyclic collector, piling up between sweeps
    memo = seqcore.Recurrence.memo
    refs = []

    def recorded(self):
        at = memo(self)
        refs.append(weakref.ref(at))
        return at

    monkeypatch.setattr(seqcore.Recurrence, "memo", recorded)
    enabled = gc.isenabled()
    gc.disable()
    try:
        backend = make_backend()
        assert len(verify_all((0, 30), backend=backend)) == 14
        del backend
        assert len(refs) == 3
        assert [ref() for ref in refs] == [None, None, None]
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


@pytest.mark.parametrize("form,record", [
    (SForm.MINOR, "S_T_FORMS"),
    (SForm.OGF, "S_T_FORMS"),
    (CForm.MINOR_EXPANSION, "C_T_FORMS"),
    (CForm.SQUARE, "C_T_FORMS"),
])
def test_t_form_sweeps_check_the_forms_seqcore_runs(monkeypatch, form, record):
    # one wrong text in seqcore's T-form table must show in the sweep
    # over it, as well as in s_from_t / c_from_t
    from_t = seqcore.s_from_t if isinstance(form, SForm) else seqcore.c_from_t
    right = from_t(7, form)
    monkeypatch.setitem(seqcore.T_FORMS, form, seqcore.T_FORMS[form] + " + (n == 7)")
    assert from_t(7, form) == right + 1
    report = verify(record, (-20, 20))
    assert [point for point, _, _ in report.counterexamples] == [(7,)]


def test_every_record_is_its_compiled_statement():
    # all 14 statements compile, to the record's arity and to both its sides
    texts = {"S_T_FORMS": [seqcore.T_FORMS[f] for f in SForm],
             "C_T_FORMS": [seqcore.T_FORMS[f] for f in CForm]}
    backend = SequenceBackend.default()
    namespace = {"__builtins__": {}, "S": backend.s, "C": backend.c, "T": backend.t}
    for record in registry(backend):
        arity, code = identities._compile(record.statement)
        assert arity == record.arity, record.name
        domain, lhs, rhs = eval(code, namespace)
        box = list(product(*(range(lo, hi + 1) for lo, hi in ((-5, 5), (0, 5))[:arity])))
        points = [p for p in box if record.domain(*p)]
        assert points and points == [p for p in box if domain(*p)], record.name
        for point in points:
            assert (lhs(*point), rhs(*point)) == (record.lhs(*point), record.rhs(*point))
        assert all(text in record.statement for text in texts.get(record.name, []))
    assert sum(map(len, texts.values())) == len(seqcore.T_FORMS)


def test_statement_text_is_what_gets_checked(monkeypatch):
    # one sign flipped in CN2's statement must turn its sweep red
    flipped = [
        (name, statement.replace("- C(2n)", "+ C(2n)") if name == "CN2" else statement)
        for name, statement in identities.CATALOGUE
    ]
    assert flipped != list(identities.CATALOGUE)
    monkeypatch.setattr(identities, "CATALOGUE", tuple(flipped))
    report = verify("CN2", (0, 10))
    assert report.cases_checked == 11
    assert len(report.counterexamples) == 11


@pytest.mark.parametrize("statement", [
    "S(n).real = S(n)",                   # attribute
    "S(n) = S(n)[0]",                     # subscript
    "S(k) = S(k)  [k >= 0]",              # unknown name
    "len(n) = S(n)",                      # unknown function
    "S(n) = 1.5*S(n)",                    # float
    "S(n, m) = S(n)",                     # two arguments
    "S(n) = S(n)  [n >= 0 or n < 0]",     # or
    "S(n) = S(n) = S(n)",                 # two equals signs
    "S(n) + 1",                           # no equation
    "S(n) = S(n  [n >= 0]",               # does not parse
])
def test_statements_outside_the_grammar_are_refused(monkeypatch, statement):
    monkeypatch.setattr(identities, "CATALOGUE", (("BAD", statement),))
    with pytest.raises(ValueError) as err:
        registry()
    assert str(err.value).startswith("statement ") and repr(statement) in str(err.value)


def test_statements_are_compiled_once():
    registry()
    misses = identities._compile.cache_info().misses
    registry(SequenceBackend.with_seeds(s_seeds=(3, 1, 4)))
    assert identities._compile.cache_info().misses == misses


def test_arity_and_domain_come_from_the_statement():
    records = {r.name: r for r in registry()}
    assert records["CONS_3"].domain(0, 2) and not records["CONS_3"].domain(0, 1)
    assert records["CONS_1"].domain(1) and not records["CONS_1"].domain(0)
    assert all(records["REC_CEVEN"].domain(n) for n in range(-5, 6))


def test_benchmark_records_match_the_registry():
    # perfbench keeps its own copy of (name, arity, whole-line domain)
    # to draw verify operations; a drift would show only as certify failures
    workloads = Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"
    expected = tuple(
        (record.name, record.arity,
         all(record.domain(*point) for point in product(range(-50, 51), repeat=record.arity)))
        for record in registry()
    )
    assert runpy.run_path(str(workloads))["RECORDS"] == expected


@pytest.mark.parametrize("name,n_bounds,m_bounds,bounds", [
    ("CONS_3", (0, 3), (0, 1), "n in [0, 3], m in [0, 1]"),
    ("PROD_LT", (5, 9), (0, 4), "n in [5, 9], m in [0, 4]"),
    ("CN2", (-5, -1), None, "n in [-5, -1]"),
    ("CONS_1", (0, 0), None, "n in [0, 0]"),
])
def test_sweep_without_a_domain_case_is_refused(name, n_bounds, m_bounds, bounds):
    with pytest.raises(ValueError) as err:
        verify(name, n_bounds, m_bounds)
    assert str(err.value) == f"{name}: no case of its domain lies in {bounds}"


def test_verify_all_refuses_bounds_some_record_cannot_use():
    with pytest.raises(ValueError, match="^PROD_GE: "):
        verify_all((-5, -1))


def test_boundary_consistency_refuses_empty_bounds():
    with pytest.raises(ValueError, match="5 exceeds 2"):
        boundary_consistency((5, 2))
    assert boundary_consistency((2, 2)).cases_checked == 1


def test_boundary_consistency_reports_a_seed_fault_at_every_diagonal_point():
    # S(0) = 4 against C(0) = 3: the two right sides differ by one at each n = m
    backend = SequenceBackend.with_seeds(s_seeds=(4, 1, 3))
    report = boundary_consistency((0, 5), backend)
    assert report.identity == "BOUNDARY"
    assert report.bounds == "n = m in [0, 5]"
    assert report.cases_checked == 6
    assert [point for point, _, _ in report.counterexamples] == [(n, n) for n in range(6)]
    assert all(ge - lt == 1 for _, ge, lt in report.counterexamples)
