from __future__ import annotations

import functools
import gc
import runpy
import tracemalloc
import weakref
from itertools import product
from pathlib import Path

import pytest
from hypothesis import example, given, settings, strategies as st

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
    wrong = SequenceBackend(backend.t, backend.s, lambda n: backend.c(n) + (n == 2))
    read = []
    recording = SequenceBackend(*(lambda k, f=f: read.append(k) or f(k) for f in backend))
    for record in registry(backend):
        arity, sides, cases, reads, reach, sweep = identities._compile(record.statement)
        assert arity == record.arity, record.name
        assert record.backend is backend, record.name
        domain, lhs, rhs = sides(*backend)
        box = list(product(*(range(lo, hi + 1) for lo, hi in ((-5, 5), (0, 5))[:arity])))
        points = [p for p in box if record.domain(*p)]
        assert points and points == [p for p in box if domain(*p)] == cases(iter(box)), record.name
        for point in points:
            assert (lhs(*point), rhs(*point)) == (record.lhs(*point), record.rhs(*point))
        # reach: point by point, the largest |index| that the record's sides read there
        _, left, right = sides(*recording)
        largest = []
        for point in points:
            read.clear()
            left(*point), right(*point)
            largest.append(max(map(abs, read)))
        assert [reach(*point) for point in points] == largest, record.name
        # the sweep's sides over value tables are the record's sides, also where they differ
        for b in (backend, wrong):
            tables = [{k: f(k) for k in ks} for f, ks in zip(b, reads(points))]
            assert sweep(points, *tables) == [
                (p, *values) for p in points for values in [[side(*p) for side in sides(*b)[1:]]]
                if values[0] != values[1]], record.name
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
    "S(S(n)) = S(n)",                     # call in a call: no index set before the values
    "S(n) = S(n)  [n >= 0 or n < 0]",     # or
    "S(n) = S(n) = S(n)",                 # two equals signs
    "S(n) + 1",                           # no equation
    "S(n) = S(n  [n >= 0]",               # does not parse
    "S(n**2) = S(n)",                     # ** in an index
    "S(2**n) = S(n)",                     # n as an exponent in an index
    "S(n*n) = S(n)",                      # n named twice in an index
    "S(n*(n-1)) = S(n)",                  # n named twice in an index
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


_WORKLOADS = runpy.run_path(str(Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"))
_LETTERS = dict(zip("tsc", SequenceKind))


def _mutated(seq, position, delta):
    seeds = list(seqcore.RECURRENCES[_LETTERS[seq]].seeds)
    seeds[position] += delta
    return {f"{seq}_seeds": tuple(seeds)}


# the canonical seeds, then each single-seed fault that perfbench's certify workload injects
SEED_SETS = [{}, *(_mutated(*mutation) for mutation in _WORKLOADS["MUTATIONS"])]


def _ladder_backend(seeds):
    """Each value from its own ladder call, cached: no memo pass involved."""
    return SequenceBackend(*(
        functools.cache(seqcore.Recurrence(recurrence.coeffs, seeds.get(f"{letter}_seeds")
                                           or recurrence.seeds).at)
        for letter, recurrence in zip("tsc", seqcore.RECURRENCES.values())))


def _reference(name, domain, lhs, rhs, points, bounds):
    """The report of one loop over the points through the record's own sides."""
    points = [point for point in points if domain(*point)]
    if not points:
        raise ValueError(f"{name}: no case of its domain lies in {bounds}")
    sides = ((point, lhs(*point), rhs(*point)) for point in points)
    return identities.VerificationReport(
        name, bounds, len(points), tuple((p, l, r) for p, l, r in sides if l != r))


def _outcome(run, *args):
    try:
        return run(*args)
    except ValueError as exc:
        return str(exc)


_BOUND = st.integers(min_value=-60, max_value=60)
_M_BOUND = st.integers(min_value=0, max_value=40)


# the shipped budget of value bits, under which these tests' sweeps hold one
# table, then a budget so small that every record and BOUNDARY streams, one
# point a chunk
CHUNKS = (identities._BITS, 0)


@pytest.mark.parametrize("seeds", SEED_SETS, ids=lambda seeds: repr(seeds) if seeds else "canonical")
@settings(max_examples=3, deadline=None)
@given(n=st.tuples(_BOUND, _BOUND).map(sorted), m=st.tuples(_M_BOUND, _M_BOUND).map(sorted))
@example(n=(-60, 60), m=(0, 40))
def test_sweep_reports_are_those_of_a_loop_over_each_record(seeds, n, m):
    # cases, counterexample points and both sides, in order, for every record
    # and for BOUNDARY, at each seed set and chunk; one backend serves every sweep
    (n_lo, n_hi), m_bounds = n, tuple(m)
    backend, reference = SequenceBackend.with_seeds(**seeds), _ladder_backend(seeds)
    records = {r.name: r for r in registry(reference)}
    ge, lt = records["PROD_GE"], records["PROD_LT"]
    diagonal = [(k, k) for k in range(n_lo, n_hi + 1)]
    boundary = _reference("BOUNDARY", lambda n, m: True, ge.rhs, lt.rhs, diagonal,
                          f"n = m in [{n_lo}, {n_hi}]")
    for size in CHUNKS:
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(identities, "_BITS", size)
            for record in registry(reference):
                bounds = "n in [{}, {}]".format(n_lo, n_hi) + (
                    ", m in [{}, {}]".format(*m_bounds) if record.arity == 2 else "")
                box = product(range(n_lo, n_hi + 1),
                              *[range(m_bounds[0], m_bounds[1] + 1)][:record.arity - 1])
                expected = _outcome(_reference, record.name, record.domain, record.lhs, record.rhs,
                                    box, bounds)
                assert _outcome(verify, record.name, (n_lo, n_hi), m_bounds, backend) == expected
            assert boundary_consistency((n_lo, n_hi), backend) == boundary


def _counting(backend, calls):
    """The backend, with every index asked of each function recorded in ``calls``."""
    def counted(letter, at):
        def count(k):
            calls[letter].append(k)
            return at(k)
        return count
    return SequenceBackend(*(counted(letter, getattr(backend, letter)) for letter in "tsc"))


@pytest.mark.parametrize("name", [*EXPECTED_NAMES, "BOUNDARY"])
def test_a_sweep_asks_each_value_it_reads_once_going_out_from_zero(name, monkeypatch):
    n_bounds, m_bounds = (-30, 30), (0, 20)
    # brute force: every index the record's own sides read at its points
    reads = {letter: [] for letter in "tsc"}
    recording = _counting(_ladder_backend({}), reads)
    if name == "BOUNDARY":
        records = {r.name: r for r in registry(recording)}
        for n in range(n_bounds[0], n_bounds[1] + 1):
            records["PROD_GE"].rhs(n, n), records["PROD_LT"].rhs(n, n)
    else:
        record = {r.name: r for r in registry(recording)}[name]
        box = product(range(n_bounds[0], n_bounds[1] + 1), range(m_bounds[0], m_bounds[1] + 1))
        for point in {point[:record.arity] for point in box}:
            if record.domain(*point):
                record.lhs(*point), record.rhs(*point)
    stream, chunks = identities._stream, []

    def streaming(points, backend, reads, reach, sweep):
        def chunk(points, *tables):
            chunks.append(len(points))
            return sweep(points, *tables)
        return stream(points, backend, reads, reach, chunk)

    monkeypatch.setattr(identities, "_stream", streaming)
    for size in CHUNKS:
        monkeypatch.setattr(identities, "_BITS", size)
        calls = {letter: [] for letter in "tsc"}
        chunks.clear()
        counting = _counting(SequenceBackend.default(), calls)
        if name == "BOUNDARY":
            boundary_consistency(n_bounds, counting)
        else:
            verify(name, n_bounds, m_bounds, counting)
        assert any(calls.values())
        for letter, asked in calls.items():
            assert sorted(asked) == sorted(set(reads[letter])), letter  # once per distinct index
            ahead, behind = [k for k in asked if k >= 0], [k for k in asked if k < 0]
            assert ahead == sorted(ahead) and behind == sorted(behind, reverse=True), letter
        # one table at the shipped budget; else one point a chunk
        assert set(chunks) == (set() if size else {1})


def test_a_pass_asked_going_out_from_zero_never_restarts(monkeypatch):
    starts = []
    original = seqcore._pass

    def counting(coeffs):
        generator = original(coeffs)

        def start(*window):
            starts.append((coeffs, window))
            return generator(*window)
        return start

    monkeypatch.setattr(seqcore, "_pass", counting)
    for kind, recurrence in seqcore.RECURRENCES.items():
        memo = recurrence.memo()
        indices = [0, 1, 2, 5, 9, 40, 300, -1, -2, -7, -300]
        assert [memo(k) for k in indices] == [term(kind, k) for k in indices]
        assert len(starts) == 2
        assert memo(300) == term(kind, 300) and len(starts) == 2  # the last value is kept
        assert memo(3) == term(kind, 3) and len(starts) == 3  # below its position: restart
        starts.clear()
    # each sweep runs each pass it needs once: forward and backward per sequence
    for size in CHUNKS:
        monkeypatch.setattr(identities, "_BITS", size)
        for name in EXPECTED_NAMES:
            verify(name, (-40, 40), (0, 40))
            assert starts and len(starts) == len(set(starts)), name
            starts.clear()
        boundary_consistency((-40, 40))
        assert starts and len(starts) == len(set(starts))
        starts.clear()


def test_a_sweep_holds_only_the_values_its_points_read():
    # CONS_3 reads S only at multiples of n; a dense memo of every S up to
    # n*(m+1) peaks at about 32 MB on this sweep
    tracemalloc.start()
    try:
        assert verify("CONS_3", (0, 150), (2, 152)).ok
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 16 * 10**6


def test_a_streamed_sweep_holds_each_value_from_its_first_read_to_its_last():
    # at N = 250 CONS_3 reads 17,140 S values up to index 62,750, about 42 MB
    # of digits, and the whole registry peaked at about 48 MB holding them
    # all; taken in chunks in read order it holds only the values that the
    # chunks still to come read, and 8,192-point chunks peaked near 21 MB;
    # chunks that end at a budget of value bits peak near 8 MB, most of it
    # the points themselves
    tracemalloc.start()
    try:
        assert all(report.ok for report in verify_all((0, 250)))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 12 * 10**6


@settings(max_examples=60, deadline=None)
@given(n=st.tuples(st.integers(-40, 40), st.integers(0, 12)),
       m=st.tuples(st.integers(-40, 40), st.integers(0, 12)))
def test_sweep_bits_bound_every_point_of_the_box(n, m):
    n_bounds, m_bounds = (n[0], n[0] + n[1]), (m[0], m[0] + m[1])
    total = 0
    for name, statement in identities._statements():
        arity, *_, reach, _ = identities._compile(statement)
        points = list(identities._box(arity, n_bounds, m_bounds)[0])
        bits = identities.sweep_bits(name, n_bounds, m_bounds)
        assert bits == len(points) * identities._width(max(reach(*point) for point in points))
        total += bits
    assert identities.sweep_bits(None, n_bounds, m_bounds) == total


def test_sweep_bits_of_the_sweeps_the_readme_names():
    # CONS_3 reads S(n*(m+1)), so its largest |index| is N*(M+1)
    assert (identities.sweep_bits("CONS_3", (0, 400), (2, 402))
            == 401 * 401 * (400 * 403 * 88 // 100 + 64))
    assert identities.sweep_bits("CONS_3", (0, 3000)) == 3001 * 3001 * (3000 * 3001 * 88 // 100 + 64)
    # over a negative box, at its corner n = m = -3000, S(n*(m-2)) reads 3000*3002
    assert (identities.sweep_bits("CONS_3", (-3000, 0))
            == 3001 * 3001 * (3000 * 3002 * 88 // 100 + 64))
    with pytest.raises(KeyError, match="no identity named 'NOPE'"):
        identities.sweep_bits("NOPE", (0, 3))
