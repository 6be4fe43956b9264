"""End-to-end conformance suite.

Each test covers one acceptance criterion and prints a single
``ACCEPTANCE <k> PASS|FAIL`` line (visible with ``pytest -s``).  All
value checks are exact integer comparisons; the only tolerances are
the analytic residual bounds and the stated wall-clock budgets.
"""
from __future__ import annotations

import time
from contextlib import contextmanager

import mpmath
import pytest

from tribokit import analytic, genfunc, identities, oeis, seqcore, tribomatrix
from tribokit.cli import bench_strategies
from tribokit.seqcore import SequenceKind, c_even, c_seq, s_lucas, tribonacci


@contextmanager
def criterion(number: int, label: str):
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE {number} FAIL: {label}")
        raise
    print(f"ACCEPTANCE {number} PASS: {label}")


@contextmanager
def budget(seconds: float):
    start = time.perf_counter()
    yield
    elapsed = time.perf_counter() - start
    assert elapsed < seconds, f"took {elapsed:.2f}s, budget {seconds}s"


def test_01_initial_values():
    with criterion(1, "initial values of T, S, C"):
        assert [s_lucas(n) for n in range(3)] == [3, 1, 3]
        assert [tribonacci(n) for n in range(3)] == [0, 1, 1]
        assert [c_seq(n) for n in range(3)] == [3, -1, -1]
        assert c_seq(4) == -5


def test_02_identity_suite():
    with criterion(2, "all 14 identities hold for n, m in [0, 100]"):
        with budget(10.0):
            reports = identities.verify_all((0, 100))
        assert len(reports) == 14
        for report in reports:
            assert report.counterexamples == (), report.identity


def test_03_matrix_conformance():
    with criterion(3, "matrix powers, trace, minors, det for n in [0, 64]"):
        with budget(1.0):
            for n in range(65):
                power = tribomatrix.mat_pow(n)
                assert power == tribomatrix.entries_from_tribonacci(n)
                assert tribomatrix.trace(power) == s_lucas(n)
                assert tribomatrix.minors_of(power).total == c_seq(n)
                assert tribomatrix.determinant(power) == 1


def test_04_ogf_conformance():
    with criterion(4, "builtin OGFs reproduce 500 terms of S, C, C_2n"):
        with budget(1.0):
            s_terms = genfunc.expand(genfunc.builtin_ogf("S"), 500)
            c_terms = genfunc.expand(genfunc.builtin_ogf("C"), 500)
            even_terms = genfunc.expand(genfunc.builtin_ogf("CEven"), 500)
        assert list(s_terms) == [s_lucas(n) for n in range(500)]
        assert list(c_terms) == [c_seq(n) for n in range(500)]
        assert list(even_terms) == [c_even(k) for k in range(500)]


def test_05_analytic_conformance():
    with criterion(5, "root digits, Vieta residuals, Binet rounding and refusal"):
        with budget(1.0):
            roots = analytic.char_roots(15)
            # alpha is pinned by its defining cubic, not by a quoted decimal
            with mpmath.workdps(roots.precision + 10):
                residual = abs(roots.alpha**3 - roots.alpha**2 - roots.alpha - 1)
                assert residual < mpmath.mpf(10) ** -20
            assert mpmath.nstr(roots.alpha, 15) == "1.83928675521416"
            assert mpmath.nstr(roots.alpha, 5) == "1.8393"
            assert abs(float(abs(roots.beta)) - 0.737353) < 5e-7

            vieta = analytic.vieta_check(roots)
            assert vieta.sum_res < 1e-12
            assert vieta.pair_res < 1e-12
            assert vieta.prod_res < 1e-12

            for n in range(41):
                assert analytic.binet_round(SequenceKind.GENERALIZED_LUCAS, n, 30) == s_lucas(n)
                assert analytic.binet_round(SequenceKind.MINOR_SUM, n, 30) == c_seq(n)
            cap = analytic.binet_index_cap(30)
            assert cap == 60
            with pytest.raises(analytic.PrecisionError):
                analytic.binet_round(SequenceKind.GENERALIZED_LUCAS, cap + 1, 30)
            with pytest.raises(analytic.PrecisionError):
                analytic.binet_round(SequenceKind.MINOR_SUM, -(cap + 1), 30)


def test_06_cross_strategy_agreement():
    with criterion(6, "recurrence, matrix and OGF agree on [0, 500]; bench at 1e5"):
        with budget(30.0):
            for kind, ogf_name in ((SequenceKind.GENERALIZED_LUCAS, "S"),
                                   (SequenceKind.MINOR_SUM, "C")):
                by_recurrence = [v for _, v in seqcore.sequence_range(kind, 0, 500)]
                by_ogf = list(genfunc.expand(genfunc.builtin_ogf(ogf_name), 501))
                power = tribomatrix.identity()
                generator = tribomatrix.tribomatrix()
                by_matrix = []
                for _ in range(501):
                    if kind is SequenceKind.GENERALIZED_LUCAS:
                        by_matrix.append(tribomatrix.trace(power))
                    else:
                        by_matrix.append(tribomatrix.minors_of(power).total)
                    power = tribomatrix.mat_mul(power, generator)
                assert by_recurrence == by_matrix == by_ogf

            for kind in (SequenceKind.GENERALIZED_LUCAS, SequenceKind.MINOR_SUM):
                rows, agreement = bench_strategies(kind, 100_000, 1, 30)
                assert agreement
                binet_row = next(r for r in rows if r["strategy"] == "binet")
                assert "bound exceeded" in binet_row["note"]


def test_07_oeis_crosscheck():
    with criterion(7, "bundled b-files match; corruption is located"):
        with budget(1.0):
            for kind, sequence_id in oeis.OEIS_IDS.items():
                bfile = oeis.parse_bfile(oeis.bundled_fixture_text(sequence_id), sequence_id)
                assert len(bfile.rows) >= 50
                report = oeis.crosscheck(kind, bfile, 50)
                assert report.rows_compared == 50
                assert report.mismatches == ()

            lines = oeis.bundled_fixture_text("A001644").splitlines()
            assert "7 71" in lines
            corrupted = "\n".join("7 72" if line == "7 71" else line for line in lines)
            bfile = oeis.parse_bfile(corrupted, "A001644")
            report = oeis.crosscheck(SequenceKind.GENERALIZED_LUCAS, bfile, 50)
            assert report.mismatches == ((7, 71, 72),)


def test_08_fault_sensitivity():
    with criterion(8, "any single mutated seed trips at least one identity"):
        with budget(10.0):
            canonical = {"t_seeds": (0, 1, 1), "s_seeds": (3, 1, 3), "c_seeds": (3, -1, -1)}
            mutations = []
            for field, seeds in canonical.items():
                for position in range(3):
                    mutated = list(seeds)
                    mutated[position] += 1
                    kwargs = dict(canonical, **{field: tuple(mutated)})
                    mutations.append(identities.SequenceBackend.with_seeds(**kwargs))
            mutations.append(
                identities.SequenceBackend.with_seeds(c_seeds=(3, 1, -1))
            )
            for backend in mutations:
                reports = identities.verify_all((0, 25), backend=backend)
                assert any(report.counterexamples for report in reports)
