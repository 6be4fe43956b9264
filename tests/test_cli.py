from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import subprocess
import sys
import time
import urllib.request

import mpmath
import pytest
from hypothesis import example, given, settings, strategies as st

from tribokit import analytic, cli, genfunc, identities, oeis, seqcore, tribomatrix
from tribokit.oeis import bundled_fixture_text
from tribokit.seqcore import SequenceKind, c_seq, s_lucas

from conftest import oracle_c, oracle_s, oracle_t


@pytest.fixture(autouse=True)
def isolated_config(monkeypatch):
    monkeypatch.delenv(cli.CONFIG_ENV, raising=False)


def run(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_eval_plain(capsys):
    code, out, _ = run(capsys, "eval", "S", "0", "4")
    assert code == 0
    assert out.splitlines() == ["0 3", "1 1", "2 3", "3 7", "4 11"]


def test_eval_negative_range(capsys):
    code, out, _ = run(capsys, "eval", "T", "-3", "0")
    assert code == 0
    assert out.splitlines() == ["-3 -1", "-2 1", "-1 0", "0 0"]


def test_eval_json_round_trip(capsys):
    code, out, _ = run(capsys, "eval", "S", "0", "40", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    pairs = [(entry["n"], int(entry["value"])) for entry in payload["values"]]
    assert pairs == [(n, s_lucas(n)) for n in range(41)]


def test_eval_csv(capsys):
    code, out, _ = run(capsys, "eval", "C", "0", "3", "--format", "csv")
    assert code == 0
    assert out.splitlines() == ["n,value", "0,3", "1,-1", "2,-1", "3,5"]


def test_eval_bfile(capsys):
    code, out, _ = run(capsys, "eval", "C", "0", "3", "--format", "bfile")
    assert code == 0
    assert out == "0 3\n1 -1\n2 -1\n3 5\n"


def test_eval_bfile_rejects_negative_lo(capsys):
    code, _, err = run(capsys, "eval", "C", "-1", "3", "--format", "bfile")
    assert code == 2
    assert "bfile" in err


def test_eval_format_checks_come_before_rendering(capsys):
    # T(-40000) has more digits than str(int) may print
    code, out, err = run(capsys, "eval", "--format", "bfile", "T", "--", "-40000", "-39990")
    assert (code, out) == (2, "")
    assert err == "tribokit: bfile format requires lo >= 0\n"


def test_eval_csv_of_16001_rows_within_a_second(capsys):
    start = time.perf_counter()
    code = cli.main(["eval", "--format", "csv", "T", "0", "16000"])
    elapsed = time.perf_counter() - start
    out = capsys.readouterr().out
    assert code == 0
    assert elapsed < 1.0, f"took {elapsed:.2f}s, budget 1.0s"
    assert out.count("\n") == 16002
    assert out.startswith("n,value\n0,0\n1,1\n2,1\n3,2\n")


def test_eval_matrix_strategy(capsys):
    code, out, _ = run(capsys, "eval", "C", "4", "4", "--strategy", "matrix")
    assert code == 0
    assert out.strip() == "4 -5"
    code, out, _ = run(capsys, "eval", "T", "0", "6", "--strategy", "matrix")
    assert code == 0
    assert [line.split()[1] for line in out.splitlines()] == ["0", "1", "1", "2", "4", "7", "13"]


@pytest.mark.parametrize("fmt", ["plain", "json", "csv"])
def test_eval_matrix_strategy_matches_recurrence_at_negative_indices(fmt, capsys):
    by_recurrence, by_matrix = (
        run(capsys, "eval", "--format", fmt, "--strategy", strategy, "S", "--", "-20", "5")
        for strategy in ("recurrence", "matrix")
    )
    code, out, err = by_recurrence
    assert (code, err) == (0, "")
    assert out.count("\n") == {"plain": 26, "csv": 27, "json": 1}[fmt]
    assert by_matrix == (0, out.replace('"strategy": "recurrence"', '"strategy": "matrix"'), "")


def test_eval_binet_strategy(capsys):
    code, out, _ = run(capsys, "eval", "S", "0", "10", "--strategy", "binet")
    assert code == 0
    assert [int(line.split()[1]) for line in out.splitlines()] == [
        s_lucas(n) for n in range(11)
    ]


def test_eval_binet_rejects_range_past_cap(capsys):
    code, _, err = run(capsys, "eval", "S", "0", "61", "--strategy", "binet")
    assert code == 2
    assert "|n| <= 60" in err


def test_eval_unknown_kind(capsys):
    code, _, err = run(capsys, "eval", "Q", "0", "4")
    assert code == 2
    assert "unknown sequence kind" in err


def test_verify_single(capsys):
    code, out, _ = run(capsys, "verify", "CN2", "--range", "0:50")
    assert code == 0
    assert "cases=51" in out
    assert "counterexamples=0" in out


def test_verify_all_json(capsys):
    code, out, _ = run(capsys, "verify", "all", "--range", "0:25")
    assert code == 0
    code, out, _ = run(capsys, "verify", "all", "--range", "0:25", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["ok"] is True
    assert len(payload["reports"]) == 14


def test_verify_unknown_identity(capsys):
    code, _, err = run(capsys, "verify", "NOPE", "--range", "0:5")
    assert code == 2
    assert "no identity named" in err


def test_verify_with_no_case_in_the_bounds_is_a_usage_error(capsys):
    code, out, err = run(capsys, "verify", "CONS_3", "--range", "0:3", "--m-range", "0:1")
    assert code == 2
    assert out == ""
    assert err == "tribokit: CONS_3: no case of its domain lies in n in [0, 3], m in [0, 1]\n"


def test_verify_bad_bounds(capsys):
    code, _, err = run(capsys, "verify", "CN2", "--range", "oops")
    assert code == 2
    assert "LO:HI" in err


def test_expand_builtin(capsys):
    code, out, _ = run(capsys, "expand", "C", "4")
    assert code == 0
    assert out.splitlines() == ["0 3", "1 -1", "2 -1", "3 5"]


def test_expand_custom(capsys):
    code, out, _ = run(capsys, "expand", "--num", "3,2,3", "--den", "1,1,3,-1", "4")
    assert code == 0
    assert out.splitlines() == ["0 3", "1 -1", "2 -5", "3 11"]


def test_expand_format_checks_come_before_rendering(capsys):
    # S(17000) has more digits than str(int) may print
    code, out, err = run(capsys, "expand", "--format", "bfile", "S", "17000")
    assert (code, out) == (2, "")
    assert err == "tribokit: bfile format does not apply to expand\n"


def test_expand_csv(capsys):
    code, out, _ = run(capsys, "expand", "--format", "csv", "--num", "1", "--den", "1,-3", "4")
    assert code == 0
    assert out == "n,coefficient\n0,1\n1,3\n2,9\n3,27\n"


def test_expand_rejects_bad_denominator(capsys):
    code, _, err = run(capsys, "expand", "--num", "1", "--den", "2,1", "4")
    assert code == 2
    assert "constant term" in err


def test_expand_requires_a_source(capsys):
    code, _, err = run(capsys, "expand", "4")
    assert code == 2
    assert "builtin name" in err


def test_matrix_output(capsys):
    code, out, _ = run(capsys, "matrix", "2")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "A^2"
    assert lines[1:4] == ["2 1 1", "2 1 0", "1 1 0"]
    assert "trace 3" in lines
    assert "minor_sum -1" in lines


def test_roots_plain(capsys):
    code, out, _ = run(capsys, "roots", "15")
    assert code == 0
    assert "alpha 1.8392867" in out
    assert "index_cap 30" in out


def test_roots_json(capsys):
    code, out, _ = run(capsys, "roots", "15", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["alpha"].startswith("1.8392867552")
    assert abs(float(payload["abs_beta"]) - 0.737353) < 5e-7
    assert payload["residuals"]["sum"] < 1e-12
    assert payload["residuals"]["pair"] < 1e-12
    assert payload["residuals"]["product"] < 1e-12


def test_roots_rejects_low_precision(capsys):
    code, _, err = run(capsys, "roots", "10")
    assert code == 2
    assert "precision" in err


def test_crosscheck_bundled(capsys):
    for kind in ("T", "S", "C"):
        code, out, _ = run(capsys, "crosscheck", kind)
        assert code == 0
        assert "mismatches=0" in out


def test_crosscheck_explicit_fixture(tmp_path, capsys):
    path = tmp_path / "b001644.txt"
    path.write_text(bundled_fixture_text("A001644"), encoding="ascii")
    code, out, _ = run(capsys, "crosscheck", "S", str(path), "30")
    assert code == 0
    assert "rows=30" in out


def test_crosscheck_rows_flag_with_bundled_fixture(capsys):
    code, out, _ = run(capsys, "crosscheck", "S", "--rows", "80")
    assert code == 0
    assert "rows=80" in out


def test_crosscheck_detects_mismatch(tmp_path, capsys):
    lines = ["0 3", "1 1", "2 3", "3 7", "4 12"]
    path = tmp_path / "b001644.txt"
    path.write_text("\n".join(lines) + "\n", encoding="ascii")
    code, out, _ = run(capsys, "crosscheck", "S", str(path))
    assert code == 3
    assert "at 4: local=11 bfile=12" in out


def test_crosscheck_missing_file(capsys):
    code, _, err = run(capsys, "crosscheck", "S", "/no/such/file.txt")
    assert code == 2
    assert "cannot read fixture" in err


def test_crosscheck_parse_error_is_usage(tmp_path, capsys):
    path = tmp_path / "bad.txt"
    path.write_text("0 3\n1 x\n", encoding="ascii")
    code, _, err = run(capsys, "crosscheck", "S", str(path))
    assert code == 2
    assert "line 2" in err


def test_crosscheck_fetch_uses_transport(monkeypatch, capsys):
    def canned_factory(base_url):
        assert base_url == "https://oeis.org"
        return lambda sequence_id: bundled_fixture_text(sequence_id)

    monkeypatch.setattr(cli, "transport_factory", canned_factory)
    code, out, _ = run(capsys, "crosscheck", "S", "--fetch")
    assert code == 0
    assert "mismatches=0" in out


def test_crosscheck_fixture_dir_config(tmp_path, capsys):
    fixture = tmp_path / "b073145.txt"
    fixture.write_text("0 3\n1 -1\n2 -1\n", encoding="ascii")
    config = tmp_path / "cfg"
    config.write_text(f"fixture_dir = {tmp_path}\n", encoding="ascii")
    code, out, _ = run(capsys, "crosscheck", "C", "--config", str(config))
    assert code == 0
    assert "rows=3" in out


def test_bench_small(capsys):
    code, out, _ = run(capsys, "bench", "S", "10", "1")
    assert code == 0
    assert "value=443" in out
    assert "exact strategies agree: yes" in out


def test_bench_json_reports_bound_exceeded_past_cap(capsys):
    code, out, _ = run(capsys, "bench", "C", "100", "1", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    strategies = {row["strategy"]: row for row in payload["strategies"]}
    assert int(strategies["recurrence"]["value"]) == c_seq(100)
    assert strategies["recurrence"]["value"] == strategies["matrix"]["value"]
    assert strategies["binet"]["value"] is None
    assert "bound exceeded" in strategies["binet"]["note"]
    assert payload["exact_agreement"] is True


@pytest.fixture
def add_strategy(monkeypatch):
    """Inserts one entry into the strategy table, as a new method would be."""
    def add(name, strategy):
        monkeypatch.setitem(cli.STRATEGIES, name, strategy)
        cli.build_parser.cache_clear()  # so --strategy takes the new name

    yield add
    cli.build_parser.cache_clear()


def _shifted(shift):
    """A strategy that reads the ladder and adds ``shift``: a wrong method
    unless ``shift`` is 0."""
    return cli.Strategy(
        "seqcore",
        texts=lambda seqcore, kind, lo, hi, precision:
            [str(seqcore.term(kind, n) + shift) for n in range(lo, hi + 1)],
        point=lambda seqcore, kind, n, precision, timed:
            timed(lambda: seqcore.term(kind, n) + shift),
    )


def test_bench_exits_3_when_the_exact_strategies_disagree(monkeypatch, capsys, add_strategy):
    original = tribomatrix.terms
    # a wrong value from the matrix layer, then from one added strategy
    for wrong in ("matrix", "dummy"):
        if wrong == "matrix":
            monkeypatch.setattr(tribomatrix, "terms",
                                lambda kind, lo: (value + 1 for value in original(kind, lo)))
            values = ["443", "444", "443"]
        else:
            monkeypatch.setattr(tribomatrix, "terms", original)
            add_strategy("dummy", _shifted(1))
            values = ["443", "443", "443", "444"]
        code, out, err = run(capsys, "bench", "S", "10", "1")
        assert (code, err) == (3, "")
        lines = out.splitlines()
        assert [line.split("value=")[1].split()[0] for line in lines[1:-1]] == values
        assert lines[-1] == "exact strategies agree: NO"
        code, out, err = run(capsys, "bench", "S", "10", "1", "--format", "json")
        assert (code, err) == (3, "")
        payload = json.loads(out)
        assert [row["value"] for row in payload["strategies"]] == values
        assert payload["exact_agreement"] is False
        code, out, err = run(capsys, "bench", "S", "10", "1", "--format", "csv")
        assert (code, err) == (3, "")
        assert [row.split(",")[2] for row in out.splitlines()[1:]] == values


def test_bench_exits_3_when_the_binet_value_is_wrong(monkeypatch, capsys):
    original = analytic.binet_round
    monkeypatch.setattr(analytic, "binet_round",
                        lambda kind, n, roots: original(kind, n, roots) + 1)
    code, out, err = run(capsys, "bench", "S", "10", "1")
    assert (code, err) == (3, "")
    assert out.splitlines()[-1] == "exact strategies agree: NO"
    code, out, err = run(capsys, "bench", "S", "10", "1", "--format", "json")
    assert (code, err) == (3, "")
    assert json.loads(out)["exact_agreement"] is False
    code, out, err = run(capsys, "bench", "S", "10", "1", "--format", "csv")
    assert (code, err) == (3, "")


def test_a_strategy_added_to_the_table_reaches_eval_and_bench(capsys, add_strategy):
    # wrong by one: eval prints it, and bench shows it and compares it
    add_strategy("dummy", _shifted(1))
    rows = [(n, s_lucas(n) + 1) for n in range(-2, 4)]
    argv = ["eval", "--strategy", "dummy", "S"]
    assert run(capsys, *argv, "--", "-2", "3") == (
        0, "".join(f"{n} {v}\n" for n, v in rows), "")
    assert run(capsys, *argv, "--format", "csv", "--", "-2", "3") == (
        0, "n,value\n" + "".join(f"{n},{v}\n" for n, v in rows), "")
    code, out, err = run(capsys, *argv, "--format", "json", "--", "-2", "3")
    assert (code, err) == (0, "")
    assert json.loads(out) == {"command": "eval", "kind": "S", "strategy": "dummy",
                               "values": [{"n": n, "value": str(v)} for n, v in rows]}

    code, out, err = run(capsys, "bench", "S", "10", "1")
    assert (code, err) == (3, "")
    lines = out.splitlines()
    assert [line.split()[0] for line in lines[1:-1]] == ["recurrence", "matrix", "binet", "dummy"]
    assert lines[4].endswith("value=444")
    assert lines[-1] == "exact strategies agree: NO"
    code, out, err = run(capsys, "bench", "S", "10", "1", "--format", "json")
    assert (code, err) == (3, "")
    payload = json.loads(out)
    assert payload["strategies"][3]["strategy"] == "dummy"
    assert payload["strategies"][3]["value"] == "444"
    assert payload["exact_agreement"] is False
    code, out, err = run(capsys, "bench", "S", "10", "1", "--format", "csv")
    assert (code, err) == (3, "")
    assert out.splitlines()[4].split(",")[::2] == ["dummy", "444"]


@pytest.mark.parametrize("fmt", ["plain", "json", "csv"])
def test_strategy_refusals(fmt, capsys):
    binet = ["eval", "--format", fmt, "--strategy", "binet"]
    assert run(capsys, *binet, "S", "--", "-61", "0") == (
        2, "", "tribokit: binet strategy is certified only for |n| <= 60 at precision 30\n")


def test_config_env_var(tmp_path, monkeypatch, capsys):
    config = tmp_path / "cfg"
    config.write_text("default_range = 0:5\noutput_format = csv\n", encoding="ascii")
    monkeypatch.setenv(cli.CONFIG_ENV, str(config))
    code, out, _ = run(capsys, "verify", "SQUARE")
    assert code == 0
    assert out.splitlines()[0] == "identity,bounds,cases_checked,counterexamples,ok"
    assert "6" in out  # n in [0, 5] is six cases


def test_flag_overrides_config_format(tmp_path, capsys):
    config = tmp_path / "cfg"
    config.write_text("output_format = csv\n", encoding="ascii")
    code, out, _ = run(capsys, "verify", "SQUARE", "--range", "0:5",
                       "--config", str(config), "--format", "plain")
    assert code == 0
    assert out.startswith("SQUARE")


def test_config_rejects_unknown_key(tmp_path, capsys):
    config = tmp_path / "cfg"
    config.write_text("mystery = 1\n", encoding="ascii")
    code, _, err = run(capsys, "verify", "SQUARE", "--config", str(config))
    assert code == 2
    assert "unknown config key" in err


def test_config_rejects_low_precision(tmp_path, capsys):
    config = tmp_path / "cfg"
    config.write_text("precision = 10\n", encoding="ascii")
    code, _, err = run(capsys, "roots", "--config", str(config))
    assert code == 2
    assert "precision" in err


def test_missing_config_file(capsys):
    code, _, err = run(capsys, "verify", "SQUARE", "--config", "/no/such/cfg")
    assert code == 2
    assert "cannot read config" in err


def test_bfile_format_rejected_outside_eval(capsys):
    code, _, err = run(capsys, "verify", "SQUARE", "--range", "0:5", "--format", "bfile")
    assert code == 2
    assert "bfile format" in err


# Each command with a request that takes a while to compute, and the library
# calls it would make first; a wrong format must be refused before any of them.
_BFILE_REFUSED = {
    "verify": (["all", "--range", "0:300"], [(identities, "verify_all"), (identities, "verify")]),
    "expand": (["S", "17000"], [(genfunc, "expand_text")]),
    "matrix": (["300000"], [(tribomatrix, "mat_pow")]),
    "roots": (["1500"], [(analytic, "char_roots")]),
    "crosscheck": (["S"], [(oeis, "parse_bfile"), (oeis, "crosscheck")]),
    "bench": (["S", "200000"], [(seqcore, "term")]),
}


def _forbid(monkeypatch, calls):
    for module, name in calls:
        def refuse(*args, _name=name, **kwargs):
            raise AssertionError(f"{_name} ran before the format check")
        monkeypatch.setattr(module, name, refuse)


@pytest.mark.parametrize("source", ["flag", "config"])
@pytest.mark.parametrize("command", sorted(_BFILE_REFUSED))
def test_bfile_format_refused_before_any_work(command, source, tmp_path, monkeypatch, capsys):
    argv, calls = _BFILE_REFUSED[command]
    if source == "flag":
        argv = [*argv, "--format", "bfile"]
    else:
        config = tmp_path / "cfg"
        config.write_text("output_format = bfile\n", encoding="ascii")
        argv = [*argv, "--config", str(config)]
    _forbid(monkeypatch, calls)
    code, out, err = run(capsys, command, *argv)
    assert (code, out) == (2, "")
    assert err == f"tribokit: bfile format does not apply to {command}\n"


def test_eval_bfile_negative_lo_refused_before_the_strategy_runs(monkeypatch, capsys):
    _forbid(monkeypatch, [(analytic, "char_roots"), (tribomatrix, "mat_pow")])
    for strategy in ("binet", "matrix"):
        code, out, err = run(capsys, "eval", "--format", "bfile", "--strategy", strategy,
                             "S", "--", "-5", "5")
        assert (code, out) == (2, "")
        assert err == "tribokit: bfile format requires lo >= 0\n"


def test_crosscheck_fetch_parses_the_fetched_text_once(monkeypatch, capsys):
    parsed = []
    original = oeis.parse_bfile

    def counting(text, sequence_id):
        parsed.append(sequence_id)
        return original(text, sequence_id)

    monkeypatch.setattr(oeis, "parse_bfile", counting)
    monkeypatch.setattr(cli, "transport_factory", lambda base_url: bundled_fixture_text)
    code, out, _ = run(capsys, "crosscheck", "C", "--fetch")
    assert code == 0
    assert "mismatches=0" in out
    assert parsed == ["A073145"]


def test_config_comments_after_values(tmp_path):
    config = tmp_path / "cfg"
    config.write_text(
        "# a comment line\n"
        "default_range = 2:7\t# verify bounds\n"
        "precision = 40   # digits\n"
        "fixture_dir = /some/dir  # bNNNNNN.txt files\n"
        "oeis_url = https://oeis.org/#anchor\n",
        encoding="ascii",
    )
    loaded = cli.load_config(str(config))
    assert loaded.default_range == (2, 7)
    assert loaded.precision == 40
    assert loaded.fixture_dir == "/some/dir"
    assert loaded.oeis_url == "https://oeis.org/#anchor"


def test_config_bad_default_range_names_the_line(tmp_path, capsys):
    config = tmp_path / "cfg"
    config.write_text("precision = 30\ndefault_range = 0-100  # typo\n", encoding="ascii")
    code, _, err = run(capsys, "verify", "SQUARE", "--config", str(config))
    assert code == 2
    assert err == f"tribokit: {config}:2: bounds must look like LO:HI, got '0-100'\n"


@pytest.mark.parametrize("line,message", [
    ("precision 30", "expected key = value, got 'precision 30'"),
    ("precision = x", "precision must be an integer"),
    ("output_format = xml", f"output_format must be one of {cli.FORMATS}"),
], ids=["no-equals", "precision", "output_format"])
def test_config_refusals_name_the_line(tmp_path, capsys, line, message):
    config = tmp_path / "cfg"
    config.write_text(line + "\n", encoding="ascii")
    code, out, err = run(capsys, "roots", "--config", str(config))
    assert (code, out) == (2, "")
    assert err == f"tribokit: {config}:1: {message}\n"


def test_usage_error_exit_code(capsys):
    with pytest.raises(SystemExit) as exit_info:
        cli.main(["eval", "S"])  # missing lo/hi
    assert exit_info.value.code == 2


# Every refusal below exits 2 with nothing on stdout and one line on stderr.
_REFUSALS = [
    (["verify", "SQUARE", "--range", "5:2"], "empty bounds: 5 exceeds 2"),
    (["eval", "T", "5", "4"], "empty range: 5 exceeds 4"),
    (["expand", "--num", "1,x", "--den", "1,-1", "3"],
     "--num must be a comma-separated integer list, got '1,x'"),
    (["expand", "S", "3", "--num", "1", "--den", "1,-1"],
     "give either a builtin name or --num/--den, not both"),
    (["crosscheck", "T", "--rows", "0"], "rows must be >= 1, got 0"),
    (["eval", "--strategy", "matrix", "--format", "bfile", "S", "--", "-1", "2"],
     "bfile format requires lo >= 0"),
    (["bench", "S", "10", "0"], "repetitions must be >= 1, got 0"),
]


@pytest.mark.parametrize("argv, message", _REFUSALS, ids=[" ".join(a) for a, _ in _REFUSALS])
def test_refusal_exits_2_with_its_message(argv, message, capsys):
    assert run(capsys, *argv) == (2, "", f"tribokit: {message}\n")


def test_failed_fetch_is_an_io_error(monkeypatch, capsys):
    def offline(sequence_id):
        raise OSError("offline")

    monkeypatch.setattr(cli, "transport_factory", lambda base_url: offline)
    assert run(capsys, "crosscheck", "C", "--fetch") == (
        2, "", "tribokit: transport failed for A073145: offline\n")


def test_fetch_refuses_an_oeis_url_with_a_fragment(tmp_path, monkeypatch, capsys):
    def never(*args, **kwargs):
        raise AssertionError("urlopen must not be called")

    monkeypatch.setattr(urllib.request, "urlopen", never)
    config = tmp_path / "cfg"
    config.write_text("oeis_url = https://oeis.org/#anchor\n", encoding="ascii")
    assert run(capsys, "crosscheck", "C", "--fetch", "--config", str(config)) == (
        2, "", "tribokit: oeis_url must be an http(s) URL without query or fragment, "
        "got 'https://oeis.org/#anchor'\n")


def _oracle_matrix(n):
    t = oracle_t(n - 3, n + 1)
    return [
        [t[n + 1], t[n], t[n - 1]],
        [t[n] + t[n - 1], t[n - 1] + t[n - 2], t[n - 2] + t[n - 3]],
        [t[n], t[n - 1], t[n - 2]],
    ]


def _oracle_minors(entries):
    (a, b, c), (d, e, f), (g, h, i) = entries
    return {"minor_12": a * e - b * d, "minor_13": a * i - c * g, "minor_23": e * i - f * h}


def _check_matrix(capsys, n, fmt):
    """``matrix n`` against A^n assembled from the T oracle, the S and C
    oracles in json and csv, and ``term`` in plain."""
    entries = _oracle_matrix(n)
    minors = _oracle_minors(entries)
    code, out, _ = run(capsys, "matrix", "--format", fmt, "--", str(n))
    assert code == 0
    if fmt == "json":
        assert json.loads(out) == {
            "command": "matrix",
            "n": n,
            "entries": [[str(x) for x in row] for row in entries],
            "trace": str(oracle_s(n, n)[n]),
            "minors": {**{k: str(v) for k, v in minors.items()}, "total": str(oracle_c(n, n)[n])},
        }
    elif fmt == "csv":
        assert out.splitlines() == [
            "field,position,value",
            *(f"entry,{i}{j},{entries[i][j]}" for i in range(3) for j in range(3)),
            f"trace,,{oracle_s(n, n)[n]}",
            f"minor_sum,,{oracle_c(n, n)[n]}",
        ]
    else:
        assert out.splitlines() == [
            f"A^{n}",
            *(" ".join(str(x) for x in row) for row in entries),
            f"trace {s_lucas(n)}",
            "minors " + " ".join(str(v) for v in minors.values()),
            f"minor_sum {c_seq(n)}",
        ]


def test_matrix_json(capsys):
    _check_matrix(capsys, 30, "json")


def test_matrix_csv(capsys):
    _check_matrix(capsys, 30, "csv")


@pytest.mark.parametrize("fmt", ["plain", "json", "csv"])
def test_matrix_at_a_negative_index(fmt, capsys):
    _check_matrix(capsys, -50, fmt)


def test_roots_csv(capsys):
    code, out, _ = run(capsys, "roots", "15", "--format", "csv")
    assert code == 0
    rows = dict(line.split(",") for line in out.splitlines())
    assert list(rows) == ["field", "precision", "alpha", "beta_real", "beta_imag", "abs_beta",
                          "residual_sum", "residual_pair", "residual_product", "index_cap"]
    assert rows["field"] == "value"
    assert rows["precision"] == "15"
    assert rows["alpha"].startswith("1.8392867552")
    assert rows["beta_real"].startswith("-0.4196433776")
    assert rows["beta_imag"].startswith("0.6062907292")
    assert abs(float(rows["abs_beta"]) - 0.737353) < 5e-7
    assert all(float(rows[k]) < 1e-12 for k in ("residual_sum", "residual_pair", "residual_product"))
    assert rows["index_cap"] == "30"


@pytest.fixture
def mismatching_s_fixture(tmp_path):
    path = tmp_path / "b001644.txt"
    path.write_text("0 3\n1 1\n2 4\n3 7\n4 12\n", encoding="ascii")
    return path


def test_crosscheck_json_with_mismatches(mismatching_s_fixture, capsys):
    s = oracle_s(0, 4)
    code, out, _ = run(capsys, "crosscheck", "S", str(mismatching_s_fixture), "--format", "json")
    assert code == 3
    assert json.loads(out) == {
        "command": "crosscheck",
        "sequence_id": "A001644",
        "offset_used": 0,
        "rows_compared": 5,
        "mismatches": [{"index": 2, "local": str(s[2]), "bfile": "4"},
                       {"index": 4, "local": str(s[4]), "bfile": "12"}],
        "ok": False,
    }


def test_crosscheck_csv_with_mismatches(mismatching_s_fixture, capsys):
    s = oracle_s(0, 4)
    code, out, _ = run(capsys, "crosscheck", "S", str(mismatching_s_fixture), "--format", "csv")
    assert code == 3
    assert out == f"index,local,bfile\n2,{s[2]},4\n4,{s[4]},12\n"


# S(40), S(-40), T(60) and T(-60) lie within the binet index cap of 60 at
# precision 30; C(100) and C(-2000) do not.
@pytest.mark.parametrize("kind, n, oracle", [
    ("S", 40, oracle_s), ("S", -40, oracle_s), ("T", 60, oracle_t), ("T", -60, oracle_t),
    ("C", 100, oracle_c), ("C", -2000, oracle_c),
])
def test_bench_csv(kind, n, oracle, capsys):
    code, out, _ = run(capsys, "bench", "--format", "csv", kind, "--", str(n), "1")
    assert code == 0
    header, *rows = [line.split(",", 3) for line in out.splitlines()]
    assert header == ["strategy", "seconds", "value", "note"]
    for row in rows:
        if row[1]:
            assert float(row[1]) >= 0
            row[1] = "<seconds>"
    value = str(oracle(n, n)[n])
    binet = (["binet", "<seconds>", value, ""] if abs(n) <= 60 else
             ["binet", "", "", f"bound exceeded: |n| = {abs(n)} exceeds the certified index "
                              "cap 60 at precision 30"])
    assert rows == [["recurrence", "<seconds>", value, ""],
                    ["matrix", "<seconds>", value, ""],
                    binet]


def test_expand_json(capsys):
    code, out, _ = run(capsys, "expand", "S", "40", "--format", "json")
    assert code == 0
    assert json.loads(out) == {
        "command": "expand",
        "numerator": [3, -2, -1],
        "denominator": [1, -1, -1, -1],
        "coefficients": [str(v) for v in oracle_s(0, 39).values()],
    }


def _captured(*argv):
    """``run`` without capsys, which hypothesis tests cannot take."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(list(argv))
    return code, out.getvalue(), err.getvalue()


def _old_text_rows(fmt, header, rows):
    """Rows as they printed before ``render_rows``: one f-string a row."""
    if fmt == "csv":
        return header + "\n" + "".join(f"{n},{value}\n" for n, value in rows)
    return "\n".join(f"{n} {value}" for n, value in rows) + "\n"


_ORACLES = {"T": oracle_t, "S": oracle_s, "C": oracle_c}


@pytest.mark.parametrize("fmt", cli.FORMATS)
@pytest.mark.parametrize("strategy", ["recurrence", "matrix", "binet"])
@settings(max_examples=15, deadline=None)
@given(kind=st.sampled_from("TSC"), lo=st.integers(-60, 60), width=st.integers(0, 30))
@example(kind="T", lo=-9, width=0)  # one row, negative
@example(kind="C", lo=-4, width=8)  # crossing zero
@example(kind="S", lo=60, width=0)  # one row at binet's index cap for precision 30
def test_eval_stdout_is_the_old_rendering(strategy, fmt, kind, lo, width):
    hi = min(lo + width, 60)
    if fmt == "bfile" and lo < 0:
        expected = (2, "", "tribokit: bfile format requires lo >= 0\n")
    else:
        rows = sorted(_ORACLES[kind](lo, hi).items())
        if fmt == "json":
            out = json.dumps({"command": "eval", "kind": kind, "strategy": strategy,
                              "values": [{"n": n, "value": str(v)} for n, v in rows]}) + "\n"
        else:
            out = _old_text_rows(fmt, "n,value", rows)
        expected = (0, out, "")
    argv = ["eval", "--format", fmt, "--strategy", strategy, kind, "--", str(lo), str(hi)]
    assert _captured(*argv) == expected


@pytest.mark.parametrize("fmt", ["plain", "json", "csv"])
@settings(max_examples=25, deadline=None)
@given(
    source=st.sampled_from(["S", "C", "CEven", None]),
    num=st.lists(st.integers(min_value=-50, max_value=50), min_size=1, max_size=6),
    den_tail=st.lists(st.integers(min_value=-4, max_value=4), min_size=1, max_size=5).filter(any),
    count=st.integers(min_value=1, max_value=80),
)
@example(source=None, num=[-3, -1, 2], den_tail=[1, 1, -1], count=1)
def test_expand_stdout_is_the_old_rendering(fmt, source, num, den_tail, count):
    if source is None:
        ogf = genfunc.RationalOGF(tuple(num), (1, *den_tail))
        argv = [f"--num={','.join(map(str, num))}", f"--den={','.join(map(str, (1, *den_tail)))}"]
    else:
        ogf, argv = genfunc.builtin_ogf(source), [source]
    values = genfunc.expand(ogf, count)
    if fmt == "json":
        out = json.dumps({"command": "expand", "numerator": list(ogf.numerator),
                          "denominator": list(ogf.denominator),
                          "coefficients": [str(v) for v in values]}) + "\n"
    else:
        out = _old_text_rows(fmt, "n,coefficient", enumerate(values))
    assert _captured("expand", "--format", fmt, *argv, str(count)) == (0, out, "")


@settings(max_examples=30, deadline=None)
@given(kind=st.sampled_from(list(SequenceKind)), lo=st.integers(0, 300), width=st.integers(0, 40))
def test_format_bfile_is_eval_bfile_stdout(kind, lo, width):
    code, out, err = _captured("eval", "--format", "bfile", kind.value, str(lo), str(lo + width))
    assert (code, err) == (0, "")
    assert oeis.format_bfile(kind, lo, lo + width) == out


# T(16230) has fewer digits than str(int) may print and T(16270) more, and
# so have S(0) and S(16299): the output is refused whole, before any byte.
_PAST_THE_DIGIT_LIMIT = [
    *(["eval", "--format", fmt, "--strategy", strategy, "T", "16230", "16270"]
      for fmt in cli.FORMATS for strategy in ("recurrence", "matrix")),
    *(["expand", "--format", fmt, "S", "16300"] for fmt in ("plain", "json", "csv")),
]


@pytest.mark.parametrize("argv", _PAST_THE_DIGIT_LIMIT,
                         ids=[" ".join(argv) for argv in _PAST_THE_DIGIT_LIMIT])
def test_a_range_past_the_digit_limit_prints_nothing(argv, capsys):
    message = (f"Exceeds the limit ({sys.get_int_max_str_digits()} digits) for integer string "
               "conversion; use sys.set_int_max_str_digits() to increase the limit")
    assert run(capsys, *argv) == (2, "", f"tribokit: {message}\n")


def test_json_rows_do_not_pass_through_json_dumps(monkeypatch, capsys):
    dumped = []
    dumps = json.dumps

    def recording(*args, **kwargs):
        dumped.append(dumps(*args, **kwargs))
        return dumped[-1]

    monkeypatch.setattr(json, "dumps", recording)
    for argv in (["eval", "--format", "json", "S", "0", "2000"],
                 ["expand", "--format", "json", "C", "2000"]):
        code, out, err = run(capsys, *argv)
        assert (code, err) == (0, "")
        assert len(out) > 100_000
    assert 0 < sum(map(len, dumped)) < 1024


def test_verify_plain_lists_ten_counterexamples_then_the_rest(monkeypatch, capsys):
    flipped = tuple((name, "2*S(n) = C(n)^2 + C(2n)  [n >= 0]" if name == "CN2" else statement)
                    for name, statement in identities.CATALOGUE)
    monkeypatch.setattr(identities, "CATALOGUE", flipped)
    s, c = oracle_s(0, 10), oracle_c(0, 20)
    code, out, _ = run(capsys, "verify", "CN2", "--range", "0:10")
    assert code == 3
    assert out.splitlines() == [
        "CN2  n in [0, 10]  cases=11  counterexamples=11  FAILED",
        *(f"  at ({n},): lhs={2 * s[n]} rhs={c[n] ** 2 + c[2 * n]}" for n in range(10)),
        "  ... 1 more",
    ]


# One cheap request per command; its json payload leads with the command name.
_JSON_REQUESTS = [
    ["eval", "S", "0", "3"],
    ["verify", "CN2", "--range", "0:3"],
    ["expand", "S", "4"],
    ["matrix", "3"],
    ["roots", "15"],
    ["crosscheck", "S", "--rows", "5"],
    ["bench", "S", "10", "1"],
]


@pytest.mark.parametrize("argv", _JSON_REQUESTS, ids=[argv[0] for argv in _JSON_REQUESTS])
def test_json_output_starts_with_the_command(argv, capsys):
    code, out, err = run(capsys, *argv, "--format", "json")
    assert (code, err) == (0, "")
    assert out.startswith(f'{{"command": "{argv[0]}", ')
    assert out.endswith("}\n") and out.count("\n") == 1


def test_unreadable_config_message(capsys):
    assert run(capsys, "verify", "SQUARE", "--config", "/no/such/cfg") == (
        2, "", "tribokit: cannot read config '/no/such/cfg': "
        "[Errno 2] No such file or directory: '/no/such/cfg'\n")


def test_unreadable_fixture_message(capsys):
    assert run(capsys, "crosscheck", "S", "/no/such/file.txt") == (
        2, "", "tribokit: cannot read fixture '/no/such/file.txt': "
        "[Errno 2] No such file or directory: '/no/such/file.txt'\n")


def test_unreadable_fixture_dir_message(tmp_path, capsys):
    config = tmp_path / "cfg"
    config.write_text(f"fixture_dir = {tmp_path}\n", encoding="ascii")
    path = tmp_path / "b073145.txt"
    assert run(capsys, "crosscheck", "C", "--config", str(config)) == (
        2, "", f"tribokit: cannot read fixture '{path}': "
        f"[Errno 2] No such file or directory: '{path}'\n")


def _module_env():
    """The environment of a fresh interpreter that imports this tribokit, with no config."""
    package_root = os.path.dirname(os.path.dirname(cli.__file__))
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [package_root, os.environ.get("PYTHONPATH")]))}
    env.pop(cli.CONFIG_ENV, None)
    return env


def _run_module(*argv):
    done = subprocess.run([sys.executable, "-m", "tribokit.cli", *argv], env=_module_env(),
                          capture_output=True, text=True, timeout=60)
    return done.returncode, done.stdout, done.stderr


def test_module_entry_point_exit_statuses(mismatching_s_fixture):
    code, out, err = _run_module("verify", "CN2", "--range", "0:5")
    assert (code, err) == (0, "")
    assert out == "CN2  n in [0, 5]  cases=6  counterexamples=0  ok\n"
    assert _run_module("eval", "T", "5", "4") == (2, "", "tribokit: empty range: 5 exceeds 4\n")
    code, out, err = _run_module("crosscheck", "S", str(mismatching_s_fixture))
    assert (code, err) == (3, "")
    assert out.startswith("A001644  offset=0  rows=5  mismatches=2  FAILED\n")


# Run in a fresh interpreter: the commands that need neither mpmath nor the
# HTTP stack, and a refused transport, then ``roots``.  A module that a
# site hook loaded before tribokit was imported does not count against it.
_COLD_START = """
import json, sys
heavy = ("mpmath", "urllib.request")
preloaded = {name for name in heavy if name in sys.modules}
from tribokit import cli, oeis
statuses = [cli.main(argv) for argv in json.loads(sys.argv[1])]
try:
    oeis.http_transport("ftp://x")
    refused = False
except ValueError:
    refused = True
loaded = [name for name in heavy if name in sys.modules and name not in preloaded]
roots = cli.main(["roots", "15"])
print(json.dumps({"statuses": statuses, "refused": refused, "loaded": loaded,
                  "roots": roots, "mpmath_after_roots": "mpmath" in sys.modules}))
"""


def test_cold_start_loads_mpmath_and_http_only_where_they_are_used():
    requests = [argv for argv in _JSON_REQUESTS
                if argv[0] in ("eval", "verify", "expand", "matrix", "crosscheck")]
    done = subprocess.run([sys.executable, "-c", _COLD_START, json.dumps(requests)],
                          env=_module_env(), capture_output=True, text=True, timeout=60)
    assert (done.returncode, done.stderr) == (0, "")
    assert json.loads(done.stdout.splitlines()[-1]) == {
        "statuses": [0] * 5,
        "refused": True,
        "loaded": [],
        "roots": 0,
        "mpmath_after_roots": True,
    }


# Run without site (-S), which on some installs preloads importlib.resources.
_COMMAND_LOADS = """
import contextlib, io, sys
watched = ("dataclasses", "inspect", "json", "csv", "importlib.resources")
preloaded = set(sys.modules)
from tribokit import cli
cli.transport_factory = lambda base_url: lambda sequence_id: "0 3\\n1 1\\n2 3\\n"
with contextlib.redirect_stdout(io.StringIO()):
    status = cli.main(sys.argv[1:])
loaded = {name for name in sys.modules
          if name not in preloaded and (name.startswith("tribokit.") or name in watched)}
print(status, *sorted(loaded - {"tribokit.cli", "tribokit.seqcore"}))
"""
_FIXTURE = os.path.join(os.path.dirname(cli.__file__), "fixtures", "b001644.txt")
_DATACLASSES = ("dataclasses", "inspect")
_COMMAND_LAYERS = [
    (["eval", "S", "0", "3"], ()),
    (["eval", "S", "0", "3", "--format", "csv"], ()),  # integer rows need no csv quoting
    (["eval", "S", "0", "3", "--format", "json"], ("json",)),
    (["eval", "--strategy", "matrix", "S", "0", "3"], ("tribokit.tribomatrix", *_DATACLASSES)),
    (["verify", "CN2", "--range", "0:3"], ("tribokit.identities", *_DATACLASSES)),
    (["verify", "CN2", "--range", "0:3", "--format", "json"],
     ("tribokit.identities", *_DATACLASSES, "json")),
    (["expand", "S", "4"], ("tribokit.genfunc", *_DATACLASSES)),
    (["matrix", "3"], ("tribokit.tribomatrix", *_DATACLASSES)),
    (["matrix", "3", "--format", "csv"], ("tribokit.tribomatrix", *_DATACLASSES, "csv")),
    (["crosscheck", "S", _FIXTURE, "5"], ("tribokit.oeis", *_DATACLASSES)),
    (["crosscheck", "S", "--fetch"], ("tribokit.oeis", *_DATACLASSES)),
    (["crosscheck", "S", "--rows", "5"], ("tribokit.oeis", *_DATACLASSES, "importlib.resources")),
    (["eval", "--strategy", "binet", "S", "0", "3"], ("tribokit.analytic", *_DATACLASSES)),
    (["bench", "S", "10", "1"], ("tribokit.analytic", "tribokit.tribomatrix", *_DATACLASSES)),
]


@pytest.mark.parametrize("argv, layers", _COMMAND_LAYERS,
                         ids=[" ".join(argv).replace(_FIXTURE, "PATH")
                              for argv, _ in _COMMAND_LAYERS])
def test_cold_start_loads_only_the_commands_own_layer(argv, layers):
    env = _module_env()
    # without site, mpmath's own directory goes on the path
    env["PYTHONPATH"] += os.pathsep + os.path.dirname(os.path.dirname(mpmath.__file__))
    done = subprocess.run([sys.executable, "-S", "-c", _COMMAND_LOADS, *argv],
                          env=env, capture_output=True, text=True, timeout=60)
    assert (done.returncode, done.stderr) == (0, "")
    assert done.stdout.split() == ["0", *sorted(layers)]


def test_eval_matrix_strategy_multiplies_once_between_rows(monkeypatch, capsys):
    right_operands = []
    original = tribomatrix.mat_mul

    def counting(a, b):
        right_operands.append(b)
        return original(a, b)

    monkeypatch.setattr(tribomatrix, "mat_mul", counting)
    # S steps by A, C by A^-1: six products for seven rows.
    for kind, oracle, step in (("S", oracle_s, tribomatrix.mat_pow(1)),
                               ("C", oracle_c, tribomatrix.mat_pow(-1))):
        right_operands.clear()
        code, out, _ = run(capsys, "eval", kind, "0", "6", "--strategy", "matrix")
        assert code == 0
        assert out.splitlines() == [f"{n} {v}" for n, v in oracle(0, 6).items()]
        assert right_operands == [step] * 6


@pytest.mark.parametrize("n", [3001, 3000, -3001, -3000, 1, 0])
def test_a_single_matrix_value_squares_only_up_to_the_half_power(monkeypatch, capsys, n):
    # One value is read off A^(n//2) and its neighbour: A^n itself is never formed.
    squarings = []
    original = tribomatrix._square

    def counting(m):
        squarings.append(m)
        return original(m)

    monkeypatch.setattr(tribomatrix, "_square", counting)
    half_power_squarings = len(bin(abs(n // 2))) - 2
    code, out, _ = run(capsys, "eval", "--strategy", "matrix", "S", "--", str(n), str(n))
    assert (code, out) == (0, f"{n} {s_lucas(n)}\n")
    assert len(squarings) == half_power_squarings
    squarings.clear()
    code, out, _ = run(capsys, "bench", "--format", "json", "S", "--", str(n), "1")
    assert code == 0
    rows = {row["strategy"]: row for row in json.loads(out)["strategies"]}
    assert rows["matrix"]["value"] == str(s_lucas(n))
    assert len(squarings) == half_power_squarings


def test_matrix_route_values_compute_no_minors(monkeypatch, capsys):
    def refuse(*args, **kwargs):
        raise AssertionError("a matrix-route value computed 2x2 minors")

    monkeypatch.setattr(tribomatrix, "minors_of", refuse)
    monkeypatch.setattr(tribomatrix, "minor_sum", refuse)
    for lo, hi in ((0, 40), (-40, -1)):
        code, out, err = run(capsys, "eval", "--strategy", "matrix", "C", "--", str(lo), str(hi))
        assert (code, err) == (0, "")
        assert out.splitlines() == [f"{n} {v}" for n, v in sorted(oracle_c(lo, hi).items())]
    code, out, err = run(capsys, "bench", "--format", "json", "C", "3000", "1")
    assert (code, err) == (0, "")
    strategies = {row["strategy"]: row for row in json.loads(out)["strategies"]}
    assert strategies["matrix"]["value"] == strategies["recurrence"]["value"] == str(c_seq(3000))


def test_failed_write_exits_2(monkeypatch, capsys):
    class ClosedPipe:
        def write(self, text):
            raise BrokenPipeError(32, "Broken pipe")

    monkeypatch.setattr(sys, "stdout", ClosedPipe())
    assert cli.main(["eval", "S", "0", "4"]) == 2
    assert capsys.readouterr().err == "tribokit: [Errno 32] Broken pipe\n"


def test_main_builds_one_parser_and_dispatches_by_command_name(monkeypatch, capsys):
    parsers = []
    parse_args = argparse.ArgumentParser.parse_args

    def recording(self, *args, **kwargs):
        parsers.append(self)
        return parse_args(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "parse_args", recording)
    assert run(capsys, "eval", "S", "0", "1") == (0, "0 3\n1 1\n", "")
    monkeypatch.setattr(cli, "cmd_matrix", lambda args, config, fmt: (0, f"stub {args.n}"))
    assert run(capsys, "matrix", "3") == (0, "stub 3\n", "")
    assert len(parsers) == 2
    assert parsers[0] is parsers[1]
