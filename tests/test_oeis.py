from __future__ import annotations

import sys
import urllib.request

import pytest
from hypothesis import given, strategies as st

from tribokit import oeis
from tribokit.oeis import (
    OEIS_IDS,
    BFile,
    BFileFetchError,
    BFileParseError,
    BFileStructureError,
    FETCH_TIMEOUT_S,
    bundled_fixture_text,
    crosscheck,
    fetch_bfile,
    format_bfile,
    http_transport,
    parse_bfile,
)
from tribokit.seqcore import SequenceKind, term


def test_parse_simple():
    bfile = parse_bfile("0 3\n1 1\n2 3\n", "A001644")
    assert bfile.sequence_id == "A001644"
    assert bfile.rows == ((0, 3), (1, 1), (2, 3))


def test_parse_skips_comments_and_blanks():
    text = "# header\n\n0 0\n   \n# mid\n1 1\n"
    assert parse_bfile(text, "A000073").rows == ((0, 0), (1, 1))


def test_parse_reports_line_numbers():
    with pytest.raises(BFileParseError) as err:
        parse_bfile("0 3\n1 x\n", "A001644")
    assert err.value.line_number == 2
    assert "line 2" in str(err.value)
    with pytest.raises(BFileParseError) as err:
        parse_bfile("0 3\n# fine\n\n2 3 9\n", "A001644")
    assert err.value.line_number == 4
    # int() takes these too, but no b-file holds them
    for bad in ("1 1_0", "1 \u0663"):
        with pytest.raises(BFileParseError) as err:
            parse_bfile(f"0 3\n{bad}\n", "A001644")
        assert err.value.line_number == 2
        assert str(err.value) == f"line 2: non-integer token in {bad!r}"


@pytest.mark.skipif(not hasattr(sys, "get_int_max_str_digits"), reason="no int/str digit limit")
def test_parse_reports_a_value_past_the_digit_limit():
    limit = sys.get_int_max_str_digits()
    text = "0 3\n1 -" + "7" * (limit + 1) + "\n"
    with pytest.raises(BFileParseError) as excinfo:
        parse_bfile(text, "A001644")
    assert excinfo.value.line_number == 2
    assert str(excinfo.value) == (
        f"line 2: {limit + 1}-digit token exceeds the int/str conversion limit of {limit} digits"
    )


def test_parse_rejects_non_increasing_indices():
    with pytest.raises(BFileStructureError) as err:
        parse_bfile("0 3\n1 1\n1 5\n", "A001644")
    assert "line 3" in str(err.value)


def test_parse_rejects_empty_content():
    with pytest.raises(BFileStructureError):
        parse_bfile("# only a comment\n", "A001644")


def test_bad_sequence_id():
    with pytest.raises(ValueError):
        parse_bfile("0 3\n", "B123")
    with pytest.raises(ValueError):
        parse_bfile("0 0\n", "A12345")  # five digits, not six


def test_format_examples():
    assert format_bfile(SequenceKind.MINOR_SUM, 0, 3) == "0 3\n1 -1\n2 -1\n3 5\n"
    assert format_bfile(SequenceKind.TRIBONACCI, 0, 0) == "0 0\n"


def test_format_rejects_bad_ranges():
    with pytest.raises(ValueError):
        format_bfile(SequenceKind.TRIBONACCI, -1, 3)
    with pytest.raises(ValueError):
        format_bfile(SequenceKind.TRIBONACCI, 4, 3)


@given(
    kind=st.sampled_from(list(SequenceKind)),
    hi=st.integers(min_value=0, max_value=100),
)
def test_format_parse_round_trip(kind, hi):
    sequence_id = OEIS_IDS[kind]
    bfile = parse_bfile(format_bfile(kind, 0, hi), sequence_id)
    assert bfile.rows == tuple((n, term(kind, n)) for n in range(hi + 1))
    assert crosscheck(kind, bfile, hi + 1).ok


@pytest.mark.parametrize("kind", list(SequenceKind))
def test_bundled_fixtures_match(kind):
    sequence_id = OEIS_IDS[kind]
    bfile = parse_bfile(bundled_fixture_text(sequence_id), sequence_id)
    assert len(bfile.rows) >= 50
    report = crosscheck(kind, bfile, 50)
    assert report.rows_compared == 50
    assert report.offset_used == 0
    assert report.ok


def test_crosscheck_detects_corruption():
    sequence_id = OEIS_IDS[SequenceKind.GENERALIZED_LUCAS]
    rows = list(parse_bfile(bundled_fixture_text(sequence_id), sequence_id).rows)
    rows[7] = (rows[7][0], rows[7][1] + 1)
    corrupted = BFile(sequence_id=sequence_id, rows=tuple(rows))
    report = crosscheck(SequenceKind.GENERALIZED_LUCAS, corrupted, 50)
    assert not report.ok
    assert report.mismatches == ((7, 71, 72),)


def test_crosscheck_row_budget():
    bfile = parse_bfile("0 3\n1 1\n2 3\n", "A001644")
    report = crosscheck(SequenceKind.GENERALIZED_LUCAS, bfile, 10)
    assert report.rows_compared == 3
    with pytest.raises(ValueError):
        crosscheck(SequenceKind.GENERALIZED_LUCAS, bfile, 0)


def test_crosscheck_reports_offset():
    bfile = parse_bfile("3 7\n4 11\n", "A001644")
    report = crosscheck(SequenceKind.GENERALIZED_LUCAS, bfile, 2)
    assert report.offset_used == 3
    assert report.ok


def test_crosscheck_steps_through_index_gaps():
    sequence_id = OEIS_IDS[SequenceKind.TRIBONACCI]
    rows = tuple((n, term(SequenceKind.TRIBONACCI, n)) for n in (-4, 0, 1, 9, 300))
    report = crosscheck(SequenceKind.TRIBONACCI, BFile(sequence_id, rows), 10)
    assert report.offset_used == -4
    assert report.rows_compared == 5
    assert report.ok


def test_crosscheck_rejects_rows_out_of_order():
    bfile = BFile("A001644", ((0, 3), (2, 3), (1, 1)))
    with pytest.raises(BFileStructureError):
        crosscheck(SequenceKind.GENERALIZED_LUCAS, bfile, 3)


def test_crosscheck_rejects_a_bfile_without_rows():
    with pytest.raises(BFileStructureError, match="^b-file contains no data rows$"):
        crosscheck(SequenceKind.GENERALIZED_LUCAS, BFile("A001644", ()), 3)


def test_http_transport_passes_a_timeout(monkeypatch):
    seen = {}

    class Response:
        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        body = b"0 3\n"

        def read(self):
            return b"0 3\n"

        def read1(self, size):
            body, self.body = self.body, b""
            return body

    def fake_urlopen(url, *args, **kwargs):
        seen["url"], seen["timeout"] = url, kwargs.get("timeout")
        return Response()

    monkeypatch.setattr(urllib.request, "urlopen", fake_urlopen)
    assert http_transport("https://example.invalid")("A001644") == "0 3\n"
    assert seen == {"url": "https://example.invalid/A001644/b001644.txt", "timeout": FETCH_TIMEOUT_S}
    assert 0 < FETCH_TIMEOUT_S < float("inf")


class _TricklingResponse:
    """Sends one b-file row per read1 call, without end, while each call
    advances a fake clock by one second."""

    def __init__(self, clock):
        self.clock, self.reads = clock, 0

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def read1(self, size):
        self.clock[0] += 1.0
        self.reads += 1
        return f"{self.reads} {self.reads}\n".encode()


@pytest.fixture
def trickling_server(monkeypatch):
    clock = [0.0]
    responses = []

    def fake_urlopen(url, *args, **kwargs):
        responses.append(_TricklingResponse(clock))
        return responses[-1]

    monkeypatch.setattr(oeis, "monotonic", lambda: clock[0])
    monkeypatch.setattr(urllib.request, "urlopen", fake_urlopen)
    return responses


def test_http_transport_stops_a_download_past_the_deadline(trickling_server):
    with pytest.raises(TimeoutError, match=f"^download took longer than {FETCH_TIMEOUT_S} s$"):
        http_transport("https://example.invalid")("A001644")
    (response,) = trickling_server
    assert response.reads == int(FETCH_TIMEOUT_S) + 1


def test_fetch_past_the_deadline_is_a_fetch_error(trickling_server):
    with pytest.raises(BFileFetchError, match="^transport failed for A001644: download took"):
        fetch_bfile("A001644", http_transport("https://example.invalid"))


@pytest.mark.parametrize("base_url", ["https://example.invalid", "https://example.invalid/"])
def test_http_transport_joins_the_path_with_one_slash(base_url, monkeypatch):
    seen = []

    def fake_urlopen(url, *args, **kwargs):
        seen.append(url)
        raise OSError("offline")

    monkeypatch.setattr(urllib.request, "urlopen", fake_urlopen)
    with pytest.raises(OSError):
        http_transport(base_url)("A000073")
    assert seen == ["https://example.invalid/A000073/b000073.txt"]


@pytest.mark.parametrize("base_url", [
    "https://oeis.org/#anchor",
    "https://oeis.org/?q=1",
    "https://oeis.org?",
    "ftp://oeis.org",
    "oeis.org",
    "https://",
    "http://[::1",
    "https://oeis.org:abc",
    "https://oeis.org:99999",
])
def test_http_transport_refuses_a_url_that_would_swallow_the_path(base_url, monkeypatch):
    # the fragment of https://oeis.org/#anchor/A000073/b000073.txt makes
    # the request's path "/": it would fetch the site root
    def never(*args, **kwargs):
        raise AssertionError("urlopen must not be called")

    monkeypatch.setattr(urllib.request, "urlopen", never)
    with pytest.raises(ValueError) as err:
        http_transport(base_url)
    assert str(err.value) == (
        f"oeis_url must be an http(s) URL without query or fragment, got {base_url!r}"
    )


def test_fetch_with_canned_transport():
    text = bundled_fixture_text("A001644")
    bfile = fetch_bfile("A001644", lambda sequence_id: text)
    assert bfile.rows[0] == (0, 3)


def test_fetch_empty_body_is_structural_error():
    with pytest.raises(BFileStructureError):
        fetch_bfile("A001644", lambda sequence_id: "")


def test_fetch_transport_failure_carries_the_id():
    def broken(sequence_id: str) -> str:
        raise OSError("connection refused")

    with pytest.raises(BFileFetchError) as err:
        fetch_bfile("A001644", broken)
    assert "A001644" in str(err.value)


def test_missing_bundled_fixture():
    with pytest.raises(FileNotFoundError):
        bundled_fixture_text("A999999")
