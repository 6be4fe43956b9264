"""OEIS b-file parsing, formatting, and sequence cross-checking.

A b-file is the OEIS bulk format: one ``index value`` pair per line,
``#`` comment lines and blank lines ignored, indices strictly
increasing.  Fixture copies for the three sequences ship with the
package; a transport hook allows live retrieval without hard-wiring any
network dependency into the library: ``http_transport`` imports
``urllib.request`` (and with it the HTTP, TLS and socket modules) only
when its transport first fetches, and ``bundled_fixture_text`` imports
``importlib.resources`` (with ``tempfile``, ``shutil`` and ``zipfile``)
when called, so parsing, formatting and crosschecking never load them.
"""
from __future__ import annotations

import re
import urllib.parse
from itertools import count
from time import monotonic
from typing import Callable, NamedTuple

from . import seqcore
# ``term`` stays bound here for perfbench/tracing.py, which wraps it by this name.
from .seqcore import SequenceKind, term  # noqa: F401

OEIS_IDS: dict[SequenceKind, str] = {
    SequenceKind.TRIBONACCI: "A000073",
    SequenceKind.GENERALIZED_LUCAS: "A001644",
    SequenceKind.MINOR_SUM: "A073145",
}

_ID_PATTERN = re.compile(r"\AA\d{6}\Z")
# Two ASCII integer tokens, all a b-file row holds; int() alone would
# also take "1_0" and non-ASCII digits.
_ROW = re.compile(r"([+-]?[0-9]+)\s+([+-]?[0-9]+)")

# Seconds a live b-file fetch may take: each socket wait, and the whole download.
FETCH_TIMEOUT_S = 30.0


class BFileError(ValueError):
    """Base for malformed b-file content."""


class BFileParseError(BFileError):
    """A line could not be read as two integer tokens."""

    def __init__(self, message: str, line_number: int):
        super().__init__(f"line {line_number}: {message}")
        self.line_number = line_number


class BFileStructureError(BFileError):
    """Token-level parsing succeeded but the row structure is invalid."""


class BFileFetchError(OSError):
    """Transport failure while retrieving a b-file."""


class BFile(NamedTuple):
    sequence_id: str
    rows: tuple[tuple[int, int], ...]


class CrosscheckReport(NamedTuple):
    sequence_id: str
    offset_used: int
    rows_compared: int
    mismatches: tuple[tuple[int, int, int], ...]  # (index, local, bfile)

    @property
    def ok(self) -> bool:
        return not self.mismatches


def _check_id(sequence_id: str) -> str:
    if not _ID_PATTERN.match(sequence_id):
        raise ValueError(f"sequence id must match A followed by six digits, got {sequence_id!r}")
    return sequence_id


def _token_error(tokens: tuple[str, ...]) -> str:
    """Why int() refused an ASCII integer token: it passes the int/str
    digit limit, which is named without echoing the digits."""
    limit = seqcore._str_limit()
    digits = next(n for n in (len(token.lstrip("+-")) for token in tokens) if n > limit)
    return f"{digits}-digit token exceeds the int/str conversion limit of {limit} digits"


def parse_bfile(text: str, sequence_id: str) -> BFile:
    """Parse b-file text; raises on malformed lines or bad row structure."""
    _check_id(sequence_id)
    rows: list[tuple[int, int]] = []
    for line_number, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        row = _ROW.fullmatch(line)
        if row is None:
            tokens = line.split()
            if len(tokens) != 2:
                raise BFileParseError(
                    f"expected two integer tokens, got {len(tokens)}: {line!r}", line_number
                )
            raise BFileParseError(f"non-integer token in {line!r}", line_number)
        try:
            index, value = int(row[1]), int(row[2])
        except ValueError:
            raise BFileParseError(_token_error(row.groups()), line_number) from None
        if rows and index <= rows[-1][0]:
            raise BFileStructureError(
                f"line {line_number}: index {index} does not increase past {rows[-1][0]}"
            )
        rows.append((index, value))
    if not rows:
        raise BFileStructureError("b-file contains no data rows")
    return BFile(sequence_id=sequence_id, rows=tuple(rows))


def format_bfile(kind: SequenceKind, lo: int, hi: int) -> str:
    """Render sequence terms in b-file format; indices must be >= 0.  The
    rows are those of ``tribokit eval --format bfile``, from the same
    renderer, ``cli.render_rows``."""
    if lo < 0:
        raise ValueError(f"b-file indices must be >= 0, got lo={lo}")
    from .cli import render_rows

    return render_rows("bfile", "n,value", lo, seqcore.range_text(kind, lo, hi))


def crosscheck(kind: SequenceKind, bfile: BFile, max_rows: int) -> CrosscheckReport:
    """Compare b-file rows against locally computed terms, index for index.

    Alignment is by the b-file's own indices (its first index is
    recorded as offset_used), so a file following a different offset
    convention shows up as explicit mismatches, never as silent skew.
    Local terms come from one ladder call at the first row, then one
    recurrence step per index up to the last row, in constant memory.
    """
    if max_rows < 1:
        raise ValueError(f"max_rows must be >= 1, got {max_rows}")
    selected = bfile.rows[:max_rows]
    if not selected:
        raise BFileStructureError("b-file contains no data rows")
    first = selected[0][0]
    local_terms = zip(count(first), seqcore.RECURRENCES[kind].terms(first))
    mismatches = []
    for index, listed in selected:
        n, local = next(pair for pair in local_terms if pair[0] >= index)
        if n != index:
            raise BFileStructureError(f"row index {index} does not increase past {n - 1}")
        if local != listed:
            mismatches.append((index, local, listed))
    return CrosscheckReport(
        sequence_id=bfile.sequence_id,
        offset_used=bfile.rows[0][0],
        rows_compared=len(selected),
        mismatches=tuple(mismatches),
    )


def bundled_fixture_text(sequence_id: str) -> str:
    """Text of the packaged fixture b-file for the given id."""
    from importlib import resources

    _check_id(sequence_id)
    name = f"b{sequence_id[1:]}.txt"
    resource = resources.files("tribokit").joinpath("fixtures").joinpath(name)
    try:
        return resource.read_text(encoding="ascii")
    except FileNotFoundError:
        raise FileNotFoundError(f"no bundled fixture for {sequence_id}") from None


def http_transport(base_url: str = "https://oeis.org") -> Callable[[str], str]:
    """Transport fetching ``<base_url>/<id>/b<digits>.txt``; trailing
    slashes of ``base_url`` are dropped.  Refuses, before any fetch, a
    ``base_url`` that does not parse as http(s) with a host and a valid
    port, or that carries a query or fragment, which would swallow the
    appended path.  A fetch raises ``TimeoutError`` once the download has
    run past ``FETCH_TIMEOUT_S``; as one socket wait may also take that
    long, it ends within about twice ``FETCH_TIMEOUT_S``."""
    try:
        parts = urllib.parse.urlsplit(base_url)
        parts.port  # raises ValueError unless the port is a number in 0..65535
    except ValueError:
        parts = None
    if parts is None or parts.scheme not in ("http", "https") or not parts.hostname or any(
        c in base_url for c in "?#"
    ):
        raise ValueError(
            f"oeis_url must be an http(s) URL without query or fragment, got {base_url!r}"
        )
    base_url = base_url.rstrip("/")

    def fetch(sequence_id: str) -> str:
        import urllib.request

        url = f"{base_url}/{sequence_id}/b{sequence_id[1:]}.txt"
        deadline = monotonic() + FETCH_TIMEOUT_S
        chunks = []
        with urllib.request.urlopen(url, timeout=FETCH_TIMEOUT_S) as response:
            # read1 returns what has arrived; read(n) would wait for all n bytes
            while chunk := response.read1(1 << 16):
                if monotonic() > deadline:
                    raise TimeoutError(f"download took longer than {FETCH_TIMEOUT_S} s")
                chunks.append(chunk)
        return b"".join(chunks).decode("utf-8")

    return fetch


def fetch_bfile(sequence_id: str, transport: Callable[[str], str]) -> BFile:
    """Retrieve and parse a b-file through the injected transport."""
    _check_id(sequence_id)
    try:
        text = transport(sequence_id)
    except Exception as exc:
        raise BFileFetchError(f"transport failed for {sequence_id}: {exc}") from exc
    return parse_bfile(text, sequence_id)
