"""Seeded operation lists for the three benchmark workloads.

An operation is a plain dict: ``{"op": <type>, ...parameters}``.  The
generator only produces parameters; ``ops.py`` turns them into calls.

A run is a fixed number of blocks.  Each block holds every operation
type the workload covers, ``PER_BLOCK`` of each, in a fixed order, so
each type has the same weight and the memory-heavy operations come at
the same places in every run.  Sizes and precisions come from the seed
(``Draws``); kinds, formats and fault mutations rotate in a fixed order.

Workloads (all closed loops, one client):

* ``point``   certified single values at large |n|.
* ``table``   ranges, generating-function expansions and OEIS b-files.
* ``certify`` identity sweeps, fault injection and the analytic path.
"""
from __future__ import annotations

import hashlib
import json
import random
from typing import Iterator

WORKLOADS = ("point", "table", "certify")
FORMATS = ("json", "plain", "csv", "bfile")
TEXT_FORMATS = ("json", "plain", "csv")
# Operations of each type in one block.
PER_BLOCK = 2
# Width of the seeded shift of a draw about the centre of its stratum, as
# a share of the stratum.
JITTER = 1 / 8

# (name, arity, whole-line domain): the identity records of the registry.
RECORDS = (
    ("REC_C", 1, True),
    ("REC_CEVEN", 1, True),
    ("PROD_GE", 2, False),
    ("PROD_LT", 2, False),
    ("CONS_1", 1, False),
    ("CONS_2", 1, False),
    ("CONS_3", 2, False),
    ("SQUARE", 1, False),
    ("CUBE", 1, False),
    ("QUARTIC_A", 1, False),
    ("QUARTIC_B", 1, False),
    ("CN2", 1, False),
    ("S_T_FORMS", 1, True),
    ("C_T_FORMS", 1, True),
)
# Fault injections: one seed value of t, s or c moved by a small delta.
MUTATIONS = tuple((seq, position, delta) for seq in "tsc" for position in range(3)
                  for delta in (-2, -1, 1, 2))

# Size parameters.  "tiny" keeps every operation type but shrinks it for
# the self-test.
SIZES = {
    "point": {
        "full": {"n": (10**3, 10**5), "lib_n": (10**3, 3 * 10**4)},
        "tiny": {"n": (10, 100), "lib_n": (10, 60)},
    },
    "table": {
        "full": {
            "rows": (10**3, 10**4), "end": 2 * 10**4, "neg_lo": -(10**4),
            "matrix_rows": (20, 200), "coeffs": (300, 2 * 10**4),
            "bfile_rows": (50, 300), "bfile_end": (2000, 4000), "fixture_rows": 80,
        },
        "tiny": {
            "rows": (10, 60), "end": 200, "neg_lo": -100,
            "matrix_rows": (5, 20), "coeffs": (10, 200),
            "bfile_rows": (5, 20), "bfile_end": (30, 60), "fixture_rows": 20,
        },
    },
    "certify": {
        "full": {
            "sweep": (20, 250), "unary": (500, 4000), "pair": (60, 250), "cons3": (40, 160),
            "boundary": (500, 3000), "fault": (40, 120), "precision": (15, 1500),
            "binet_width": (1, 3),
        },
        "tiny": {
            "sweep": (5, 12), "unary": (5, 20), "pair": (3, 8), "cons3": (3, 8),
            "boundary": (5, 20), "fault": (3, 8), "precision": (15, 80), "binet_width": (1, 2),
        },
    },
}


def _log_int(bounds: tuple[int, int], unit: float) -> int:
    """The log-uniform integer in the inclusive bounds at ``unit`` of [0, 1]."""
    lo, hi = bounds
    return min(hi, max(lo, round(lo * (hi / lo) ** unit)))


def _int_in(lo: int, hi: int, unit: float) -> int:
    """The uniform integer in [lo, hi] at ``unit`` of [0, 1]."""
    return min(hi, lo + int(unit * (hi - lo + 1)))


class Draws:
    """Seeded draws for a run of ``blocks`` blocks.

    A slot is one parameter of one operation of the block, drawn at most
    once per block.  Its first draw is the top of its range, so every run
    starts with the largest inputs and the same memory peak.  The other
    blocks take one point from each of ``blocks - 1`` equal strata of the
    range, in seeded order and at a seeded place inside each stratum
    (Latin hypercube sampling), so every run covers each range evenly.
    Where the slot also picks a kind, the kinds take the strata in turn,
    so each kind covers the range evenly too.
    """

    def __init__(self, rng: random.Random, blocks: int):
        self._rng = rng
        self._strata = max(1, blocks - 1)
        self._units: dict[str, list[float]] = {}
        self._turns: dict[str, int] = {}

    def _next(self, slot: str) -> tuple[int, float]:
        """The slot's next (stratum, point of [0, 1]); the top is stratum -1."""
        if slot not in self._units:
            order = list(range(self._strata))
            random.Random(slot).shuffle(order)  # the same for every seed
            self._units[slot] = [(k, (k + 0.5 + JITTER * (self._rng.random() - 0.5)) / self._strata)
                                 for k in order]
            self._units[slot].append((-1, 1.0))
        return self._units[slot].pop()

    def unit(self, slot: str) -> float:
        return self._next(slot)[1]

    def kind_unit(self, slot: str, kinds):
        """The slot's next point of [0, 1] and the kind that owns its stratum."""
        stratum, unit = self._next(slot)
        return kinds[stratum % len(kinds)], unit

    def log_int(self, slot: str, bounds: tuple[int, int]) -> int:
        return _log_int(bounds, self.unit(slot))

    def int_in(self, slot: str, lo: int, hi: int) -> int:
        return _int_in(lo, hi, self.unit(slot))

    def cycle(self, slot: str, choices):
        """Next of ``choices`` in listed order, round and round."""
        k = self._turns.get(slot, 0)
        self._turns[slot] = k + 1
        return choices[k % len(choices)]


# One function per operation type: (draws, sizes, i) -> operation, where
# i counts the operations of that type in the block.

def _point_eval(d: Draws, s: dict, i: int) -> dict:
    # T, S and C; every other one at a negative index, where the bfile
    # format does not apply.
    sign = (1, -1)[i % 2]
    kind, unit = d.kind_unit(f"eval.n.{i}", "TSC")
    n = sign * _log_int(s["n"], unit)
    fmt = d.cycle(f"eval.format{sign:+d}", FORMATS if sign > 0 else TEXT_FORMATS)
    return {"op": "eval", "kind": kind, "lo": n, "hi": n, "format": fmt, "strategy": "recurrence"}


def _point_eval_matrix(d: Draws, s: dict, i: int) -> dict:
    kind, unit = d.kind_unit(f"eval_matrix.n.{i}", "SC")
    n = _log_int(s["n"], unit)
    return {"op": "eval", "kind": kind, "lo": n, "hi": n,
            "format": d.cycle("eval_matrix.format", FORMATS), "strategy": "matrix"}


def _point_matrix(d: Draws, s: dict, i: int) -> dict:
    return {"op": "matrix", "n": d.log_int(f"matrix.n.{i}", s["n"]),
            "format": d.cycle("matrix.format", TEXT_FORMATS)}


def _point_bench(d: Draws, s: dict, i: int) -> dict:
    kind, unit = d.kind_unit(f"bench.n.{i}", "SC")
    return {"op": "bench", "kind": kind, "n": _log_int(s["n"], unit),
            "format": d.cycle("bench.format", TEXT_FORMATS)}


def _point_s_from_t(d: Draws, s: dict, i: int) -> dict:
    return {"op": "s_from_t", "n": d.log_int(f"s_from_t.n.{i}", s["lib_n"]),
            "form": d.cycle("s_from_t.form", ("MINOR", "OGF"))}


def _point_c_from_t(d: Draws, s: dict, i: int) -> dict:
    return {"op": "c_from_t", "n": d.log_int(f"c_from_t.n.{i}", s["lib_n"]),
            "form": d.cycle("c_from_t.form", ("MINOR_EXPANSION", "SQUARE"))}


def _span(d: Draws, slot: str, kinds: str, rows_bounds: tuple[int, int], end: int) -> tuple[str, int, int]:
    """A kind and a span of seeded length inside [0, end]."""
    rows = d.log_int(f"{slot}.rows", rows_bounds)
    kind, unit = d.kind_unit(f"{slot}.lo", kinds)
    lo = _int_in(0, end - rows + 1, unit)
    return kind, lo, lo + rows - 1


def _table_eval(d: Draws, s: dict, i: int) -> dict:
    # Every other range starts at a negative index (no bfile format there).
    if i % 2 == 0:
        kind, lo, hi = _span(d, f"eval.{i}", "TSC", s["rows"], s["end"])
        fmt = d.cycle("eval.format+", FORMATS)
    else:
        kind, unit = d.kind_unit(f"eval.{i}.lo", "TSC")
        lo = -_int_in(1, -s["neg_lo"], unit)
        hi = lo + d.log_int(f"eval.{i}.rows", s["rows"]) - 1
        fmt = d.cycle("eval.format-", TEXT_FORMATS)
    return {"op": "eval", "kind": kind, "lo": lo, "hi": hi, "format": fmt, "strategy": "recurrence"}


def _table_eval_matrix(d: Draws, s: dict, i: int) -> dict:
    kind, lo, hi = _span(d, f"eval_matrix.{i}", "SC", s["matrix_rows"], s["end"])
    return {"op": "eval", "kind": kind, "lo": lo, "hi": hi,
            "format": d.cycle("eval_matrix.format", FORMATS), "strategy": "matrix"}


def _table_expand(d: Draws, s: dict, i: int) -> dict:
    source, unit = d.kind_unit(f"expand.count.{i}", ("C", "S", "CEven"))
    return {"op": "expand", "source": source, "count": _log_int(s["coeffs"], unit),
            "format": d.cycle("expand.format", TEXT_FORMATS)}


def _bfile_span(d: Draws, s: dict, op: str, i: int) -> dict:
    rows = d.log_int(f"{op}.rows.{i}", s["bfile_rows"])
    kind, unit = d.kind_unit(f"{op}.hi.{i}", "TSC")
    hi = _int_in(*s["bfile_end"], unit)
    return {"op": op, "kind": kind, "lo": hi - rows + 1, "hi": hi}


def _table_bfile_roundtrip(d: Draws, s: dict, i: int) -> dict:
    return _bfile_span(d, s, "bfile_roundtrip", i)


def _table_crosscheck_file(d: Draws, s: dict, i: int) -> dict:
    return {**_bfile_span(d, s, "crosscheck_file", i),
            "format": d.cycle("crosscheck_file.format", TEXT_FORMATS)}


def _table_crosscheck(d: Draws, s: dict, i: int) -> dict:
    kind, unit = d.kind_unit(f"crosscheck.rows.{i}", "TSC")
    return {"op": "crosscheck", "kind": kind, "rows": _int_in(1, s["fixture_rows"], unit),
            "format": d.cycle("crosscheck.format", TEXT_FORMATS)}


def _verify_format(d: Draws) -> str:
    return d.cycle("verify.format", TEXT_FORMATS)


def _certify_verify_all(d: Draws, s: dict, i: int) -> dict:
    # CONS_3 reads S up to n*(m+1), so the whole sweep holds the most memory.
    return {"op": "verify", "identity": "all", "lo": 0, "hi": d.log_int(f"sweep.{i}", s["sweep"]),
            "m_lo": None, "m_hi": None, "format": _verify_format(d)}


def _certify_verify_one(d: Draws, s: dict, i: int) -> dict:
    """One identity in turn, with its own n and m ranges."""
    name, arity, whole_line = d.cycle("identity", RECORDS)
    if arity == 2:
        bounds = s["cons3"] if name == "CONS_3" else s["pair"]
        m_lo = 2 if name == "CONS_3" else 0
        return {"op": "verify", "identity": name, "lo": 0, "hi": d.log_int(f"id.{name}.n", bounds),
                "m_lo": m_lo, "m_hi": m_lo + d.log_int(f"id.{name}.m", bounds),
                "format": _verify_format(d)}
    n = d.log_int(f"id.{name}.n", s["unary"])
    return {"op": "verify", "identity": name, "lo": -n if whole_line else 0, "hi": n,
            "m_lo": None, "m_hi": None, "format": _verify_format(d)}


def _certify_boundary(d: Draws, s: dict, i: int) -> dict:
    return {"op": "boundary", "hi": d.log_int(f"boundary.{i}", s["boundary"])}


def _certify_fault_sweep(d: Draws, s: dict, i: int) -> dict:
    seq, position, delta = d.cycle("fault.mutation", MUTATIONS)
    return {"op": "fault_sweep", "sequence": seq, "position": position, "delta": delta,
            "hi": d.int_in(f"fault.{i}", *s["fault"])}


def _precision(d: Draws, s: dict, slot: str) -> int:
    """A precision drawn like any size, whether or not the root finder
    converges there."""
    return d.int_in(slot, *s["precision"])


def _certify_roots(d: Draws, s: dict, i: int) -> dict:
    return {"op": "roots", "precision": _precision(d, s, f"roots.p.{i}"),
            "format": d.cycle("roots.format", TEXT_FORMATS)}


def _certify_vieta(d: Draws, s: dict, i: int) -> dict:
    return {"op": "vieta", "precision": _precision(d, s, f"vieta.p.{i}")}


def _certify_binet(d: Draws, s: dict, i: int) -> dict:
    p = _precision(d, s, f"binet.p.{i}")
    width = d.int_in(f"binet.width.{i}", *s["binet_width"])
    lo = d.int_in(f"binet.lo.{i}", -2 * p, 2 * p - width + 1)
    return {"op": "eval", "kind": d.cycle("binet.kind", "SC"), "lo": lo, "hi": lo + width - 1,
            "format": d.cycle("binet.format", TEXT_FORMATS), "strategy": "binet", "precision": p}


# The operation types of each workload, in block order.  Certify puts its
# memory-heavy types first, so the pile-up of their garbage inside a
# block does not depend on the seeded precisions before them.
OPERATIONS = {
    "point": (_point_eval, _point_eval_matrix, _point_matrix, _point_bench, _point_s_from_t,
              _point_c_from_t),
    "table": (_table_eval, _table_eval_matrix, _table_expand, _table_bfile_roundtrip,
              _table_crosscheck_file, _table_crosscheck),
    "certify": (_certify_verify_all, _certify_verify_one, _certify_boundary, _certify_fault_sweep,
                _certify_roots, _certify_vieta, _certify_binet),
}


def blocks(workload: str, seed: int, count: int, tiny: bool = False) -> Iterator[list[dict]]:
    """The workload's first ``count`` blocks of operations for ``seed``."""
    draws = Draws(random.Random(f"{workload}/{seed}"), count)
    sizes = SIZES[workload]["tiny" if tiny else "full"]
    for _ in range(count):
        yield [make(draws, sizes, i) for make in OPERATIONS[workload] for i in range(PER_BLOCK)]


def digest(ops: list[dict]) -> str:
    """Stable hash of an operation list."""
    text = json.dumps(ops, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode("ascii")).hexdigest()
