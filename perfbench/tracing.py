"""Per-module spans for the traced benchmark run, recorded from outside the program.

``install`` replaces the public functions of tribokit's seven modules with
wrappers, at every name a caller looks them up by (``oeis.term``,
``tribomatrix.tribonacci`` and the package-level re-exports included), and
returns a function that puts the originals back.  The untraced run never
calls it.  Identity records are traced by wrapping ``identities.registry``:
the records it returns time their ``lhs`` and ``rhs``, and the memo
backend they read from times its ``t``, ``s`` and ``c``.

Spans are merged per calling context: a node is one (operation, parent
node, layer, function) and holds the call count, total and self time and
errors of every call on that path.  That keeps hundreds of thousands of
memo lookups per identity sweep in a few nodes while each node still has
its operation id and parent.  Self time is a span's duration minus the
time of the spans it encloses.
"""
from __future__ import annotations

import dataclasses
import functools
import json
from collections import defaultdict
from time import perf_counter
from typing import Any, Callable

LAYERS = ("seqcore", "tribomatrix", "analytic", "genfunc", "identities", "oeis", "cli")


class Node:
    __slots__ = ("id", "op", "parent", "layer", "name", "calls", "total", "self_s", "errors",
                 "start", "end", "children")

    def __init__(self, node_id: int, op: int, parent: int | None, layer: str, name: str):
        self.id, self.op, self.parent, self.layer, self.name = node_id, op, parent, layer, name
        self.calls, self.total, self.self_s, self.errors = 0, 0.0, 0.0, 0
        self.start, self.end = None, None
        self.children: dict[tuple[str, str], Node] = {}


Hook = Callable[["Tracer", Node, tuple, Any], None]


class Tracer:
    """Span tree per operation, plus the layer counters the spans feed."""

    def __init__(self) -> None:
        self.nodes: list[Node] = []
        self.counts: dict[str, float] = defaultdict(int)
        self._stack: list[list] = []  # [node, seconds covered by child spans]
        self._tops: dict[tuple[str, str], Node] = {}
        self._op: int | None = None
        self._raised: list[tuple[BaseException, str]] = []

    def begin(self, op_id: int) -> None:
        self._op, self._tops, self._raised = op_id, {}, []

    def end(self) -> None:
        self._op, self._raised = None, []

    def outermost(self, layer: str) -> bool:
        """True inside the outermost open span of ``layer``."""
        return sum(1 for node, _ in self._stack if node.layer == layer) == 1

    def _error(self, node: Node, exc: BaseException) -> None:
        """Count an exception once per layer it escapes from."""
        if any(seen is exc and layer == node.layer for seen, layer in self._raised):
            return
        self._raised.append((exc, node.layer))
        node.errors += 1
        if node.layer == "analytic":
            from tribokit.analytic import PrecisionError
            if isinstance(exc, PrecisionError):
                self.counts["analytic.refusals"] += 1
            elif isinstance(exc, RuntimeError) and node.name == "char_roots":
                self.counts["analytic.nonconverged"] += 1

    def wrap(self, layer: str, name: str, fn: Callable, hook: Hook | None = None) -> Callable:
        """``fn`` recording a span per call while an operation is open."""
        key = (layer, name)
        stack = self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if self._op is None:  # between operations (checks, set-up): not traced
                return fn(*args, **kwargs)
            parent = stack[-1][0] if stack else None
            siblings = parent.children if parent is not None else self._tops
            node = siblings.get(key)
            if node is None:
                node = Node(len(self.nodes), self._op, parent.id if parent else None, layer, name)
                self.nodes.append(node)
                siblings[key] = node
            frame = [node, 0.0]
            stack.append(frame)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
                if hook is not None:
                    hook(self, node, args, result)
                return result
            except BaseException as exc:
                self._error(node, exc)
                raise
            finally:
                elapsed = perf_counter() - start
                stack.pop()
                node.calls += 1
                node.total += elapsed
                node.self_s += elapsed - frame[1]
                if node.start is None:
                    node.start = start
                node.end = start + elapsed
                if stack:
                    stack[-1][1] += elapsed

        return traced

    # ---------------------------------------------------------- results

    def metrics(self, records: list[str]) -> dict[str, float]:
        """Per-layer calls, self time and errors, plus the layer counters."""
        out: dict[str, float] = {}
        for layer in LAYERS:
            nodes = [n for n in self.nodes if n.layer == layer]
            out[f"{layer}.calls"] = sum(n.calls for n in nodes)
            out[f"{layer}.self_s"] = sum(n.self_s for n in nodes)
            out[f"{layer}.errors"] = sum(n.errors for n in nodes)
        by_name: dict[tuple[str, str], list[Node]] = defaultdict(list)
        for node in self.nodes:
            by_name[(node.layer, node.name)].append(node)
        calls = lambda layer, name: sum(n.calls for n in by_name[(layer, name)])  # noqa: E731
        out["seqcore.out_bits"] = self.counts["seqcore.out_bits"]
        out["tribomatrix.mat_mul_calls"] = calls("tribomatrix", "mat_mul")
        out["analytic.refusals"] = self.counts["analytic.refusals"]
        out["analytic.nonconverged"] = self.counts["analytic.nonconverged"]
        out["identities.cases"] = sum(calls("identities", f"{r}.lhs") for r in records)
        out["identities.seq_evals"] = sum(calls("identities", s) for s in "tsc")
        out["identities.max_index"] = self.counts["identities.max_index"]
        for record in records:
            # A record's time includes the memo lookups it triggers: they
            # are the same layer, and no other layer runs beneath them.
            out[f"identities.{record}.self_s"] = sum(
                n.total for side in ("lhs", "rhs") for n in by_name[("identities", f"{record}.{side}")]
            )
        out["genfunc.coeffs"] = self.counts["genfunc.coeffs"]
        out["oeis.rows"] = self.counts["oeis.rows"]
        out["cli.out_bytes"] = self.counts["cli.out_bytes"]
        return out

    def dump(self, path: str) -> None:
        with open(path, "w", encoding="ascii") as handle:
            for n in self.nodes:
                handle.write(json.dumps({
                    "op": n.op, "span": n.id, "parent": n.parent, "layer": n.layer,
                    "name": n.name, "calls": n.calls, "total_s": n.total, "self_s": n.self_s,
                    "errors": n.errors, "start": n.start, "end": n.end,
                }) + "\n")


# ------------------------------------------------------------- counters

def _out_bits(tracer: Tracer, node: Node, args: tuple, result: Any) -> None:
    if not tracer.outermost("seqcore"):
        return
    if isinstance(result, list):
        tracer.counts["seqcore.out_bits"] += sum(v.bit_length() for _, v in result)
    else:
        tracer.counts["seqcore.out_bits"] += result.bit_length()


def _seq_index(tracer: Tracer, node: Node, args: tuple, result: Any) -> None:
    counts = tracer.counts
    counts["identities.max_index"] = max(counts["identities.max_index"], abs(args[0]))


def _coeffs(tracer: Tracer, node: Node, args: tuple, result: Any) -> None:
    tracer.counts["genfunc.coeffs"] += len(result)


def _rows_formatted(tracer: Tracer, node: Node, args: tuple, result: Any) -> None:
    tracer.counts["oeis.rows"] += result.count("\n")


def _rows_parsed(tracer: Tracer, node: Node, args: tuple, result: Any) -> None:
    tracer.counts["oeis.rows"] += len(result.rows)


def _rows_compared(tracer: Tracer, node: Node, args: tuple, result: Any) -> None:
    tracer.counts["oeis.rows"] += result.rows_compared


def _cli_exit(tracer: Tracer, node: Node, args: tuple, result: Any) -> None:
    if result != 0:  # a failure reported by exit status, not by an exception
        node.errors += 1


# ---------------------------------------------------------- installation

_PUBLIC = {
    "seqcore": ("term", "sequence_range", "tribonacci", "s_lucas", "c_seq", "c_even",
                "s_from_t", "c_from_t"),
    "tribomatrix": ("mat_mul", "mat_pow", "mat_pow_naive", "entries_from_tribonacci", "trace",
                    "determinant", "trace_pow", "minors_of", "minor_sum"),
    "analytic": ("char_roots", "vieta_check", "binet_index_cap", "binet_s", "binet_c",
                 "binet_error_bound", "binet_round"),
    "genfunc": ("builtin_ogf", "expand", "recurrence_of"),
    "oeis": ("parse_bfile", "format_bfile", "crosscheck", "bundled_fixture_text", "fetch_bfile"),
    "identities": ("verify", "verify_all"),
    "cli": ("main",),
}
_HOOKS = {
    ("genfunc", "expand"): _coeffs,
    ("oeis", "format_bfile"): _rows_formatted,
    ("oeis", "parse_bfile"): _rows_parsed,
    ("oeis", "crosscheck"): _rows_compared,
    ("cli", "main"): _cli_exit,
}


def install(tracer: Tracer) -> Callable[[], None]:
    """Wrap every public function of the seven modules; returns the undo."""
    import tribokit
    from tribokit import analytic, cli, genfunc, identities, oeis, seqcore, tribomatrix

    modules = {"seqcore": seqcore, "tribomatrix": tribomatrix, "analytic": analytic,
               "genfunc": genfunc, "identities": identities, "oeis": oeis, "cli": cli}
    saved: list[tuple[Any, str, Any]] = []

    def put(module: Any, attr: str, value: Any) -> None:
        saved.append((module, attr, getattr(module, attr)))
        setattr(module, attr, value)

    wrapped: dict[tuple[str, str], Callable] = {}
    for layer, names in _PUBLIC.items():
        for name in names:
            original = getattr(modules[layer], name)
            hook = _out_bits if layer == "seqcore" else _HOOKS.get((layer, name))
            wrapped[(layer, name)] = tracer.wrap(layer, name, original, hook)
            put(modules[layer], name, wrapped[(layer, name)])
    # Names bound by ``from .seqcore import ...`` elsewhere.
    for name in _PUBLIC["seqcore"]:
        put(tribokit, name, wrapped[("seqcore", name)])
    put(oeis, "term", wrapped[("seqcore", "term")])
    put(tribomatrix, "tribonacci", wrapped[("seqcore", "tribonacci")])

    def traced_backend(backend: Any) -> Any:
        if backend is None:
            backend = identities.SequenceBackend.default()
        return identities.SequenceBackend(
            t=tracer.wrap("identities", "t", backend.t, _seq_index),
            s=tracer.wrap("identities", "s", backend.s, _seq_index),
            c=tracer.wrap("identities", "c", backend.c, _seq_index),
        )

    original_registry = identities.registry
    original_boundary = identities.boundary_consistency

    def registry(backend: Any = None) -> list:
        return [
            dataclasses.replace(
                record,
                lhs=tracer.wrap("identities", f"{record.name}.lhs", record.lhs),
                rhs=tracer.wrap("identities", f"{record.name}.rhs", record.rhs),
            )
            for record in original_registry(traced_backend(backend))
        ]

    def boundary_consistency(bounds: tuple[int, int] = (0, 50), backend: Any = None) -> Any:
        return original_boundary(bounds, traced_backend(backend))

    put(identities, "registry", tracer.wrap("identities", "registry", registry))
    put(identities, "boundary_consistency",
        tracer.wrap("identities", "boundary_consistency", boundary_consistency))

    def undo() -> None:
        for module, attr, value in reversed(saved):
            setattr(module, attr, value)

    return undo
