"""perfbench wraps tribokit's functions by name from outside the program;
a renamed or deleted name must fail here, not in a traced benchmark run."""
from __future__ import annotations

import runpy
from pathlib import Path

import tribokit
from tribokit import analytic, cli, genfunc, identities, oeis, seqcore, tribomatrix
from tribokit.seqcore import SequenceKind

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"
MODULES = (tribokit, analytic, cli, genfunc, identities, oeis, seqcore, tribomatrix)


def test_tracing_installs_and_undoes_over_every_wrapped_name():
    tracing = runpy.run_path(str(TRACING))
    before = [dict(vars(module)) for module in MODULES]
    tracer = tracing["Tracer"]()
    undo = tracing["install"](tracer)
    try:
        changed = {
            (module.__name__, name)
            for module, saved in zip(MODULES, before)
            for name, value in vars(module).items()
            if saved.get(name) is not value
        }
        for layer, names in tracing["_PUBLIC"].items():
            assert {(f"tribokit.{layer}", name) for name in names} <= changed
        tracer.begin(0)
        value = analytic.binet_round(SequenceKind.GENERALIZED_LUCAS, 10, 30)
        tracer.end()
        assert value == 443
        assert ("analytic", "binet_round") in {(node.layer, node.name) for node in tracer.nodes}
    finally:
        undo()
    for module, saved in zip(MODULES, before):
        assert vars(module) == saved
