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


def test_traced_sweeps_read_through_the_traced_backend():
    # identities.seq_evals counts the calls on the traced backend's t, s and c:
    # a sweep that reached the untraced memo would leave it at 0
    sweeps = (lambda: identities.verify("CN2", (0, 20)),
              lambda: identities.boundary_consistency((0, 20)))
    untraced = [sweep() for sweep in sweeps]
    tracing = runpy.run_path(str(TRACING))
    tracer = tracing["Tracer"]()
    undo = tracing["install"](tracer)
    try:
        traced = []
        for op, sweep in enumerate(sweeps):
            tracer.begin(op)
            traced.append(sweep())
            tracer.end()
    finally:
        undo()
    assert traced == untraced and all(report.ok for report in traced)
    calls = [[sum(node.calls for node in tracer.nodes
                  if (node.op, node.layer, node.name) == (op, "identities", name))
              for name in "sc"] for op in range(len(sweeps))]
    # CN2 reads S(n) and C(n), C(2n) over n in [0, 20]; the diagonal reads
    # S(3n), S(n), S(0) and C(n), C(0): each distinct index once
    assert calls == [[21, 31], [35, 21]]
    assert tracer.metrics([])["identities.seq_evals"] == 21 + 31 + 35 + 21
