"""Self-test of the benchmark at tiny sizes (a few seconds).

    python3 perfbench/selftest.py

For each workload it runs a traced pass (and the untraced replay) with
every size shrunk, and checks that

* every operation type of the workload ran and no output was wrong;
* every layer the workload is meant to reach recorded a span, and no
  layer it is meant to bypass did;
* the same seed gives the same operation list and another seed does not;
* a full-size run of ``run_seconds`` has at least ``run.MIN_OPERATIONS``
  operations, so ten or more latencies lie beyond the 90th percentile;
* the metric names and units printed match ``BENCHMARK.json``.

Exit status 0 when all hold, 1 otherwise.
"""
from __future__ import annotations

import json
import statistics
import sys
import tempfile

import run
import workloads

# Operation types per workload: the op name, with the strategy for eval.
OPERATION_TYPES = {
    "point": {"eval/recurrence", "eval/matrix", "matrix", "bench", "s_from_t", "c_from_t"},
    "table": {"eval/recurrence", "eval/matrix", "expand", "bfile_roundtrip", "crosscheck_file",
              "crosscheck"},
    "certify": {"verify", "boundary", "fault_sweep", "roots", "vieta", "eval/binet"},
}
# (layers the workload must reach, layers it must bypass)
LAYERS = {
    "point": ({"cli", "seqcore", "tribomatrix", "analytic"}, {"genfunc", "identities", "oeis"}),
    "table": ({"cli", "seqcore", "tribomatrix", "genfunc", "oeis"}, set()),
    "certify": ({"cli", "analytic", "identities"}, {"genfunc", "oeis"}),
}


def _op_type(op: dict) -> str:
    return f"eval/{op['strategy']}" if op["op"] == "eval" else op["op"]


def _first_blocks(workload: str, seed: int, count: int = 3) -> str:
    return workloads.digest([op for block in run.plan(workload, seed, count) for op in block])


def main() -> int:
    run._import_tribokit()
    import ops

    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    end_to_end_spec = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    per_layer_spec = {m["name"]: m["unit"] for m in spec["per_layer"]}
    problems: list[str] = []
    if [w["name"] for w in spec["workloads"]] != list(workloads.WORKLOADS):
        problems.append("BENCHMARK.json workloads differ from workloads.WORKLOADS")
    setup_s = statistics.median(run.setup_launch() for _ in range(3))
    (run.HERE / ".tmp").mkdir(exist_ok=True)
    for workload in workloads.WORKLOADS:
        with tempfile.TemporaryDirectory(dir=run.HERE / ".tmp") as tmp:
            try:
                traced, layer_metrics, tracer = run.per_layer(run.plan(workload, 1, 2, tiny=True), tmp)
            except ops.Wrong as exc:
                problems.append(f"{workload}: wrong output: {exc}")
                continue
        missing = OPERATION_TYPES[workload] - {_op_type(op) for op in traced["ops"]}
        if missing:
            problems.append(f"{workload}: operation types never ran: {sorted(missing)}")
        spanned = {node.layer for node in tracer.nodes}
        reach, bypass = LAYERS[workload]
        if reach - spanned:
            problems.append(f"{workload}: no spans in {sorted(reach - spanned)}")
        if bypass & spanned:
            problems.append(f"{workload}: spans in bypassed layers {sorted(bypass & spanned)}")
        planned = run.planned_blocks(workload, spec["run_seconds"])
        full = sum(len(block) for block in run.plan(workload, 1, planned))
        if full < run.MIN_OPERATIONS:
            problems.append(f"{workload}: a full run has only {full} operations")
        if _first_blocks(workload, 7) != _first_blocks(workload, 7):
            problems.append(f"{workload}: seed 7 gives two different operation lists")
        if _first_blocks(workload, 7) == _first_blocks(workload, 8):
            problems.append(f"{workload}: seeds 7 and 8 give the same operation list")
        printed = {
            "end_to_end": {k: u for k, (_, u)
                           in run.end_to_end(traced, traced["latencies"], [setup_s]).items()},
            "per_layer": {k: u for k, (_, u) in layer_metrics.items()},
        }
        for group, expected in (("end_to_end", end_to_end_spec), ("per_layer", per_layer_spec)):
            if printed[group] != expected:
                problems.append(f"{workload}: {group} metrics differ from BENCHMARK.json: "
                                f"{sorted(set(printed[group].items()) ^ set(expected.items()))}")
        print(f"{workload}: {len(traced['ops'])} operations, layers {sorted(spanned)}")
    for problem in problems:
        print(f"FAIL {problem}")
    print("selftest", "FAILED" if problems else "ok")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
