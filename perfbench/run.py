"""tribokit benchmark: one workload, one seed, one run.

    python3 perfbench/run.py --workload point|table|certify --seed N \\
        --seconds S --trace 0|1

Run from the root of a source checkout; tribokit is imported from
``src/`` (as with ``PYTHONPATH=src``).  The run executes whole blocks of
seeded operations (see ``workloads.py``) in one process, one at a time;
the number of blocks follows from ``--seconds`` (``BLOCK_SECONDS``), so
every run of a workload does the same operations at nearly the same
sizes.  Every successful output is checked against an independent method outside the timed region
(``ops.py``); a wrong value aborts the run with exit status 1.

Garbage is collected between blocks only, outside the timed region, so
each block starts from the same heap; inside a block Python's collector
and the allocator run as they would for a user.

``--trace 0`` prints the end-to-end metrics: set-up time of a fresh
interpreter (launched one at a time, spread between the blocks),
operations per second, median and 90th-percentile latency (failed
operations included at their elapsed time), failed share and peak
resident memory.  Times are scaled to the reference host by the run's
measured slowdown (``calibration_loop``).  ``--trace 1`` installs span
wrappers around the seven modules (``tracing.py``), prints the
per-layer metrics, then replays the first quarter of the same
operations untraced to report the tracing overhead.

Human-readable lines come first; the last line is one JSON object.
Results, the operation-list hash and the spans go to ``perfbench/.out/``.
"""
from __future__ import annotations

import argparse
import gc
import json
import math
import os
import resource
import statistics
import subprocess
import sys
import tempfile
from collections import Counter
from pathlib import Path
from time import perf_counter
from typing import Any

import tracing
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

# Set-up launches per run, spread evenly between the blocks so that the
# median does not hang on the host's state during one moment.
SETUP_LAUNCHES = 10
# Raw timed seconds one block takes on a 2-vCPU host shared with other
# tenants (Python 3.11, slowdown about 1.5, see below).  A run executes
# round(--seconds / this) whole blocks, so every run of a workload does
# nearly the same work and lasts about --seconds there, but never fewer
# blocks than MIN_OPERATIONS needs.
BLOCK_SECONDS = {"point": 1.25, "table": 3.2, "certify": 0.85}
# At least ten latencies beyond the 90th percentile.
MIN_OPERATIONS = 110
# Calibration.  Other tenants share the host's cores, so the same call
# can take 1.2 to 2 times as long from one moment to the next, and the
# host's speed changes within a fraction of a second.  Right before and
# right after each timed call the run times a fixed pure-Python
# big-integer loop (the kind of arithmetic tribokit does).  The mean of
# the two, over KERNEL_REF_S (the loop's time on the quiet reference
# host), is the host's slowdown during the call; the call's time is
# divided by it, so times read as on the reference host.  The raw times
# are printed beside them.
KERNEL_STEPS = 10_000
KERNEL_REF_S = 0.0032
SETUP_CODE = "import sys\nfrom tribokit.cli import main\nsys.exit(main(['eval', 'T', '0', '0']))\n"


def calibration_loop() -> float:
    """Seconds the calibration loop takes now."""
    start = perf_counter()
    a, b, c = 0, 1, 1
    for _ in range(KERNEL_STEPS):
        a, b, c = b, c, a + b + c
    return perf_counter() - start


def slowdown(before: float, after: float) -> float:
    """Host slowdown during a call, from the loops timed around it."""
    return (before + after) / 2 / KERNEL_REF_S


class SetupError(RuntimeError):
    """The source tree cannot be benchmarked."""


def _import_tribokit() -> None:
    """Import tribokit from this checkout's ``src`` and nowhere else."""
    if not (SRC / "tribokit" / "__init__.py").is_file():
        raise SetupError(f"no tribokit sources under {SRC}")
    if sys.get_int_max_str_digits() != sys.int_info.default_max_str_digits:
        raise SetupError("the int/str digit limit is changed in this interpreter; "
                         "run without PYTHONINTMAXSTRDIGITS or -X int_max_str_digits")
    sys.path.insert(0, str(SRC))
    import tribokit

    if Path(tribokit.__file__).resolve().parent != (SRC / "tribokit").resolve():
        raise SetupError(f"imported tribokit from {tribokit.__file__}, not from {SRC}")


def setup_launch() -> float:
    """Wall time of a fresh interpreter running ``tribokit eval T 0 0``."""
    env = {k: v for k, v in os.environ.items() if k != "PYTHONINTMAXSTRDIGITS"}
    env["PYTHONPATH"] = str(SRC)
    start = perf_counter()
    proc = subprocess.run([sys.executable, "-c", SETUP_CODE], cwd=ROOT, env=env,
                          capture_output=True, text=True, timeout=120)
    elapsed = perf_counter() - start
    if proc.returncode != 0 or proc.stdout != "0 0\n":
        raise SetupError(f"set-up launch failed ({proc.returncode}): {proc.stderr.strip()}")
    return elapsed


def _failure(exc: BaseException | None, result) -> str:
    """Short reason for a failed operation."""
    if exc is not None:
        return f"{type(exc).__name__}: {str(exc)[:60]}"
    return f"exit {result.code}: {result.stderr.strip()[:60]}"


def planned_blocks(workload: str, seconds: float) -> int:
    per_block = workloads.PER_BLOCK * len(workloads.OPERATIONS[workload])
    return max(round(seconds / BLOCK_SECONDS[workload]), math.ceil(MIN_OPERATIONS / per_block))


def launch_schedule(launches: int, blocks: int) -> list[int]:
    """Set-up launches to make after each block, spread evenly."""
    return [(i + 1) * launches // blocks - i * launches // blocks for i in range(blocks)]


def plan(workload: str, seed: int, blocks: int, tiny: bool = False) -> list[list[dict]]:
    return list(workloads.blocks(workload, seed, blocks, tiny))


def run_ops(blocks: list[list[dict]], tmp: str, *, tracer=None, check: bool = True,
            calibrate: bool = False, after_block=None) -> dict:
    """Run the blocks of operations one at a time; ``after_block(i)`` runs after block i.

    With ``calibrate`` each call is bracketed by calibration loops and its
    slowdown recorded."""
    import ops

    latencies: list[float] = []
    slowdowns: list[float] = []
    block_seconds: list[float] = []
    reasons: Counter = Counter()
    executed: list[dict] = []
    for index, block in enumerate(blocks):
        gc.collect()  # earlier garbage (identity memos) goes; each block starts alike
        spent = 0.0
        for op in block:
            call = ops.prepare(op, tmp)
            before = calibration_loop() if calibrate else 0.0
            if tracer is not None:
                tracer.begin(len(executed))
            exc = result = None
            start = perf_counter()
            try:
                result = call()
            except (Exception, SystemExit) as caught:  # every failure counts, none stops the run
                exc = caught
            elapsed = perf_counter() - start
            if tracer is not None:
                tracer.end()
                if isinstance(result, ops.CliResult):
                    tracer.counts["cli.out_bytes"] += len(result.stdout.encode())
            if calibrate:
                slowdowns.append(slowdown(before, calibration_loop()))
            spent += elapsed
            latencies.append(elapsed)
            executed.append(op)
            if exc is not None or ops.failed(result):
                reasons[_failure(exc, result)] += 1
            elif check:
                ops.check(op, result)
            del result
        block_seconds.append(spent)
        if after_block is not None:
            after_block(index)
    return {"latencies": latencies, "slowdowns": slowdowns, "block_seconds": block_seconds,
            "reasons": reasons, "ops": executed}


def _quantile(values: list[float], q: int) -> float:
    """q-th percentile (q in 1..99) as ``statistics.quantiles`` gives it."""
    return statistics.quantiles(values, n=100)[q - 1]


def _scaled(times: list[float], slowdowns: list[float]) -> list[float]:
    return [t / s for t, s in zip(times, slowdowns)]


def end_to_end(run: dict, latencies: list[float], setup_times: list[float]
               ) -> dict[str, tuple[float, str]]:
    attempted = len(latencies)
    return {
        "setup_s": (statistics.median(setup_times), "s"),
        "ops_per_s": (attempted / sum(latencies), "1/s"),
        "op_p50_ms": (statistics.median(latencies) * 1e3, "ms"),
        "op_p90_ms": (_quantile(latencies, 90) * 1e3, "ms"),
        "fail_ratio": (sum(run["reasons"].values()) / attempted, "ratio"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }


def per_layer(blocks: list[list[dict]], tmp: str) -> tuple[dict, dict, Any]:
    """Traced run, then the first quarter of its blocks again untraced."""
    tracer = tracing.Tracer()
    undo = tracing.install(tracer)
    try:
        run = run_ops(blocks, tmp, tracer=tracer)
    finally:
        undo()
    quarter = math.ceil(len(blocks) / 4)
    replay = run_ops(blocks[:quarter], tmp, check=False)
    records = [name for name, _, _ in workloads.RECORDS]
    units = {"self_s": "s", "out_bits": "bits", "out_bytes": "bytes"}
    metrics = {name: (value, units.get(name.rsplit(".", 1)[1], "count"))
               for name, value in tracer.metrics(records).items()}
    overhead = sum(run["block_seconds"][:quarter]) / sum(replay["block_seconds"])
    metrics["trace.overhead"] = (overhead, "ratio")
    return run, metrics, tracer


def _summary_lines(workload: str, seed: int, run: dict, digest: str) -> list[str]:
    latencies = run["latencies"]
    beyond = sum(1 for x in latencies if x > _quantile(latencies, 90)) if len(latencies) > 1 else 0
    lines = [
        f"workload {workload}  seed {seed}  blocks {len(run['block_seconds'])}  "
        f"operations {len(latencies)}  failed {sum(run['reasons'].values())}  "
        f"beyond p90 {beyond}  timed {sum(latencies):.3f} s",
        f"operation list sha256 {digest}",
    ]
    lines.extend(f"  failed x{count}: {reason}" for reason, count in run["reasons"].most_common())
    return lines


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        _import_tribokit()
        if args.trace == 0:
            setup_launch()  # writes the bytecode caches, which a user pays once
    except (SetupError, ImportError, subprocess.SubprocessError) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2

    import ops

    out_dir = HERE / ".out"
    out_dir.mkdir(exist_ok=True)
    scratch = HERE / ".tmp"
    scratch.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    correct = True
    raw: dict = {}
    host = None
    try:
        with tempfile.TemporaryDirectory(dir=scratch) as tmp:
            blocks = plan(args.workload, args.seed, planned_blocks(args.workload, args.seconds))
            if args.trace:
                run, metrics, tracer = per_layer(blocks, tmp)
                tracer.dump(str(out_dir / f"{stem}-spans.jsonl"))
            else:
                schedule = launch_schedule(SETUP_LAUNCHES, len(blocks))
                setup_times: list[float] = []
                setup_slowdowns: list[float] = []

                def launch_setups(index: int) -> None:
                    for _ in range(schedule[index]):
                        before = calibration_loop()
                        setup_times.append(setup_launch())
                        setup_slowdowns.append(slowdown(before, calibration_loop()))

                run = run_ops(blocks, tmp, calibrate=True, after_block=launch_setups)
                metrics = end_to_end(run, _scaled(run["latencies"], run["slowdowns"]),
                                     _scaled(setup_times, setup_slowdowns))
                raw = end_to_end(run, run["latencies"], setup_times)
                host = statistics.median(run["slowdowns"])
    except (SetupError, subprocess.SubprocessError) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    except ops.Wrong as exc:
        print(f"perfbench: WRONG OUTPUT: {exc}", file=sys.stderr)
        correct = False
        run, metrics = None, {}

    if run is not None:
        digest = workloads.digest(run["ops"])
        for line in _summary_lines(args.workload, args.seed, run, digest):
            print(line)
        if host is not None:
            print(f"host slowdown {host:.4f} against the reference host (median over "
                  f"the operations); raw times in brackets")
        width = max(len(name) for name in metrics)
        for name, (value, unit) in metrics.items():
            note = f"  [{raw[name][0]:.6g}]" if name in raw and raw[name] != (value, unit) else ""
            print(f"{name:<{width}}  {value:.6g} {unit}{note}")
        attempted, failed = len(run["latencies"]), sum(run["reasons"].values())
        with open(out_dir / f"{stem}.json", "w", encoding="ascii") as handle:
            json.dump({"workload": args.workload, "seed": args.seed, "trace": args.trace,
                       "operations_sha256": digest, "operations": attempted,
                       "blocks": len(run["block_seconds"]),
                       "failures": dict(run["reasons"]), "slowdowns": run["slowdowns"],
                       "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
                       "raw_metrics": {k: {"value": v, "unit": u} for k, (v, u) in raw.items()},
                       "latencies_s": run["latencies"]},
                      handle, indent=1)
    else:
        attempted, failed = 1, 0
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
