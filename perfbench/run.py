"""Benchmark entry point.

One workload::

    python3 perfbench/run.py --workload deep-corpus --seed 1 --seconds 20 --trace 0

prints, as its last line, one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``: the end-to-end metrics with
``--trace 0``, the per-layer metrics of the traced run with
``--trace 1``.  Every workload, untraced then traced, each in a fresh
process::

    python3 perfbench/run.py --report [--seed 1] [--write-baseline]

prints every metric with its unit, the error rate and the tracing
overhead, and with ``--write-baseline`` records them in
``perfbench/baseline.json``.  Run from the root of a checkout; archives
live in a temporary directory under ``.perfbench-work/`` that is removed
when the run ends.

Every time and rate is scaled to a reference machine speed, measured in
the same run (see ``clock.py``); ``--detail`` prints the detailed result,
the run's median speed unit included.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import signal
import subprocess
import sys
import tempfile
from pathlib import Path

BENCH = Path(__file__).resolve().parent
CHECKOUT = BENCH.parent
SRC = CHECKOUT / "src"
FIXTURES = CHECKOUT / "tests" / "fixtures"


def import_engine():
    if not (SRC / "corpus_forge" / "__init__.py").is_file() \
            or not FIXTURES.is_dir():
        sys.exit(f"perfbench: {CHECKOUT} holds no corpus-forge source tree "
                 "(src/corpus_forge, tests/fixtures); run it from a checkout")
    sys.path.insert(0, str(SRC))
    import corpus_forge
    if Path(corpus_forge.__file__).resolve().parent != SRC / "corpus_forge":
        sys.exit(f"perfbench: imported corpus_forge from "
                 f"{corpus_forge.__file__}, not from {SRC}")


@contextlib.contextmanager
def work_directory():
    """A fresh temporary directory under ``.perfbench-work/``."""
    parent = CHECKOUT / ".perfbench-work"
    parent.mkdir(exist_ok=True)
    try:
        with tempfile.TemporaryDirectory(dir=parent) as work:
            yield Path(work)
    finally:
        with contextlib.suppress(OSError):  # another run still uses it
            parent.rmdir()


def pin_to_one_cpu() -> None:
    """Run this process, and the threads it starts, on one CPU.

    The CPUs of a shared machine are not equally fast at one moment; on
    one CPU the machine-speed unit (``clock.py``) times the same CPU as
    every thread of the workload.  The engine's threads share one
    interpreter lock, so they lose little by it.
    """
    with contextlib.suppress(AttributeError, OSError):  # not on this OS
        os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})


def scaled_times(values: dict, units: dict, scale: float) -> dict:
    """Values in seconds or milliseconds multiplied by ``scale``."""
    return {name: values[name] * scale if unit in ("s", "ms")
            else values[name] for name, unit in units.items()}


def run_one(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    """Run one workload in this process; return the detailed result."""
    import layers
    import workloads
    from clock import REFERENCE_S
    from tracer import Tracer

    tracer = Tracer() if trace else None
    pin_to_one_cpu()
    with work_directory() as work:
        result = workloads.run(workloads.WORKLOADS[workload], FIXTURES, seed,
                               seconds, work, tracer)
    ledger = result.ledger
    detail = {
        "workload": workload,
        "seed": seed,
        "trace": trace,
        "correct": ledger.failed == 0,
        "attempted": ledger.attempted,
        "failed": ledger.failed,
        "failures": ledger.failures,
        "error_rate": ledger.failed / ledger.attempted,
        "unit_s": result.unit_s,
        "end_to_end": {name: result.metrics[name]
                       for name in layers.END_TO_END},
    }
    if tracer is not None:
        # The tracer's spans are raw times: scale them by the run's
        # median factor.
        detail["per_layer"] = scaled_times(
            tracer.layer_metrics(result.http_s, result.reads),
            layers.PER_LAYER, REFERENCE_S / result.unit_s)
    return detail


def fixed_ops_s(end_to_end: dict) -> float:
    """Summed medians of the operations every workload times; their
    ratio between a traced and an untraced run is the tracing overhead."""
    return sum(end_to_end[name] for name in (
        "open_s", "deposit_p50_s", "coverage_s", "validate_s", "export_s"))


def contract_line(detail: dict) -> dict:
    import layers
    units, values = ((layers.PER_LAYER, detail["per_layer"]) if detail["trace"]
                     else (layers.END_TO_END, detail["end_to_end"]))
    return {
        "correct": detail["correct"],
        "attempted": detail["attempted"],
        "failed": detail["failed"],
        "metrics": {name: {"value": values[name], "unit": unit}
                    for name, unit in units.items()},
    }


def report(seed: int, seconds: float, write: bool) -> int:
    """Every workload, untraced then traced, each in a fresh process."""
    import_engine()
    import layers
    import workloads

    results = {}
    for workload in workloads.WORKLOADS:
        for trace in (False, True):
            proc = subprocess.run(
                [sys.executable, str(BENCH / "run.py"), "--workload",
                 workload, "--seed", str(seed), "--seconds", str(seconds),
                 "--trace", str(int(trace)), "--detail"],
                cwd=CHECKOUT, capture_output=True, text=True, timeout=900)
            if proc.returncode != 0:
                sys.stderr.write(proc.stderr)
                return proc.returncode
            results[workload, trace] = json.loads(
                proc.stdout.strip().splitlines()[-1])

    baseline = {"seed": seed, "seconds": seconds, "workloads": {}}
    ok = True
    for workload in workloads.WORKLOADS:
        plain, traced = results[workload, False], results[workload, True]
        idle = layers.idle_layers(workload, traced["per_layer"])
        ok = ok and plain["correct"] and traced["correct"] and not idle
        overhead = (fixed_ops_s(traced["end_to_end"])
                    / fixed_ops_s(plain["end_to_end"]) - 1)
        print(f"== {workload}: correct={plain['correct']} "
              f"attempted={plain['attempted']} failed={plain['failed']} "
              f"unit={plain['unit_s'] * 1000:.2f} ms")
        for name, value in plain["end_to_end"].items():
            print(f"  {name:30s} {value:14.4f} {layers.END_TO_END[name]}")
        print(f"  {'error_rate':30s} {plain['error_rate']:14.4f} ratio")
        print(f"  -- traced run (tracing overhead {overhead:+.1%} "
              "on the fixed operations)")
        for name, value in traced["per_layer"].items():
            print(f"  {name:30s} {value:14.4f} {layers.PER_LAYER[name]}")
        for name in idle:
            print(f"  ! {name} reads 0, but the layer map says the layer "
                  "does work here")
        baseline["workloads"][workload] = {
            "end_to_end": plain["end_to_end"],
            "unit_s": plain["unit_s"],
            "error_rate": plain["error_rate"],
            "attempted": plain["attempted"],
            "per_layer_traced": traced["per_layer"],
            "end_to_end_traced": traced["end_to_end"],
            "tracing_overhead": overhead,
        }
    if write:
        document = {
            "about": "Seed baseline of the benchmark, made with "
                     "`python3 perfbench/run.py --report --write-baseline`. "
                     "Metric names, units and directions are in "
                     "BENCHMARK.json; times are scaled to the reference "
                     "machine speed (perfbench/clock.py).",
            "layer_map": layers.layer_map(),
            "baseline": baseline,
        }
        (BENCH / "baseline.json").write_text(
            json.dumps(document, indent=1, ensure_ascii=False) + "\n",
            encoding="utf-8")
    return 0 if ok else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20,
                        help="timed part of each run (BENCHMARK.json's "
                             "run_seconds)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--detail", action="store_true",
                        help="print the detailed result instead")
    parser.add_argument("--report", action="store_true")
    parser.add_argument("--write-baseline", action="store_true")
    args = parser.parse_args(argv)
    # A terminated run still removes its work directory on the way out.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))
    if args.report:
        return report(args.seed, args.seconds, args.write_baseline)
    if args.workload is None:
        parser.error("pass --workload NAME or --report")
    import_engine()
    import workloads
    if args.workload not in workloads.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; "
                     f"choose from {', '.join(workloads.WORKLOADS)}")
    detail = run_one(args.workload, args.seed, args.seconds, bool(args.trace))
    for failure in detail["failures"]:
        sys.stderr.write(f"perfbench: incorrect: {failure}\n")
    line = detail if args.detail else contract_line(detail)
    print(json.dumps(line, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
