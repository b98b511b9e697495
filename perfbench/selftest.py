"""Self-test of the benchmark on tiny instances of its workloads.

    python3 perfbench/selftest.py

Checks that each tiny workload makes every deposit with its expected
classification, validates with 0 violations and passes every output
check; that every span the tracer names fires at least once, so a
renamed engine function shows up as a missing span and not as a silent
zero; that the traced run reports exactly the per-layer metrics
``BENCHMARK.json`` declares, each of them in the layer map; and that
each layer does work (a non-zero reading) on the workloads where the
layer map says it does.
"""

from __future__ import annotations

import sys

import run


def tiny_classes(workloads):
    class Deep(workloads.DeepCorpus):
        tokens = 120
        setups = 1

    class Wide(workloads.WideArchive):
        corpora, tokens = 120, 12
        setups = 1

    class Shared(workloads.ReadUnderDeposit):
        small, small_tokens, large_tokens = 12, 20, 400
        round_count = 2
        setups = 1

    return {"deep-corpus": Deep, "wide-archive": Wide,
            "read-under-deposit": Shared}


def main() -> int:
    run.import_engine()
    import layers
    import workloads
    from tracer import SPAN_NAMES, Tracer

    mapped = {name for metrics, *_ in layers.LAYER_MAP for name in metrics}
    problems = [f"{name} is in no group of the layer map"
                for name in layers.PER_LAYER if name not in mapped]
    fired: set[str] = set()
    for name, cls in tiny_classes(workloads).items():
        tracer = Tracer()
        with run.work_directory() as work:
            result = workloads.run(cls, run.FIXTURES, 7, 2.0, work, tracer)
        ledger = result.ledger
        if ledger.failed:
            problems.append(f"{name}: {ledger.failed} of {ledger.attempted} "
                            f"operations failed: {ledger.failures}")
        per_layer = tracer.layer_metrics(result.http_s, result.reads)
        if set(per_layer) != set(layers.PER_LAYER):
            odd = sorted(set(per_layer) ^ set(layers.PER_LAYER))
            problems.append(f"{name}: per-layer metrics differ from the "
                            f"declared ones: {odd}")
        problems.extend(f"{name}: {metric} reads 0 where the layer map says "
                        "it does work"
                        for metric in layers.idle_layers(name, per_layer))
        fired.update(span for span, calls in tracer.calls.items() if calls)
        print(f"selftest {name}: {ledger.attempted} operations, "
              f"{ledger.failed} failed", flush=True)
    problems.extend(f"span {span} never fired" for span in SPAN_NAMES
                    if span not in fired)
    for problem in problems:
        print(f"selftest FAIL {problem}")
    print("selftest", "FAIL" if problems else "PASS")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
