"""The layer -> end-to-end map.

Each metric's name, unit and direction are declared once, in
``BENCHMARK.json`` at the root of the checkout, and read from there.
``LAYER_MAP`` groups the per-layer metrics the traced run measures at
each module boundary, with the end-to-end metrics a change to that layer
should move, the workloads where the layer does that work, and the
workloads where such a change should move nothing.
"""

from __future__ import annotations

import json
from pathlib import Path

DECLARED = json.loads((Path(__file__).resolve().parent.parent
                       / "BENCHMARK.json").read_text(encoding="utf-8"))
END_TO_END = {m["name"]: m["unit"] for m in DECLARED["end_to_end"]}
PER_LAYER = {m["name"]: m["unit"] for m in DECLARED["per_layer"]}

DEEP, WIDE, RUD = "deep-corpus", "wide-archive", "read-under-deposit"
ALL = [DEEP, WIDE, RUD]

# Counters of failures: zero is the correct reading on every workload.
FAILURE_COUNTERS = frozenset({"formats.parse_errors"})

# (metrics, moves, works_on, unchanged_on).  Set from the traced seed run
# (perfbench/baseline.json): a workload is in ``unchanged_on`` only where
# the layer's share of the metrics it moves is small there.  Every
# workload reports every end-to-end metric, and each of them opens,
# parses and reads, so the parsing, open, catalog and service layers do
# work everywhere.
LAYER_MAP = (
    (["markup.scan_s", "markup.tags"],
     ["ingest_tokens_per_s", "open_s", "deposit_p50_s"], ALL, []),
    (["formats.parse_s", "formats.parse_calls", "formats.items",
      "formats.parse_errors"],
     ["ingest_tokens_per_s", "open_s", "deposit_p50_s"], ALL, []),
    (["standoff.resolve_s", "standoff.spans_resolved",
      "standoff.resolve_useful_ratio"],
     ["coverage_s", "validate_s", "ingest_tokens_per_s", "deposit_p50_s"],
     [DEEP, RUD], [WIDE]),
    (["standoff.align_s", "standoff.align_elements", "standoff.span_build_s",
      "standoff.span_build_useful_ratio"],
     ["ingest_tokens_per_s", "deposit_p50_s"], [DEEP, RUD], [WIDE]),
    (["standoff.reconstruct_s", "standoff.reconstructions",
      "standoff.tokenize_s"],
     ["coverage_s", "validate_s"], [DEEP, RUD], [WIDE]),
    (["registry.granularity_s", "registry.granularity_items",
      "versioning.classify_s", "versioning.classifications"],
     ["ingest_tokens_per_s", "get_p90_ms"], [DEEP, RUD], [WIDE]),
    (["archive.open_payload_parses", "manifest.load_s", "manifest.loads"],
     ["open_s", "deposit_p50_s"], ALL, []),
    (["manifest.dump_s", "manifest.dump_bytes", "archive.deposit_self_s"],
     ["deposit_p50_s", "disk_bytes_per_payload_byte"], [WIDE, RUD], [DEEP]),
    (["archive.deepcopies", "catalog.export_s", "catalog.record_s",
      "catalog.summary_s", "catalog.stamp_s", "catalog.headers_rendered"],
     ["export_s", "get_p90_ms"], ALL, []),
    (["service.handle_s", "service.requests", "service.bytes_out",
      "service.non_200", "service.http_overhead_s"],
     ["get_p50_ms"], ALL, []),
    (["service.overlap_read_p50_ms", "service.quiet_read_p50_ms",
      "service.overlap_reads"],
     ["read_p90_ms"], [RUD], [DEEP, WIDE]),
    (["cli.open_share"], ["deposit_p50_s"], [DEEP, WIDE], [RUD]),
)


def layer_map() -> list[dict]:
    return [dict(metrics=metrics, moves=moves, works_on=works_on,
                 unchanged_on=unchanged_on)
            for metrics, moves, works_on, unchanged_on in LAYER_MAP]


def idle_layers(workload: str, per_layer: dict) -> list[str]:
    """Per-layer metrics that read 0 on a workload where, by the map,
    their layer does work."""
    return [name for metrics, _, works_on, _ in LAYER_MAP
            if workload in works_on for name in metrics
            if name not in FAILURE_COUNTERS and not per_layer[name]]
