"""Outside-in tracer: wraps the engine's public functions where callers
look them up and records one span per call.

A span holds its name, start, end, parent span, request id and thread;
spans stay in memory and are reduced to per-layer metrics when the run
ends.  A span's self time is its duration minus the time its child spans
cover.  Spans of the tag scanner (one per ``next()``) and of the
per-item span helpers are leaves that fire hundreds of thousands of
times on the larger workloads, so they are folded into per-name totals
and into their parent's child time instead of being stored one by one.

Nothing here touches the engine's source: ``install`` swaps module and
class attributes and ``uninstall`` puts the originals back.
"""

from __future__ import annotations

import dataclasses
import itertools
import statistics
import threading
import time
from collections import defaultdict

from corpus_forge import (
    _markup,
    archive as archive_mod,
    catalog,
    cli,
    formats,
    manifest,
    registry,
    service,
    standoff,
    versioning,
)

# Leaf spans folded into totals (see module docstring).
FOLDED = frozenset({"markup.scan", "standoff.resolve", "standoff.span_build",
                    "standoff.tokenize"})

# Threads the benchmark itself runs; a root span elsewhere was served
# by the HTTP server.
CLIENT_THREADS = frozenset({"MainThread", "bench-writer", "bench-reader"})

# Every span name the tracer can record; the self-test checks each fires.
SPAN_NAMES = (
    "markup.scan", "formats.parse", "standoff.align", "standoff.span_build",
    "standoff.resolve", "standoff.reconstruct", "standoff.tokenize",
    "registry.granularity", "versioning.classify", "manifest.load",
    "manifest.dump", "archive.open", "archive.materialize", "archive.deposit",
    "catalog.export", "catalog.record", "catalog.summary", "catalog.stamp",
    "service.handle", "cli.main",
)


@dataclasses.dataclass
class Span:
    id: int
    name: str
    start: float
    end: float
    parent: int | None
    request: int
    thread: str


class _Frame:
    __slots__ = ("id", "name", "start", "parent", "request", "child")

    def __init__(self, id, name, start, parent, request):
        self.id, self.name, self.start = id, name, start
        self.parent, self.request, self.child = parent, request, 0.0


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self.totals: dict[str, float] = defaultdict(float)   # self time
        self.calls: dict[str, int] = defaultdict(int)
        self.counts: dict[str, float] = defaultdict(float)
        self._local = threading.local()
        self._ids = itertools.count(1)
        self._lock = threading.Lock()
        self._patches: list[tuple[object, str, object]] = []

    # -- recording -------------------------------------------------------

    def _stack(self) -> list[_Frame]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _open(self, name: str) -> _Frame:
        stack = self._stack()
        parent = stack[-1] if stack else None
        span_id = next(self._ids)
        frame = _Frame(span_id, name, 0.0,
                       parent.id if parent else None,
                       parent.request if parent else span_id)
        stack.append(frame)
        frame.start = time.perf_counter()
        return frame

    def _close(self, frame: _Frame) -> None:
        end = time.perf_counter()
        stack = self._stack()
        stack.pop()
        duration = end - frame.start
        self_s = duration - frame.child
        if stack:
            stack[-1].child += duration
        with self._lock:
            self.totals[frame.name] += self_s
            self.calls[frame.name] += 1
            if frame.name not in FOLDED:
                self.spans.append(Span(
                    frame.id, frame.name, frame.start, end, frame.parent,
                    frame.request, threading.current_thread().name))

    def count(self, key: str, amount: float = 1) -> None:
        with self._lock:
            self.counts[key] += amount

    def wrap(self, name: str, fn, after=None):
        """Span around ``fn``; ``after(args, kwargs, result)`` adds counts."""
        def traced(*args, **kwargs):
            frame = self._open(name)
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                self._close(frame)
                self.count(f"{name}.errors")
                raise
            self._close(frame)
            if after is not None:
                after(args, kwargs, result)
            return result
        traced.__wrapped__ = fn
        return traced

    def wrap_generator(self, name: str, fn, after=None):
        """One span per ``next()``: a generator does its work lazily."""
        def traced(*args, **kwargs):
            inner = fn(*args, **kwargs)
            while True:
                frame = self._open(name)
                try:
                    value = next(inner)
                except StopIteration:
                    self._close(frame)
                    return
                except BaseException:
                    self._close(frame)
                    raise
                self._close(frame)
                if after is not None:
                    after(value)
                yield value
        traced.__wrapped__ = fn
        return traced

    # -- installation ----------------------------------------------------

    def _patch(self, owner, attr, value) -> None:
        """Replace a module or class attribute, or a dict entry."""
        if isinstance(owner, dict):
            self._patches.append((owner, attr, owner[attr]))
            owner[attr] = value
        else:
            self._patches.append((owner, attr, getattr(owner, attr)))
            setattr(owner, attr, value)

    def _patch_everywhere(self, owners, attr: str, wrapper) -> None:
        """Patch one function under every name callers look it up by."""
        for owner in owners:
            self._patch(owner, attr, wrapper)

    def install(self) -> None:
        count = self.count

        def tags(value):
            if value[1] is not None:
                count("markup.tags")
        self._patch(_markup, "iter_tags", self.wrap_generator(
            "markup.scan", _markup.iter_tags, tags))

        def parsed(args, kwargs, result):
            count("formats.items", len(formats.iter_items(result))
                  if result and isinstance(result[0], formats.AnnotationItem)
                  else len(result))
        for tag, codec in list(formats.FORMATS.items()):
            self._patch(formats.FORMATS, tag, dataclasses.replace(
                codec, parse=self.wrap("formats.parse", codec.parse, parsed)))

        def aligned(args, kwargs, result):
            count("standoff.align_elements", len(result))
        self._patch_everywhere((standoff, formats), "align_inline", self.wrap(
            "standoff.align", standoff.align_inline, aligned))

        def built(args, kwargs, result):
            units, indices = args[0], args[1]
            count("standoff.span_build_indices", len(indices))
            count("standoff.span_build_units", len(units))
        self._patch_everywhere((standoff, formats), "span_for_indices",
                               self.wrap("standoff.span_build",
                                         standoff.span_for_indices, built))

        def resolved(args, kwargs, result):
            count("standoff.resolve_returned", len(result))
            count("standoff.resolve_passed", len(args[1]))
        self._patch(standoff, "resolve_span", self.wrap(
            "standoff.resolve", standoff.resolve_span, resolved))
        self._patch_everywhere((standoff, archive_mod), "reconstruct_coverage",
                               self.wrap("standoff.reconstruct",
                                         standoff.reconstruct_coverage))
        self._patch(standoff, "tokenize_with_offsets", self.wrap(
            "standoff.tokenize", standoff.tokenize_with_offsets))

        def examined(args, kwargs, result):
            count("registry.granularity_items",
                  len(formats.iter_items(args[0])))
        self._patch_everywhere((registry, archive_mod), "granularity_of",
                               self.wrap("registry.granularity",
                                         registry.granularity_of, examined))
        self._patch_everywhere((versioning, archive_mod), "classify_submission",
                               self.wrap("versioning.classify",
                                         versioning.classify_submission))

        self._patch(manifest, "loads_corpus", self.wrap(
            "manifest.load", manifest.loads_corpus))

        def dumped(args, kwargs, result):
            count("manifest.dump_bytes", len(result.encode("utf-8")))
        self._patch(manifest, "dumps_corpus", self.wrap(
            "manifest.dump", manifest.dumps_corpus, dumped))

        Archive = archive_mod.Archive
        self._patch(Archive, "__init__", self.wrap("archive.open",
                                                   Archive.__init__))
        self._patch(Archive, "_materialize", self.wrap(
            "archive.materialize", Archive._materialize))
        self._patch(Archive, "deposit", self.wrap("archive.deposit",
                                                  Archive.deposit))
        deepcopy = archive_mod.copy.deepcopy

        def counted_deepcopy(value, *rest):
            count("archive.deepcopies")
            return deepcopy(value, *rest)
        self._patch(archive_mod, "copy", _CopyShim(counted_deepcopy))

        for name, attr in (("catalog.export", "export_catalog"),
                           ("catalog.record", "corpus_record"),
                           ("catalog.summary", "catalog_summary"),
                           ("catalog.stamp", "archive_stamp"),
                           ("catalog.stamp", "_corpus_stamp")):
            self._patch(catalog, attr, self.wrap(name, getattr(catalog, attr)))
        render = catalog.MetadataHeader.render

        def counted_render(header):
            count("catalog.headers_rendered")
            return render(header)
        self._patch(catalog.MetadataHeader, "render", counted_render)

        def served(args, kwargs, result):
            count("service.bytes_out", len(result[2]))
            if result[0] != 200:
                count("service.non_200")
        self._patch(service, "handle_request", self.wrap(
            "service.handle", service.handle_request, served))
        self._patch(cli, "main", self.wrap("cli.main", cli.main))

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            if isinstance(owner, dict):
                owner[attr] = original
            else:
                setattr(owner, attr, original)

    # -- reduction -------------------------------------------------------

    def layer_metrics(self, http_latencies_s: list[float],
                      reads: list[tuple[float, float]]) -> dict[str, float]:
        """Per-layer metrics of the run.

        ``http_latencies_s`` are the client-side times of the HTTP GETs;
        ``reads`` the (due, end) of the paced reads made while a writer
        commits; a read whose span overlaps a commit waited for its lock
        or behind reads that did.
        """
        t, c, n = self.totals, self.calls, self.counts
        by_id = {span.id: span for span in self.spans}

        def ratio(num: float, den: float) -> float:
            return num / den if den else 0.0

        def inside(span: Span, name: str) -> bool:
            parent = span.parent
            while parent is not None:
                outer = by_id.get(parent)
                if outer is None:
                    return False
                if outer.name == name:
                    return True
                parent = outer.parent
            return False

        cli_s = sum(s.end - s.start for s in self.spans if s.name == "cli.main")
        cli_open_s = sum(s.end - s.start for s in self.spans
                         if s.name == "archive.open" and inside(s, "cli.main"))
        served_s = sum(s.end - s.start for s in self.spans
                       if s.name == "service.handle" and s.parent is None
                       and s.thread not in CLIENT_THREADS)
        commits = sorted((s.start, s.end) for s in self.spans
                         if s.name == "archive.deposit")
        overlap, quiet = [], []
        for start, end in reads:  # start: the read's due time
            hit = any(c_start < end and start < c_end
                      for c_start, c_end in commits)
            (overlap if hit else quiet).append((end - start) * 1000)
        return {
            "markup.scan_s": t["markup.scan"],
            "markup.tags": n["markup.tags"],
            "formats.parse_s": t["formats.parse"],
            "formats.parse_calls": c["formats.parse"],
            "formats.items": n["formats.items"],
            "formats.parse_errors": n["formats.parse.errors"],
            "standoff.resolve_s": t["standoff.resolve"],
            "standoff.spans_resolved": c["standoff.resolve"],
            "standoff.resolve_useful_ratio": ratio(
                n["standoff.resolve_returned"], n["standoff.resolve_passed"]),
            "standoff.align_s": t["standoff.align"],
            "standoff.align_elements": n["standoff.align_elements"],
            "standoff.span_build_s": t["standoff.span_build"],
            "standoff.span_build_useful_ratio": ratio(
                n["standoff.span_build_indices"],
                n["standoff.span_build_units"]),
            "standoff.reconstruct_s": t["standoff.reconstruct"],
            "standoff.reconstructions": c["standoff.reconstruct"],
            "standoff.tokenize_s": t["standoff.tokenize"],
            "registry.granularity_s": t["registry.granularity"],
            "registry.granularity_items": n["registry.granularity_items"],
            "versioning.classify_s": t["versioning.classify"],
            "versioning.classifications": c["versioning.classify"],
            "archive.open_payload_parses": c["archive.materialize"],
            "manifest.load_s": t["manifest.load"],
            "manifest.loads": c["manifest.load"],
            "manifest.dump_s": t["manifest.dump"],
            "manifest.dump_bytes": n["manifest.dump_bytes"],
            "archive.deposit_self_s": t["archive.deposit"],
            "archive.deepcopies": n["archive.deepcopies"],
            "catalog.export_s": t["catalog.export"],
            "catalog.record_s": t["catalog.record"],
            "catalog.summary_s": t["catalog.summary"],
            "catalog.stamp_s": t["catalog.stamp"],
            "catalog.headers_rendered": n["catalog.headers_rendered"],
            "service.handle_s": t["service.handle"],
            "service.requests": c["service.handle"],
            "service.bytes_out": n["service.bytes_out"],
            "service.non_200": n["service.non_200"],
            "service.http_overhead_s": max(
                0.0, sum(http_latencies_s) - served_s),
            "service.overlap_read_p50_ms": (statistics.median(overlap)
                                            if overlap else 0.0),
            "service.quiet_read_p50_ms": (statistics.median(quiet)
                                          if quiet else 0.0),
            "service.overlap_reads": len(overlap),
            "cli.open_share": ratio(cli_open_s, cli_s),
        }


class _CopyShim:
    """Stands in for the ``copy`` module inside ``archive``."""

    def __init__(self, deepcopy):
        self.deepcopy = deepcopy
