"""The benchmark's three workloads.

Each workload drives the engine the way its users do: depositors through
the CLI (``corpus_forge.cli.main`` in-process), readers through the
read-only service over loopback HTTP and through ``handle_request``, and
API clients through ``Archive`` from two threads.  A workload sets up its
starting archive from generated inputs (several times, to time set-up),
runs its timed part, checks every output against the generated inputs,
and reports every end-to-end metric.  Each time is scaled to the
reference machine speed right after it is taken (see ``clock``).

The timed part of ``deep-corpus`` and ``wide-archive`` repeats one round
of operations until the time is up, and each metric is the median over
the rounds; a latency percentile is the median over the passes of reads
of each pass's percentile.  Interleaving the operations gives each
metric samples from the whole run, so a slow spell of the machine
shifts all of them alike instead of one metric's only sample.

A pass of reads is a uniform mix over the request kinds the workload's
readers send (its ``kinds``), so a latency percentile is a percentile of
that mix; ``read-under-deposit`` adds a stream of lookups (see there).
A 404 is sent on every pass as well, checked but not timed.

Why these three:

- ``deep-corpus``: one 1,000-token corpus.  Parse, align, resolve and
  reconstruct grow with corpus size; with a single corpus the catalog
  and archive-wide scans cost almost nothing.
- ``wide-archive``: 200 corpora of 50 tokens.  Work per corpus is
  trivial; the cost is the eager reload of every payload, archive-wide
  scans, deep copies and the archive stamp.  Stand-off resolution barely
  runs, so a stand-off optimisation predicts no change here.
- ``read-under-deposit``: 50 corpora of 200 tokens and one of 1,000 on
  one ``Archive`` shared by a paced writer and a paced reader, the only
  workload where reads and commits contend for the lock.
"""

from __future__ import annotations

import contextlib
import gc
import http.client
import io
import itertools
import random
import resource
import shutil
import statistics
import threading
import time
from collections import defaultdict
from dataclasses import dataclass, field
from pathlib import Path
from urllib.parse import urlencode

import gen
from clock import Clock, Stopwatch
from corpus_forge import catalog, cli, service
from corpus_forge.archive import Archive, LevelSpec
from corpus_forge.standoff import coverage_fingerprint

MIN_ROUNDS = 3


class Ledger:
    """Operations attempted and those that failed or returned wrong output."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []
        self._lock = threading.Lock()

    def record(self, what: str, ok: bool) -> None:
        with self._lock:
            self.attempted += 1
            if not ok:
                self.failed += 1
                if len(self.failures) < 20:
                    self.failures.append(what)


@dataclass
class Request:
    path: str
    status: int
    expect: str = ""              # substring of the body, or the whole body
    query: dict = field(default_factory=dict)
    exact: bool = False

    @property
    def url(self) -> str:
        return self.path + ("?" + urlencode(self.query) if self.query else "")

    def ok(self, status: int, body: bytes) -> bool:
        if status != self.status:
            return False
        expect = self.expect.encode("utf-8")
        return body == expect if self.exact else expect in body


def uniform_mix(kinds: dict[str, list[Request]], per_kind: int
                ) -> list[Request]:
    """``per_kind`` requests of each kind, cycling through each kind's
    requests, the kinds interleaved."""
    return [requests[i % len(requests)]
            for i in range(per_kind) for requests in kinds.values()]


@dataclass
class Result:
    metrics: dict                  # end-to-end metrics
    ledger: Ledger
    http_s: list = field(default_factory=list)  # HTTP GET durations, raw
    reads: list = field(default_factory=list)   # (due, end) per read
                                                # under deposit
    unit_s: float = 0.0            # the run's median machine-speed unit


def percentile_ms(values: list[float], q: int) -> float:
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1] * 1000


def disk_bytes(root: Path) -> int:
    return sum(p.stat().st_size for p in root.rglob("*") if p.is_file())


@contextlib.contextmanager
def serving(archive: Archive):
    """The read-only service on a loopback port, served from a thread."""
    server = service.make_server(archive, port=0)
    thread = threading.Thread(target=server.serve_forever, name="bench-http")
    thread.start()
    try:
        yield server.server_address[:2]
    finally:
        server.shutdown()
        server.server_close()
        thread.join(timeout=60)


def http_get(address, url: str) -> tuple[int, bytes, float]:
    start = time.perf_counter()
    conn = http.client.HTTPConnection(*address, timeout=120)
    try:
        conn.request("GET", url)
        response = conn.getresponse()
        body = response.read()
    finally:
        conn.close()
    return response.status, body, time.perf_counter() - start


def check_export(root: Path, archive: Archive, ledger: Ledger) -> None:
    written = (root / "catalog.export").read_text(encoding="utf-8")
    ledger.record("export byte-identical after reload",
                  written == catalog.export_catalog(archive))


def fingerprint_request(corpus_id: str, forms: list[str]) -> Request:
    return Request(f"/corpora/{corpus_id}", 200,
                   f"computed coverage-fingerprint: "
                   f"{coverage_fingerprint(forms)}\n")


def header_request(resource_id: str) -> Request:
    return Request(f"/resources/{resource_id}/header", 200,
                   f"subject: {resource_id}\n")


class Workload:
    name = ""
    setups = 3

    def __init__(self, fixtures: Path, seed: int, seconds: float,
                 clock: Clock):
        self.vocab = gen.load_vocabulary(fixtures)
        self.seed = seed
        self.seconds = seconds
        self.clock = clock
        self.ledger = Ledger()
        self.samples: dict[str, list] = defaultdict(list)  # reference times
        self.http_s: list[float] = []                       # raw

    def rng(self, stream: str) -> random.Random:
        return random.Random(f"{self.name}/{self.seed}/{stream}")

    def setup(self, work: Path, lap):
        """Build the starting archive under ``work``, calling ``lap``
        now and then so that a long set-up is timed in laps."""
        raise NotImplementedError

    def timed(self, state) -> Result:
        raise NotImplementedError

    def measure(self, fn, *args):
        """Time one call from a collected heap, in reference seconds.

        A full collection of the archive's object graph takes tens of
        milliseconds; without the ``gc.collect()``, one owed by earlier
        work lands in whichever short call happens to come next.
        """
        gc.collect()
        watch = Stopwatch(self.clock)
        value = fn(*args)
        watch.lap()
        return watch.total_s, value

    def run_cli(self, *argv: str) -> tuple[float, int, str]:
        out, err = io.StringIO(), io.StringIO()

        def main() -> int:
            with contextlib.redirect_stdout(out), \
                    contextlib.redirect_stderr(err):
                return cli.main(list(argv))
        seconds, code = self.measure(main)
        return seconds, code, out.getvalue()

    def read_batch(self, archive: Archive, requests: list[Request],
                   checks: list[Request], in_process: bool = True) -> None:
        """One pass over the request mix, each request over HTTP, then
        (unless not ``in_process``) through ``handle_request``; then the
        untimed ``checks``.  Each starts from a collected heap, as in
        ``measure``."""
        ledger, batch = self.ledger, defaultdict(list)
        self.clock.tick()
        with serving(archive) as address:
            for req, timed in ([(r, True) for r in requests]
                               + [(r, False) for r in checks]):
                gc.collect()
                status, body, seconds = http_get(address, req.url)
                ledger.record(f"GET {req.url}", req.ok(status, body))
                if timed:
                    batch["get"].append(seconds)
                if not in_process:
                    continue
                gc.collect()
                start = time.perf_counter()
                status, _, body = service.handle_request(
                    archive, "GET", req.path, req.query)
                read_s = time.perf_counter() - start
                ledger.record(f"read {req.url}", req.ok(status, body))
                if timed:
                    batch["read"].append(read_s)
        self.http_s += batch["get"]
        self.clock.tick()
        self.add_scaled(batch, self.clock.factor())

    def add_scaled(self, batch: dict, factor: float) -> None:
        """Add one pass's samples, scaled by ``factor``; of latencies,
        add the pass's percentiles."""
        for key, values in batch.items():
            values = [v / factor if key == "ingest" else v * factor
                      for v in values]
            if key in ("get", "read"):
                self.samples[f"{key}_p50"].append(percentile_ms(values, 50))
                self.samples[f"{key}_p90"].append(percentile_ms(values, 90))
            else:
                self.samples[key] += values

    def repeat_rounds(self, one_round) -> None:
        deadline = time.perf_counter() + self.seconds
        number = 0
        while number < MIN_ROUNDS or time.perf_counter() < deadline:
            one_round(number)
            number += 1

    def result(self, **extra) -> Result:
        s = self.samples
        median = statistics.median
        metrics = {
            "open_s": median(s["open"]),
            "ingest_tokens_per_s": median(s["ingest"]),
            "deposit_p50_s": median(s["deposit"]),
            "coverage_s": median(s["coverage"]),
            "validate_s": median(s["validate"]),
            "export_s": median(s["export"]),
            "get_p50_ms": median(s["get_p50"]),
            "get_p90_ms": median(s["get_p90"]),
            "read_p50_ms": median(s["read_p50"]),
            "read_p90_ms": median(s["read_p90"]),
            "disk_bytes_per_payload_byte": median(s["disk"]),
            "peak_rss_mb": resource.getrusage(
                resource.RUSAGE_SELF).ru_maxrss / 1024,
        }
        return Result(metrics, self.ledger, self.http_s, **extra)


# ---------------------------------------------------------------------------


@dataclass
class DeepState:
    work: Path
    root: Path
    table: Path
    forms: list
    files: dict


class DeepCorpus(Workload):
    """One corpus; a round is all of a depositor's commands on a fresh
    root."""

    name = "deep-corpus"
    tokens = 1000
    corpus = "deep-corpus"
    setups = 9           # set-up is a few file writes; take more samples

    def init(self, root: Path, table: Path) -> None:
        _, code, out = self.run_cli("init", "--root", str(root), "--corpora",
                                    str(table), "--language", "fr")
        self.ledger.record("init", code == 0
                           and out == f"corpus: {self.corpus}\nroot: {root}\n")

    def setup(self, work: Path, lap) -> DeepState:
        rng = self.rng("text")
        toks = gen.tokens(rng, self.vocab, self.tokens)
        inputs = work / "inputs"
        inputs.mkdir(parents=True)
        files = {
            "segmentation.xml": gen.segmentation(toks),
            "structure.xml": gen.structural(rng, toks),
            "morpho.xml": gen.standoff_morpho(toks),
            "coref.xml": gen.inline_coref(rng, toks),
            "morpho-fine.xml": gen.standoff_morpho(toks, fine=True),
        }
        for name, text in files.items():
            (inputs / name).write_text(text, encoding="utf-8")
        table = inputs / "corpora.tsv"
        table.write_text(gen.corpus_table(
            ["Deep Corpus"], self.tokens,
            "structure,segmentation,morphosyntax,reference"), encoding="utf-8")
        root = work / "round-0"
        self.init(root, table)
        return DeepState(work, root, table, gen.text_of(toks), files)

    def timed(self, s: DeepState) -> Result:
        c, ledger, samples = self.corpus, self.ledger, self.samples
        inputs = s.work / "inputs"
        seg = f"{c}-segmentation-1"
        plan = [
            ("segmentation.xml", "segmentation", ["--levels", seg], "Initial"),
            ("structure.xml", "structural-inline",
             ["--levels", f"{c}-structure-1"], "Initial"),
            ("morpho.xml", "standoff-morpho",
             ["--levels", f"{c}-morphosyntax-1"], "Initial"),
            ("coref.xml", "inline-coref",
             ["--levels", f"{c}-reference-1"], "Initial"),
            ("morpho-fine.xml", "standoff-morpho",
             ["--new-level", f"morphosyntax:none:{seg}", "--validated",
              "--validator", "adjudicator"], "ExhaustiveCorrection"),
        ]
        payload_bytes = sum(len(t.encode("utf-8")) for t in s.files.values())
        fingerprint = coverage_fingerprint(s.forms)
        rids = [f"{c}-r{rid:03d}" for rid in range(1, len(plan) + 1)]
        kinds = {
            "corpus record": [fingerprint_request(c, s.forms)],
            "payload": [Request(f"/resources/{rid}", 200, s.files[name],
                                exact=True)
                        for rid, (name, *_) in zip(rids, plan)],
            "header": [header_request(rid) for rid in rids],
        }
        requests = uniform_mix(kinds, len(plan))
        checks = [Request(f"/corpora/{c}-missing", 404),
                  Request("/corpora", 200, "corpora: 1\n")]

        def one_round(number: int) -> None:
            root = s.root if number == 0 else s.work / f"round-{number}"
            if number:
                self.init(root, s.table)
            deposit_s = []
            for rid, (name, fmt, extra, expected) in zip(rids, plan):
                seconds, code, out = self.run_cli(
                    "deposit", "--root", str(root), "--corpus", c,
                    "--format", fmt, *extra, str(inputs / name))
                deposit_s.append(seconds)
                ledger.record(f"deposit {name}", code == 0 and out.startswith(
                    f"resource: {rid}\nclassification: {expected}\n"))
            samples["deposit"] += deposit_s
            samples["ingest"].append(self.tokens * len(plan) / sum(deposit_s))

            seconds, code, out = self.run_cli(
                "coverage", "--root", str(root), "--level",
                f"{c}-morphosyntax-1")
            samples["coverage"].append(seconds)
            ledger.record("coverage", code == 0
                          and out == " ".join(s.forms) + "\n")
            seconds, code, out = self.run_cli("validate", "--root", str(root))
            samples["validate"].append(seconds)
            ledger.record("validate", code == 0 and out == "violations: 0\n")
            seconds, code, out = self.run_cli("export", "--root", str(root))
            samples["export"].append(seconds)
            ledger.record("export", code == 0)
            seconds, archive = self.measure(Archive, root)
            samples["open"].append(seconds)

            ledger.record("fingerprint",
                          archive.corpus(c).coverage_fingerprint == fingerprint)
            check_export(root, archive, ledger)
            self.read_batch(archive, requests, checks)
            samples["disk"].append(disk_bytes(root) / payload_bytes)
            shutil.rmtree(root)

        self.repeat_rounds(one_round)
        return self.result()


# ---------------------------------------------------------------------------


@dataclass
class CorporaState:
    root: Path
    toks: dict           # corpus id -> generated tokens
    payload_bytes: int


def build_corpora(store: Archive, rng: random.Random, vocab, sizes,
                  ledger: Ledger, lap) -> CorporaState:
    """Register corpora with segmentation and morphosyntax levels, then
    deposit a segmentation and a stand-off morphology into each."""
    table = "".join(gen.corpus_table([title], n, "segmentation,morphosyntax")
                    for title, _, n in sizes)
    store.register_table(table, language="fr")
    toks, payload_bytes = {}, 0
    for number, (_, corpus_id, n) in enumerate(sizes, 1):
        if number % 10 == 0:
            lap()
        toks[corpus_id] = tk = gen.tokens(rng, vocab, n)
        for fmt, payload, level in (
                ("segmentation", gen.segmentation(tk), "segmentation"),
                ("standoff-morpho", gen.standoff_morpho(tk), "morphosyntax")):
            result = store.deposit(corpus_id, payload, fmt,
                                   levels=[f"{corpus_id}-{level}-1"])
            payload_bytes += len(payload.encode("utf-8"))
            ledger.record(f"setup deposit {corpus_id}",
                          result.records[0].classification.label == "Initial")
    return CorporaState(store.root, toks, payload_bytes)


class WideArchive(Workload):
    """Many small corpora; a round is one deposit, the archive-wide CLI
    commands, two opens and one pass of reads."""

    name = "wide-archive"
    corpora = 200
    tokens = 50

    def ids(self) -> list[str]:
        return [f"wide-{i:04d}" for i in range(1, self.corpora + 1)]

    def setup(self, work: Path, lap) -> CorporaState:
        sizes = [(f"Wide {i:04d}", f"wide-{i:04d}", self.tokens)
                 for i in range(1, self.corpora + 1)]
        return build_corpora(Archive(work / "archive"), self.rng("text"),
                             self.vocab, sizes, self.ledger, lap)

    def timed(self, s: CorporaState) -> Result:
        root, ledger, samples = s.root, self.ledger, self.samples
        rng = self.rng("sample")
        order = self.ids()
        rng.shuffle(order)
        inputs = root.parent / "inputs"
        inputs.mkdir()
        offset = rng.randrange(1, 10)
        kinds = {
            "catalog page": [
                Request("/corpora", 200, f"corpora: {self.corpora}\n"),
                Request("/corpora", 200, f"corpora: {self.corpora}\n"
                        f"offset: {offset}\n\ncorpus: wide-{offset + 1:04d}\n",
                        query={"offset": str(offset)})],
            "corpus record": [fingerprint_request(c, gen.text_of(s.toks[c]))
                              for c in rng.sample(self.ids(), 6)],
            "header": [header_request(f"{c}-r00{rng.randint(1, 2)}")
                       for c in rng.sample(self.ids(), 6)],
        }
        requests = uniform_mix(kinds, 6)
        checks = [Request("/corpora/wide-missing", 404)]
        payload_bytes = s.payload_bytes
        with_coref: set[str] = set()

        def one_round(number: int) -> None:
            nonlocal payload_bytes
            c = order[number % len(order)]
            seg = f"{c}-segmentation-1"
            if number % 3 != 1:   # two morphologies to one coreference
                fmt, payload = "standoff-morpho", gen.standoff_morpho(s.toks[c])
                spec, expected = f"morphosyntax:none:{seg}", "ParallelVersion"
            else:
                fmt = "inline-coref"
                payload = gen.inline_coref(self.rng(f"coref {c}"), s.toks[c])
                spec = f"reference:none:{seg}"
                expected = "ParallelVersion" if c in with_coref else "Initial"
                with_coref.add(c)
            path = inputs / f"{c}.{fmt}"
            path.write_text(payload, encoding="utf-8")
            seconds, code, out = self.run_cli(
                "deposit", "--root", str(root), "--corpus", c, "--format", fmt,
                "--new-level", spec, str(path))
            payload_bytes += len(payload.encode("utf-8"))
            samples["deposit"].append(seconds)
            samples["ingest"].append(self.tokens / seconds)
            ledger.record(f"deposit {c}", code == 0 and
                          f"\nclassification: {expected}\n" in out)

            seconds, code, out = self.run_cli("validate", "--root", str(root))
            samples["validate"].append(seconds)
            ledger.record("validate", code == 0 and out == "violations: 0\n")
            seconds, code, out = self.run_cli("export", "--root", str(root))
            samples["export"].append(seconds)
            ledger.record("export", code == 0)
            seconds, code, out = self.run_cli(
                "coverage", "--root", str(root), "--level",
                f"{c}-morphosyntax-1")
            samples["coverage"].append(seconds)
            ledger.record("coverage", code == 0 and out == " ".join(
                gen.text_of(s.toks[c])) + "\n")
            for _ in range(2):
                seconds, archive = self.measure(Archive, root)
                samples["open"].append(seconds)

            ledger.record(f"fingerprint {c}",
                          archive.corpus(c).coverage_fingerprint
                          == coverage_fingerprint(gen.text_of(s.toks[c])))
            check_export(root, archive, ledger)
            self.read_batch(archive, requests, checks)
            samples["disk"].append(disk_bytes(root) / payload_bytes)

        self.repeat_rounds(one_round)
        return self.result()


# ---------------------------------------------------------------------------


class ReadUnderDeposit(Workload):
    """One shared ``Archive``, in rounds of a concurrent phase and a quiet
    one.

    In the concurrent phase a writer thread commits on a fixed schedule
    and a reader thread makes lookups on a fixed schedule: a lookup is a
    corpus record and one of its resource headers, through
    ``handle_request``.  Both count latency from each call's due time,
    so a lookup that waits behind a commit counts its wait, and lookups
    are sampled evenly over the phase, not only when the reader is free.
    The schedules are in reference seconds (see ``clock``), so the share
    of lookups that meet a commit does not change with the machine's
    speed.  Each round opens the archive afresh; its quiet phase, in the
    main thread, has a validation, a coverage, an export and one pass of
    the request mix over HTTP, which gives the GET metrics.
    """

    name = "read-under-deposit"
    small, small_tokens = 50, 200
    large, large_tokens = "shared-large", 1000
    # Two stand-off morphology levels for each inline coreference level:
    # the two kinds cost ten times apart, so an even split would put the
    # median deposit on the boundary between them.
    pattern = ("standoff-morpho", "inline-coref", "standoff-morpho")
    # A commit is due every ``deposit_every_s`` and holds the lock for
    # about a fifth of the phase, so a quarter to a third of the lookups
    # wait behind one (or behind lookups that did): the median lookup is
    # a quiet one and the 90th percentile waits behind a commit.  The
    # concurrent phases take about 40% of ``seconds``.
    deposit_every_s = 0.4
    read_every_s = 0.02
    # Short phases: the units around a phase scale its times, so a phase
    # should not outlast a spell of the machine's speed.
    round_count = 10

    def ids(self) -> list[str]:
        return [f"shared-{i:03d}" for i in range(1, self.small + 1)]

    def setup(self, work: Path, lap) -> CorporaState:
        sizes = [(f"Shared {i:03d}", f"shared-{i:03d}", self.small_tokens)
                 for i in range(1, self.small + 1)]
        sizes.append(("Shared Large", self.large, self.large_tokens))
        return build_corpora(Archive(work / "archive"), self.rng("text"),
                             self.vocab, sizes, self.ledger, lap)

    def timed(self, s: CorporaState) -> Result:
        ledger, samples, big = self.ledger, self.samples, self.large
        rng = self.rng("sample")
        seg = f"{big}-segmentation-1"
        forms = gen.text_of(s.toks[big])
        payloads = {"standoff-morpho": gen.standoff_morpho(s.toks[big]),
                    "inline-coref": gen.inline_coref(rng, s.toks[big])}
        specs = {"standoff-morpho": LevelSpec("morphosyntax", "none", (seg,)),
                 "inline-coref": LevelSpec("reference", "none", (seg,))}
        fingerprint = coverage_fingerprint(forms)
        lookups = [(fingerprint_request(c, gen.text_of(s.toks[c])),
                    header_request(f"{c}-r002"))
                   for c in rng.sample(self.ids(), 12)]
        kinds = {
            "catalog page": [Request("/corpora", 200,
                                     f"corpora: {self.small + 1}\n")],
            # The written corpus's record grows with every commit.
            "corpus record": [fingerprint_request(big, forms)]
            + [record for record, _ in lookups[:5]],
            "header": [header_request(f"{big}-r002")]
            + [header for _, header in lookups[5:10]],
        }
        requests = uniform_mix(kinds, 6)
        # The concurrent lookups are of small corpora only.  A catalog
        # page or the written corpus's record takes 10 to 50 ms, and the
        # lookups due meanwhile would queue behind it as well as behind
        # commits; both are timed in the HTTP pass instead.
        stream = itertools.cycle(lookups)
        checks = [Request("/corpora/shared-missing", 404)]

        per_round = max(1, round(self.seconds * 0.4 / self.round_count
                                 / self.deposit_every_s))
        deposits = iter(range(self.round_count * per_round))
        store = None
        reads: list[tuple[float, float]] = []   # (due, end)
        lookup_s: list[float] = []              # reference times
        seen_coref = False

        def writer(start: float, done: threading.Event, phase: dict,
                   deposit_every: float) -> None:
            nonlocal seen_coref
            try:
                for slot in range(per_round):
                    i = next(deposits)
                    due = start + slot * deposit_every
                    time.sleep(max(0.0, due - time.perf_counter()))
                    fmt = self.pattern[i % len(self.pattern)]
                    began = time.perf_counter()
                    try:
                        result = store.deposit(big, payloads[fmt], fmt,
                                               new_levels=[specs[fmt]])
                        label = result.records[0].classification.label
                    except Exception as err:  # counted as failed; go on
                        label = f"error {err!r}"
                    end = time.perf_counter()
                    phase["deposit"].append(end - due)
                    phase["ingest"].append(self.large_tokens / (end - began))
                    s.payload_bytes += len(payloads[fmt].encode("utf-8"))
                    expected = ("Initial" if fmt == "inline-coref"
                                and not seen_coref else "ParallelVersion")
                    seen_coref = seen_coref or fmt == "inline-coref"
                    ledger.record(f"deposit {i} {fmt}", label == expected)
                # The phase lasts whole slots, so commits hold the lock
                # for the same share of it in every round.
                time.sleep(max(0.0, start + per_round * deposit_every
                               - time.perf_counter()))
            finally:
                done.set()

        def reader(start: float, done: threading.Event, phase: dict,
                   read_every: float) -> None:
            for slot in itertools.count():
                due = start + slot * read_every
                if done.wait(max(0.0, due - time.perf_counter())):
                    return
                lookup = next(stream)
                ok = True
                for req in lookup:
                    try:
                        status, _, body = service.handle_request(
                            store, "GET", req.path, req.query)
                        ok = ok and req.ok(status, body)
                    except Exception:  # counted as failed; go on
                        ok = False
                end = time.perf_counter()
                phase["lookup"].append(end - due)
                reads.append((due, end))
                ledger.record(f"lookup {lookup[0].url}", ok)

        for _ in range(self.round_count):
            seconds, store = self.measure(Archive, s.root)
            samples["open"].append(seconds)
            # The units just before the phase set its schedule; those
            # before and after it scale its times.
            self.clock.tick()
            factor = self.clock.factor(2)
            done, phase = threading.Event(), defaultdict(list)
            start = time.perf_counter()
            threads = [threading.Thread(
                           target=writer, name="bench-writer",
                           args=(start, done, phase,
                                 self.deposit_every_s / factor)),
                       threading.Thread(
                           target=reader, name="bench-reader",
                           args=(start, done, phase,
                                 self.read_every_s / factor))]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=150)
            ledger.record("threads finished",
                          not any(t.is_alive() for t in threads))
            self.clock.tick()
            factor = self.clock.factor()
            lookup_s += [v * factor for v in phase.pop("lookup")]
            self.add_scaled(phase, factor)

            seconds, violations = self.measure(store.validate)
            samples["validate"].append(seconds)
            ledger.record("validate", violations == [])
            seconds, tokens = self.measure(store.coverage,
                                           f"{big}-morphosyntax-1")
            samples["coverage"].append(seconds)
            ledger.record("coverage", tokens == forms)
            seconds, _ = self.measure(catalog.write_export, store)
            samples["export"].append(seconds)
            self.read_batch(store, requests, checks, in_process=False)
        ledger.record("fingerprint",
                      store.corpus(big).coverage_fingerprint == fingerprint)
        check_export(s.root, Archive(s.root), ledger)
        samples["disk"].append(disk_bytes(s.root) / s.payload_bytes)
        # Pooled over the phases: one phase has too few lookups behind a
        # commit for a steady 90th percentile.
        samples["read_p50"].append(percentile_ms(lookup_s, 50))
        samples["read_p90"].append(percentile_ms(lookup_s, 90))
        return self.result(reads=reads)


WORKLOADS = {w.name: w for w in (DeepCorpus, WideArchive, ReadUnderDeposit)}


def run(cls, fixtures: Path, seed: int, seconds: float, work: Path,
        tracer=None) -> Result:
    """Set up (several times, unless traced), then run the timed part.

    The result's metrics add ``setup_s``, the median set-up time.
    """
    clock = Clock()
    setup_s, state = [], None
    for attempt in range(1 if tracer else cls.setups):
        if state is not None:
            shutil.rmtree(work / f"setup-{attempt - 1}")
        workload = cls(fixtures, seed, seconds, clock)
        gc.collect()
        watch = Stopwatch(clock)
        state = workload.setup(work / f"setup-{attempt}", watch.lap)
        watch.lap()
        setup_s.append(watch.total_s)
    if tracer is not None:
        tracer.install()
    try:
        result = workload.timed(state)
    finally:
        if tracer is not None:
            tracer.uninstall()
    result.metrics["setup_s"] = statistics.median(setup_s)
    result.unit_s = clock.unit_s()
    return result
