"""Scale gates: the engine's time grows linearly with a corpus's size,
with the number of corpora, and with the length of a malformed document;
a parsed item keeps a bounded number of bytes.

One round through ``Archive`` (a segmentation deposit, a stand-off
morphology level over it, ``coverage`` and ``validate``) is timed at n
and 4n tokens.  A linear engine takes about 4x as long for 4x the
tokens; a quadratic one about 16x.  The bound of 8 sits between them, and
a ratio of two timings on one machine does not depend on its speed.
"""

import gc
import shutil
import statistics
import time
import tracemalloc

import pytest

from corpus_forge.archive import Archive, LevelSpec
from corpus_forge.catalog import catalog_summary, export_catalog
from corpus_forge.errors import ParseError
from corpus_forge.formats import (
    AnnotationItem,
    parse_segmentation,
    parse_standoff_morpho,
)
from corpus_forge.standoff import ReferenceUnit, SpanExpr
from oracles import serialize_segmentation, serialize_standoff_morpho

WORDS = ("Madame", "Vauquer", ",", "née", "de", "Conflans", "est", "une",
         "vieille", "femme", "qui", "tient", "à", "Paris", "une", "pension",
         "bourgeoise", ".")
N = 1_000


def payloads(tokens: int) -> tuple[str, str]:
    units = [ReferenceUnit(f"word_{i + 1}", WORDS[i % len(WORDS)], i)
             for i in range(tokens)]
    items = [AnnotationItem(span=SpanExpr(((u.id, None),)), element="w",
                            categories={"msd": "X", "lemma": u.form.lower()})
             for u in units]
    return serialize_segmentation(units), serialize_standoff_morpho(items)


def round_seconds(root, segmentation: str, morphology: str,
                  tokens: int) -> float:
    start = time.perf_counter()
    archive = Archive(root)
    archive.register_corpus("Scale", corpus_id="scale")
    seg = archive.add_level("scale", "segmentation", "full")
    archive.deposit("scale", segmentation, "segmentation", levels=[seg.id])
    result = archive.deposit(
        "scale", morphology, "standoff-morpho",
        new_levels=[LevelSpec("morphosyntax", "none", (seg.id,))])
    assert len(archive.coverage(result.levels[0])) == tokens
    assert archive.validate() == []
    return time.perf_counter() - start


def test_round_grows_linearly(tmp_path):
    texts = {tokens: payloads(tokens) for tokens in (N, 4 * N)}
    ratios = median_ratio(
        lambda tokens, round_: round_seconds(
            tmp_path / f"{tokens}-{round_}", *texts[tokens], tokens),
        N, 4 * N, rounds=9)
    ratio = statistics.median(ratios)
    assert ratio < 8, (
        f"{4 * N} tokens took {ratio:.1f}x as long as {N} "
        f"(median of {sorted(round(r, 1) for r in ratios)})")


def test_a_parsed_item_keeps_few_bytes():
    """A stand-off morphology item over a parsed segmentation keeps one
    slot in each of its level's columns, about 26 bytes: its span is the
    segmentation's own id string, and its categories are the one mapping
    of an equal set.  A parts tuple per lone-unit span costs about 104
    bytes more an item, and copies of the id or the categories about
    330."""
    tokens = 10_000
    segmentation, morphology = payloads(tokens)
    units = parse_segmentation(segmentation)
    gc.collect()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        items = parse_standoff_morpho(morphology)
        gc.collect()
        per_item = (tracemalloc.get_traced_memory()[0] - before) / tokens
    finally:
        tracemalloc.stop()
    assert len(items) == len(units) == tokens
    assert per_item < 64, f"each parsed item keeps {per_item:.0f} bytes"


# A level filled from many payloads holds each unit once, so its fill
# takes about as long as from a few payloads of the same total size: it
# reads and parses each payload once, where a fill that merged each
# payload into a copy of the units before it took 1.8x as long from 100
# payloads as from 4.  Each payload adds a file read, a digest and a
# parse call; the bound of 1.2 leaves room for those and for noise.

FILL_UNITS = 20_000


def filled_level(root, payloads: int) -> str:
    """A segmentation level of FILL_UNITS units from ``payloads``
    deposits; returns its id."""
    archive = Archive(root)
    archive.register_corpus("Fill", corpus_id="fill")
    seg = archive.add_level("fill", "segmentation", "full")
    size = FILL_UNITS // payloads
    for first in range(1, FILL_UNITS + 1, size):
        archive.deposit("fill", "\n".join(
            f'<word id="word_{i}">{WORDS[i % len(WORDS)]}</word>'
            for i in range(first, first + size)), "segmentation",
            levels=[seg.id])
    return seg.id


def test_a_fill_costs_what_it_adds(tmp_path):
    levels = {n: filled_level(tmp_path / str(n), n) for n in (4, 100)}

    def seconds(n, round_):
        archive = Archive(tmp_path / str(n), defer_parse=True)
        archive.level(levels[n])  # loads the manifest, untimed
        start = time.perf_counter()
        assert len(archive.coverage(levels[n])) == FILL_UNITS
        return time.perf_counter() - start
    ratios = median_ratio(seconds, 4, 100, rounds=7)
    ratio = statistics.median(ratios)
    assert ratio <= 1.2, (
        f"a fill from 100 payloads took {ratio:.2f}x as long as from 4 "
        f"(median of {sorted(round(r, 2) for r in ratios)})")


def test_unclosed_tags_scan_linearly():
    """A document of many tags that never close is refused in time linear
    in its length, not scanned to its end from each ``<``."""
    documents = {n: '<w span="word_1" lemma="a" ' * n for n in (250, 1000)}

    def seconds(n, round_):
        start = time.perf_counter()
        for _ in range(10):
            with pytest.raises(ParseError, match="stray text"):
                parse_standoff_morpho(documents[n])
        return time.perf_counter() - start
    ratios = median_ratio(seconds, 250, 1000, rounds=9)
    ratio = statistics.median(ratios)
    assert ratio < 8, (
        f"4x the unclosed tags took {ratio:.1f}x as long "
        f"(median of {sorted(round(r, 1) for r in ratios)})")


def median_ratio(seconds, small: int, large: int, rounds: int) -> list:
    """``seconds(size, round)`` at both sizes, back to back, ``rounds``
    times; the ratio large/small of each round.

    Back to back, so both sizes see the same moment's noise; the median
    ratio of the rounds drops a disturbed one.  As timeit does, the
    garbage collector is off: a collection would scan every object alive,
    whichever size is being timed.
    """
    ratios = []
    gc.disable()
    try:
        for round_ in range(rounds):
            timed = {n: seconds(n, round_)
                     for n in sorted((small, large), reverse=round_ % 2 == 1)}
            ratios.append(timed[large] / timed[small])
    finally:
        gc.enable()
    return ratios


# -- corpus count -----------------------------------------------------------
#
# The catalog and ``validate`` read each corpus once, so their time grows
# with the number of corpora: about 4x for 4x the corpora, where an engine
# that scans the whole archive for each corpus takes about 16x.  The bound
# of 5 leaves room for timing noise above 4.  A command on one corpus
# lists the corpora and loads one manifest, so its time, the open
# included, hardly grows: the bound of 2 sits well under the 4x of an
# open that loads every manifest.

CORPORA = 150
SMALL_SEGMENTATION = ('<word id="word_1">Madame</word>\n'
                      '<word id="word_2">Vauquer</word>\n')
SMALL_MORPHOLOGY = serialize_standoff_morpho(
    [AnnotationItem(span=SpanExpr(((f"word_{i}", None),)), element="w",
                    categories={"msd": "X", "lemma": form.lower()})
     for i, form in ((1, "Madame"), (2, "Vauquer"))])


def wide_archive(root, corpora: int) -> Archive:
    archive = Archive(root)
    table = "".join(f"Corpus {i}\t-\t-\tsegmentation,morphosyntax\n"
                    for i in range(corpora))
    for corpus in archive.register_table(table):
        morpho, seg = archive.levels(corpus.id)  # by id
        archive.deposit(corpus.id, SMALL_SEGMENTATION, "segmentation",
                        levels=[seg.id])
        archive.deposit(corpus.id, SMALL_MORPHOLOGY, "standoff-morpho",
                        levels=[morpho.id])
    return archive


def test_catalog_and_validate_grow_linearly_with_corpora(tmp_path):
    large = wide_archive(tmp_path / "large", 4 * CORPORA)
    for corpus in large.corpora()[:CORPORA]:
        shutil.copytree(large.root / "corpora" / corpus.id,
                        tmp_path / "small" / "corpora" / corpus.id)
    roots = {CORPORA: tmp_path / "small", 4 * CORPORA: large.root}
    assert [len(Archive(r, defer_parse=True).corpora())
            for r in roots.values()] == [CORPORA, 4 * CORPORA]
    assert large.validate() == []
    # Each read is timed on fresh opens, made untimed: the catalog renders
    # every record from the manifests and ``validate`` parses every
    # payload, where a second read of one archive would join memoized
    # text.  A summary block takes microseconds, so its sample times four.
    reads = {"export_catalog": (export_catalog, 1),
             "catalog_summary": (catalog_summary, 4),
             "validate": (Archive.validate, 1)}
    for name, (read, repeat) in reads.items():
        def seconds(n, round_):
            archives = [Archive(roots[n], defer_parse=True)
                        for _ in range(repeat)]
            start = time.perf_counter()
            for archive in archives:
                read(archive)
            return time.perf_counter() - start
        ratios = median_ratio(seconds, CORPORA, 4 * CORPORA, rounds=9)
        ratio = statistics.median(ratios)
        assert ratio < 5, (
            f"{name} on {4 * CORPORA} corpora took {ratio:.1f}x as long as "
            f"on {CORPORA} (median of {sorted(round(r, 1) for r in ratios)})")

    def one_corpus_seconds(n, round_):
        start = time.perf_counter()
        for _ in range(20):
            Archive(roots[n], defer_parse=True).coverage(
                "corpus-1-morphosyntax-1")
        return time.perf_counter() - start
    ratios = median_ratio(one_corpus_seconds, CORPORA, 4 * CORPORA, rounds=9)
    ratio = statistics.median(ratios)
    assert ratio < 2, (
        f"a one-corpus coverage on {4 * CORPORA} corpora took {ratio:.1f}x "
        f"as long as on {CORPORA} "
        f"(median of {sorted(round(r, 1) for r in ratios)})")
