"""Scale gate: ingest, coverage and validate grow linearly with a corpus.

One round through ``Archive`` (a segmentation deposit, a stand-off
morphology level over it, ``coverage`` and ``validate``) is timed at n
and 4n tokens.  A linear engine takes about 4x as long for 4x the
tokens; a quadratic one about 16x.  The bound of 8 sits between them, and
a ratio of two timings on one machine does not depend on its speed.
"""

import time

from corpus_forge.archive import Archive, LevelSpec
from corpus_forge.formats import (
    AnnotationItem,
    serialize_segmentation,
    serialize_standoff_morpho,
)
from corpus_forge.standoff import ReferenceUnit, SpanExpr

WORDS = ("Madame", "Vauquer", ",", "née", "de", "Conflans", "est", "une",
         "vieille", "femme", "qui", "tient", "à", "Paris", "une", "pension",
         "bourgeoise", ".")
N = 1_000


def payloads(tokens: int) -> tuple[str, str]:
    units = [ReferenceUnit(f"word_{i + 1}", WORDS[i % len(WORDS)], i)
             for i in range(tokens)]
    items = [AnnotationItem(span=SpanExpr.single(u.id), element="w",
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
    best = {}
    for tokens in (N, 4 * N):
        texts = payloads(tokens)
        best[tokens] = min(
            round_seconds(tmp_path / f"{tokens}-{rep}", *texts, tokens)
            for rep in range(3))
    ratio = best[4 * N] / best[N]
    assert ratio < 8, (f"{4 * N} tokens took {ratio:.1f}x as long as {N} "
                       f"({best[4 * N]:.3f} s against {best[N]:.3f} s)")
