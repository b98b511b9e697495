"""Hypothesis strategies for values the API accepts.

Text is any string that UTF-8 can encode (``manifest.storable_text``
refuses a lone surrogate, which no UTF-8 file can hold), with the
characters that end or split a line, the escape character and the
separators the manifest uses drawn more often.  A value is left out
only where the API refuses it, and the strategy names the check.
"""

import dataclasses
import re
from importlib import resources

from hypothesis import strategies as st

from corpus_forge.errors import StoreError
from corpus_forge.formats import TABULAR_COLUMNS, AnnotationItem, Link
from corpus_forge.manifest import storable_meta
from corpus_forge.standoff import SpanExpr

AWKWARD = "\\\r\n\x0b\x0c\x1c\x1d\x1e\x85\u2028\u2029 -:|,"

texts = st.just("-") | st.text(
    st.characters(codec="utf-8") | st.sampled_from(AWKWARD), max_size=10)


def _storable(meta: dict) -> bool:
    try:
        # Archive.register_corpus has it refuse "title" and "language", and
        # Archive.deposit "depositor".
        storable_meta(meta, reserved=("title", "language", "depositor"))
    except StoreError:
        return False
    return True


# manifest.storable_meta refuses a key with a line break or ": ", a
# reserved key, and a key beside its "x-" form.
meta_keys = texts.filter(lambda key: _storable({key: ""}))
metas = st.dictionaries(meta_keys, texts, max_size=3).filter(_storable)
# Archive.register_corpus refuses a blank title (EmptyTitleError).
titles = texts.filter(str.strip)
# Archive.add_level refuses a kind with whitespace, ',' or '|'.
kinds = st.text(st.characters(codec="utf-8") | st.sampled_from("-\\:"),
                min_size=1, max_size=10).map(str.strip).filter(
    lambda k: k and not any(c.isspace() or c in ",|" for c in k))

# The category ids the packaged registry (data/registry.tsv) defines.
REGISTRY_IDS = [
    line.split("\t")[0] for line in (
        resources.files("corpus_forge") / "data" / "registry.tsv"
    ).read_text(encoding="utf-8").splitlines()
    if line.strip() and not line.startswith("#")]
category_ids = st.sampled_from(REGISTRY_IDS)


# -- annotation items ------------------------------------------------------
#
# The items each codec reads back, built from one set of parts: text that
# needs escaping (``item_texts``), categories, links and variant groups.
# The comments name the parser check that narrows a part for a codec.

# Like ``texts``, with markup characters, entity names and a legacy
# closing tag, which a serializer must escape.
item_texts = st.lists(
    st.text(st.characters(codec="utf-8"), max_size=6) | st.sampled_from(
        [*AWKWARD, *'&<>"\'', "&lt;", "&amp;", "&quot;", "</struct>"]),
    max_size=4).map("".join)

# The same without whitespace.
words = st.lists(
    st.text(st.characters(codec="utf-8", exclude_categories=["Z", "Cc"]),
            min_size=1, max_size=4)
    | st.sampled_from([*'&<>"\'', "&lt;", "&amp;", "&quot;"]),
    min_size=1, max_size=3).map("".join).filter(lambda w: w.split() == [w])

# _markup.ATTR_RE reads an attribute name as ``[\w:.-]+``.
attr_names = st.text(
    st.characters(categories=["L", "N"], include_characters="_:.-"),
    min_size=1, max_size=6).filter(lambda k: re.fullmatch(r"[\w:.-]+", k))


def categories(*reserved: str):
    """Categories keyed by attribute names; ``reserved`` names a codec
    reads as an item field instead."""
    return st.dictionaries(attr_names.filter(lambda k: k not in reserved),
                           item_texts, max_size=3)


unit_ids = st.integers(1, 10**6).map(lambda n: f"word_{n}")
spans = st.lists(st.tuples(unit_ids, st.none() | unit_ids), min_size=1,
                 max_size=3).map(lambda parts: SpanExpr(tuple(parts)))


def _row(values: dict) -> AnnotationItem:
    cells = {k: v for k, v in values.items() if v}
    return AnnotationItem(surface=cells.get("form"), categories=cells)


# parse_tabular_morpho splits rows by line and cells by tab, strips each
# cell, and refuses an index that is not a number.
cells = item_texts.map(str.strip).filter(
    lambda v: "\t" not in v and len(v.splitlines()) < 2)
tabular_rows = st.fixed_dictionaries({
    "index": st.text(st.characters(categories=["Nd"]), min_size=1,
                     max_size=3),
    **{column: cells for column in TABULAR_COLUMNS[1:]}}).map(_row)

# parse_inline_morpho refuses a <w> without a lemma or around blank text.
inline_words = st.builds(
    AnnotationItem, surface=item_texts.filter(str.strip),
    element=st.just("w"),
    categories=st.builds(lambda rest, lemma: {**rest, "lemma": lemma},
                         categories(), item_texts))

# parse_referential_standoff refuses a markable without an id, and reads
# an id reference as ``id([^()\s,]+)``.
markables = st.builds(
    AnnotationItem, id=item_texts.filter(bool), surface=item_texts,
    element=st.just("referentialMarkable"), categories=categories("id"))
references = words.filter(lambda ref: re.fullmatch(r"[^()\s,]+", ref))
referential_links = st.builds(
    AnnotationItem, element=st.just("referentialLink"),
    categories=categories("referentialTarget", "referentialSource", "type"),
    links=st.builds(Link, type=item_texts,
                    targets=st.lists(references, min_size=1,
                                     max_size=3).map(tuple),
                    source=st.none() | references).map(lambda l: (l,)))


def _grouped(blocks) -> list[AnnotationItem]:
    """The items of markables, links and <alt> groups of links, each
    group named by its position, as the parser names it."""
    items, groups = [], 0
    for block in blocks:
        if isinstance(block, list):
            groups += 1
            items += [dataclasses.replace(link, group=f"alt_{groups}")
                      for link in block]
        else:
            items.append(block)
    return items


# A variant group holds at least one link.
referential_documents = st.lists(
    markables | referential_links
    | st.lists(referential_links, min_size=1, max_size=3),
    max_size=5).map(_grouped)

# parse_standoff_items reads a link from a ``link-<type>`` attribute, one
# per name, its targets split at whitespace; serialize_standoff_items
# refuses nested items, sourced links and categories named like fields.
standoff_links = st.lists(
    st.builds(Link, type=st.just("") | attr_names,
              targets=st.lists(words, max_size=3).map(tuple)),
    max_size=2, unique_by=lambda link: link.type).map(tuple)
standoff_categories = categories(
    "id", "span", "element", "surface", "group").map(
    lambda c: {k: v for k, v in c.items() if not k.startswith("link-")})
standoff_items = st.builds(
    AnnotationItem, id=st.none() | item_texts, span=st.none() | spans,
    surface=st.none() | item_texts, element=st.none() | item_texts,
    group=st.none() | item_texts, links=standoff_links,
    categories=standoff_categories)

# Item lists by codec tag.
payload_items = {
    "tabular-morpho": st.lists(tabular_rows, min_size=1, max_size=4),
    "inline-morpho": st.lists(inline_words, max_size=4),
    "referential-standoff": referential_documents,
    "standoff-items": st.lists(standoff_items, max_size=4),
}
