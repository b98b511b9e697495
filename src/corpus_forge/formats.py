"""Interchange codecs for annotation payloads: parsers only.

The archive stores each payload as deposited and serves it back
verbatim, so it reads these formats and never writes one.  Every
deposit format parses into one of two shapes of columns: :class:`Items`,
one row per :class:`AnnotationItem` in document order (a tree's nested
items are rows too, each with its depth), or for segmentations a
:class:`~corpus_forge.standoff.Segmentation`.  Items carry at most one
of two anchorings — a ``span`` pointing at reference units, or a
``surface`` duplicating the covered text — which is what downstream
coverage reconstruction and version classification operate on.  Both
shapes build their values only when they are read one by one.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field, fields
from itertools import compress
from sys import intern
from types import MappingProxyType
from typing import Callable, Mapping

from . import _markup
from ._markup import line_at
from .errors import (
    CorpusForgeError,
    MissingSpanError,
    NestingError,
    ParseError,
    UnknownTargetError,
)
from .model import KIND_MORPHOSYNTAX
from .standoff import (
    Columns,
    Segmentation,
    SpanExpr,
    align_inline,
    cell_parts,
    check_unit,
    span_cell,
    span_parts,
)
# Unused here; ``perfbench/tracer.py`` still patches it.
from .standoff import span_for_indices  # noqa: F401


@dataclass(frozen=True, slots=True)
class Link:
    """Typed relation from an annotation item to other items by id."""

    type: str
    targets: tuple[str, ...]
    source: str | None = None


@dataclass(frozen=True, slots=True)
class AnnotationItem:
    """One annotation unit: a markable, a row, a tag or a constituent.

    ``span`` anchors the item onto reference units of another level;
    ``surface`` instead carries the covered text directly.  ``group``
    marks membership in a variant group (mutually exclusive readings).
    ``categories`` is read-only: a ``MappingProxyType`` it is given is
    kept as is, any other mapping is wrapped, and its caller must not keep
    changing either.  Items of one payload with equal categories share one
    mapping, so compare categories with ``==``, never ``is``.
    """

    id: str | None = None
    span: SpanExpr | None = None
    surface: str | None = None
    element: str | None = None
    categories: Mapping[str, str] = field(default_factory=dict)
    links: tuple[Link, ...] = ()
    children: tuple["AnnotationItem", ...] = ()
    group: str | None = None

    __hash__ = None  # a categories mapping keeps items unhashable by design

    def __post_init__(self):
        if type(self.categories) is not MappingProxyType:
            object.__setattr__(self, "categories",
                               MappingProxyType(self.categories))


# Each column's value in a row that does not set it.
_DEFAULTS = {**{f.name: getattr(AnnotationItem(), f.name)
                for f in fields(AnnotationItem) if f.name != "children"},
             "depth": 0}


def _walk(trees):
    """Each item of the item trees ``trees`` with its depth, 0 at the top,
    depth first in document order.  Iterative, so a tree of any depth the
    parsers accept is walked."""
    stack = [iter(trees)]
    while stack:
        for item in stack[-1]:
            yield len(stack) - 1, item
            if item.children:
                stack.append(iter(item.children))
                break
        else:
            stack.pop()


def iter_items(trees) -> list:
    """Every item of the item trees ``trees``, depth first in document
    order; of :class:`Items`, one item per row."""
    return [item for _, item in _walk(trees)]


class Items(Columns):
    """Annotation items as columns, one row per item in document order,
    depth first: ``columns`` maps ``depth`` (0 at the top level) and each
    field of :class:`AnnotationItem` but ``children`` to each row's value,
    and a column that no row sets may be absent.  A row's children are the
    rows one deeper that follow it before the next row no deeper.  The
    ``span`` column holds each item's span cell
    (:func:`~corpus_forge.standoff.span_cell`); its ids resolve against
    the anchor when they are read.  ``len()``, indexing and iteration give
    the top-level items, each built with its children.  It keeps the lists
    it is given."""

    __slots__ = ("rows", "columns")

    def __init__(self, rows: int = 0, **columns: list):
        self.rows = rows
        self.columns = columns

    @classmethod
    def of(cls, trees) -> Items:
        """The rows of ``trees``, annotation items and the items below."""
        rows = list(_walk(trees))
        columns = {name: [getattr(item, name) for _, item in rows]
                   for name in _DEFAULTS if name != "depth"}
        columns["span"] = [span and span_cell(span.parts)
                           for span in columns["span"]]
        if any(depth for depth, _ in rows):
            columns["depth"] = [depth for depth, _ in rows]
        return cls(len(rows), **columns)

    def __len__(self) -> int:
        depths = self.columns.get("depth")
        return self.rows if depths is None else depths.count(0)

    def __iter__(self):
        return iter(self._trees())

    def _value(self, index: int) -> AnnotationItem:
        if "depth" in self.columns:
            return self._trees()[index]
        return self._item(index)

    def _item(self, row: int, children=()) -> AnnotationItem:
        values = {name: column[row] for name, column in self.columns.items()}
        values.pop("depth", None)
        if values.get("span") is not None:
            values["span"] = SpanExpr(cell_parts(values["span"]))
        return AnnotationItem(**values, children=children)

    def _trees(self) -> list[AnnotationItem]:
        """The top-level items, built in one pass from the last row to the
        first, so that each row's children are built before it."""
        depths = self.column("depth")
        built: dict[int, list] = {}  # by depth, the items not yet placed
        for row in range(self.rows - 1, -1, -1):
            children = built.pop(depths[row] + 1, [])
            built.setdefault(depths[row], []).append(
                self._item(row, tuple(reversed(children))))
        return built.get(0, [])[::-1]

    def column(self, name: str) -> list:
        """Each row's value of the field ``name``; not to be changed."""
        column = self.columns.get(name)
        return [_DEFAULTS[name]] * self.rows if column is None else column

    def extend(self, other: Items) -> None:
        """Add ``other``'s rows after these."""
        for name in self.columns.keys() | other.columns.keys():
            self.columns.setdefault(name, self.column(name)).extend(
                other.column(name))
        self.rows += other.rows


class Categories(dict):
    """One payload's read-only category mappings, one per distinct set.

    A key lists names and values in turn, ``(name, value, name, value,
    ...)``, in the order the mapping keeps; looking up a key made before
    returns the mapping made then, so a repeated set builds no dict and no
    proxy.  The key is flat because a flat key is built and hashed in
    less time than that dict and proxy take, and a tuple of pairs is not.
    """

    def __missing__(self, key: tuple) -> Mapping[str, str]:
        mapping = self[key] = MappingProxyType(dict(zip(key[::2], key[1::2])))
        return mapping

    def of(self, pairs) -> Mapping[str, str]:
        """The shared mapping of ``(name, value)`` pairs, in their order."""
        key = ()
        for pair in pairs:
            key += pair
        return self[key]


def _stray_text(chunk: str, where: str, text: str, tag) -> ParseError:
    """The error for text outside elements, at the line the text starts.

    ``(chunk, tag)`` is a pair from ``_markup.iter_tags(text)``.
    """
    end = len(text) if tag is None else tag[3]
    lead = len(chunk) - len(chunk.lstrip())
    return ParseError(f"stray text {chunk.strip()!r} {where}",
                      line=line_at(text, end - len(chunk) + lead))


# --------------------------------------------------------------------------
# segmentation:  <word id="word_27">Madame</word>
# --------------------------------------------------------------------------

def parse_segmentation(text: str) -> Segmentation:
    forms: list[str] = []
    positions: dict[str, int] = {}  # its keys in order are the ids
    open_tag = None
    at = 0  # offset of the tag an error is about
    try:
        for chunk, tag in _markup.iter_tags(text):
            if open_tag is None and chunk.strip():
                raise _stray_text(chunk, "between word elements", text, tag)
            if tag is None:
                break
            kind, name, attrs, at = tag
            if name != "word":
                raise ParseError(f"unexpected element <{name}>")
            if kind == "open":
                if open_tag is not None:
                    raise ParseError("word elements cannot nest")
                open_tag = tag
            elif kind == "selfclose":
                raise ParseError("word element carries no form")
            else:
                if open_tag is None:
                    raise ParseError("closing tag without open word")
                # no tag may come between a word's open and close tags, so
                # the chunk before the close is the whole form
                _, _, attrs, at = open_tag
                unit_id = attrs.get("id")
                if not unit_id:
                    raise ParseError("word element lacks id attribute")
                if unit_id in positions:
                    raise ParseError(f"duplicate unit id {unit_id!r}")
                form = _markup.unescape(chunk)
                check_unit(unit_id, form)
                positions[intern(unit_id)] = len(forms)
                forms.append(intern(form))
                open_tag = None
        if open_tag is not None:
            at = open_tag[3]
            raise ParseError("unclosed word element")
    except CorpusForgeError as err:
        err.name_line(line_at(text, at))
        raise
    return Segmentation(list(positions), forms, positions)


# --------------------------------------------------------------------------
# tabular-morpho:  index <TAB> form <TAB> lemma <TAB> tag <TAB> fine tag
# --------------------------------------------------------------------------

TABULAR_COLUMNS = ("index", "form", "lemma", "tag_coarse", "tag_fine")


def parse_tabular_morpho(text: str) -> Items:
    items = []
    shared = Categories()
    for lineno, line in enumerate(text.splitlines(), 1):
        if not line.strip():
            continue
        cols = line.split("\t")
        if len(cols) != len(TABULAR_COLUMNS):
            raise ParseError(
                f"expected {len(TABULAR_COLUMNS)} tab-separated columns, "
                f"got {len(cols)}", line=lineno)
        values = [c.strip() for c in cols]
        if not values[0].isdigit():
            raise ParseError(f"row index {values[0]!r} is not a number",
                             line=lineno)
        pairs = [(k, v) for k, v in zip(TABULAR_COLUMNS, values) if v]
        items.append(AnnotationItem(surface=values[1] or None,
                                    categories=shared.of(pairs)))
    return Items.of(items)


# --------------------------------------------------------------------------
# standoff-morpho:  <w span="word_27"  msd="SBC:_:s"  lemma="madame"/>
# --------------------------------------------------------------------------

def parse_standoff_morpho(text: str) -> Items:
    spans, categories = [], []
    shared = Categories()
    at = 0  # offset of the tag an error is about
    try:
        for chunk, tag in _markup.iter_tags(text):
            if chunk.strip():
                raise _stray_text(chunk, "between elements", text, tag)
            if tag is None:
                break
            kind, name, attrs, at = tag
            if name != "w" or kind != "selfclose":
                raise ParseError(f"expected self-closing <w/>, got <{name}>")
            if "span" not in attrs:
                raise MissingSpanError("<w/> lacks a span attribute")
            spans.append(span_cell(span_parts(attrs.pop("span"))))
            if "lemma" not in attrs:
                raise ParseError("<w/> lacks a lemma attribute")
            key = ("msd", attrs.pop("msd", " ").strip(),
                   "lemma", attrs.pop("lemma"))
            if attrs:
                for name in sorted(attrs):
                    key += (name, attrs[name])
            categories.append(shared[key])
    except CorpusForgeError as err:
        err.name_line(line_at(text, at))
        raise
    return Items(len(spans), span=spans, element=["w"] * len(spans),
                 categories=categories)


# --------------------------------------------------------------------------
# inline-coref:  running text with <coref id=".." type=".." ref="..">…</coref>
# --------------------------------------------------------------------------

def parse_inline_coref(text: str, units: Segmentation) -> Items:
    items = align_inline(text, units)
    ids: set[str] = set()
    for item_id in items.column("id"):
        if item_id is not None:
            if item_id in ids:
                raise ParseError(f"duplicate markable id {item_id!r}")
            ids.add(item_id)
    resolve_link_targets(items)
    return items


# --------------------------------------------------------------------------
# inline-morpho:  <w lemma="être:3g">est</w>, one element per token run
# --------------------------------------------------------------------------

def parse_inline_morpho(text: str, units: Segmentation | None = None) -> Items:
    """Word-wrapping inline morphology.

    With ``units`` the document is aligned and items carry spans; without,
    each ``<w>`` keeps its covered text as surface (self-anchored payload).
    """
    if units is not None:
        items = align_inline(text, units)
        for element, categories in zip(items.column("element"),
                                       items.column("categories")):
            if element != "w":
                raise ParseError(f"unexpected element <{element}>")
            if "lemma" not in categories:
                raise ParseError("<w> lacks a lemma attribute")
        return items
    stripped, elements = _markup.strip_markup(text)
    cursor = 0
    items = []
    shared = Categories()
    try:
        for el in elements:
            if el.name != "w":
                raise ParseError(f"unexpected element <{el.name}>")
            if "lemma" not in el.attrs:
                raise ParseError("<w> lacks a lemma attribute")
            if stripped[cursor:el.start].strip():
                raise ParseError(
                    f"stray text {stripped[cursor:el.start].strip()!r} "
                    "outside <w> elements")
            cursor = el.end
            surface = stripped[el.start:el.end]
            if not surface.strip():
                raise ParseError("<w> covers no text")
            items.append(AnnotationItem(
                surface=surface, element="w",
                categories=shared.of(sorted(el.attrs.items()))))
    except CorpusForgeError as err:
        err.name_line(line_at(text, el.offset))
        raise
    if stripped[cursor:].strip():
        raise ParseError(
            f"stray text {stripped[cursor:].strip()!r} after last <w>")
    return Items.of(items)


# --------------------------------------------------------------------------
# referential-standoff:  inline markables + <alt>-grouped referentialLink
# --------------------------------------------------------------------------

_ID_REF_RE = re.compile(r"id\(([^()\s,]+)\)")


def _parse_id_refs(value: str) -> tuple[str, ...]:
    refs = []
    for part in value.split(","):
        part = part.strip()
        m = _ID_REF_RE.fullmatch(part)
        if not m:
            raise ParseError(f"malformed id reference {part!r}")
        refs.append(m.group(1))
    return tuple(refs)


def parse_referential_standoff(text: str) -> Items:
    """Referential annotation: markables in text, links by id, alternatives.

    Markables may be closed by ``</struct>`` (legacy closer) or by their
    own name.  Link targets are *not* resolved here: annotations of one
    level routinely arrive split over several deposits (markables in one
    file, links in another), so resolution happens at level assembly.
    """
    doc = text.replace("</struct>", "</referentialMarkable>")
    stripped, elements = _markup.strip_markup(doc)
    items: list[AnnotationItem] = []
    alts: list[tuple[int, int, str, int]] = []  # start, end, group, offset
    group_sizes: dict[str, int] = {}
    shared = Categories()
    at = 0  # offset of the tag an error is about
    try:
        for el in elements:
            at = el.offset
            if el.name == "referentialMarkable":
                attrs = el.attrs
                markable_id = attrs.pop("id", None)
                if not markable_id:
                    raise ParseError("markable lacks an id attribute")
                items.append(AnnotationItem(
                    id=markable_id,
                    surface=stripped[el.start:el.end],
                    element=el.name,
                    categories=shared.of(attrs.items())))
            elif el.name == "alt":
                group = f"alt_{len(alts) + 1}"
                alts.append((el.start, el.end, group, at))
                group_sizes[group] = 0
            elif el.name == "referentialLink":
                attrs = el.attrs
                target = attrs.pop("referentialTarget", None)
                if target is None:
                    raise ParseError(
                        "referentialLink lacks referentialTarget")
                source = attrs.pop("referentialSource", None)
                link = Link(
                    type=attrs.pop("type", "reference"),
                    targets=_parse_id_refs(target),
                    source=(_parse_id_refs(source)[0]
                            if source is not None else None))
                group = next(
                    (g for s, e, g, _ in alts if s <= el.start <= e), None)
                if group is not None:
                    group_sizes[group] += 1
                items.append(AnnotationItem(
                    element=el.name, categories=shared.of(attrs.items()),
                    links=(link,),
                    group=group))
            else:
                raise ParseError(f"unexpected element <{el.name}>")
        for _, _, group, at in alts:
            if not group_sizes[group]:
                raise ParseError(f"variant group {group} holds no links")
    except CorpusForgeError as err:
        err.name_line(line_at(doc, at))
        raise
    return Items.of(items)


def resolve_link_targets(items: Items) -> None:
    """Check that every link target and source names a declared item id."""
    ids = set(items.column("id"))
    for links in items.column("links"):
        for link in links:
            for target in link.targets:
                if target not in ids:
                    raise UnknownTargetError(target)
            if link.source is not None and link.source not in ids:
                raise UnknownTargetError(link.source)


# --------------------------------------------------------------------------
# structural-inline:  TEI-style structure with entity mentions
# --------------------------------------------------------------------------

STRUCTURAL_ELEMENTS = frozenset(
    {"div", "head", "p", "seg", "u", "turn", "rs", "name"})


def parse_structural_inline(text: str) -> Items:
    """Document structure as nested carrier items.

    Tracked elements become items whose surface is the covered text;
    unknown wrapper elements stay transparent.  The top-level items
    jointly carry the document's full character stream.
    """
    stripped, elements = _markup.strip_markup(text)
    ids, surfaces, names, categories, depths = ([] for _ in range(5))
    shared = Categories()
    stack: list = []  # the tracked elements that enclose the next one
    for el in elements:
        if el.name not in STRUCTURAL_ELEMENTS:
            continue
        while stack and not (el.start >= stack[-1].start
                             and el.end <= stack[-1].end
                             and el.depth > stack[-1].depth):
            stack.pop()
        attrs = el.attrs
        ids.append(attrs.pop("id", None))
        surfaces.append(stripped[el.start:el.end])
        names.append(el.name)
        categories.append(shared.of(attrs.items()))
        depths.append(len(stack))
        stack.append(el)
    return Items(len(ids), id=ids, surface=surfaces, element=names,
                 categories=categories, depth=depths)


# --------------------------------------------------------------------------
# syntax-constituency:  depth-prefixed constituent lines (= per level)
# --------------------------------------------------------------------------

_CONSTITUENT_RE = re.compile(r"([^()]*)\((.*)\)\s*$")


def parse_syntax_constituency(text: str) -> Items:
    """Constituency trees in line format.

    Depth is the count of leading ``=``; a line's first tab column holds
    ``FUNCTION:category(flags)``, the second the terminal's surface.
    Lines without a colon are bare punctuation terminals.  Depth may
    only grow one step at a time.
    """
    surfaces, categories, depths = [], [], []
    shared = Categories()
    for lineno, raw in enumerate(text.splitlines(), 1):
        if not raw.strip():
            continue
        cols = raw.split("\t")
        head = cols[0]
        surface = cols[1].strip() if len(cols) > 1 else ""
        depth = len(head) - len(head.lstrip("="))
        body = head[depth:].strip()
        if not body:
            raise ParseError("constituent line carries no label", line=lineno)
        deepest = depths[-1] + 1 if depths else 0  # the deepest it may be
        if depth > deepest:
            raise NestingError(
                f"constituent depth jumps from {deepest} to {depth}",
                line=lineno)
        if ":" in body:
            function, _, rest = body.partition(":")
            m = _CONSTITUENT_RE.fullmatch(rest)
            if m:
                category, flags = m.group(1).strip(), m.group(2)
            else:
                category, flags = rest.strip(), None
            key = ("function", function.strip(), "category", category)
            if flags is not None:
                key += ("flags", flags)
        else:
            key = ()
            surface = surface or body
        surfaces.append(surface or None)
        categories.append(shared[key])
        depths.append(depth)
    return Items(len(depths), surface=surfaces, categories=categories,
                 depth=depths)


def syntax_terminals(items: Items) -> Items:
    """Surface-carrying constituents of constituency trees, document
    order, each without its children."""
    keep = [surface is not None for surface in items.column("surface")]
    surfaces, categories = (list(compress(items.column(name), keep))
                            for name in ("surface", "categories"))
    return Items(len(surfaces), surface=surfaces, categories=categories)


# --------------------------------------------------------------------------
# standoff-items:  generic flat item dump, one self-closing tag per line
# --------------------------------------------------------------------------

def parse_standoff_items(text: str) -> Items:
    ids, spans, surfaces, elements, groups, categories, links = (
        [] for _ in range(7))
    shared = Categories()
    at = 0  # offset of the tag an error is about
    try:
        for chunk, tag in _markup.iter_tags(text):
            if chunk.strip():
                raise _stray_text(chunk, "between items", text, tag)
            if tag is None:
                break
            kind, name, attrs, at = tag
            if name != "item" or kind != "selfclose":
                raise ParseError(
                    f"expected self-closing <item/>, got <{name}>")
            span = attrs.pop("span", None)
            spans.append(None if span is None
                         else span_cell(span_parts(span)))
            links.append(tuple(
                Link(type=key[len("link-"):],
                     targets=tuple(attrs.pop(key).split()))
                for key in [k for k in attrs if k.startswith("link-")]))
            ids.append(attrs.pop("id", None))
            surfaces.append(attrs.pop("surface", None))
            elements.append(attrs.pop("element", None))
            groups.append(attrs.pop("group", None))
            categories.append(shared.of(sorted(attrs.items())))
    except CorpusForgeError as err:
        err.name_line(line_at(text, at))
        raise
    return Items(len(spans), id=ids, span=spans, surface=surfaces,
                 element=elements, group=groups, categories=categories,
                 links=links)


# --------------------------------------------------------------------------
# format registry
# --------------------------------------------------------------------------

@dataclass(frozen=True)
class Codec:
    """Deposit format entry and the shape of what it parses.

    ``needs_units`` says whether ``parse`` must be given the reference
    units of the anchoring segmentation.  ``yields_units`` marks a codec
    that yields a :class:`~corpus_forge.standoff.Segmentation`, which only
    segmentation levels take; every other codec yields :class:`Items`.  ``project`` maps a level kind to the projection
    of the parsed items that a level of that kind keeps.
    """

    tag: str
    parse: Callable
    needs_units: str = "no"  # "no" | "optional" | "required"
    yields_units: bool = False
    project: Mapping[str, Callable] = field(default_factory=dict)


FORMATS: dict[str, Codec] = {c.tag: c for c in [
    Codec("segmentation", parse_segmentation, yields_units=True),
    Codec("tabular-morpho", parse_tabular_morpho),
    Codec("standoff-morpho", parse_standoff_morpho),
    Codec("inline-morpho", parse_inline_morpho, "optional"),
    Codec("inline-coref", parse_inline_coref, "required"),
    Codec("referential-standoff", parse_referential_standoff),
    Codec("structural-inline", parse_structural_inline),
    Codec("syntax-constituency", parse_syntax_constituency,
          project={KIND_MORPHOSYNTAX: syntax_terminals}),
    Codec("standoff-items", parse_standoff_items),
]}
