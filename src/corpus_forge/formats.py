"""Interchange codecs for annotation payloads.

Every deposit format parses into a common shape: a list of
:class:`AnnotationItem` trees (or, for segmentations, a list of
:class:`~corpus_forge.standoff.ReferenceUnit`).  Items carry at most one
of two anchorings — a ``span`` pointing at reference units, or a
``surface`` duplicating the covered text — which is what downstream
coverage reconstruction and version classification operate on.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from types import MappingProxyType
from typing import Callable, Mapping

from . import _markup
from .errors import (
    MissingSpanError,
    NestingError,
    ParseError,
    UnknownTargetError,
)
from .model import KIND_MORPHOSYNTAX
from .standoff import ReferenceUnit, SpanExpr, align_inline, iter_items
# Unused here; ``perfbench/tracer.py`` still patches it.
from .standoff import span_for_indices  # noqa: F401


@dataclass(frozen=True)
class Link:
    """Typed relation from an annotation item to other items by id."""

    type: str
    targets: tuple[str, ...]
    source: str | None = None


@dataclass(frozen=True, eq=True)
class AnnotationItem:
    """One annotation unit: a markable, a row, a tag or a constituent.

    ``span`` anchors the item onto reference units of another level;
    ``surface`` instead carries the covered text directly.  ``group``
    marks membership in a variant group (mutually exclusive readings).
    ``categories`` is read-only; it wraps the mapping it is given, which
    its caller must not keep changing.
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
        object.__setattr__(self, "categories",
                           MappingProxyType(self.categories))


# --------------------------------------------------------------------------
# segmentation:  <word id="word_27">Madame</word>
# --------------------------------------------------------------------------

def parse_segmentation(text: str) -> list[ReferenceUnit]:
    units: list[ReferenceUnit] = []
    seen: set[str] = set()
    open_tag = None
    buffer: list[str] = []
    for chunk, tag in _markup.iter_tags(text):
        if open_tag is None:
            if chunk.strip():
                raise ParseError(
                    f"stray text {chunk.strip()!r} between word elements")
        else:
            buffer.append(chunk)
        if tag is None:
            break
        if tag.name != "word":
            raise ParseError(f"unexpected element <{tag.name}>", line=tag.line)
        if tag.kind == "open":
            if open_tag is not None:
                raise ParseError("word elements cannot nest", line=tag.line)
            open_tag, buffer = tag, []
        elif tag.kind == "selfclose":
            raise ParseError("word element carries no form", line=tag.line)
        else:
            if open_tag is None:
                raise ParseError("closing tag without open word", line=tag.line)
            unit_id = open_tag.attrs.get("id")
            if not unit_id:
                raise ParseError("word element lacks id attribute",
                                 line=open_tag.line)
            if unit_id in seen:
                raise ParseError(f"duplicate unit id {unit_id!r}",
                                 line=open_tag.line)
            seen.add(unit_id)
            units.append(ReferenceUnit(
                id=unit_id,
                form=_markup.unescape("".join(buffer)),
                index=len(units)))
            open_tag = None
    if open_tag is not None:
        raise ParseError("unclosed word element", line=open_tag.line)
    return units


def serialize_segmentation(units: list[ReferenceUnit]) -> str:
    return "\n".join(
        f'<word id="{u.id}">{_markup.escape(u.form)}</word>' for u in units)


# --------------------------------------------------------------------------
# tabular-morpho:  index <TAB> form <TAB> lemma <TAB> tag <TAB> fine tag
# --------------------------------------------------------------------------

TABULAR_COLUMNS = ("index", "form", "lemma", "tag_coarse", "tag_fine")


def parse_tabular_morpho(text: str) -> list[AnnotationItem]:
    items = []
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
        categories = {k: v for k, v in zip(TABULAR_COLUMNS, values) if v}
        items.append(AnnotationItem(surface=values[1] or None,
                                    categories=categories))
    return items


def serialize_tabular_morpho(items: list[AnnotationItem]) -> str:
    return "\n".join(
        "\t".join(item.categories.get(col, "") for col in TABULAR_COLUMNS)
        for item in items)


# --------------------------------------------------------------------------
# standoff-morpho:  <w span="word_27"  msd="SBC:_:s"  lemma="madame"/>
# --------------------------------------------------------------------------

def parse_standoff_morpho(text: str) -> list[AnnotationItem]:
    items = []
    for chunk, tag in _markup.iter_tags(text):
        if chunk.strip():
            raise ParseError(f"stray text {chunk.strip()!r} between elements")
        if tag is None:
            break
        if tag.name != "w" or tag.kind != "selfclose":
            raise ParseError(f"expected self-closing <w/>, got <{tag.name}>",
                             line=tag.line)
        attrs = dict(tag.attrs)
        if "span" not in attrs:
            raise MissingSpanError(
                f"<w/> at line {tag.line} lacks a span attribute")
        span = SpanExpr.parse(attrs.pop("span"))
        if "lemma" not in attrs:
            raise ParseError("<w/> lacks a lemma attribute", line=tag.line)
        msd = attrs.pop("msd", " ")
        categories = {"msd": msd.strip(), "lemma": attrs.pop("lemma")}
        categories.update(sorted(attrs.items()))
        items.append(AnnotationItem(span=span, element="w",
                                    categories=categories))
    return items


def serialize_standoff_morpho(items: list[AnnotationItem]) -> str:
    lines = []
    for item in items:
        if item.span is None:
            raise MissingSpanError("stand-off morphology item lacks a span")
        if "lemma" not in item.categories:
            raise ParseError("morphology item lacks a lemma category")
        extra = {k: v for k, v in item.categories.items()
                 if k not in ("msd", "lemma")}
        msd = item.categories.get("msd", "") or " "
        line = (f'<w span="{item.span}"\tmsd="{_markup.escape(msd)}"'
                f'\tlemma="{_markup.escape(item.categories["lemma"])}"')
        for key in sorted(extra):
            line += f'\t{key}="{_markup.escape(extra[key])}"'
        lines.append(line + "/>")
    return "\n".join(lines)


# --------------------------------------------------------------------------
# inline-coref:  running text with <coref id=".." type=".." ref="..">…</coref>
# --------------------------------------------------------------------------

def parse_inline_coref(text: str,
                       units: list[ReferenceUnit]) -> list[AnnotationItem]:
    items = align_inline(text, units)
    ids: set[str] = set()
    for item in items:
        if item.id is not None:
            if item.id in ids:
                raise ParseError(f"duplicate markable id {item.id!r}")
            ids.add(item.id)
    resolve_link_targets(items)
    return items


# --------------------------------------------------------------------------
# inline-morpho:  <w lemma="être:3g">est</w>, one element per token run
# --------------------------------------------------------------------------

def parse_inline_morpho(
    text: str,
    units: list[ReferenceUnit] | None = None,
) -> list[AnnotationItem]:
    """Word-wrapping inline morphology.

    With ``units`` the document is aligned and items carry spans; without,
    each ``<w>`` keeps its covered text as surface (self-anchored payload).
    """
    if units is not None:
        items = align_inline(text, units)
        for item in items:
            if item.element != "w":
                raise ParseError(f"unexpected element <{item.element}>")
            if "lemma" not in item.categories:
                raise ParseError("<w> lacks a lemma attribute")
        return items
    stripped, elements = _markup.strip_markup(text)
    cursor = 0
    items = []
    for el in elements:
        if el.name != "w":
            raise ParseError(f"unexpected element <{el.name}>", line=el.line)
        if "lemma" not in el.attrs:
            raise ParseError("<w> lacks a lemma attribute", line=el.line)
        if stripped[cursor:el.start].strip():
            raise ParseError(
                f"stray text {stripped[cursor:el.start].strip()!r} "
                "outside <w> elements", line=el.line)
        cursor = el.end
        surface = stripped[el.start:el.end]
        if not surface.strip():
            raise ParseError("<w> covers no text", line=el.line)
        categories = dict(sorted(el.attrs.items()))
        items.append(AnnotationItem(surface=surface, element="w",
                                    categories=categories))
    if stripped[cursor:].strip():
        raise ParseError(
            f"stray text {stripped[cursor:].strip()!r} after last <w>")
    return items


def serialize_inline_morpho(items: list[AnnotationItem]) -> str:
    lines = []
    for item in items:
        if item.surface is None:
            raise ParseError("inline morphology item lacks a surface")
        if "lemma" not in item.categories:
            raise ParseError("morphology item lacks a lemma category")
        attrs = "".join(
            f' {k}="{_markup.escape(v)}"'
            for k, v in sorted(item.categories.items()))
        lines.append(f"<w{attrs}>{_markup.escape(item.surface)}</w>")
    return "\n".join(lines)


# --------------------------------------------------------------------------
# referential-standoff:  inline markables + <alt>-grouped referentialLink
# --------------------------------------------------------------------------

_ID_REF_RE = re.compile(r"id\(([^()\s,]+)\)")


def _parse_id_refs(value: str, line: int) -> tuple[str, ...]:
    refs = []
    for part in value.split(","):
        part = part.strip()
        m = _ID_REF_RE.fullmatch(part)
        if not m:
            raise ParseError(f"malformed id reference {part!r}", line=line)
        refs.append(m.group(1))
    if not refs:
        raise ParseError("empty id reference list", line=line)
    return tuple(refs)


def parse_referential_standoff(text: str) -> list[AnnotationItem]:
    """Referential annotation: markables in text, links by id, alternatives.

    Markables may be closed by ``</struct>`` (legacy closer) or by their
    own name.  Link targets are *not* resolved here: annotations of one
    level routinely arrive split over several deposits (markables in one
    file, links in another), so resolution happens at level assembly.
    """
    doc = text.replace("</struct>", "</referentialMarkable>")
    stripped, elements = _markup.strip_markup(doc)
    items: list[AnnotationItem] = []
    alt_extents: list[tuple[int, int, str]] = []
    alt_count = 0
    group_sizes: dict[str, int] = {}
    for el in elements:
        if el.name == "referentialMarkable":
            attrs = dict(el.attrs)
            markable_id = attrs.pop("id", None)
            if not markable_id:
                raise ParseError("markable lacks an id attribute",
                                 line=el.line)
            items.append(AnnotationItem(
                id=markable_id,
                surface=stripped[el.start:el.end],
                element=el.name,
                categories=attrs))
        elif el.name == "alt":
            alt_count += 1
            alt_extents.append((el.start, el.end, f"alt_{alt_count}"))
            group_sizes[f"alt_{alt_count}"] = 0
        elif el.name == "referentialLink":
            attrs = dict(el.attrs)
            target = attrs.pop("referentialTarget", None)
            if target is None:
                raise ParseError("referentialLink lacks referentialTarget",
                                 line=el.line)
            source = attrs.pop("referentialSource", None)
            link = Link(
                type=attrs.pop("type", "reference"),
                targets=_parse_id_refs(target, el.line),
                source=(_parse_id_refs(source, el.line)[0]
                        if source is not None else None))
            group = next(
                (g for s, e, g in alt_extents if s <= el.start <= e), None)
            if group is not None:
                group_sizes[group] += 1
            items.append(AnnotationItem(
                element=el.name, categories=attrs, links=(link,),
                group=group))
        else:
            raise ParseError(f"unexpected element <{el.name}>", line=el.line)
    for group, size in group_sizes.items():
        if size == 0:
            raise ParseError(f"variant group {group} holds no links")
    return items


def serialize_referential_standoff(items: list[AnnotationItem]) -> str:
    lines = []
    open_group = None
    for item in items:
        if item.group != open_group:
            if open_group is not None:
                lines.append("</alt>")
            if item.group is not None:
                lines.append("<alt>")
            open_group = item.group
        if item.element == "referentialMarkable":
            attrs = "".join(f' {k}="{_markup.escape(v)}"'
                            for k, v in sorted(item.categories.items()))
            lines.append(
                f'<referentialMarkable id="{item.id}"{attrs}>'
                f"{_markup.escape(item.surface or '')}</referentialMarkable>")
        else:
            link = item.links[0]
            parts = [f'<referentialLink']
            if link.source is not None:
                parts.append(f' referentialSource="id({link.source})"')
            targets = ",".join(f"id({t})" for t in link.targets)
            parts.append(f' referentialTarget="{targets}"')
            if link.type != "reference":
                parts.append(f' type="{_markup.escape(link.type)}"')
            indent = "  " if item.group is not None else ""
            lines.append(indent + "".join(parts) + "/>")
    if open_group is not None:
        lines.append("</alt>")
    return "\n".join(lines)


def resolve_link_targets(items: list[AnnotationItem]) -> None:
    """Check that every link target and source names a declared item id."""
    ids = {item.id for item in iter_items(items) if item.id is not None}
    for item in iter_items(items):
        for link in item.links:
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


def parse_structural_inline(text: str) -> list[AnnotationItem]:
    """Document structure as nested carrier items.

    Tracked elements become items whose surface is the covered text;
    unknown wrapper elements stay transparent.  The returned roots
    jointly carry the document's full character stream.
    """
    stripped, elements = _markup.strip_markup(text)
    tracked = [el for el in elements if el.name in STRUCTURAL_ELEMENTS]

    def build(el, kids):
        attrs = dict(el.attrs)
        return AnnotationItem(
            id=attrs.pop("id", None),
            surface=stripped[el.start:el.end],
            element=el.name,
            categories=attrs,
            children=tuple(kids))

    roots: list[AnnotationItem] = []
    stack: list[tuple] = []  # (element, collected child items)

    def close_top():
        el, kids = stack.pop()
        item = build(el, kids)
        if stack:
            stack[-1][1].append(item)
        else:
            roots.append(item)

    for el in tracked:
        while stack and not (el.start >= stack[-1][0].start
                             and el.end <= stack[-1][0].end
                             and el.depth > stack[-1][0].depth):
            close_top()
        stack.append((el, []))
    while stack:
        close_top()
    return roots


# --------------------------------------------------------------------------
# syntax-constituency:  depth-prefixed constituent lines (= per level)
# --------------------------------------------------------------------------

_CONSTITUENT_RE = re.compile(r"([^()]*)\((.*)\)\s*$")


def parse_syntax_constituency(text: str) -> list[AnnotationItem]:
    """Constituency trees in line format.

    Depth is the count of leading ``=``; a line's first tab column holds
    ``FUNCTION:category(flags)``, the second the terminal's surface.
    Lines without a colon are bare punctuation terminals.  Depth may
    only grow one step at a time.
    """
    entries: list[list] = []  # [data dict, child entries]
    stack: list[list] = []
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
        if depth > len(stack):
            raise NestingError(
                f"constituent depth jumps from {len(stack)} to {depth}",
                line=lineno)
        del stack[depth:]
        if ":" in body:
            function, _, rest = body.partition(":")
            m = _CONSTITUENT_RE.fullmatch(rest)
            if m:
                category, flags = m.group(1).strip(), m.group(2)
            else:
                category, flags = rest.strip(), None
            categories = {"function": function.strip(), "category": category}
            if flags is not None:
                categories["flags"] = flags
        else:
            categories = {}
            surface = surface or body
        entry = [dict(categories=categories, surface=surface or None), []]
        if stack:
            stack[-1][1].append(entry)
        else:
            entries.append(entry)
        stack.append(entry)

    def freeze(entry) -> AnnotationItem:
        data, kids = entry
        return AnnotationItem(
            surface=data["surface"],
            categories=data["categories"],
            children=tuple(freeze(k) for k in kids))

    return [freeze(e) for e in entries]


def syntax_terminals(items: list[AnnotationItem]) -> list[AnnotationItem]:
    """Surface-carrying leaves of constituency trees, document order."""
    return [AnnotationItem(surface=item.surface, categories=item.categories)
            for item in iter_items(items)
            if item.surface is not None]


# --------------------------------------------------------------------------
# standoff-items:  generic flat item dump, one self-closing tag per line
# --------------------------------------------------------------------------

_RESERVED_ATTRS = ("id", "span", "element", "surface", "group")


def serialize_standoff_items(items: list[AnnotationItem]) -> str:
    lines = []
    for item in items:
        if item.children:
            raise ParseError("nested items have no flat stand-off form")
        for key in item.categories:
            if key in _RESERVED_ATTRS or key.startswith("link-"):
                raise ParseError(f"category key {key!r} collides with a "
                                 "reserved item attribute")
        parts = ["<item"]
        for key in _RESERVED_ATTRS:
            value = getattr(item, key)
            if value is not None:
                parts.append(f' {key}="{_markup.escape(str(value))}"')
        for key in sorted(item.categories):
            parts.append(f' {key}="{_markup.escape(item.categories[key])}"')
        for link in item.links:
            if link.source is not None:
                raise ParseError("sourced links have no flat stand-off form")
            parts.append(
                f' link-{link.type}="{_markup.escape(" ".join(link.targets))}"')
        lines.append("".join(parts) + "/>")
    return "\n".join(lines)


def parse_standoff_items(text: str) -> list[AnnotationItem]:
    items = []
    for chunk, tag in _markup.iter_tags(text):
        if chunk.strip():
            raise ParseError(f"stray text {chunk.strip()!r} between items")
        if tag is None:
            break
        if tag.name != "item" or tag.kind != "selfclose":
            raise ParseError(f"expected self-closing <item/>, got <{tag.name}>",
                             line=tag.line)
        attrs = dict(tag.attrs)
        span = attrs.pop("span", None)
        links = tuple(
            Link(type=key[len("link-"):], targets=tuple(attrs.pop(key).split()))
            for key in [k for k in attrs if k.startswith("link-")])
        items.append(AnnotationItem(
            id=attrs.pop("id", None),
            span=SpanExpr.parse(span) if span is not None else None,
            surface=attrs.pop("surface", None),
            element=attrs.pop("element", None),
            group=attrs.pop("group", None),
            categories=dict(sorted(attrs.items())),
            links=links))
    return items


# --------------------------------------------------------------------------
# format registry
# --------------------------------------------------------------------------

@dataclass(frozen=True)
class Codec:
    """Deposit format entry and the shape of what it parses.

    ``needs_units`` says whether ``parse`` must be given the reference
    units of the anchoring segmentation.  ``yields_units`` marks a codec
    that produces reference units instead of items; only segmentation
    levels take those.  ``project`` maps a level kind to the projection
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
