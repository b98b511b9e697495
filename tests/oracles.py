"""Writers of the codec formats, a reader of rendered headers, and
plain references for the tokenizer and span resolution.

The engine stores each payload as deposited and never writes a codec
format, nor reads a rendered header back.  These are the oracles the
round-trip properties check its parsers and its header rendering by,
and the tests' way to build payloads from items.  The references do the
same work as the engine's shortcuts without them, so that a property can
check that the shortcuts change no result.
"""

from __future__ import annotations

import re

from corpus_forge.catalog import MetadataHeader
from corpus_forge.errors import (
    DanglingPointerError,
    MissingSpanError,
    ParseError,
    ReversedRangeError,
)
from corpus_forge.formats import TABULAR_COLUMNS, AnnotationItem
from corpus_forge.manifest import unescape_value
from corpus_forge.standoff import (
    _CONTRACTIONS,
    ReferenceUnit,
    Segmentation,
    _split_token,
    _token_offsets,
    iter_items,
)


def escape(text: str) -> str:
    return (text.replace("&", "&amp;").replace("<", "&lt;")
            .replace(">", "&gt;").replace('"', "&quot;"))


def serialize_segmentation(units: list[ReferenceUnit]) -> str:
    return "\n".join(
        f'<word id="{u.id}">{escape(u.form)}</word>' for u in units)


def serialize_tabular_morpho(items: list[AnnotationItem]) -> str:
    return "\n".join(
        "\t".join(item.categories.get(col, "") for col in TABULAR_COLUMNS)
        for item in items)


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
        line = (f'<w span="{item.span}"\tmsd="{escape(msd)}"'
                f'\tlemma="{escape(item.categories["lemma"])}"')
        for key in sorted(extra):
            line += f'\t{key}="{escape(extra[key])}"'
        lines.append(line + "/>")
    return "\n".join(lines)


def serialize_inline_morpho(items: list[AnnotationItem]) -> str:
    lines = []
    for item in items:
        if item.surface is None:
            raise ParseError("inline morphology item lacks a surface")
        if "lemma" not in item.categories:
            raise ParseError("morphology item lacks a lemma category")
        attrs = "".join(
            f' {k}="{escape(v)}"'
            for k, v in sorted(item.categories.items()))
        lines.append(f"<w{attrs}>{escape(item.surface)}</w>")
    return "\n".join(lines)


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
        attrs = "".join(f' {k}="{escape(v)}"'
                        for k, v in sorted(item.categories.items()))
        if item.element == "referentialMarkable":
            lines.append(
                f'<referentialMarkable id="{escape(item.id)}"{attrs}>'
                f"{escape(item.surface or '')}</referentialMarkable>")
        else:
            link = item.links[0]
            parts = ["<referentialLink"]
            if link.source is not None:
                parts.append(' referentialSource='
                             f'"id({escape(link.source)})"')
            targets = ",".join(f"id({t})" for t in link.targets)
            parts.append(f' referentialTarget="{escape(targets)}"')
            if link.type != "reference":
                parts.append(f' type="{escape(link.type)}"')
            indent = "  " if item.group is not None else ""
            lines.append(indent + "".join(parts) + attrs + "/>")
    if open_group is not None:
        lines.append("</alt>")
    return "\n".join(lines)


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
                parts.append(f' {key}="{escape(str(value))}"')
        for key in sorted(item.categories):
            parts.append(f' {key}="{escape(item.categories[key])}"')
        for link in item.links:
            if link.source is not None:
                raise ParseError("sourced links have no flat stand-off form")
            parts.append(
                f' link-{link.type}="{escape(" ".join(link.targets))}"')
        lines.append("".join(parts) + "/>")
    return "\n".join(lines)


def parse_header(text: str) -> MetadataHeader:
    tier = subject = generated = None
    declared: list[tuple[str, str]] = []
    computed: list[tuple[str, str]] = []
    warnings: list[str] = []
    for lineno, raw in enumerate(text.split("\n"), 1):
        if not raw.strip():
            continue
        key, sep, value = raw.partition(": ")
        if not sep:
            raise ParseError(f"header line {lineno}: not a key: value pair")
        value = unescape_value(value)
        if key == "header":
            tier = value
        elif key == "subject":
            subject = value
        elif key == "generated":
            generated = value
        elif key.startswith("declared "):
            declared.append((key[len("declared "):], value))
        elif key.startswith("computed "):
            computed.append((key[len("computed "):], value))
        elif key == "warning":
            warnings.append(value)
        else:
            raise ParseError(f"header line {lineno}: unknown key {key!r}")
    if tier is None or subject is None or generated is None:
        raise ParseError("header lacks its header/subject/generated preamble")
    return MetadataHeader(
        tier=tier, subject_id=subject,
        declared=tuple(declared), computed=tuple(computed),
        generated_at=generated, warnings=tuple(warnings))


def tokenize_each_token_split(text: str) -> list[tuple[str, int, int]]:
    """``standoff.tokenize_with_offsets`` without its shortcut for
    letters-only tokens: every whitespace token goes through the
    splitter and is located piece by piece."""
    tokens: list[tuple[str, int, int]] = []
    for match in re.finditer(r"\S+", text):
        raw = match.group(0)
        for piece, s, e in _token_offsets(_split_token(raw), match.start(),
                                          text):
            repl = _CONTRACTIONS.get(piece.lower())
            if repl is not None:
                tokens.extend((form, s, e) for form in repl)
            else:
                tokens.append((piece, s, e))
    return tokens


def pointer_coverage(items, anchor: Segmentation) -> list[str]:
    """The anchor forms a pointer level's items cover, each span read as
    its parts tuple and resolved part by part in item order, nested items
    included: the first dangling id or reversed range raises."""
    positions = anchor.positions
    picked: set[int] = set()
    for item in iter_items(items):
        if item.span is None:
            continue
        for start, end in item.span.parts:
            first = positions.get(start)
            if first is None:
                raise DanglingPointerError(start)
            last = first if end is None else positions.get(end)
            if last is None:
                raise DanglingPointerError(end)
            if first > last:
                raise ReversedRangeError(
                    f"range {start}..{end} runs against document order")
            picked.update(range(first, last + 1))
    return [anchor.forms[i] for i in sorted(picked)]
