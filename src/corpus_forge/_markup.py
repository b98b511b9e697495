"""Minimal angle-bracket markup scanner shared by the format codecs.

The archive's interchange documents use a small XML-like surface syntax:
elements with quoted attributes, self-closing tags, character entities.
Documents are fragments (no prolog, possibly several roots), so a real
XML parser is deliberately not used; this scanner only needs tag
boundaries, attributes, and character offsets in the markup-stripped
text.
"""

from __future__ import annotations

import re
from dataclasses import dataclass

from .errors import ParseError

TAG_RE = re.compile(r"<(/?)([A-Za-z_][\w.-]*)((?:[^>\"']|\"[^\"]*\"|'[^']*')*?)(/?)>")
ATTR_RE = re.compile(r"([\w:.-]+)\s*=\s*(\"[^\"]*\"|'[^']*')")

_ENTITIES = {"&amp;": "&", "&lt;": "<", "&gt;": ">", "&quot;": '"', "&apos;": "'"}
_ENTITY_RE = re.compile("|".join(_ENTITIES))


def unescape(text: str) -> str:
    """Resolve the five entities in one pass: ``&amp;lt;`` reads ``&lt;``."""
    if "&" not in text:
        return text
    return _ENTITY_RE.sub(lambda m: _ENTITIES[m[0]], text)


def escape(text: str) -> str:
    return (text.replace("&", "&amp;").replace("<", "&lt;")
            .replace(">", "&gt;").replace('"', "&quot;"))


def parse_attrs(raw: str) -> dict[str, str]:
    return {m.group(1): unescape(m.group(2)[1:-1]) for m in ATTR_RE.finditer(raw)}


@dataclass
class Tag:
    """One tag occurrence: ``kind`` is 'open', 'close' or 'selfclose'."""

    kind: str
    name: str
    attrs: dict[str, str]
    line: int


def iter_tags(doc: str):
    """Yield (text_before, Tag) pairs, then a final (tail_text, None)."""
    pos = counted = 0
    line = 1
    for m in TAG_RE.finditer(doc):
        line += doc.count("\n", counted, m.start())
        counted = m.start()
        slash, name, raw_attrs, selfslash = m.groups()
        if slash and selfslash:
            raise ParseError(f"malformed tag {m.group(0)!r}", line=line)
        kind = "close" if slash else ("selfclose" if selfslash else "open")
        yield doc[pos:m.start()], Tag(
            kind=kind,
            name=name,
            attrs=parse_attrs(raw_attrs) if not slash else {},
            line=line,
        )
        pos = m.end()
    yield doc[pos:], None


@dataclass
class Element:
    """Element extent over the markup-stripped character stream."""

    name: str
    attrs: dict[str, str]
    start: int
    end: int
    depth: int
    line: int


def strip_markup(doc: str) -> tuple[str, list[Element]]:
    """Remove markup, keeping each element's extent in the stripped text.

    Returns the concatenated character data (entities resolved) and the
    elements in document order of their start tags.  Unbalanced close
    tags raise :class:`ParseError`.
    """
    out: list[str] = []
    length = 0
    stack: list[Element] = []
    done: list[Element] = []
    for text, tag in iter_tags(doc):
        if text:
            plain = unescape(text)
            out.append(plain)
            length += len(plain)
        if tag is None:
            break
        if tag.kind == "open":
            el = Element(tag.name, tag.attrs, length, length, len(stack), tag.line)
            stack.append(el)
            done.append(el)
        elif tag.kind == "selfclose":
            el = Element(tag.name, tag.attrs, length, length, len(stack), tag.line)
            done.append(el)
        else:
            if not stack or stack[-1].name != tag.name:
                raise ParseError(
                    f"unexpected closing tag </{tag.name}>", line=tag.line)
            el = stack.pop()
            el.end = length
    if stack:
        raise ParseError(f"unclosed element <{stack[-1].name}>",
                         line=stack[-1].line)
    return "".join(out), done
