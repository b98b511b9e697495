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

# The attribute run as an unrolled loop: plain characters in bulk, then
# one of a lone ``/``, a double-quoted or a single-quoted value, each
# starting on a character the bulk run excludes.  So it stops where
# ``/>`` or ``>`` first closes the tag outside quotes, as a lazy loop
# would, and backtracks linearly on a tag that never closes; a plain run
# nested directly inside the ``*`` would backtrack exponentially there.
# The plain run stops at ``<``, which XML allows nowhere in a tag, so
# many tags that never close scan in linear time, not each to the end
# of the document.  An attempt outside quotes is given up at a ``<``, so
# every earlier attempt still going where a later one starts is inside
# quotes; each quote character maps the three states (outside, in
# ``"``, in ``'``) one to one, so attempts that reach one character are
# in different states: three at most.
TAG_RE = re.compile(r"<(/?)([A-Za-z_][\w.-]*)"
                    r"([^<>\"'/]*(?:(?:/(?!>)|\"[^\"]*\"|'[^']*')[^<>\"'/]*)*)"
                    r"(/?)>")
# The value without its quotes: the lookarounds make the closing quote
# the opening one.
ATTR_RE = re.compile(r"([\w:.-]+)\s*=\s*[\"']"
                     r"((?<=\")[^\"]*(?=\")|(?<=')[^']*(?='))[\"']")

_ENTITIES = {"&amp;": "&", "&lt;": "<", "&gt;": ">", "&quot;": '"', "&apos;": "'"}
_ENTITY_RE = re.compile("|".join(_ENTITIES))


def unescape(text: str) -> str:
    """Resolve the five entities in one pass: ``&amp;lt;`` reads ``&lt;``."""
    if "&" not in text:
        return text
    return _ENTITY_RE.sub(lambda m: _ENTITIES[m[0]], text)


def parse_attrs(raw: str) -> dict[str, str]:
    """Attributes by name, a repeated name keeping its last value."""
    attrs = dict(ATTR_RE.findall(raw))
    if "&" in raw:
        for name, value in attrs.items():
            attrs[name] = unescape(value)
    return attrs


def line_at(doc: str, offset: int) -> int:
    """The 1-based line of ``doc`` that ``offset`` falls on.  Counted
    only for an error, so a scan counts no newlines."""
    return doc.count("\n", 0, offset) + 1


def iter_tags(doc: str):
    """Yield (text_before, tag) pairs, then a final (tail_text, None).

    A tag is a tuple ``(kind, name, attrs, start)``: ``kind`` is 'open',
    'close' or 'selfclose', ``attrs`` a new dict the caller may keep
    (empty on a closing tag), ``start`` the offset in ``doc`` of its
    ``<``, which :func:`line_at` turns into a line.
    """
    pos = 0
    for m in TAG_RE.finditer(doc):
        start, end = m.span()
        slash, name, raw_attrs, selfslash = m.groups()
        if slash:
            if selfslash:
                raise ParseError(f"malformed tag {m.group(0)!r}",
                                 line=line_at(doc, start))
            tag = ("close", name, {}, start)
        else:
            tag = ("selfclose" if selfslash else "open", name,
                   parse_attrs(raw_attrs), start)
        yield doc[pos:start], tag
        pos = end
    yield doc[pos:], None


@dataclass(slots=True)
class Element:
    """Element extent over the markup-stripped character stream;
    ``offset`` is where its start tag begins in the source document."""

    name: str
    attrs: dict[str, str]
    start: int
    end: int
    depth: int
    offset: int


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
        kind, name, attrs, offset = tag
        if kind == "close":
            if not stack or stack[-1].name != name:
                raise ParseError(f"unexpected closing tag </{name}>",
                                 line=line_at(doc, offset))
            stack.pop().end = length
        else:
            el = Element(name, attrs, length, length, len(stack), offset)
            done.append(el)
            if kind == "open":
                stack.append(el)
    if stack:
        raise ParseError(f"unclosed element <{stack[-1].name}>",
                         line=line_at(doc, stack[-1].offset))
    return "".join(out), done
