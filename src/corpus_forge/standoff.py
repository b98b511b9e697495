"""Reference-unit segmentation, span resolution and coverage reconstruction.

A corpus is identified by its linguistic coverage: the flat sequence of
minimal reference units.  Pointer-only annotation levels reconstruct that
coverage by dereferencing span expressions against the reference units
of their anchoring segmentation.  Everything in this module is a pure
function over immutable inputs.
"""

from __future__ import annotations

import hashlib
import re
import unicodedata
from dataclasses import dataclass, fields
from sys import intern

from .errors import (
    DanglingPointerError,
    MisalignmentError,
    NoPrimaryAnchorError,
    ReversedRangeError,
    SpanSyntaxError,
    TextMismatchError,
)
from . import _markup

# Applied with ``fullmatch``: ``$`` would also match before a final "\n".
UNIT_ID_RE = re.compile(r"word_[1-9][0-9]*")

# Characters detached as single-character units when leading/trailing.
# The apostrophe is only detached when leading: a trailing apostrophe
# after a letter stays with its clitic (C', l', d', qu').
DETACH_CHARS = ".,;:!?()\"'«»"
APOSTROPHES = "'’"


def slot_setters(cls) -> tuple:
    """The ``__set__`` of each field's slot of a frozen slotted dataclass,
    in field order: a value type's own ``__init__`` stores its fields
    through these at a fraction of the cost of the generated one's
    ``object.__setattr__`` calls."""
    return tuple(getattr(cls, f.name).__set__ for f in fields(cls))


@dataclass(frozen=True, slots=True)
class ReferenceUnit:
    """Minimal segmentation token, the anchor target of stand-off pointers.

    ``index`` is its position in its segmentation's list: ``units[index]``.
    ``id`` and ``form`` are interned, so a form that recurs, and a unit id
    that a level's spans repeat, are kept once.
    """

    id: str
    form: str
    index: int

    def __init__(self, id: str, form: str, index: int):
        if not UNIT_ID_RE.fullmatch(id):
            raise SpanSyntaxError(f"invalid reference unit id {id!r}")
        if not form or form != form.strip():
            raise SpanSyntaxError(
                f"unit {id}: form must be non-empty without "
                f"surrounding whitespace, got {form!r}")
        set_id, set_form, set_index = _UNIT_SLOTS
        set_id(self, intern(id))
        set_form(self, intern(form))
        set_index(self, index)


_UNIT_SLOTS = slot_setters(ReferenceUnit)


# Lowercase contracted forms and their expansions.  "des" is deliberately
# absent: ambiguous between plural article and contraction, never split.
_CONTRACTIONS = {
    "au": ("à", "le"),
    "aux": ("à", "les"),
    "du": ("de", "le"),
}


def _split_token(token: str) -> list[str]:
    """Detach leading/trailing punctuation and split after clitic apostrophes."""
    lead: list[str] = []
    trail: list[str] = []
    while token and token[0] in DETACH_CHARS:
        lead.append(token[0])
        token = token[1:]
    while token and token[-1] in DETACH_CHARS:
        if token[-1] in APOSTROPHES and len(token) > 1 and token[-2].isalpha():
            break
        trail.append(token[-1])
        token = token[:-1]
    trail.reverse()
    parts: list[str] = []
    if token:
        start = 0
        for i, ch in enumerate(token):
            # split after an internal apostrophe, keeping it with the
            # clitic; applies only after a letter (C'est -> C' est)
            if (ch in APOSTROPHES and 0 < i < len(token) - 1
                    and token[i - 1].isalpha()):
                parts.append(token[start:i + 1])
                start = i + 1
                # what follows starts a token: detach its leading
                # punctuation (a run that never reaches the core's end)
                while token[start] in DETACH_CHARS:
                    parts.append(token[start])
                    start += 1
        parts.append(token[start:])
    return lead + parts + trail


def _token_offsets(pieces: list[str], start: int, whole: str) -> list[tuple[str, int, int]]:
    """Locate each piece of a split whitespace token in the source string."""
    out = []
    pos = start
    for piece in pieces:
        found = whole.find(piece, pos)
        out.append((piece, found, found + len(piece)))
        pos = found + len(piece)
    return out


def tokenize_with_offsets(text: str) -> list[tuple[str, int, int]]:
    """Tokenize ``text``, returning (form, start, end) character extents.

    All forms produced by expanding one contracted token share that
    token's source extent, so an element boundary can never separate
    the expansion products.
    """
    tokens: list[tuple[str, int, int]] = []
    for match in re.finditer(r"\S+", text):
        raw = match.group(0)
        for piece, s, e in _token_offsets(_split_token(raw), match.start(), text):
            repl = _CONTRACTIONS.get(piece.lower())
            if repl is not None:
                tokens.extend((form, s, e) for form in repl)
            else:
                tokens.append((piece, s, e))
    return tokens


def segment_text(text: str) -> list[ReferenceUnit]:
    """Segment raw text into reference units with ids ``word_1..word_k``.

    Splits on whitespace, detaches punctuation, then expands contracted
    determiners through ``_CONTRACTIONS``.  Total: any input yields a
    (possibly empty) unit list.
    """
    return [
        ReferenceUnit(id=f"word_{i + 1}", form=form, index=i)
        for i, (form, _, _) in enumerate(tokenize_with_offsets(text))
    ]


_RANGE_SEP = ".."


@dataclass(frozen=True, slots=True)
class SpanExpr:
    """Pointer onto one or more reference units.

    ``parts`` holds single ids and inclusive ranges ``(start_id, end_id)``.
    The canonical text form is space-separated: ``word_3`` or
    ``word_3..word_5 word_9``.
    """

    parts: tuple[tuple[str, str | None], ...]

    def __init__(self, parts: tuple[tuple[str, str | None], ...]):
        if not parts:
            raise SpanSyntaxError("span expression has no parts")
        for start, end in parts:
            for unit_id in (start,) if end is None else (start, end):
                if not UNIT_ID_RE.fullmatch(unit_id):
                    raise SpanSyntaxError(f"invalid unit id {unit_id!r} in span")
        (set_parts,) = _SPAN_SLOTS
        set_parts(self, parts)

    @classmethod
    def parse(cls, text: str) -> "SpanExpr":
        """Read parts separated by commas and whitespace; ``__init__``
        checks each id.  A lone id, the form every generated stand-off
        span takes, is checked by its one match and kept as the interned
        id of its unit."""
        if UNIT_ID_RE.fullmatch(text):
            return _checked_span(((intern(text), None),))
        parts = []
        for chunk in text.replace(",", " ").split():
            if _RANGE_SEP in chunk:
                start, _, end = chunk.partition(_RANGE_SEP)
                if _RANGE_SEP in end:
                    raise SpanSyntaxError(f"malformed range {chunk!r}")
                parts.append((start, end))
            else:
                parts.append((chunk, None))
        return cls(tuple(parts))

    def __str__(self) -> str:
        return " ".join(
            start if end is None else f"{start}{_RANGE_SEP}{end}"
            for start, end in self.parts)


_SPAN_SLOTS = slot_setters(SpanExpr)


def _checked_span(parts: tuple[tuple[str, str | None], ...]) -> SpanExpr:
    """A span over non-empty parts whose every id is already checked."""
    (set_parts,) = _SPAN_SLOTS
    span = object.__new__(SpanExpr)
    set_parts(span, parts)
    return span


def resolve_span(parts, units: list[ReferenceUnit]) -> list[ReferenceUnit]:
    """Dereference the ``parts`` of checked span expressions against one
    segmentation's units.

    Returns the referenced units in document order, without duplicates.
    Ranges expand inclusively by document position.
    """
    by_id = {u.id: u for u in units}
    picked: set[int] = set()
    for start, end in parts:
        if start not in by_id:
            raise DanglingPointerError(start)
        first = by_id[start]
        if end is None:
            picked.add(first.index)
            continue
        if end not in by_id:
            raise DanglingPointerError(end)
        last = by_id[end]
        if first.index > last.index:
            raise ReversedRangeError(
                f"range {start}..{end} runs against document order")
        picked.update(range(first.index, last.index + 1))
    return [units[i] for i in sorted(picked)]


def coverage_fingerprint(tokens: list[str]) -> str:
    """Deterministic digest of a token sequence.

    NFC-normalizes each token and hashes the newline-joined sequence, so
    the digest ignores layout but is case- and diacritic-sensitive.
    """
    joined = "\n".join(unicodedata.normalize("NFC", t) for t in tokens)
    return hashlib.sha256(joined.encode("utf-8")).hexdigest()


def span_for_indices(units: list[ReferenceUnit], indices: list[int]) -> SpanExpr:
    """Build the most compact span expression covering the given unit indices."""
    if not indices:
        raise SpanSyntaxError("cannot build a span over zero units")
    runs: list[tuple[int, int]] = []
    ordered = sorted(set(indices))
    run_start = prev = ordered[0]
    for i in ordered[1:]:
        if i == prev + 1:
            prev = i
            continue
        runs.append((run_start, prev))
        run_start = prev = i
    runs.append((run_start, prev))
    parts = []
    for a, b in runs:
        if a == b:
            parts.append((units[a].id, None))
        else:
            parts.append((units[a].id, units[b].id))
    return _checked_span(tuple(parts))


def align_inline(inline_doc: str, units: list[ReferenceUnit]):
    """Re-synchronize inline markup with the reference units.

    The markup-stripped character stream of ``inline_doc`` must equal the
    segmentation's forms up to whitespace and contraction expansion.  Each
    element whose boundaries coincide with unit boundaries becomes a
    stand-off item carrying a span expression; an element boundary falling
    strictly inside a unit raises :class:`MisalignmentError` naming the
    element and the offending offset in the stripped text.
    """
    from .formats import AnnotationItem, Categories, Link  # no import cycle

    stripped, elements = _markup.strip_markup(inline_doc)
    tokens = tokenize_with_offsets(stripped)
    if len(tokens) != len(units) or any(
            t[0] != u.form for t, u in zip(tokens, units)):
        position = next(
            (i for i, (t, u) in enumerate(zip(tokens, units)) if t[0] != u.form),
            min(len(tokens), len(units)))
        raise TextMismatchError(
            f"document text diverges from segmentation at token {position}",
            position=position)

    starts: dict[int, int] = {}
    ends: dict[int, int] = {}
    for i, (_, s, e) in enumerate(tokens):
        starts.setdefault(s, i)  # expansion products share one extent:
        ends[e] = i              # keep first for starts, last for ends


    items = []
    shared = Categories()
    for el in elements:
        label = el.attrs.get("id", el.name)
        s, e = el.start, el.end
        while s < e and stripped[s].isspace():
            s += 1
        while e > s and stripped[e - 1].isspace():
            e -= 1
        if s == e:
            raise MisalignmentError(label, el.start)
        if s not in starts:
            raise MisalignmentError(label, s)
        if e not in ends:
            raise MisalignmentError(label, e)
        indices = list(range(starts[s], ends[e] + 1))
        attrs = el.attrs
        item_id = attrs.pop("id", None)
        links = []
        ref = attrs.pop("ref", None)
        if ref is not None:
            links.append(Link(attrs.pop("type", "coref"), (ref,)))
        items.append(AnnotationItem(
            id=item_id,
            span=span_for_indices(units, indices),
            element=el.name,
            categories=shared.of(attrs.items()),
            links=tuple(links),
        ))
    return items


def iter_items(items) -> list:
    """Flatten item trees depth-first, document order.  Iterative, so a
    tree of any depth the parsers accept flattens."""
    out = []
    stack = [iter(items)]
    while stack:
        for item in stack[-1]:
            out.append(item)
            if item.children:
                stack.append(iter(item.children))
                break
        else:
            stack.pop()
    return out


def _accounted_for(item) -> bool:
    """Does the item's subtree carry all the content it claims?

    A surfaced node accounts for its whole subtree; a bare internal node
    delegates to its children; a leaf with neither surface nor span is
    purely relational and covers nothing by design.
    """
    if item.surface is not None:
        return True
    if item.children:
        return all(_accounted_for(child) for child in item.children)
    return item.span is None


def _carried_surfaces(items) -> list[str]:
    """Surfaces of the shallowest surfaced nodes, in document order."""
    out: list[str] = []
    for item in items:
        if item.surface is not None:
            out.append(item.surface)
        elif item.children:
            out.extend(_carried_surfaces(item.children))
    return out


def reconstruct_coverage(kind: str, units: list[ReferenceUnit], items,
                         anchor_units: list[ReferenceUnit] | None) -> list[str]:
    """Rebuild the surface token stream a description level accounts for.

    ``units`` and ``items`` are the level's own; ``anchor_units`` are the
    reference units of its anchoring segmentation, or None when it has
    none.  A segmentation returns its own unit forms.  A form-carrying
    level returns its own tokens: the content of its shallowest surfaced
    nodes, whether those sit at the top (paragraph trees) or at the
    leaves (constituency terminals).  A pointer level covers exactly the
    anchor units its spans reference, in document order.
    """
    if kind == "segmentation":
        return [u.form for u in units]
    if not items:
        return []
    if all(_accounted_for(item) for item in items):
        carried = _carried_surfaces(items)
        if not carried:
            return []  # purely relational level
        # carrier level: re-segmenting its own surfaces is a fixed point
        return [u.form for u in segment_text(" ".join(carried))]
    if anchor_units is None:
        raise NoPrimaryAnchorError()

    # one resolution over every item's parts: document order, no repeats;
    # each span checked its ids when it was built
    parts = [part for item in iter_items(items) if item.span is not None
             for part in item.span.parts]
    return [u.form for u in resolve_span(parts, anchor_units)]
