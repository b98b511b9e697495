"""Reference-unit segmentation, span resolution and coverage reconstruction.

A corpus is identified by its linguistic coverage: the flat sequence of
minimal reference units.  Pointer-only annotation levels reconstruct that
coverage by dereferencing span expressions against the reference units
of their anchoring segmentation, which a :class:`Segmentation` keeps as
columns.  Every function in this module is pure: it changes none of its
inputs.
"""

from __future__ import annotations

import hashlib
import re
import unicodedata
from dataclasses import dataclass
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


def check_unit(unit_id: str, form: str) -> None:
    """Refuse an id or a form that a reference unit cannot hold."""
    if not UNIT_ID_RE.fullmatch(unit_id):
        raise SpanSyntaxError(f"invalid reference unit id {unit_id!r}")
    if not form or form != form.strip():
        raise SpanSyntaxError(
            f"unit {unit_id}: form must be non-empty without "
            f"surrounding whitespace, got {form!r}")


@dataclass(frozen=True, slots=True)
class ReferenceUnit:
    """Minimal segmentation token, the anchor target of stand-off pointers.

    ``index`` is its position in its segmentation: ``units[index]``.
    """

    id: str
    form: str
    index: int

    def __post_init__(self):
        check_unit(self.id, self.form)


class Columns:
    """A parse result kept as columns, one list per field of the values
    it holds.  Indexing or iterating builds the values on demand, and a
    slice is a list of them; it equals a list of equal values."""

    __slots__ = ()

    def __iter__(self):
        return map(self._value, range(len(self)))

    def __getitem__(self, index):
        if isinstance(index, slice):
            return [self._value(i) for i in range(len(self))[index]]
        return self._value(range(len(self))[index])

    def __eq__(self, other) -> bool:
        if isinstance(other, (list, Columns)):
            return list(self) == list(other)
        return NotImplemented

    def __repr__(self) -> str:
        return f"{type(self).__name__}({list(self)!r})"


class Segmentation(Columns):
    """Reference units as columns: ``ids`` and ``forms`` by position, and
    ``positions``, each id's position.  It keeps the lists it is given."""

    __slots__ = ("ids", "forms", "positions")

    def __init__(self, ids: list[str] | None = None,
                 forms: list[str] | None = None,
                 positions: dict[str, int] | None = None):
        self.ids, self.forms = ids or [], forms or []
        self.positions = positions or dict(zip(self.ids, range(len(self))))

    def __len__(self) -> int:
        return len(self.ids)

    def _value(self, index: int) -> ReferenceUnit:
        return ReferenceUnit(self.ids[index], self.forms[index], index)

    def extend(self, other: Segmentation) -> None:
        """Add ``other``'s units after these; their ids must be new."""
        self.positions.update(zip(other.ids, range(len(self), len(self)
                                                   + len(other))))
        self.ids += other.ids
        self.forms += other.forms


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
        if raw.isalpha():  # no punctuation, no apostrophe: one piece
            pieces = ((raw, *match.span()),)
        else:
            pieces = _token_offsets(_split_token(raw), match.start(), text)
        for piece, s, e in pieces:
            repl = _CONTRACTIONS.get(piece.lower())
            if repl is not None:
                tokens.extend((form, s, e) for form in repl)
            else:
                tokens.append((piece, s, e))
    return tokens


def segment_text(text: str) -> Segmentation:
    """Segment raw text into reference units with ids ``word_1..word_k``.

    Splits on whitespace, detaches punctuation, then expands contracted
    determiners through ``_CONTRACTIONS``.  Total: any input yields a
    (possibly empty) segmentation.
    """
    forms = [form for form, _, _ in tokenize_with_offsets(text)]
    return Segmentation([f"word_{i}" for i in range(1, len(forms) + 1)],
                        forms)


_RANGE_SEP = ".."


def _check_parts(parts) -> None:
    if not parts:
        raise SpanSyntaxError("span expression has no parts")
    for start, end in parts:
        for unit_id in (start,) if end is None else (start, end):
            if not UNIT_ID_RE.fullmatch(unit_id):
                raise SpanSyntaxError(f"invalid unit id {unit_id!r} in span")


def span_parts(text: str) -> tuple[tuple[str, str | None], ...]:
    """The checked parts of a span expression's text, their ids interned.

    Parts are separated by commas and whitespace.  A lone id, the form
    every generated stand-off span takes, is checked by its one match.
    A span column keeps these parts as one cell, :func:`span_cell`.
    """
    if UNIT_ID_RE.fullmatch(text):
        return ((intern(text), None),)
    parts = []
    for chunk in text.replace(",", " ").split():
        start, sep, end = chunk.partition(_RANGE_SEP)
        if _RANGE_SEP in end:
            raise SpanSyntaxError(f"malformed range {chunk!r}")
        parts.append((intern(start), intern(end) if sep else None))
    _check_parts(parts)
    return tuple(parts)


def span_cell(parts):
    """The cell a span column keeps for a span of checked ``parts``: the
    unit's id when the span names one unit, else the parts themselves.
    A lone id keeps no tuple, and it is its own key into the anchor's
    positions."""
    if len(parts) == 1 and parts[0][1] is None:
        return parts[0][0]
    return parts


def cell_parts(cell):
    """The parts of a span column's cell, :func:`span_cell`'s inverse."""
    return ((cell, None),) if isinstance(cell, str) else cell


@dataclass(frozen=True, slots=True)
class SpanExpr:
    """Pointer onto one or more reference units.

    ``parts`` holds single ids and inclusive ranges ``(start_id, end_id)``.
    The canonical text form is space-separated: ``word_3`` or
    ``word_3..word_5 word_9``.
    """

    parts: tuple[tuple[str, str | None], ...]

    def __post_init__(self):
        _check_parts(self.parts)

    @classmethod
    def parse(cls, text: str) -> SpanExpr:
        """The span a text reads as, by :func:`span_parts`."""
        return cls(span_parts(text))

    def __str__(self) -> str:
        return " ".join(
            start if end is None else f"{start}{_RANGE_SEP}{end}"
            for start, end in self.parts)


def resolve_span(cells, units: Segmentation) -> list[int]:
    """Dereference span cells against one segmentation's units.

    Each cell is a span column's (:func:`span_cell`): a unit id, the
    checked parts of a range or a list, or None for an item without a
    span.  Returns the positions of the referenced units in document
    order, without duplicates.  Ranges expand inclusively by document
    position.  Lone ids resolve in one lookup pass; any other cell sends
    every cell through the part-by-part walk, which raises on the first
    dangling id or reversed range in cell order.
    """
    positions = units.positions
    picked = set(map(positions.get, cells))
    if None not in picked:
        return sorted(picked)
    picked = set()
    for cell in cells:
        if cell is None:
            continue
        for start, end in cell_parts(cell):
            first = positions.get(start)
            if first is None:
                raise DanglingPointerError(start)
            if end is None:
                picked.add(first)
                continue
            last = positions.get(end)
            if last is None:
                raise DanglingPointerError(end)
            if first > last:
                raise ReversedRangeError(
                    f"range {start}..{end} runs against document order")
            picked.update(range(first, last + 1))
    return sorted(picked)


def coverage_fingerprint(tokens: list[str]) -> str:
    """Deterministic digest of a token sequence.

    NFC-normalizes each token and hashes the newline-joined sequence, so
    the digest ignores layout but is case- and diacritic-sensitive.
    """
    joined = "\n".join(unicodedata.normalize("NFC", t) for t in tokens)
    return hashlib.sha256(joined.encode("utf-8")).hexdigest()


def span_for_indices(units: Segmentation, indices: list[int]):
    """The span cell (:func:`span_cell`) of the most compact span
    expression covering the given unit indices.  Its ids are the
    segmentation's own, checked when it was built."""
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
    ids = units.ids
    return span_cell(tuple((ids[a], None if a == b else ids[b])
                           for a, b in runs))


def align_inline(inline_doc: str, units: Segmentation):
    """Re-synchronize inline markup with the reference units.

    The markup-stripped character stream of ``inline_doc`` must equal the
    segmentation's forms up to whitespace and contraction expansion.  Each
    element whose boundaries coincide with unit boundaries becomes a
    stand-off item carrying a span expression; an element boundary falling
    strictly inside a unit raises :class:`MisalignmentError` naming the
    element and the offending offset in the stripped text.  The items are
    returned as :class:`~corpus_forge.formats.Items`.
    """
    # imported here, as formats imports this module
    from .formats import Categories, Items, Link

    stripped, elements = _markup.strip_markup(inline_doc)
    tokens = tokenize_with_offsets(stripped)
    forms = [t[0] for t in tokens]
    if forms != units.forms:
        position = next((i for i, (a, b) in enumerate(zip(forms, units.forms))
                         if a != b), min(len(forms), len(units)))
        raise TextMismatchError(
            f"document text diverges from segmentation at token {position}",
            position=position)

    starts: dict[int, int] = {}
    ends: dict[int, int] = {}
    for i, (_, s, e) in enumerate(tokens):
        starts.setdefault(s, i)  # expansion products share one extent:
        ends[e] = i              # keep first for starts, last for ends

    ids, spans, names, categories, links = [], [], [], [], []
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
        attrs = el.attrs
        ids.append(attrs.pop("id", None))
        spans.append(span_for_indices(units,
                                      list(range(starts[s], ends[e] + 1))))
        names.append(el.name)
        ref = attrs.pop("ref", None)
        links.append(() if ref is None
                     else (Link(attrs.pop("type", "coref"), (ref,)),))
        categories.append(shared.of(attrs.items()))
    return Items(len(ids), id=ids, span=spans, element=names,
                 categories=categories, links=links)


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


def _accounted_for(surface, span, children) -> bool:
    """Does an item's subtree carry all the content it claims?

    A surfaced node accounts for its whole subtree; a bare internal node
    delegates to its children; a leaf with neither surface nor span is
    purely relational and covers nothing by design.
    """
    if surface is not None:
        return True
    if children:
        return all(_accounted_for(c.surface, c.span, c.children)
                   for c in children)
    return span is None


def _carried_surfaces(nodes) -> list[str]:
    """Surfaces of the shallowest surfaced nodes, in document order, of
    ``nodes``, each item's (surface, children)."""
    out: list[str] = []
    for surface, children in nodes:
        if surface is not None:
            out.append(surface)
        elif children:
            out.extend(_carried_surfaces(
                (c.surface, c.children) for c in children))
    return out


def reconstruct_coverage(kind: str, units: Segmentation, items,
                         anchor_units: Segmentation | None) -> list[str]:
    """Rebuild the surface token stream a description level accounts for.

    ``units`` and ``items`` (a :class:`~corpus_forge.formats.Items`) are
    the level's own; ``anchor_units`` are the reference units of its
    anchoring segmentation, or None when it has none.  A segmentation
    returns its own unit forms.  A form-carrying level returns its own
    tokens: the content of its shallowest surfaced nodes, whether those
    sit at the top (paragraph trees) or at the leaves (constituency
    terminals).  A pointer level covers exactly the anchor units its spans
    reference, in document order.  It reads the items' columns and builds
    no item.
    """
    if kind == "segmentation":
        return list(units.forms)
    if not items:
        return []
    surfaces, children = items.column("surface"), items.column("children")
    if all(map(_accounted_for, surfaces, items.column("span"), children)):
        carried = _carried_surfaces(zip(surfaces, children))
        if not carried:
            return []  # purely relational level
        # carrier level: re-segmenting its own surfaces is a fixed point
        return [form for form, _, _
                in tokenize_with_offsets(" ".join(carried))]
    if anchor_units is None:
        raise NoPrimaryAnchorError()

    # one resolution over every item's span cell: document order, no
    # repeats; each span checked its ids when it was parsed
    forms = anchor_units.forms
    return [forms[i] for i in resolve_span(items.flat().column("span"),
                                           anchor_units)]
