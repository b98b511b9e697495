"""Line-oriented manifest persistence.

Each corpus directory holds one ``manifest`` file: blocks of ``key: value``
lines separated by blank lines, opened by ``archive-format: 1``.  The four
``Block`` declarations below are the format's specification: each row is
a key, the attribute it holds, its codec and its default (or
``REQUIRED``), in line order.  A line ends only at ``\\n``: values escape
backslash, newline and carriage return, and all after the first ``": "``
is the value.  An empty optional value is ``-``; a literal ``-`` is ``\\-``.

A level block's ``summary`` row records what the level's stored payloads
parsed into at its last write, so the catalog reads no payload: unit
count, item count, ``u``/``turn`` item count and granularity categories,
space-separated, as in ``summary: 76 0 0 reference-unit``.  A manifest
written before summaries has no such row, and re-dumps without it.
"""

from __future__ import annotations

import re
from types import MappingProxyType
from typing import Any, Callable, Mapping, NamedTuple

from .errors import StoreError
from .model import Corpus, Level, LevelSummary, Resource
from .versioning import Classification, VersionRecord

ARCHIVE_FORMAT = "1"
REQUIRED = object()

_UNESCAPES = {"\\": "\\", "n": "\n", "r": "\r", "-": "-"}
_ESCAPED = re.compile(r"\\(.)", re.S)


def escape_value(value: str) -> str:
    return (value.replace("\\", "\\\\").replace("\n", "\\n")
            .replace("\r", "\\r"))


def unescape_value(value: str) -> str:
    if "\\" not in value:
        return value
    return _ESCAPED.sub(lambda m: _UNESCAPES.get(m[1], m[0]), value)


def storable_text(fields: dict[str, str | None]) -> None:
    """Refuse a caller string that UTF-8 cannot encode, naming its field.

    Every caller string ends up in a UTF-8 file; a lone surrogate would
    raise halfway through the writes and leave partial files behind.
    """
    for name, value in fields.items():
        try:
            (value or "").encode("utf-8")
        except UnicodeEncodeError as err:
            raise StoreError(f"{name} holds a lone surrogate at character "
                             f"{err.start}, which UTF-8 cannot encode") from None


def storable_meta(meta, reserved=()) -> Mapping[str, str]:
    """``meta`` as a new read-only mapping, refusing a key no ``meta-``
    line can hold and a key a header would not show: one of ``reserved``,
    which the entity's own field fills, or a key beside its ``x-`` form,
    as a header shows a key outside its tier's schema under that form."""
    meta = dict(meta or {})
    for key, value in meta.items():
        if "\n" in key or "\r" in key or ": " in key:
            raise StoreError(f"meta key {key!r} holds a line break or ': '")
        if key in reserved:
            raise StoreError(f"meta key {key!r} is the entity's own field")
        if not key.startswith("x-") and f"x-{key}" in meta:
            raise StoreError(f"meta key {key!r} is given with 'x-{key}'")
        storable_text({"meta key": key, f"meta {key!r}": value})
    return MappingProxyType(meta)


class Codec(NamedTuple):
    dump: Callable[[Any], str]
    load: Callable[[str], Any]  # raises ValueError on a malformed value
    many: bool = False  # one line per element of a tuple
    absent: bool = False  # no line for None


def _dashed(empty) -> Codec:
    return Codec(
        lambda v: "-" if v == empty else "\\-" if v == "-"
        else escape_value(v),
        lambda s: empty if s == "-" else unescape_value(s))


def _variant_group(text: str) -> tuple[str, int]:
    group, sep, size = unescape_value(text).rpartition("|")
    if not sep or not size.isdigit():
        raise ValueError(text)
    return group, int(size)


TEXT = Codec(escape_value, unescape_value)
OPTIONAL = _dashed("")  # "" <-> "-"
NULLABLE = _dashed(None)  # None <-> "-"
BOOL = Codec(lambda v: "true" if v else "false", lambda s: s == "true")
INT = Codec(str, int)
CLASSIFICATION = Codec(lambda c: c.value, Classification)
LEVEL_IDS = Codec(
    lambda ids: escape_value(",".join(ids)),
    lambda s: tuple(i for i in unescape_value(s).split(",") if i))
GRANULARITY = Codec(
    lambda cats: escape_value(",".join(sorted(cats))) or "-",
    lambda s: frozenset(unescape_value(s).split(",")) - {"", "-"})
DEPENDS_ON = Codec(lambda dep: escape_value(f"{dep[0]}|{dep[1]}"),
                   lambda s: tuple(unescape_value(s).partition("|")[::2]),
                   many=True)


def _summary(text: str) -> LevelSummary:
    units, items, turns, granularity = text.split(" ", 3)
    if not (units + items + turns).isdigit():  # int() refuses an empty one
        raise ValueError(text)
    return LevelSummary(int(units), int(items), int(turns),
                        GRANULARITY.load(granularity))


SUMMARY = Codec(lambda s: (f"{s.units} {s.items} {s.turns} "
                           f"{GRANULARITY.dump(s.granularity)}"),
                _summary, absent=True)
VARIANT_GROUPS = Codec(lambda g: escape_value(f"{g[0]}|{g[1]}"),
                       _variant_group, many=True)


class Block:
    """One block type: ``fields`` are (key, attribute, codec, default)
    rows in line order; with ``meta``, sorted ``meta-<key>`` lines of
    ``declared_meta`` follow them."""

    def __init__(self, entity: type, meta: bool, *fields):
        self.entity, self.meta, self.fields = entity, meta, fields
        self.name = fields[0][0]
        self.by_key = {row[0]: row for row in fields}

    def dump(self, entity) -> str:
        lines = []
        for key, attr, codec, _ in self.fields:
            value = getattr(entity, attr)
            if codec.many:
                lines.extend(f"{key}: {codec.dump(v)}" for v in value)
            elif value is not None or not codec.absent:
                lines.append(f"{key}: {codec.dump(value)}")
        if self.meta:
            lines.extend(f"meta-{key}: {escape_value(value)}" for key, value
                         in sorted(entity.declared_meta.items()))
        return "\n".join(lines)

    def load(self, pairs: list[tuple[str, str]]):
        values: dict[str, Any] = {}
        meta: dict[str, str] = {}
        for key, raw in pairs:
            if self.meta and key.startswith("meta-"):
                target, name, codec = meta, key[len("meta-"):], TEXT
            elif key in self.by_key:
                target, (_, name, codec, _) = values, self.by_key[key]
            else:
                raise StoreError(f"unknown key {key!r} in {self.name} block")
            try:
                value = codec.load(raw)
            except ValueError:
                raise StoreError(f"malformed {key!r} value {raw!r} in "
                                 f"{self.name} block") from None
            if codec.many:
                value = target.get(name, ()) + (value,)
            elif name in target:
                raise StoreError(f"repeated key {key!r} in {self.name} block")
            target[name] = value
        for key, attr, _, default in self.fields:
            if attr not in values and default is REQUIRED:
                raise StoreError(f"{self.name} block lacks required key {key!r}")
            values.setdefault(attr, default)
        if self.meta:
            values["declared_meta"] = MappingProxyType(meta)
        return self.entity(**values)


CORPUS = Block(Corpus, True,
    ("corpus", "id", TEXT, REQUIRED),
    ("title", "title", TEXT, REQUIRED),
    ("language", "language", OPTIONAL, ""),
    ("fingerprint", "coverage_fingerprint", NULLABLE, None),
    ("created", "created_at", OPTIONAL, ""),
)
LEVEL = Block(Level, True,
    ("level", "id", TEXT, REQUIRED),
    ("corpus", "corpus_id", TEXT, REQUIRED),
    ("kind", "kind", TEXT, REQUIRED),
    ("coverage", "coverage", TEXT, REQUIRED),
    ("created", "created_at", OPTIONAL, ""),
    ("depends-on", "depends_on", DEPENDS_ON, ()),
    ("summary", "summary", SUMMARY, None),
)
RESOURCE = Block(Resource, True,
    ("resource", "id", TEXT, REQUIRED),
    ("corpus", "corpus_id", TEXT, REQUIRED),
    ("format", "format", TEXT, REQUIRED),
    ("file", "filename", TEXT, REQUIRED),
    ("levels", "levels", LEVEL_IDS, REQUIRED),
    ("depositor", "depositor", OPTIONAL, ""),
    ("deposited", "deposited_at", OPTIONAL, ""),
    ("validated", "validated", BOOL, False),
    ("validator", "validator", NULLABLE, None),
    ("sha256", "sha256", OPTIONAL, ""),
    ("size", "size", INT, 0),
    ("available", "available", BOOL, True),
)
VERSION = Block(VersionRecord, False,
    ("version", "id", TEXT, REQUIRED),
    ("corpus", "corpus_id", TEXT, REQUIRED),
    ("kind", "level_kind", TEXT, REQUIRED),
    ("level", "level_id", TEXT, REQUIRED),
    ("resource", "resource_id", TEXT, REQUIRED),
    ("number", "number", INT, REQUIRED),
    ("classification", "classification", CLASSIFICATION, REQUIRED),
    ("granularity", "granularity", GRANULARITY, frozenset()),
    ("validated", "validated", BOOL, False),
    ("validator", "validator", NULLABLE, None),
    ("coverage", "coverage", OPTIONAL, ""),
    ("supersedes", "supersedes", NULLABLE, None),
    ("created", "created_at", OPTIONAL, ""),
    ("variant-group", "variant_groups", VARIANT_GROUPS, ()),
)
_BLOCKS = {block.name: block for block in (CORPUS, LEVEL, RESOURCE, VERSION)}


def dumps_corpus(corpus: Corpus, levels: list[Level],
                 resources: list[Resource],
                 versions: list[VersionRecord]) -> str:
    blocks = [f"archive-format: {ARCHIVE_FORMAT}", CORPUS.dump(corpus)]
    blocks.extend(LEVEL.dump(level) for level in levels)
    blocks.extend(RESOURCE.dump(resource) for resource in resources)
    blocks.extend(VERSION.dump(record) for record in versions)
    return "\n\n".join(blocks) + "\n"


def _split_blocks(text: str) -> list[list[tuple[str, str]]]:
    blocks: list[list[tuple[str, str]]] = [[]]
    for lineno, raw in enumerate(text.split("\n"), 1):
        if not raw.strip():
            if blocks[-1]:
                blocks.append([])
            continue
        key, sep, value = raw.partition(": ")
        if not sep:
            raise StoreError(f"manifest line {lineno}: not a key: value pair")
        blocks[-1].append((key, value))
    return [block for block in blocks if block]


def loads_corpus(text: str) -> tuple[
        Corpus, list[Level], list[Resource], list[VersionRecord]]:
    blocks = _split_blocks(text)
    if not blocks or blocks[0] != [("archive-format", ARCHIVE_FORMAT)]:
        raise StoreError(
            f"manifest must open with 'archive-format: {ARCHIVE_FORMAT}'")
    loaded: dict[str, list] = {name: [] for name in _BLOCKS}
    for pairs in blocks[1:]:
        block = _BLOCKS.get(pairs[0][0])
        if block is None:
            raise StoreError(f"unknown manifest block type {pairs[0][0]!r}")
        loaded[block.name].append(block.load(pairs))
    if len(loaded["corpus"]) != 1:
        raise StoreError(f"manifest holds {len(loaded['corpus'])} corpus "
                         "blocks, not one")
    return (loaded["corpus"][0], loaded["level"], loaded["resource"],
            loaded["version"])
