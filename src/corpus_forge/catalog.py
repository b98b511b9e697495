"""Three-tier metadata headers and the deterministic catalog export.

Every archived subject carries a header on one of three tiers — corpus,
description level, resource — combining depositor-supplied (*declared*)
fields with engine-supplied (*computed*) ones.  Computed values never
overwrite declared ones; when both exist (a declared word count next to
a measured one) they are shown side by side.  Headers remain exportable
even when the payload itself is gone: the catalog is exactly the face
the archive shows when it only catalogues resources without physically
storing them.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

from .errors import ParseError, StoreError
from .formats import iter_items
from .manifest import escape_value, unescape_value
from .model import COVERAGE_FULL, KIND_SEGMENTATION, KIND_STRUCTURE, Resource

CATALOG_FORMAT = "1"

TIER_CORPUS = "corpus"
TIER_LEVEL = "level"
TIER_RESOURCE = "resource"

# Declared fields each tier accepts without an extension prefix.
TIER_FIELDS: dict[str, frozenset[str]] = {
    TIER_CORPUS: frozenset({
        "title", "language", "genre", "source", "rights", "description",
        "producer", "word-count"}),
    TIER_LEVEL: frozenset({
        "producer", "scheme", "transcription", "notes", "description"}),
    TIER_RESOURCE: frozenset({
        "depositor", "license", "note", "description"}),
}

_TURN_ELEMENTS = ("u", "turn")


@dataclass(frozen=True)
class MetadataHeader:
    tier: str
    subject_id: str
    declared: tuple[tuple[str, str], ...]
    computed: tuple[tuple[str, str], ...]
    generated_at: str
    warnings: tuple[str, ...] = ()

    def declared_map(self) -> dict[str, str]:
        return dict(self.declared)

    def computed_map(self) -> dict[str, str]:
        return dict(self.computed)

    def render(self) -> str:
        pairs = [("header", self.tier), ("subject", self.subject_id),
                 ("generated", self.generated_at or "-")]
        pairs.extend((f"declared {key}", value) for key, value in self.declared)
        pairs.extend((f"computed {key}", value) for key, value in self.computed)
        pairs.extend(("warning", message) for message in self.warnings)
        return "".join(f"{key}: {escape_value(value)}\n"
                       for key, value in pairs)


def build_header(tier: str, subject_id: str, declared,
                 computed=(), generated_at: str = "-") -> MetadataHeader:
    """Normalize declared fields against the tier schema.

    Unknown fields are kept — nothing a depositor says is dropped — but
    they move under an ``x-`` extension prefix and produce a warning.
    """
    if tier not in TIER_FIELDS:
        raise StoreError(f"unknown header tier {tier!r}")
    schema = TIER_FIELDS[tier]
    declared_pairs: list[tuple[str, str]] = []
    warnings: list[str] = []
    items = declared.items() if hasattr(declared, "items") else declared
    for key, value in sorted(items):
        value = str(value)
        if key in schema or key.startswith("x-"):
            declared_pairs.append((key, value))
        else:
            warnings.append(
                f"field {key!r} is not in the {tier} tier schema; "
                f"stored as x-{key}")
            declared_pairs.append((f"x-{key}", value))
    declared_pairs.sort()
    computed_items = (computed.items() if hasattr(computed, "items")
                      else computed)
    computed_pairs = sorted((key, str(value)) for key, value in computed_items)
    return MetadataHeader(
        tier=tier,
        subject_id=subject_id,
        declared=tuple(declared_pairs),
        computed=tuple(computed_pairs),
        generated_at=generated_at or "-",
        warnings=tuple(warnings))


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


# -- archive-coupled builders ---------------------------------------------


def compute_auto_stats(archive, corpus_id: str) -> dict[str, str]:
    """Engine-measured statistics for the corpus tier; ``word-count``
    counts the first segmentation with units, full coverage first, then
    by id."""
    levels = archive.levels(corpus_id)
    resources = archive.resources(corpus_id)
    word_count = 0
    for level in sorted(levels, key=lambda l: l.coverage != COVERAGE_FULL):
        if level.kind != KIND_SEGMENTATION:
            continue
        units = archive.level_units(level.id)
        if units:
            word_count = len(units)
            break
    stats = {
        "word-count": str(word_count),
        "level-count": str(len(levels)),
        "resource-count": str(len(resources)),
    }
    turns = 0
    for level in levels:
        if level.kind != KIND_STRUCTURE:
            continue
        turns += sum(1 for item in iter_items(archive.level_items(level.id))
                     if item.element in _TURN_ELEMENTS)
    if turns:
        stats["turn-count"] = str(turns)
    return stats


def _corpus_stamp(archive, corpus_id: str) -> str:
    corpus = archive.corpus(corpus_id)
    stamps = [corpus.created_at]
    stamps.extend(l.created_at for l in archive.levels(corpus_id))
    stamps.extend(r.deposited_at for r in archive.resources(corpus_id))
    stamps.extend(v.created_at for v in archive.versions(corpus_id))
    stamps = [s for s in stamps if s]
    return max(stamps) if stamps else "-"


def archive_stamp(archive) -> str:
    """Latest event timestamp anywhere in the archive ('-' when empty)."""
    stamps = [_corpus_stamp(archive, corpus.id)
              for corpus in archive.corpora()]
    stamps = [s for s in stamps if s != "-"]
    return max(stamps) if stamps else "-"


def corpus_header(archive, corpus_id: str) -> MetadataHeader:
    corpus = archive.corpus(corpus_id)
    declared = dict(corpus.declared_meta)
    declared["title"] = corpus.title
    if corpus.language:
        declared["language"] = corpus.language
    computed = compute_auto_stats(archive, corpus_id)
    if corpus.coverage_fingerprint:
        computed["coverage-fingerprint"] = corpus.coverage_fingerprint
    return build_header(TIER_CORPUS, corpus_id, declared, computed,
                        generated_at=_corpus_stamp(archive, corpus_id))


def level_header(archive, level_id: str) -> MetadataHeader:
    level = archive.level(level_id)
    computed: dict[str, str] = {
        "kind": level.kind,
        "coverage": level.coverage,
        "classification": archive.classify_level(level_id),
        "materialized": ("true" if archive.level_is_materialized(level_id)
                         else "false"),
    }
    anchor = archive.anchor(level_id)
    if anchor is not None:
        computed["anchor"] = anchor
    if level.depends_on:
        computed["depends-on"] = ",".join(
            f"{dep_id}|{purpose}" for dep_id, purpose in level.depends_on)
    if level.kind == KIND_SEGMENTATION:
        computed["items"] = str(len(archive.level_units(level_id)))
    else:
        computed["items"] = str(sum(
            1 for _ in iter_items(archive.level_items(level_id))))
    if computed["materialized"] == "true":
        categories = archive.level_granularity(level_id).categories
        if categories:
            computed["granularity"] = ",".join(sorted(categories))
    return build_header(TIER_LEVEL, level_id, level.declared_meta, computed,
                        generated_at=level.created_at)


def build_resource_header(resource: Resource) -> MetadataHeader:
    declared = dict(resource.declared_meta)
    if resource.depositor:
        declared["depositor"] = resource.depositor
    computed = {
        "format": resource.format,
        "file": resource.filename,
        "levels": ",".join(resource.levels),
        "deposited": resource.deposited_at or "-",
        "validated": "true" if resource.validated else "false",
        "sha256": resource.sha256,
        "size": str(resource.size),
        "available": "true" if resource.available else "false",
    }
    if resource.validator:
        computed["validator"] = resource.validator
    return build_header(TIER_RESOURCE, resource.id, declared, computed,
                        generated_at=resource.deposited_at)


def resource_header(resource: Resource) -> str:
    return build_resource_header(resource).render()


def corpus_record(archive, corpus_id: str) -> str:
    """One catalog record: corpus header, then level and resource headers."""
    archive = archive.snapshot()
    parts = [corpus_header(archive, corpus_id).render()]
    for level in archive.levels(corpus_id):
        parts.append(level_header(archive, level.id).render())
    resources = sorted(archive.resources(corpus_id),
                       key=lambda r: (r.deposited_at, r.id))
    for resource in resources:
        parts.append(build_resource_header(resource).render())
    return "\n".join(parts)


def export_catalog(archive) -> str:
    """Full catalog: deterministic, stable-ordered, pure in archive state."""
    archive = archive.snapshot()
    corpora = archive.corpora()
    head = (f"catalog-format: {CATALOG_FORMAT}\n"
            f"generated: {archive_stamp(archive)}\n"
            f"corpora: {len(corpora)}\n")
    parts = [head]
    parts.extend(corpus_record(archive, corpus.id) for corpus in corpora)
    return "\n".join(parts)


def catalog_summary(archive, offset: int = 0) -> str:
    """Per-corpus one-block summaries for listing endpoints.

    ``corpora:`` always reports the total; ``offset`` skips that many
    leading corpora from the listing.
    """
    archive = archive.snapshot()
    corpora = archive.corpora()
    head = (f"catalog-format: {CATALOG_FORMAT}\n"
            f"generated: {archive_stamp(archive)}\n"
            f"corpora: {len(corpora)}\n")
    if offset:
        head += f"offset: {offset}\n"
    parts = [head]
    for corpus in corpora[offset:]:
        parts.append(
            f"corpus: {corpus.id}\n"
            f"title: {escape_value(corpus.title)}\n"
            f"levels: {len(archive.levels(corpus.id))}\n"
            f"resources: {len(archive.resources(corpus.id))}\n")
    return "\n".join(parts)


def write_export(archive) -> Path:
    """Write ``catalog.export`` at the archive root."""
    path = Path(archive.root) / "catalog.export"
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(export_catalog(archive), encoding="utf-8")
    return path
