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
from types import MappingProxyType

from .errors import StoreError
from .manifest import escape_value
from .model import (COVERAGE_FULL, KIND_SEGMENTATION, KIND_STRUCTURE,
                    Resource, deposit_order)

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


@dataclass(frozen=True)
class MetadataHeader:
    tier: str
    subject_id: str
    declared: tuple[tuple[str, str], ...]
    computed: tuple[tuple[str, str], ...]
    generated_at: str
    warnings: tuple[str, ...] = ()

    def render(self) -> str:
        pairs = [("header", self.tier), ("subject", self.subject_id),
                 ("generated", self.generated_at or "-")]
        pairs.extend((f"declared {key}", value) for key, value in self.declared)
        pairs.extend((f"computed {key}", value) for key, value in self.computed)
        pairs.extend(("warning", message) for message in self.warnings)
        return "".join(f"{key}: {escape_value(value)}\n"
                       for key, value in pairs)


def build_header(tier: str, subject_id: str, declared,
                 computed=MappingProxyType({}),
                 generated_at: str = "-") -> MetadataHeader:
    """Normalize declared fields against the tier schema.

    Unknown fields are kept — nothing a depositor says is dropped — but
    they move under an ``x-`` extension prefix and produce a warning.
    """
    if tier not in TIER_FIELDS:
        raise StoreError(f"unknown header tier {tier!r}")
    schema = TIER_FIELDS[tier]
    declared_pairs: list[tuple[str, str]] = []
    warnings: list[str] = []
    for key, value in sorted(declared.items()):
        value = str(value)
        if key in schema or key.startswith("x-"):
            declared_pairs.append((key, value))
        else:
            warnings.append(
                f"field {key!r} is not in the {tier} tier schema; "
                f"stored as x-{key}")
            declared_pairs.append((f"x-{key}", value))
    declared_pairs.sort()
    computed_pairs = sorted((key, str(value))
                            for key, value in computed.items())
    return MetadataHeader(
        tier=tier,
        subject_id=subject_id,
        declared=tuple(declared_pairs),
        computed=tuple(computed_pairs),
        generated_at=generated_at or "-",
        warnings=tuple(warnings))


# -- archive-coupled builders ---------------------------------------------
#
# Each reads one snapshot's corpus states directly (``Snapshot._state``),
# not through its public reads, which copy whole lists.  Counts, anchors
# and granularity come from each level's recorded summary
# (``CorpusState.summary``), so no payload is parsed.  A corpus's record,
# stamp and summary block are rendered once per published state of the
# corpus (``Snapshot._rendered``); the archive-wide reads join them.


def compute_auto_stats(archive, corpus_id: str) -> dict[str, str]:
    """Engine-measured statistics for the corpus tier; ``word-count``
    counts the first segmentation with units, full coverage first, then
    by id."""
    state = archive.snapshot()._state(corpus_id)
    levels = sorted(state.levels.values(),
                    key=lambda l: (l.coverage != COVERAGE_FULL, l.id))
    units = [state.summary(l.id).units for l in levels
             if l.kind == KIND_SEGMENTATION]
    word_count = next((n for n in units if n), 0)
    stats = {
        "word-count": str(word_count),
        "level-count": str(len(state.levels)),
        "resource-count": str(len(state.resources)),
    }
    turns = sum(state.summary(level.id).turns for level in levels
                if level.kind == KIND_STRUCTURE)
    if turns:
        stats["turn-count"] = str(turns)
    return stats


def _corpus_stamp(archive, corpus_id: str) -> str:
    return archive.snapshot()._rendered(corpus_id, "stamp", _render_stamp)


def _render_stamp(snapshot, corpus_id: str) -> str:
    state = snapshot._state(corpus_id)
    stamps = [state.corpus.created_at]
    stamps.extend(l.created_at for l in state.levels.values())
    stamps.extend(r.deposited_at for r in state.resources.values())
    stamps.extend(v.created_at for v in state.versions)
    stamps = [s for s in stamps if s]
    return max(stamps) if stamps else "-"


def archive_stamp(archive) -> str:
    """Latest event timestamp anywhere in the archive ('-' when empty)."""
    archive = archive.snapshot()
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
    state = archive.snapshot()._owner("levels", level_id)
    level, summary = state.levels[level_id], state.summary(level_id)
    materialized = bool(summary.units or summary.items)
    computed: dict[str, str] = {
        "kind": level.kind,
        "coverage": level.coverage,
        "classification": level.classify(),
        "materialized": "true" if materialized else "false",
    }
    anchor = state.anchor(level_id, recorded=True)
    if anchor is not None:
        computed["anchor"] = anchor
    if level.depends_on:
        computed["depends-on"] = ",".join(
            f"{dep_id}|{purpose}" for dep_id, purpose in level.depends_on)
    computed["items"] = str(summary.units if level.kind == KIND_SEGMENTATION
                            else summary.items)
    if materialized and summary.granularity:
        computed["granularity"] = ",".join(sorted(summary.granularity))
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


def corpus_headers(archive, corpus_id: str) -> list[MetadataHeader]:
    """One corpus's headers in record order: corpus, levels, resources."""
    archive = archive.snapshot()
    state = archive._state(corpus_id)
    headers = [corpus_header(archive, corpus_id)]
    headers.extend(level_header(archive, level_id)
                   for level_id in sorted(state.levels))
    resources = sorted(state.resources.values(),
                       key=lambda r: (r.deposited_at, deposit_order(r)))
    headers.extend(build_resource_header(resource) for resource in resources)
    return headers


def corpus_record(archive, corpus_id: str) -> str:
    """One catalog record: corpus header, then level and resource headers."""
    return archive.snapshot()._rendered(corpus_id, "record", _render_record)


def _render_record(snapshot, corpus_id: str) -> str:
    return "\n".join(header.render()
                     for header in corpus_headers(snapshot, corpus_id))


def _catalog_head(snapshot, corpora: int) -> str:
    return (f"catalog-format: {CATALOG_FORMAT}\n"
            f"generated: {archive_stamp(snapshot)}\n"
            f"corpora: {corpora}\n")


def export_catalog(archive) -> str:
    """Full catalog: deterministic, stable-ordered, pure in archive state."""
    archive = archive.snapshot()
    corpora = archive.corpora()
    parts = [_catalog_head(archive, len(corpora))]
    parts.extend(corpus_record(archive, corpus.id) for corpus in corpora)
    return "\n".join(parts)


def catalog_summary(archive, offset: int = 0) -> str:
    """Per-corpus one-block summaries for listing endpoints.

    ``corpora:`` always reports the total; ``offset`` skips that many
    leading corpora from the listing.
    """
    archive = archive.snapshot()
    corpora = archive.corpora()
    head = _catalog_head(archive, len(corpora))
    if offset:
        head += f"offset: {offset}\n"
    parts = [head]
    parts.extend(archive._rendered(corpus.id, "summary", _render_summary)
                 for corpus in corpora[offset:])
    return "\n".join(parts)


def _render_summary(snapshot, corpus_id: str) -> str:
    state = snapshot._state(corpus_id)
    return (f"corpus: {corpus_id}\n"
            f"title: {escape_value(state.corpus.title)}\n"
            f"levels: {len(state.levels)}\n"
            f"resources: {len(state.resources)}\n")


def write_export(archive) -> Path:
    """Write ``catalog.export`` at the archive root."""
    path = Path(archive.root) / "catalog.export"
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(export_catalog(archive), encoding="utf-8")
    return path
