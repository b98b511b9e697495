"""Archive engine: registration, deposit, reconstruction, validation.

One :class:`Archive` owns a directory tree::

    <root>/corpora/<corpus-id>/manifest
    <root>/corpora/<corpus-id>/resources/<resource-id>.<format>
    <root>/corpora/<corpus-id>/resources/<resource-id>.header

Reads never wait: each is answered from the last published
:class:`Snapshot`, and ``Archive.snapshot()`` returns it, so several
reads see one commit.  Writers take one lock, build the next snapshot
as a draft, write payload, header and manifest from it and publish it
last with one assignment, so a write that fails changes nothing.
Entities are immutable, so reads and writers hand out the snapshot's own.
"""

from __future__ import annotations

# Unused here; ``perfbench/tracer.py`` still patches ``archive.copy``.
import copy  # noqa: F401
import dataclasses
import functools
import graphlib
import hashlib
import threading
from dataclasses import dataclass
from datetime import datetime, timezone
from pathlib import Path

from . import catalog as catalog_mod
from . import manifest as manifest_mod
from .errors import (
    CorpusForgeError,
    DanglingPointerError,
    DependencyCycleError,
    EmptyTitleError,
    NoLevelError,
    NoPrimaryAnchorError,
    ParseError,
    StoreError,
    UnknownDependencyError,
    UnknownEntityError,
    UnknownTargetError,
)
from .formats import (
    FORMATS,
    AnnotationItem,
    iter_items,
    resolve_link_targets,
)
from .model import (
    COVERAGE_FULL,
    COVERAGE_NONE,
    COVERAGE_VALUES,
    KIND_MORPHOSYNTAX,
    KIND_SEGMENTATION,
    KIND_STRUCTURE,
    KIND_SYNTAX,
    Corpus,
    Level,
    Resource,
    Violation,
    slugify,
)
from .registry import (
    SEGMENTATION_GRANULARITY,
    Granularity,
    granularity_of,
)
from .standoff import (
    ReferenceUnit,
    coverage_fingerprint,
    reconstruct_coverage,
)
from .versioning import VersionRecord, classify_submission


def _iso(moment: datetime) -> str:
    return moment.astimezone(timezone.utc).strftime("%Y-%m-%dT%H:%M:%SZ")


def _utf8(payload: bytes) -> str:
    try:
        return payload.decode("utf-8")
    except UnicodeDecodeError as err:
        raise ParseError(f"payload is not valid UTF-8: {err}") from None


@dataclass(frozen=True)
class LevelSpec:
    """Description level to create as part of a deposit."""

    kind: str
    coverage: str
    depends_on: tuple = ()
    meta: tuple[tuple[str, str], ...] = ()


@dataclass(frozen=True)
class DepositResult:
    resource: Resource
    levels: tuple[str, ...]
    records: tuple[VersionRecord, ...]


class Snapshot:
    """One commit of an archive, and every read of it.

    A writer changes only a draft (``_draft``): its maps are new, and it
    replaces an entity or a list instead of changing it, so nothing a
    published snapshot holds ever changes.
    """

    def __init__(self, root: Path):
        self.root = root
        self._corpora: dict[str, Corpus] = {}
        self._levels: dict[str, Level] = {}
        self._resources: dict[str, Resource] = {}
        self._versions: dict[str, list[VersionRecord]] = {}  # by corpus
        self._units: dict[str, list[ReferenceUnit]] = {}
        self._items: dict[str, list[AnnotationItem]] = {}
        # Levels with a stored payload that did not parse: no anchor, or
        # one that no longer aligns.  ``validate`` reports them.
        self._unparsed: dict[str, Violation] = {}
        # Corpus directories whose manifest did not load, by directory
        # name: their ids stay taken, and ``validate`` reports them.
        self._unreadable: dict[str, Violation] = {}

    def _draft(self) -> Snapshot:
        draft = Snapshot(self.root)
        for name, value in vars(self).items():
            if isinstance(value, dict):
                setattr(draft, name, dict(value))
        return draft

    def snapshot(self) -> Snapshot:
        """The last published snapshot; reads on it all see one commit."""
        return self

    def _corpus_dir(self, corpus_id: str) -> Path:
        return self.root / "corpora" / corpus_id

    def _resource_path(self, resource: Resource) -> Path:
        return self._corpus_dir(resource.corpus_id) / "resources" / resource.filename

    def _of(self, entities: dict, corpus_id: str) -> list:
        """The members of ``entities`` that belong to one corpus, by id."""
        return sorted((e for e in entities.values()
                       if e.corpus_id == corpus_id), key=lambda e: e.id)

    def _require_corpus(self, corpus_id: str) -> Corpus:
        if corpus_id not in self._corpora:
            raise UnknownEntityError(f"unknown corpus {corpus_id!r}")
        return self._corpora[corpus_id]

    def _require_level(self, level_id: str) -> Level:
        if level_id not in self._levels:
            raise UnknownEntityError(f"unknown level {level_id!r}")
        return self._levels[level_id]

    def _require_resource(self, resource_id: str) -> Resource:
        if resource_id not in self._resources:
            raise UnknownEntityError(f"unknown resource {resource_id!r}")
        return self._resources[resource_id]

    def corpus(self, corpus_id: str) -> Corpus:
        return self._require_corpus(corpus_id)

    def corpora(self) -> list[Corpus]:
        return [self._corpora[cid] for cid in sorted(self._corpora)]

    def level(self, level_id: str) -> Level:
        return self._require_level(level_id)

    def levels(self, corpus_id: str) -> list[Level]:
        self._require_corpus(corpus_id)
        return self._of(self._levels, corpus_id)

    def resource(self, resource_id: str) -> Resource:
        return self._require_resource(resource_id)

    def resources(self, corpus_id: str) -> list[Resource]:
        self._require_corpus(corpus_id)
        return self._of(self._resources, corpus_id)

    def resource_payload(self, resource_id: str) -> str:
        resource = self._require_resource(resource_id)
        try:
            if resource.available:
                # read_text would turn CRLF into LF: serve it verbatim
                return self._resource_path(resource).read_bytes().decode()
        except FileNotFoundError:
            pass  # lost, or withdrawn after this snapshot was published
        except UnicodeDecodeError:
            raise StoreError(f"resource {resource_id!r} has a stored payload "
                             "that is not valid UTF-8") from None
        raise StoreError(f"resource {resource_id!r} has no stored payload")

    def resource_header(self, resource_id: str) -> str:
        return catalog_mod.build_resource_header(
            self._require_resource(resource_id)).render()

    def version_chain(self, corpus_id: str, kind: str) -> list[VersionRecord]:
        return [v for v in self.versions(corpus_id) if v.level_kind == kind]

    def versions(self, corpus_id: str) -> list[VersionRecord]:
        return sorted(self._versions.get(corpus_id, ()),
                      key=lambda v: (v.level_kind, v.number))

    def level_units(self, level_id: str) -> list[ReferenceUnit]:
        self._require_level(level_id)
        return list(self._units.get(level_id, []))

    def level_items(self, level_id: str) -> list[AnnotationItem]:
        self._require_level(level_id)
        return list(self._items.get(level_id, []))

    def level_is_materialized(self, level_id: str) -> bool:
        self._require_level(level_id)
        return bool(self._units.get(level_id) or self._items.get(level_id))

    def classify_level(self, level_id: str) -> str:
        return self._require_level(level_id).classify()

    def _closure(self, level: Level):
        """Yield the levels ``level`` depends on, directly or not, nearest
        first, ties by id."""
        seen = {level.id}
        frontier = [level]
        while frontier:
            ids = sorted({d for l in frontier for d, _ in l.depends_on} - seen)
            seen.update(ids)
            frontier = [self._levels[i] for i in ids if i in self._levels]
            yield from frontier

    def dependency_closure(self, level_id: str) -> list[str]:
        """The level and everything reachable through depends-on edges,
        nearest dependencies first, ties by id."""
        level = self._require_level(level_id)
        return [level_id] + [l.id for l in self._closure(level)]

    def anchor(self, level_id: str) -> str | None:
        """Id of the segmentation the level's spans resolve against: the
        nearest one in its dependency closure that holds reference units,
        or None while there is none."""
        return next((l.id for l in self._closure(self._require_level(level_id))
                     if l.kind == KIND_SEGMENTATION and self._units.get(l.id)),
                    None)

    def coverage(self, level_id: str) -> list[str]:
        level = self._require_level(level_id)
        anchor = self.anchor(level_id)
        return reconstruct_coverage(
            level.kind, self._units.get(level_id, []),
            self._items.get(level_id, []),
            self._units[anchor] if anchor is not None else None)

    def level_granularity(self, level_id: str) -> Granularity:
        level = self._require_level(level_id)
        if level.kind == KIND_SEGMENTATION and self._units.get(level_id):
            return Granularity(SEGMENTATION_GRANULARITY, ())
        return granularity_of(self._items.get(level_id, []))

    # -- validation ----------------------------------------------------------

    def validate(self, corpus_id: str | None = None) -> list[Violation]:
        out: list[Violation] = []
        for cid in ([corpus_id] if corpus_id
                    else sorted({*self._corpora, *self._unreadable})):
            if cid in self._unreadable:
                out.append(self._unreadable[cid])
            else:
                out.extend(self._validate_corpus(self._require_corpus(cid)))
        return out

    def _validate_corpus(self, corpus: Corpus) -> list[Violation]:
        out: list[Violation] = []
        levels = self._of(self._levels, corpus.id)
        resources = self._of(self._resources, corpus.id)

        graph = {}
        for level in levels:
            deps = set()
            for dep_id, _ in level.depends_on:
                if dep_id not in self._levels:
                    out.append(Violation(
                        "dangling-dependency", level.id,
                        f"depends on unknown level {dep_id!r}"))
                else:
                    deps.add(dep_id)
            graph[level.id] = deps
        has_cycle = False
        try:
            graphlib.TopologicalSorter(graph).prepare()
        except graphlib.CycleError as err:
            has_cycle = True
            cycle = " -> ".join(err.args[1]) if len(err.args) > 1 else ""
            out.append(Violation(
                "dependency-cycle", corpus.id,
                f"level dependencies form a cycle: {cycle}"))

        for level in levels:
            if level.coverage == COVERAGE_NONE and not level.depends_on:
                out.append(Violation(
                    "pointer-level-without-dependency", level.id,
                    "contributes no coverage but depends on nothing"))
            if level.coverage == COVERAGE_NONE:
                roots = self._items.get(level.id, [])
                if roots and all(i.surface is not None for i in roots):
                    out.append(Violation(
                        "surface-in-pointer-level", level.id,
                        "declared coverage 'none' but the payload carries "
                        "its own text"))
            if has_cycle:
                # Reconstruction through a cyclic graph has no meaning;
                # the cycle violation already covers these levels.
                continue
            if level.id in self._unparsed:
                out.append(self._unparsed[level.id])
                continue
            if not self.level_is_materialized(level.id):
                continue
            try:
                tokens = self.coverage(level.id)
            except DanglingPointerError as err:
                out.append(Violation(
                    "dangling-pointer", level.id, err.message))
                continue
            except NoPrimaryAnchorError as err:
                out.append(Violation(
                    "no-primary-anchor", level.id, err.message))
                continue
            if (level.coverage == COVERAGE_FULL
                    and corpus.coverage_fingerprint is not None
                    and coverage_fingerprint(tokens)
                    != corpus.coverage_fingerprint):
                out.append(Violation(
                    "coverage-mismatch", level.id,
                    "full-coverage level does not reconstruct the corpus "
                    "coverage"))
            try:
                resolve_link_targets(self._items.get(level.id, []))
            except UnknownTargetError as err:
                out.append(Violation(
                    "unknown-target", level.id,
                    f"link references undeclared item {err.target!r}"))

        for resource in resources:
            if not resource.levels:
                out.append(Violation(
                    "resource-without-level", resource.id,
                    "deposited without any description level"))
            for level_id in resource.levels:
                if level_id not in self._levels:
                    out.append(Violation(
                        "dangling-level", resource.id,
                        f"references unknown level {level_id!r}"))
            if resource.available and not self._resource_path(resource).is_file():
                out.append(Violation(
                    "missing-payload", resource.id,
                    "marked available but its payload file is gone"))
        return out


class Archive:
    """The archive at ``root``.  Each public method of :class:`Snapshot`
    is also a read of ``Archive``, of its last published snapshot."""

    def __init__(self, root, clock=None):
        self.root = Path(root)
        self._clock = clock or (lambda: datetime.now(timezone.utc))
        self._lock = threading.Lock()
        self._view = self._load()

    # -- storage ----------------------------------------------------------

    def _load(self) -> Snapshot:
        view = Snapshot(self.root)
        corpora_dir = self.root / "corpora"
        if not corpora_dir.is_dir():
            return view
        for entry in sorted(corpora_dir.iterdir()):
            manifest_path = entry / "manifest"
            if not entry.is_dir() or not manifest_path.is_file():
                continue
            try:
                corpus, levels, resources, versions = manifest_mod.loads_corpus(
                    manifest_path.read_text(encoding="utf-8"))
            except (StoreError, UnicodeDecodeError) as err:
                view._unreadable[entry.name] = Violation(
                    "unreadable-manifest", entry.name,
                    f"manifest does not load: {err}")
                continue
            view._corpora[corpus.id] = corpus
            view._levels.update((l.id, l) for l in levels)
            view._resources.update((r.id, r) for r in resources)
            view._versions[corpus.id] = versions
        self._parse_stored(view)
        return view

    def _parse_stored(self, draft: Snapshot,
                      only: set[str] | None = None) -> None:
        """Parse each available resource's stored payload into its levels,
        or into those of them in ``only``."""
        for resource in sorted(draft._resources.values(), key=lambda r: r.id):
            if not resource.available or (
                    only is not None and only.isdisjoint(resource.levels)):
                continue
            path = draft._resource_path(resource)
            if not path.is_file():
                continue  # reported by validate() as missing-payload
            self._materialize(draft, resource, path.read_bytes(), only)

    def _publish(self, draft: Snapshot, *corpus_ids: str) -> None:
        """Write the manifests of ``corpus_ids``, then publish ``draft``."""
        for corpus_id in corpus_ids:
            text = manifest_mod.dumps_corpus(
                draft._corpora[corpus_id], draft._of(draft._levels, corpus_id),
                draft._of(draft._resources, corpus_id),
                draft.versions(corpus_id))
            directory = draft._corpus_dir(corpus_id)
            directory.mkdir(parents=True, exist_ok=True)
            tmp = directory / "manifest.tmp"
            tmp.write_text(text, encoding="utf-8")
            tmp.replace(directory / "manifest")
        self._view = draft

    # -- registration ------------------------------------------------------

    def register_corpus(self, title: str, language: str = "",
                        meta: dict[str, str] | None = None,
                        corpus_id: str | None = None) -> Corpus:
        with self._lock:
            draft = self._view._draft()
            corpus = self._add_corpus(draft, title, language, meta, corpus_id)
            self._publish(draft, corpus.id)
            return corpus

    def _add_corpus(self, draft: Snapshot, title: str, language: str,
                    meta: dict[str, str] | None,
                    corpus_id: str | None) -> Corpus:
        if not title or not title.strip():
            raise EmptyTitleError("a corpus requires a non-empty title")
        manifest_mod.storable_text({"title": title, "language": language})
        title = title.strip()
        if corpus_id is not None:
            if slugify(corpus_id) != corpus_id:
                raise StoreError(f"corpus id {corpus_id!r} is not a slug "
                                 "(lowercase ascii words joined by '-')")
            if corpus_id in draft._corpora or corpus_id in draft._unreadable:
                raise StoreError(f"corpus id {corpus_id!r} already exists")
        else:
            base = slugify(title)
            corpus_id, n = base, 1
            while corpus_id in draft._corpora or corpus_id in draft._unreadable:
                n += 1
                corpus_id = f"{base}-{n}"
        corpus = draft._corpora[corpus_id] = Corpus(
            id=corpus_id, title=title, language=language,
            declared_meta=manifest_mod.storable_meta(meta),
            created_at=_iso(self._clock()))
        return corpus

    def add_level(self, corpus_id: str, kind: str, coverage: str,
                  depends_on=(), meta: dict[str, str] | None = None) -> Level:
        with self._lock:
            draft = self._view._draft()
            draft._require_corpus(corpus_id)
            level = self._add_level(draft, corpus_id, LevelSpec(
                kind=kind, coverage=coverage, depends_on=tuple(depends_on),
                meta=tuple(sorted((meta or {}).items()))))
            self._publish(draft, corpus_id)
            return level

    def _add_level(self, draft: Snapshot, corpus_id: str,
                   spec: LevelSpec) -> Level:
        manifest_mod.storable_text({"level kind": spec.kind})
        kind = (spec.kind or "").strip()
        if not kind or any(c.isspace() or c in ",|" for c in kind):
            raise StoreError(f"invalid level kind {spec.kind!r}: a kind "
                             "holds no whitespace, ',' or '|'")
        if spec.coverage not in COVERAGE_VALUES:
            raise StoreError(
                f"coverage must be one of {', '.join(COVERAGE_VALUES)}, "
                f"got {spec.coverage!r}")
        deps = []
        for entry in spec.depends_on:
            dep_id, purpose = (entry if isinstance(entry, tuple)
                               else (entry, "anchors-to"))
            manifest_mod.storable_text({"dependency purpose": purpose})
            if dep_id not in draft._levels:
                raise UnknownDependencyError(
                    f"dependency {dep_id!r} does not exist")
            if draft._levels[dep_id].corpus_id != corpus_id:
                raise UnknownDependencyError(
                    f"dependency {dep_id!r} belongs to another corpus")
            deps.append((dep_id, purpose))
        number = 1
        while f"{corpus_id}-{kind}-{number}" in draft._levels:
            number += 1
        level = Level(
            id=f"{corpus_id}-{kind}-{number}",
            corpus_id=corpus_id,
            kind=kind,
            coverage=spec.coverage,
            depends_on=tuple(deps),
            declared_meta=manifest_mod.storable_meta(spec.meta),
            created_at=_iso(self._clock()))
        draft._levels[level.id] = level
        return level

    def register_table(self, text: str, language: str = "") -> list[Corpus]:
        """Bulk-register corpora from a tab-separated table.

        Columns: title, declared word count ('-' if unknown), genre,
        comma-separated level kinds.  Each corpus gets the standard
        dependency chain for its kinds: segmentation and structure carry
        full coverage; morphosyntax anchors on segmentation; syntax on
        morphosyntax when present, else segmentation; everything else on
        segmentation.  A segmentation level is added implicitly whenever
        some declared kind needs an anchor.  A malformed row registers
        nothing.
        """
        with self._lock:
            draft = self._view._draft()
            out: list[Corpus] = []
            for lineno, raw in enumerate(text.splitlines(), 1):
                if not raw.strip() or raw.lstrip().startswith("#"):
                    continue
                cols = [c.strip() for c in raw.split("\t")]
                if len(cols) != 4:
                    raise StoreError(
                        f"corpus table line {lineno}: expected 4 "
                        f"tab-separated columns, got {len(cols)}")
                title, words, genre, kinds_field = cols
                kinds = [k for k in (k.strip() for k in kinds_field.split(","))
                         if k and k != "-"]
                meta = {}
                if genre and genre != "-":
                    meta["genre"] = genre
                if words and words != "-":
                    meta["word-count"] = words
                corpus = self._add_corpus(draft, title, language, meta, None)
                anchored = [k for k in kinds if k not in
                            (KIND_SEGMENTATION, KIND_STRUCTURE)]
                if anchored and KIND_SEGMENTATION not in kinds:
                    kinds.append(KIND_SEGMENTATION)
                rank = {KIND_SEGMENTATION: 0, KIND_STRUCTURE: 1,
                        KIND_MORPHOSYNTAX: 2, KIND_SYNTAX: 3}
                kinds.sort(key=lambda k: (rank.get(k, 9), k))
                created: dict[str, Level] = {}
                for kind in kinds:
                    if kind in (KIND_SEGMENTATION, KIND_STRUCTURE):
                        spec = LevelSpec(kind, COVERAGE_FULL)
                    else:
                        anchor = created.get(
                            KIND_MORPHOSYNTAX if kind == KIND_SYNTAX
                            else KIND_SEGMENTATION,
                            created.get(KIND_SEGMENTATION))
                        spec = LevelSpec(kind, COVERAGE_NONE,
                                         (anchor.id,) if anchor else ())
                    created[kind] = self._add_level(draft, corpus.id, spec)
                out.append(corpus)
            self._publish(draft, *(corpus.id for corpus in out))
            return out

    def add_dependency(self, level_id: str, dep_id: str,
                       purpose: str = "anchors-to") -> Level:
        """Wire an existing level onto another one, refusing cycles."""
        with self._lock:
            draft = self._view._draft()
            level = draft._require_level(level_id)
            dep = draft._require_level(dep_id)
            manifest_mod.storable_text({"dependency purpose": purpose})
            if dep.corpus_id != level.corpus_id:
                raise UnknownDependencyError(
                    f"dependency {dep_id!r} belongs to another corpus")
            graph = {l.id: {d for d, _ in l.depends_on}
                     for l in draft._of(draft._levels, level.corpus_id)}
            graph[level_id] = graph[level_id] | {dep_id}
            try:
                graphlib.TopologicalSorter(graph).prepare()
            except graphlib.CycleError as err:
                raise DependencyCycleError(
                    f"adding {dep_id!r} under {level_id!r} closes a "
                    f"dependency cycle") from err
            level = draft._levels[level_id] = dataclasses.replace(
                level, depends_on=level.depends_on + ((dep_id, purpose),))
            self._publish(draft, level.corpus_id)
            return level

    # -- deposit -----------------------------------------------------------

    def deposit(self, corpus_id: str, payload, format: str,
                levels=(), new_levels=(), depositor: str = "",
                validated: bool = False, validator: str | None = None,
                meta: dict[str, str] | None = None) -> DepositResult:
        with self._lock:
            draft = self._view._draft()
            corpus = draft._require_corpus(corpus_id)
            if format not in FORMATS:
                raise StoreError(f"unknown deposit format {format!r}")
            text = _utf8(payload) if isinstance(payload, bytes) else payload
            manifest_mod.storable_text({"payload": text, "depositor": depositor,
                                        "validator": validator})

            targets: list[Level] = []
            for level_id in levels:
                level = draft._require_level(level_id)
                if level.corpus_id != corpus_id:
                    raise UnknownEntityError(
                        f"level {level_id!r} belongs to another corpus")
                targets.append(level)
            for spec in new_levels:
                targets.append(self._add_level(draft, corpus_id, spec))
            if not targets:
                raise NoLevelError(
                    "a deposit must target at least one description level")

            # Parse for every target before storing any result, so each
            # aligns on the last commit's anchors.  Only the draft changes
            # below: a payload that fails to parse or merge publishes nothing.
            parsed = [(level, self._parse_for(draft, format, text, level))
                      for level in targets]

            number = 1 + len(draft._of(draft._resources, corpus_id))
            resource_id = f"{corpus_id}-r{number:03d}"
            now = _iso(self._clock())
            resource = draft._resources[resource_id] = Resource(
                id=resource_id,
                corpus_id=corpus_id,
                format=format,
                filename=f"{resource_id}.{format}",
                levels=tuple(l.id for l in targets),
                depositor=depositor,
                deposited_at=now,
                validated=validated,
                validator=validator,
                sha256=hashlib.sha256(text.encode("utf-8")).hexdigest(),
                size=len(text.encode("utf-8")),
                declared_meta=manifest_mod.storable_meta(meta))
            fresh_by_kind: dict[str, list[AnnotationItem]] = {}
            for level, value in parsed:
                fresh_by_kind.setdefault(level.kind, []).extend(
                    self._add_parsed(draft, level.id, format, value))

            records = self._record_versions(
                draft, corpus, resource, targets, fresh_by_kind, now)
            self._set_fingerprint_if_ready(draft, corpus, targets)

            path = draft._resource_path(resource)
            path.parent.mkdir(parents=True, exist_ok=True)
            path.write_text(text, encoding="utf-8")
            path.with_name(f"{resource_id}.header").write_text(
                draft.resource_header(resource_id), encoding="utf-8")
            self._publish(draft, corpus_id)
            return DepositResult(
                resource=resource,
                levels=tuple(l.id for l in targets),
                records=tuple(records))

    def _parse_for(self, view: Snapshot, format: str, text: str,
                   level: Level) -> list:
        codec = FORMATS[format]
        if codec.yields_units and level.kind != KIND_SEGMENTATION:
            raise StoreError(
                f"{format} payloads materialize segmentation levels, "
                f"not {level.kind!r}")
        anchor = (view.anchor(level.id)
                  if codec.needs_units != "no" else None)
        if anchor is not None:
            value = codec.parse(text, view._units[anchor])
        elif codec.needs_units == "required":
            raise NoPrimaryAnchorError(
                f"format {format!r} aligns against reference units, but "
                f"the dependency chain of level {level.id!r} reaches no "
                "segmentation holding reference units")
        else:
            value = codec.parse(text)
        project = codec.project.get(level.kind)
        return value if project is None else project(value)

    def _add_parsed(self, draft: Snapshot, level_id: str, format: str,
                    value: list) -> list:
        """Store what ``format`` parsed for one level; return the new items."""
        if not FORMATS[format].yields_units:
            draft._items[level_id] = draft._items.get(level_id, []) + value
            return value
        merged = draft._units.get(level_id, [])
        existing_ids = {u.id for u in merged}
        for unit in value:
            if unit.id in existing_ids:
                raise StoreError(
                    f"unit id {unit.id!r} already materialized on level "
                    f"{level_id!r}")
            existing_ids.add(unit.id)
        draft._units[level_id] = merged + [
            ReferenceUnit(id=u.id, form=u.form, index=len(merged) + i)
            for i, u in enumerate(value)]
        return []

    def _record_versions(self, draft: Snapshot, corpus: Corpus,
                         resource: Resource, targets: list[Level],
                         fresh_by_kind: dict[str, list[AnnotationItem]],
                         now: str) -> list[VersionRecord]:
        records = []
        for kind in dict.fromkeys(level.kind for level in targets):
            chain = draft.version_chain(corpus.id, kind)
            prior = chain[-1] if chain else None
            kind_levels = [l for l in targets if l.kind == kind]
            categories: set[str] = set()
            for level in kind_levels:
                categories |= draft.level_granularity(level.id).categories
            granularity = frozenset(categories)
            classification = classify_submission(
                granularity, prior.granularity if prior else None,
                validated=resource.validated)
            groups: dict[str, int] = {}
            for item in iter_items(fresh_by_kind.get(kind, [])):
                if item.group is not None:
                    groups[item.group] = groups.get(item.group, 0) + 1
            coverage = ""
            try:
                coverage = coverage_fingerprint(
                    draft.coverage(kind_levels[0].id))
            except (DanglingPointerError, NoPrimaryAnchorError):
                pass
            record = VersionRecord(
                id=f"{corpus.id}-{kind}-v{len(chain) + 1}",
                corpus_id=corpus.id,
                level_kind=kind,
                level_id=kind_levels[0].id,
                resource_id=resource.id,
                number=len(chain) + 1,
                classification=classification,
                granularity=granularity,
                validated=resource.validated,
                validator=resource.validator,
                coverage=coverage,
                variant_groups=tuple(sorted(groups.items())),
                supersedes=(prior.id if prior and classification.is_correction
                            else None),
                created_at=now)
            draft._versions[corpus.id] = draft.versions(corpus.id) + [record]
            records.append(record)
        return records

    def _set_fingerprint_if_ready(self, draft: Snapshot, corpus: Corpus,
                                  targets: list[Level]) -> None:
        if corpus.coverage_fingerprint is not None:
            return
        for level in targets:
            if level.coverage != COVERAGE_FULL:
                continue
            try:
                tokens = draft.coverage(level.id)
            except (DanglingPointerError, NoPrimaryAnchorError):
                continue
            if tokens:
                draft._corpora[corpus.id] = dataclasses.replace(
                    corpus, coverage_fingerprint=coverage_fingerprint(tokens))
                return

    def withdraw(self, resource_id: str) -> Resource:
        """Delete a resource's payload, keeping its descriptive record.

        The header survives and is refreshed, so the catalog keeps
        listing the resource with ``available: false``.
        """
        with self._lock:
            draft = self._view._draft()
            resource = draft._require_resource(resource_id)
            if resource.available:
                resource = draft._resources[resource_id] = dataclasses.replace(
                    resource, available=False)
                # Re-parse its levels and every level that depends on
                # them, as a reload would.
                reparse = set(resource.levels) | {
                    l.id for l in draft._of(draft._levels, resource.corpus_id)
                    if any(d.id in resource.levels for d in draft._closure(l))}
                for level_id in reparse:
                    for parsed in (draft._units, draft._items, draft._unparsed):
                        parsed.pop(level_id, None)
                self._parse_stored(draft, reparse)
                path = draft._resource_path(resource)
                path.with_name(f"{resource_id}.header").write_text(
                    draft.resource_header(resource_id), encoding="utf-8")
                self._publish(draft, resource.corpus_id)
                # Last, so readers of earlier snapshots still find it.
                path.unlink(missing_ok=True)
            return resource

    def _materialize(self, draft: Snapshot, resource: Resource,
                     payload: bytes, only: set[str] | None = None) -> None:
        for level_id in resource.levels:
            if only is not None and level_id not in only:
                continue
            if level_id not in draft._levels:
                continue  # reported by validate() as dangling level
            try:
                value = self._parse_for(draft, resource.format, _utf8(payload),
                                        draft._levels[level_id])
            except CorpusForgeError as err:
                # It parsed at deposit, so its anchor (or the file) changed.
                draft._unparsed[level_id] = Violation(
                    err.code, level_id, err.message)
                continue
            self._add_parsed(draft, level_id, resource.format, value)


def _read(method):
    @functools.wraps(method)
    def read(self, *args, **kwargs):
        return method(self._view, *args, **kwargs)
    return read


for _name, _method in list(vars(Snapshot).items()):
    if callable(_method) and not _name.startswith("_"):
        setattr(Archive, _name, _read(_method))
