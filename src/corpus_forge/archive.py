"""Archive engine: registration, deposit, reconstruction, validation.

One :class:`Archive` owns a directory tree::

    <root>/corpora/<corpus-id>/manifest
    <root>/corpora/<corpus-id>/resources/<resource-id>.<format>

``Archive(root)`` loads every manifest and parses every payload at
open; ``Archive(root, defer_parse=True)`` lists ``corpora/`` and loads
no manifest: each loads on the first read of its corpus.  Either
way each manifest loads once, into a cache that every snapshot of the
archive shares (:class:`_Listing`).  A level or resource
id finds its corpus by one rule: the corpora that may hold it are those
whose id is a prefix of it ending at a ``-``, and the longest of them
that holds it owns it.  Only an id that none of them holds (unknown, or
outside the naming rule) loads every manifest; then the first corpus by
id that holds it owns it.  ``corpora()``, ``validate()`` of the whole
archive and the catalog load every corpus.

Reads never wait for the writers' lock: each is answered from the last
published :class:`Snapshot`, and ``Archive.snapshot()`` returns it, so
several reads see one commit.  A snapshot maps each corpus id to that
corpus's :class:`CorpusState`, so a read of one corpus touches no other.
A state holds one :class:`Parsed` entry per level, empty when the state
is loaded from its manifest.  The first read of a
level's units or items parses that level's payloads, and those of the
segmentations it anchors on, once for every snapshot that shares the
entry.  An entry keeps columns (a segmentation's unit ids, forms and
positions; one list per item field), which coverage, summaries and
``validate`` read; ``level_units`` and ``level_items`` build their
values on each call.  The catalog reads no entry: each level's ``summary``, which
the manifest records, gives its counts and granularity (a level loaded
without one gets it from its entry).  A corpus's catalog record, stamp
and summary block are rendered on their first read, and kept on its
state.  So a published state changes only when its first reads fill
entries and those renderings, and a read may load, parse or render,
but it still never waits for the writers' lock.  Every writer changes
the archive through one path, ``Archive._commit``: it takes that lock
and builds the next snapshot as a draft, which copies the state of each
corpus it writes and shares every other state, and every level entry
it does not replace, with the published snapshot.  An entry it replaces
or drops is filled first, so a snapshot that shares it keeps its
answers after a payload is deleted.  When the block ends, each level
whose entry was replaced records its summary, the manifests of the
written corpora are written and the draft is published with one
assignment, so a write that fails changes nothing.  Entities are
immutable, so reads and writers hand out the snapshot's own.
"""

from __future__ import annotations

import collections
import contextlib
# Unused here; ``perfbench/tracer.py`` still patches ``archive.copy``.
import copy  # noqa: F401
import dataclasses
import functools
import graphlib
import hashlib
import os
import threading
from dataclasses import dataclass, field
from datetime import datetime, timezone
from pathlib import Path
from typing import Callable

from . import manifest as manifest_mod
from .errors import (
    CorpusForgeError,
    DanglingPointerError,
    DependencyCycleError,
    EmptyTitleError,
    NoLevelError,
    NoPrimaryAnchorError,
    ParseError,
    PayloadDigestError,
    StoreError,
    UnknownDependencyError,
    UnknownEntityError,
    UnknownTargetError,
)
from .formats import (
    FORMATS,
    AnnotationItem,
    Items,
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
    LevelSummary,
    Resource,
    Violation,
    deposit_order,
    slugify,
)
from .registry import (
    SEGMENTATION_GRANULARITY,
    granularity_of,
)
from .standoff import (
    ReferenceUnit,
    Segmentation,
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


# The meta keys an entity's own fields fill, which its header shows
# instead; the writers refuse them, and ``validate`` reports them.
_OWN_FIELDS = {Corpus: ("title", "language"), Level: (),
               Resource: ("depositor",)}


def _by_id(entities: dict) -> list:
    return [entities[key] for key in sorted(entities)]


def _deposited(resources: dict[str, Resource]) -> list[Resource]:
    return sorted(resources.values(), key=deposit_order)


def _corpus_dir(root: Path, corpus_id: str) -> Path:
    return root / "corpora" / corpus_id


def _digest_matches(resource: Resource, payload: bytes) -> bool:
    """Whether a stored payload's SHA-256 is the one recorded at deposit;
    a resource recorded without one matches any payload."""
    return (not resource.sha256
            or resource.sha256 == hashlib.sha256(payload).hexdigest())


def _cycle(levels: dict[str, Level]) -> str | None:
    """A cycle among the dependencies of ``levels`` (by id) on each other,
    as the ids along it joined by " -> "; None if there is none."""
    try:
        graphlib.TopologicalSorter({
            level.id: {d for d, _ in level.depends_on if d in levels}
            for level in _by_id(levels)}).prepare()
    except graphlib.CycleError as err:
        return " -> ".join(err.args[1]) if len(err.args) > 1 else ""
    return None


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


@dataclass(slots=True)
class Parsed:
    """What the stored payloads that target one level parsed into, as
    columns: its reference units (a segmentation's) and its items.

    Each payload's units and items are added once, after those of the
    payloads before it, and a span keeps its unit ids, which resolve
    against the anchor's positions when the level is read.
    ``ReferenceUnit`` and ``AnnotationItem`` values are built only when a
    caller reads them one by one (``level_units``, ``level_items``).  A
    level's entry is filled in place by its first read
    (``CorpusState.parsed``) and only read from then on, but for its
    ``summary``, kept on first use (``CorpusState.parse_summary``).  A
    draft shares the entries of the levels it does not write; for a level
    it writes it adds to a ``copy`` of the published entry.
    """

    units: Segmentation = field(default_factory=Segmentation)
    # (segmentation payload, units held after it), in deposit order.
    ends: tuple[tuple[Resource, int], ...] = ()
    items: Items = field(default_factory=Items)
    # A stored payload that did not parse: no anchor, or one that no
    # longer aligns.  ``validate`` reports it.
    unparsed: Violation | None = None
    # Resources whose stored payload's SHA-256 is not the recorded one.
    mismatched: frozenset[str] = frozenset()
    filled: bool = False
    filling: bool = False  # by the thread that holds the state's lock
    # What the filled entry holds, as a level summary; made on first use.
    summary: LevelSummary | None = None

    def copy(self) -> Parsed:
        """A filled copy of this filled entry, with no summary, that a
        draft adds to."""
        entry = Parsed(ends=self.ends, unparsed=self.unparsed,
                       mismatched=self.mismatched, filled=True)
        entry.units.extend(self.units)
        entry.items.extend(self.items)
        return entry

    def held(self, before: Resource | None = None) -> int:
        """How many units were deposited before ``before``; all for None.
        A payload aligns on the units deposited before it, as at deposit."""
        if before is None:
            return len(self.units)
        held = 0
        for resource, end in self.ends:
            if deposit_order(resource) >= deposit_order(before):
                break
            held = end
        return held


_TURN_ELEMENTS = ("u", "turn")


def _summary(level: Level, entry: Parsed) -> LevelSummary:
    """What ``entry``, one level's, holds, as its manifest records it."""
    items = entry.items.flat()
    elements = items.column("element")
    granularity = (SEGMENTATION_GRANULARITY
                   if level.kind == KIND_SEGMENTATION and entry.units
                   else granularity_of(items))
    return LevelSummary(len(entry.units), len(items),
                        sum(map(elements.count, _TURN_ELEMENTS)), granularity)


@dataclass(frozen=True)
class CorpusState:
    """One corpus in one snapshot: the corpus, its levels and resources by
    id, its version records, and what each level's stored payloads parsed
    into.

    A published state changes only when first reads fill its level
    entries (``parsed``) and the catalog memo (``Snapshot._rendered``).
    Its fields are frozen: a draft replaces them through
    ``Snapshot._writable``, which also gives it its own copy of the dicts;
    it fills only that copy, and replaces an entity, a list or a level
    entry there instead of changing it.  A ``copy`` or ``replace`` starts
    with an empty memo.
    """

    corpus: Corpus
    root: Path
    levels: dict[str, Level] = field(default_factory=dict)
    resources: dict[str, Resource] = field(default_factory=dict)
    versions: tuple[VersionRecord, ...] = ()
    # One entry per level.  A ``copy`` shares the entries, and with them
    # the lock under which a first read fills one, so an entry is filled
    # once for every state that shares it.
    _entries: dict[str, Parsed] = field(default_factory=dict, repr=False)
    _lock: threading.RLock = field(default_factory=threading.RLock,
                                   repr=False)
    # Payload paths by file name, built on first use; every copy shares
    # them.  Not by resource id: a deposit that fails frees its id.
    _paths: dict[str, Path] = field(default_factory=dict, repr=False)
    # Rendered catalog fragments by name, filled on their first read once
    # the state is published.  No ``__init__`` argument, so a ``copy`` or
    # ``replace`` starts with an empty one.
    _catalog: dict[str, str] = field(default_factory=dict, init=False,
                                     repr=False)

    def parsed(self, level_id: str) -> Parsed:
        """The level's entry, parsed from its stored payloads on its first
        read."""
        entry = self._entries[level_id]
        if not entry.filled:
            with self._lock:
                # An entry this thread is filling is read as it stands:
                # a dependency cycle reads its units, which parse first.
                if not (entry.filled or entry.filling):
                    entry.__init__(filling=True)  # empty, also after a raise
                    try:
                        self._fill(level_id, entry)
                        entry.filled = True
                    finally:
                        entry.filling = False
        return entry

    def _fill(self, level_id: str, entry: Parsed) -> None:
        """Parse the available resources that target one level,
        segmentations first, each kind in deposit order."""
        for resource in sorted(
                (r for r in self.resources.values()
                 if r.available and level_id in r.levels),
                key=lambda r: (not FORMATS[r.format].yields_units,
                               deposit_order(r))):
            try:
                payload = self.payload_path(resource).read_bytes()
            except (FileNotFoundError, IsADirectoryError, NotADirectoryError):
                continue  # reported by validate() as missing-payload
            if not _digest_matches(resource, payload):
                entry.mismatched |= {resource.id}
            # Looked up on the class at each call, as a tracer patches it.
            Archive._materialize(self, resource, payload, level_id, entry)

    def payload_path(self, resource: Resource) -> Path:
        """Where the payload of ``resource``, one of this corpus's, is
        stored."""
        path = self._paths.get(resource.filename)
        if path is None:
            path = self._paths[resource.filename] = Path(
                self.root, "corpora", self.corpus.id, "resources",
                resource.filename)
        return path

    def copy(self) -> CorpusState:
        """A draft's own copy.  It shares every level entry, filled or
        not, with this state."""
        return CorpusState(self.corpus, self.root, dict(self.levels),
                           dict(self.resources), self.versions,
                           dict(self._entries), self._lock, self._paths)

    def drop(self, level_ids) -> None:
        """Give ``level_ids``, and every level that depends on them, entries
        that their next read fills again, as a reload would.  Each is
        filled first, so every snapshot that shared it keeps its answers
        after a later write deletes a payload."""
        dropped = [l.id for l in self.levels.values() if l.id in level_ids
                   or any(d.id in level_ids for d in self.closure(l))]
        for level_id in dropped:
            self.parsed(level_id)
        self._entries.update((level_id, Parsed()) for level_id in dropped)

    def parse_summary(self, level_id: str) -> LevelSummary:
        """What the level's stored payloads parse into, as a summary;
        made once per filled entry."""
        entry = self.parsed(level_id)
        if entry.summary is not None:
            return entry.summary
        summary = _summary(self.levels[level_id], entry)
        if entry.filled:  # not while a dependency cycle reads it half filled
            entry.summary = summary  # two readers make the same one
        return summary

    def summary(self, level_id: str) -> LevelSummary:
        """The level's summary as recorded at its last write; a level
        read from a manifest without one gets it from its entry."""
        level = self.levels[level_id]
        if level.summary is not None:
            return level.summary
        return self.parse_summary(level_id)

    def closure(self, level: Level):
        """Yield the levels ``level`` depends on, directly or not, nearest
        first, ties by id."""
        seen = {level.id}
        frontier = [level]
        while frontier:
            ids = sorted({d for l in frontier for d, _ in l.depends_on} - seen)
            seen.update(ids)
            frontier = [self.levels[i] for i in ids if i in self.levels]
            yield from frontier

    def anchor(self, level_id: str, before: Resource | None = None,
               recorded: bool = False) -> str | None:
        """The nearest segmentation in the level's closure that holds
        units, or that held some before ``before``; with ``recorded``,
        that holds some by its summary, so nothing is parsed."""
        return next((l.id for l in self.closure(self.levels[level_id])
                     if l.kind == KIND_SEGMENTATION
                     and (self.summary(l.id).units if recorded
                          else self.parsed(l.id).held(before))), None)

    def coverage(self, level_id: str) -> list[str]:
        anchor, entry = self.anchor(level_id), self.parsed(level_id)
        return reconstruct_coverage(
            self.levels[level_id].kind, entry.units, entry.items,
            self.parsed(anchor).units if anchor is not None else None)


class _Listing:
    """The names an archive listed in ``corpora/`` when it opened, and the
    state of each corpus among them, loaded from its manifest on the
    corpus's first read.

    Every snapshot of the archive shares it.  A corpus loads once, under
    the lock.  A writer loads the corpus it writes before it copies the
    state, so a state kept here never holds a commit of this archive, and
    a snapshot that had not read that corpus before the commit answers
    from it as it stood before.
    """

    def __init__(self, root: Path):
        self.root = root
        # A name that holds no manifest is not a corpus, which its first
        # read finds.
        try:
            self.names = frozenset(os.listdir(root / "corpora"))
        except (FileNotFoundError, NotADirectoryError):
            self.names = frozenset()
        # Listed name -> its state, or None: not a corpus, or a manifest
        # that does not load.
        self._states: dict[str, CorpusState | None] = {}
        # Listed directories whose manifest did not load, by name: their
        # ids stay taken, and ``validate`` reports them.
        self.unreadable: dict[str, Violation] = {}
        self._lock = threading.Lock()

    def state(self, name: str) -> CorpusState | None:
        """The state of the listed corpus ``name``, loaded on first use;
        None if it is not a listed corpus or its manifest does not load."""
        if name not in self._states:
            if name not in self.names:
                return None
            with self._lock:
                if name not in self._states:
                    self._states[name] = self._load(name)
        return self._states[name]

    def _load(self, name: str) -> CorpusState | None:
        try:
            corpus, levels, resources, versions = manifest_mod.loads_corpus(
                Path(self.root, "corpora", name, "manifest").read_text(
                    encoding="utf-8"))
            if corpus.id != name:
                # Its payloads and its writes are in its directory.
                raise StoreError(f"it names corpus {corpus.id!r}, not "
                                 "the one its directory names")
            for resource in resources:
                if resource.format not in FORMATS:
                    raise StoreError(f"resource {resource.id!r} has the "
                                     f"unknown format {resource.format!r}")
                # The only name a deposit writes; another could name
                # another resource's payload, or a file outside the
                # corpus's resources directory.
                if (resource.filename != f"{resource.id}.{resource.format}"
                        or "/" in resource.filename):
                    raise StoreError(f"resource {resource.id!r} has the "
                                     f"file {resource.filename!r}")
            levels_by_id = {l.id: l for l in levels}
            resources_by_id = {r.id: r for r in resources}
            # The next write would keep one block of a repeated id.
            if (len(levels_by_id) < len(levels)
                    or len(resources_by_id) < len(resources)):
                raise StoreError("it repeats a level or resource id")
        except (FileNotFoundError, IsADirectoryError, NotADirectoryError):
            return None  # not a corpus
        except (StoreError, UnicodeDecodeError) as err:
            self.unreadable[name] = Violation(
                "unreadable-manifest", name, f"manifest does not load: {err}")
            return None
        return CorpusState(corpus, self.root, levels_by_id, resources_by_id,
                           tuple(versions), {l: Parsed() for l in levels_by_id})


class Snapshot:
    """One commit of an archive, and every read of it.

    It maps each corpus id to that corpus's :class:`CorpusState`: the
    states its commits wrote, and for every other corpus the state that
    the archive's :class:`_Listing` loads on first read.  A writer
    changes only a draft (``_draft``), in which each corpus it writes
    gets a copy of its state (``_writable``); every other corpus keeps
    the published one.  A level or resource id finds its corpus by the
    rule of ``_holder``.
    """

    def __init__(self, listing: _Listing):
        self.root = listing.root
        self._listing = listing
        # The states its commits wrote, new corpora too, and those its
        # reads found in the listing.
        self._corpora: dict[str, CorpusState] = {}
        # Whether ``_corpora`` holds every corpus: every listed name has
        # been looked up.
        self._complete = False
        # Corpora whose state this draft has copied, and may still change;
        # emptied when the draft is published.
        self._written: set[str] = set()

    def _draft(self) -> Snapshot:
        draft = Snapshot(self._listing)
        draft._corpora = dict(self._corpora)
        draft._complete = self._complete
        return draft

    def _writable(self, corpus_id: str, **changes) -> CorpusState:
        """This draft's own copy of one corpus's state, with ``changes``
        to its fields."""
        state = self._state(corpus_id)
        if corpus_id not in self._written:
            state = state.copy()
            self._written.add(corpus_id)
        if changes:
            state = dataclasses.replace(state, **changes)
        self._corpora[corpus_id] = state
        return state

    def snapshot(self) -> Snapshot:
        """The last published snapshot; reads on it all see one commit."""
        return self

    def _find(self, corpus_id: str) -> CorpusState | None:
        state = self._corpora.get(corpus_id)
        if state is None:
            state = self._listing.state(corpus_id)
            if state is not None:
                self._corpora[corpus_id] = state  # the same for every reader
        return state

    def _state(self, corpus_id: str) -> CorpusState:
        if corpus_id in self._corpora:
            return self._corpora[corpus_id]
        state = self._find(corpus_id)
        if state is None:
            raise UnknownEntityError(f"unknown corpus {corpus_id!r}")
        return state

    def _taken(self, corpus_id: str) -> bool:
        """Whether a corpus, or a directory whose manifest does not load,
        has the id."""
        return (self._find(corpus_id) is not None
                or corpus_id in self._listing.unreadable)

    def _ids(self) -> list[str]:
        """Every corpus's id, in order; this loads every manifest."""
        if not self._complete:
            # In order, so that the sort below mostly finds it sorted.
            for corpus_id in sorted(self._listing.names):
                self._find(corpus_id)
            self._complete = True
        return sorted(self._corpora)

    def _rendered(self, corpus_id: str, name: str,
                  render: Callable[[Snapshot, str], str]) -> str:
        """``render(self, corpus_id)``, the catalog fragment ``name`` of
        one corpus.  It is kept on the corpus's state, so it is rendered
        once for every published snapshot that shares that state."""
        state = self._state(corpus_id)
        text = state._catalog.get(name)
        if text is None:
            # Two readers may both render it: they render the same text.
            text = state._catalog.setdefault(name, render(self, corpus_id))
        return text

    def _candidate(self, kind: str, entity_id: str) -> CorpusState | None:
        """Of the corpora whose id is a prefix of a level or resource id
        ending at a ``-``, the state of the longest that holds it, or
        None; ``kind`` is "levels" or "resources"."""
        end = len(entity_id)
        while (end := entity_id.rfind("-", 0, end)) > 0:
            state = self._find(entity_id[:end])
            if state is not None and entity_id in getattr(state, kind):
                return state
        return None

    def _holder(self, kind: str, entity_id: str) -> CorpusState | None:
        """The state that holds a level or resource, or None: its
        ``_candidate``; else, loading every manifest, the first corpus by
        id that holds it.  Two corpora that hold one id are reported by
        ``validate``."""
        return self._candidate(kind, entity_id) or next(
            (state for state in map(self._corpora.get, self._ids())
             if entity_id in getattr(state, kind)), None)

    def _owner(self, kind: str, entity_id: str) -> CorpusState:
        """The state that holds a level or resource, by ``_holder``;
        ``UnknownEntityError`` if none does."""
        state = self._holder(kind, entity_id)
        if state is None:
            raise UnknownEntityError(f"unknown {kind[:-1]} {entity_id!r}")
        return state

    def corpus(self, corpus_id: str) -> Corpus:
        return self._state(corpus_id).corpus

    def corpora(self) -> list[Corpus]:
        return [self._corpora[cid].corpus for cid in self._ids()]

    def level(self, level_id: str) -> Level:
        return self._owner("levels", level_id).levels[level_id]

    def levels(self, corpus_id: str) -> list[Level]:
        return _by_id(self._state(corpus_id).levels)

    def resource(self, resource_id: str) -> Resource:
        return self._owner("resources", resource_id).resources[resource_id]

    def resources(self, corpus_id: str) -> list[Resource]:
        return _deposited(self._state(corpus_id).resources)

    def resource_payload(self, resource_id: str) -> str:
        state = self._owner("resources", resource_id)
        resource = state.resources[resource_id]
        payload = None
        try:
            if resource.available:
                # read_text would turn CRLF into LF: serve it verbatim
                payload = state.payload_path(resource).read_bytes()
        except (FileNotFoundError, IsADirectoryError, NotADirectoryError):
            pass  # lost, or withdrawn after this snapshot was published
        if payload is None:
            raise StoreError(f"resource {resource_id!r} has no stored payload")
        if not _digest_matches(resource, payload):
            raise PayloadDigestError(
                f"resource {resource_id!r} has a stored payload whose "
                "SHA-256 is not the one recorded at deposit")
        try:
            return payload.decode()
        except UnicodeDecodeError:
            raise StoreError(f"resource {resource_id!r} has a stored payload "
                             "that is not valid UTF-8") from None

    def versions(self, corpus_id: str) -> list[VersionRecord]:
        return sorted(self._state(corpus_id).versions,
                      key=lambda v: (v.level_kind, v.number))

    def level_units(self, level_id: str) -> list[ReferenceUnit]:
        """The level's reference units, built on this read."""
        return list(self._owner("levels", level_id).parsed(level_id).units)

    def level_items(self, level_id: str) -> list[AnnotationItem]:
        """The level's items, built on this read."""
        return list(self._owner("levels", level_id).parsed(level_id).items)

    def classify_level(self, level_id: str) -> str:
        return self.level(level_id).classify()

    def anchor(self, level_id: str) -> str | None:
        """Id of the segmentation the level's spans resolve against: the
        nearest one in its dependency closure that holds reference units,
        or None while there is none."""
        return self._owner("levels", level_id).anchor(level_id)

    def coverage(self, level_id: str) -> list[str]:
        return self._owner("levels", level_id).coverage(level_id)

    # -- validation ----------------------------------------------------------

    def validate(self, corpus_id: str | None = None) -> list[Violation]:
        out: list[Violation] = []
        for cid in ([corpus_id] if corpus_id
                    else sorted({*self._ids(), *self._listing.unreadable})):
            state = self._find(cid)
            if state is not None:
                out.extend(self._validate_corpus(state))
            elif cid in self._listing.unreadable:
                out.append(self._listing.unreadable[cid])
            else:
                raise UnknownEntityError(f"unknown corpus {cid!r}")
        if not corpus_id:
            out.extend(self._shared_ids())
        return out

    def _shared_ids(self) -> list[Violation]:
        """A level or resource id that two corpora's manifests hold: a
        read by id finds the owner ``_holder`` picks."""
        holders: dict[tuple[str, str], list[str]] = {}
        for state in map(self._corpora.get, self._ids()):
            for kind in ("levels", "resources"):
                for entity_id in getattr(state, kind):
                    holders.setdefault((entity_id, kind), []).append(
                        state.corpus.id)
        return [Violation(
            "shared-id", entity_id,
            f"{kind[:-1]} id held by corpora {', '.join(map(repr, held))}; "
            f"a read by id finds {self._holder(kind, entity_id).corpus.id!r}")
            for (entity_id, kind), held in sorted(holders.items())
            if len(held) > 1]

    def _validate_corpus(self, state: CorpusState) -> list[Violation]:
        out: list[Violation] = []
        corpus = state.corpus
        levels = _by_id(state.levels)
        resources = _deposited(state.resources)
        missing = {r.id for r in resources
                   if r.available and not state.payload_path(r).is_file()}

        for entity in (*levels, *resources, *state.versions):
            if entity.corpus_id != corpus.id:
                out.append(Violation(
                    "corpus-mismatch", entity.id,
                    f"names corpus {entity.corpus_id!r} but the manifest of "
                    f"{corpus.id!r} holds it"))

        for entity in (corpus, *levels, *resources):
            try:
                manifest_mod.storable_meta(entity.declared_meta,
                                           _OWN_FIELDS[type(entity)])
            except StoreError as err:
                out.append(Violation("hidden-meta", entity.id, err.message))

        for level in levels:
            for dep_id, _ in level.depends_on:
                if dep_id not in state.levels:
                    out.append(Violation(
                        "dangling-dependency", level.id,
                        f"depends on unknown level {dep_id!r}"))
        cycle = _cycle(state.levels)
        if cycle is not None:
            out.append(Violation(
                "dependency-cycle", corpus.id,
                f"level dependencies form a cycle: {cycle}"))

        for level in levels:
            entry = state.parsed(level.id)
            if level.coverage == COVERAGE_NONE and not level.depends_on:
                out.append(Violation(
                    "pointer-level-without-dependency", level.id,
                    "contributes no coverage but depends on nothing"))
            if level.coverage == COVERAGE_NONE:
                surfaces = entry.items.column("surface")
                if surfaces and None not in surfaces:
                    out.append(Violation(
                        "surface-in-pointer-level", level.id,
                        "declared coverage 'none' but the payload carries "
                        "its own text"))
            if cycle is not None:
                # Reconstruction through a cyclic graph has no meaning;
                # the cycle violation already covers these levels.
                continue
            if entry.unparsed is not None:
                out.append(entry.unparsed)
                continue
            # A payload that is gone or altered is reported on its
            # resource, and changes the level's summary through it.
            if level.summary is not None and not entry.mismatched and all(
                    level.id not in state.resources[r].levels
                    for r in missing):
                summary = state.parse_summary(level.id)
                if summary != level.summary:
                    dump = manifest_mod.SUMMARY.dump
                    out.append(Violation(
                        "level-summary-mismatch", level.id,
                        f"manifest records summary {dump(level.summary)!r} "
                        f"but its payloads parse into {dump(summary)!r}"))
            if not (entry.units or entry.items):
                continue
            try:
                tokens = state.coverage(level.id)
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
                resolve_link_targets(entry.items)
            except UnknownTargetError as err:
                out.append(Violation(
                    "unknown-target", level.id,
                    f"link references undeclared item {err.target!r}"))

        mismatched = set().union(
            *(state.parsed(level.id).mismatched for level in levels))
        for resource in resources:
            if not resource.levels:
                out.append(Violation(
                    "resource-without-level", resource.id,
                    "deposited without any description level"))
            for level_id in resource.levels:
                if level_id not in state.levels:
                    out.append(Violation(
                        "dangling-level", resource.id,
                        f"references unknown level {level_id!r}"))
            if not resource.available:
                continue
            if resource.id in missing:
                out.append(Violation(
                    "missing-payload", resource.id,
                    "marked available but its payload file is gone"))
            elif resource.id in mismatched or (
                    # No level reads it: its digest is checked here.
                    state.levels.keys().isdisjoint(resource.levels)
                    and not _digest_matches(
                        resource, state.payload_path(resource).read_bytes())):
                out.append(Violation(
                    "payload-digest-mismatch", resource.id,
                    "stored payload's SHA-256 is not the one recorded at "
                    "deposit"))
        return out


class Archive:
    """The archive at ``root``.  Each public method of :class:`Snapshot`
    is also a read of ``Archive``, of its last published snapshot.

    Opening lists the corpora, loads every manifest and parses every
    stored payload, summarizing each level's (what ``validate`` checks
    the recorded summaries against), unless ``defer_parse`` is true: then
    it only lists the corpora, a corpus's manifest loads on the first
    read of that corpus, and each level's payloads are parsed on its
    first read.  A level or resource id belongs to the longest corpus id
    that is a prefix of it ending at a ``-`` and holds it (see
    ``Snapshot._holder``).
    """

    def __init__(self, root, clock=None, *, defer_parse: bool = False):
        self.root = Path(root)
        self._clock = clock or (lambda: datetime.now(timezone.utc))
        self._lock = threading.Lock()
        self._view = Snapshot(_Listing(self.root))
        if not defer_parse:
            view = self._view
            for state in map(view._corpora.get, view._ids()):
                for level_id in state.levels:
                    state.parse_summary(level_id)

    # -- storage ----------------------------------------------------------

    @contextlib.contextmanager
    def _commit(self):
        """Take the writers' lock and yield a draft of the next snapshot.
        When the block ends, each level whose entry is not the published
        one records its summary, every written corpus's manifest is
        written, and the draft is published: unless the block raised, or
        wrote nothing."""
        with self._lock:
            draft = self._view._draft()
            yield draft
            for corpus_id in sorted(draft._written):
                state = draft._corpora[corpus_id]
                published = self._view._find(corpus_id)
                for level_id, entry in state._entries.items():
                    if (published is None
                            or entry is not published._entries.get(level_id)):
                        state.levels[level_id] = dataclasses.replace(
                            state.levels[level_id],
                            summary=state.parse_summary(level_id))
                text = manifest_mod.dumps_corpus(
                    state.corpus, _by_id(state.levels),
                    _deposited(state.resources), draft.versions(corpus_id))
                directory = _corpus_dir(draft.root, corpus_id)
                directory.mkdir(parents=True, exist_ok=True)
                tmp = directory / "manifest.tmp"
                tmp.write_text(text, encoding="utf-8")
                tmp.replace(directory / "manifest")
            if draft._written:
                draft._written.clear()
                self._view = draft

    # -- registration ------------------------------------------------------

    def register_corpus(self, title: str, language: str = "",
                        meta: dict[str, str] | None = None,
                        corpus_id: str | None = None) -> Corpus:
        with self._commit() as draft:
            return self._add_corpus(draft, title, language, meta, corpus_id)

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
            if draft._taken(corpus_id):
                raise StoreError(f"corpus id {corpus_id!r} already exists")
        else:
            base = slugify(title)
            corpus_id, n = base, 1
            while draft._taken(corpus_id):
                n += 1
                corpus_id = f"{base}-{n}"
        corpus = Corpus(
            id=corpus_id, title=title, language=language,
            declared_meta=manifest_mod.storable_meta(
                meta, reserved=_OWN_FIELDS[Corpus]),
            created_at=_iso(self._clock()))
        draft._corpora[corpus_id] = CorpusState(corpus, draft.root)
        draft._written.add(corpus_id)
        return corpus

    def add_level(self, corpus_id: str, kind: str, coverage: str,
                  depends_on=(), meta: dict[str, str] | None = None) -> Level:
        with self._commit() as draft:
            level = self._add_level(draft, corpus_id, LevelSpec(
                kind=kind, coverage=coverage, depends_on=tuple(depends_on),
                meta=tuple(sorted((meta or {}).items()))))
        return draft.level(level.id)

    def _add_level(self, draft: Snapshot, corpus_id: str,
                   spec: LevelSpec) -> Level:
        state = draft._writable(corpus_id)
        manifest_mod.storable_text({"level kind": spec.kind})
        kind = (spec.kind or "").strip()
        if not kind or any(c.isspace() or c in ",|" for c in kind):
            raise StoreError(f"invalid level kind {spec.kind!r}: a kind "
                             "holds no whitespace, ',' or '|'")
        if spec.coverage not in COVERAGE_VALUES:
            raise StoreError(
                f"coverage must be one of {', '.join(COVERAGE_VALUES)}, "
                f"got {spec.coverage!r}")
        deps = [self._dependency(draft, state, entry)
                for entry in spec.depends_on]
        # Level ids are unique across corpora: "a" + "b-x" is "a-b" + "x",
        # so every corpus that may hold the id is checked.
        number = 1
        while draft._candidate("levels", f"{corpus_id}-{kind}-{number}"):
            number += 1
        level = Level(
            id=f"{corpus_id}-{kind}-{number}",
            corpus_id=corpus_id,
            kind=kind,
            coverage=spec.coverage,
            depends_on=tuple(deps),
            declared_meta=manifest_mod.storable_meta(spec.meta),
            created_at=_iso(self._clock()))
        state.levels[level.id] = level
        state._entries[level.id] = Parsed(filled=True)
        return level

    @staticmethod
    def _dependency(draft: Snapshot, state: CorpusState,
                    entry) -> tuple[str, str]:
        """``entry``, a level id or an (id, purpose) pair, as the (id,
        purpose) of a dependency on a level that ``state`` holds."""
        dep_id, purpose = (entry if isinstance(entry, tuple)
                           else (entry, "anchors-to"))
        manifest_mod.storable_text({"dependency purpose": purpose})
        if dep_id not in state.levels:
            raise UnknownDependencyError(
                f"dependency {dep_id!r} belongs to another corpus"
                if draft._holder("levels", dep_id)
                else f"dependency {dep_id!r} does not exist")
        return dep_id, purpose

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
        with self._commit() as draft:
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
            return out

    def add_dependency(self, level_id: str, dep_id: str,
                       purpose: str = "anchors-to") -> Level:
        """Wire an existing level onto another one of its corpus, refusing
        cycles."""
        with self._commit() as draft:
            state = draft._owner("levels", level_id)
            level = state.levels[level_id]
            wired = dataclasses.replace(level, depends_on=level.depends_on + (
                self._dependency(draft, state, (dep_id, purpose)),))
            if _cycle({**state.levels, level_id: wired}) is not None:
                raise DependencyCycleError(
                    f"adding {dep_id!r} under {level_id!r} closes a "
                    f"dependency cycle")
            state = draft._writable(state.corpus.id)
            state.drop([level_id])
            state.levels[level_id] = wired
        return draft.level(level_id)

    # -- deposit -----------------------------------------------------------

    def deposit(self, corpus_id: str, payload, format: str,
                levels=(), new_levels=(), depositor: str = "",
                validated: bool = False, validator: str | None = None,
                meta: dict[str, str] | None = None) -> DepositResult:
        with self._commit() as draft:
            state = draft._writable(corpus_id)
            if format not in FORMATS:
                raise StoreError(f"unknown deposit format {format!r}")
            text = _utf8(payload) if isinstance(payload, bytes) else payload
            manifest_mod.storable_text({"payload": text, "depositor": depositor,
                                        "validator": validator})
            meta = manifest_mod.storable_meta(
                meta, reserved=_OWN_FIELDS[Resource])

            targets: list[Level] = []
            for level_id in levels:
                level = state.levels.get(level_id)
                if level is None:
                    draft.level(level_id)  # raises for an unknown level
                    raise UnknownEntityError(
                        f"level {level_id!r} belongs to another corpus")
                if level in targets:
                    raise StoreError(f"level {level_id!r} is named twice")
                targets.append(level)
            for spec in new_levels:
                targets.append(self._add_level(draft, corpus_id, spec))
            if not targets:
                raise NoLevelError(
                    "a deposit must target at least one description level")

            # Parse for every target, and read its earlier payloads, before
            # storing any result, so each aligns on the last commit's
            # anchors.  Only the draft changes below: a payload that fails
            # to parse or merge publishes nothing.
            parsed = [(level, state.parsed(level.id),
                       self._parse_for(state, format, text, level))
                      for level in targets]

            # One past the highest number held, so a gap in the numbering
            # reuses no recorded id and deposit order stays id order.
            prefix = f"{corpus_id}-r"
            number = 1 + max(
                (int(rid[len(prefix):]) for rid in state.resources
                 if rid.startswith(prefix) and rid[len(prefix):].isdecimal()),
                default=0)
            resource_id = f"{prefix}{number:03d}"
            now = _iso(self._clock())
            resource = state.resources[resource_id] = Resource(
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
                declared_meta=meta)
            fresh_by_kind: dict[str, list[Items]] = {}
            for level, earlier, value in parsed:
                entry = state._entries[level.id] = earlier.copy()
                fresh_by_kind.setdefault(level.kind, []).append(
                    self._add_parsed(entry, level.id, resource, value))

            records = self._record_versions(
                state, resource, targets, fresh_by_kind, now)
            draft._writable(corpus_id,
                            versions=state.versions + tuple(records),
                            corpus=self._fingerprinted(state, targets))

            path = state.payload_path(resource)
            path.parent.mkdir(parents=True, exist_ok=True)
            path.write_text(text, encoding="utf-8")
            return DepositResult(
                resource=resource,
                levels=tuple(l.id for l in targets),
                records=tuple(records))

    @staticmethod
    def _parse_for(state: CorpusState, format: str, text: str, level: Level,
                   before: Resource | None = None) -> list:
        """What ``text`` parses into for ``level``, aligned on the units
        deposited before ``before`` if its codec aligns."""
        codec = FORMATS[format]
        if codec.yields_units and level.kind != KIND_SEGMENTATION:
            raise StoreError(
                f"{format} payloads materialize segmentation levels, "
                f"not {level.kind!r}")
        anchor = (state.anchor(level.id, before)
                  if codec.needs_units != "no" else None)
        if anchor is not None:
            entry = state.parsed(anchor)
            units, held = entry.units, entry.held(before)
            if held < len(units):
                units = Segmentation(units.ids[:held], units.forms[:held])
            value = codec.parse(text, units)
        elif codec.needs_units == "required":
            raise NoPrimaryAnchorError(
                f"format {format!r} aligns against reference units, but "
                f"the dependency chain of level {level.id!r} reaches no "
                "segmentation holding reference units")
        else:
            value = codec.parse(text)
        project = codec.project.get(level.kind)
        return value if project is None else project(value)

    @staticmethod
    def _add_parsed(entry: Parsed, level_id: str, resource: Resource,
                    value: Items | Segmentation) -> Items:
        """Add what ``resource``'s payload parsed into after what one
        level's entry holds, in place, at the cost of what it adds;
        return the new items.  A payload that fails adds nothing."""
        if not FORMATS[resource.format].yields_units:
            entry.items.extend(value)
            return value
        units = entry.units
        if not units:
            entry.units = value  # the codec refused a repeated id
        elif not units.positions.keys().isdisjoint(value.ids):
            repeated = next(i for i in value.ids if i in units.positions)
            raise StoreError(f"unit id {repeated!r} already materialized on "
                             f"level {level_id!r}")
        else:
            units.extend(value)
        entry.ends += ((resource, len(entry.units)),)
        return Items()

    def _record_versions(self, state: CorpusState, resource: Resource,
                         targets: list[Level],
                         fresh_by_kind: dict[str, list[Items]],
                         now: str) -> list[VersionRecord]:
        corpus = state.corpus
        records = []
        for kind in dict.fromkeys(level.kind for level in targets):
            chain = sorted((v for v in state.versions if v.level_kind == kind),
                           key=lambda v: v.number)
            prior = chain[-1] if chain else None
            number = prior.number + 1 if prior else 1
            kind_levels = [l for l in targets if l.kind == kind]
            granularity = frozenset().union(
                *(state.parse_summary(level.id).granularity
                  for level in kind_levels))
            classification = classify_submission(
                granularity, prior.granularity if prior else None,
                validated=resource.validated)
            groups = collections.Counter()
            for items in fresh_by_kind.get(kind, []):
                groups.update(items.flat().column("group"))
            del groups[None]
            coverage = ""
            try:
                coverage = coverage_fingerprint(
                    state.coverage(kind_levels[0].id))
            except (DanglingPointerError, NoPrimaryAnchorError):
                pass
            record = VersionRecord(
                id=f"{corpus.id}-{kind}-v{number}",
                corpus_id=corpus.id,
                level_kind=kind,
                level_id=kind_levels[0].id,
                resource_id=resource.id,
                number=number,
                classification=classification,
                granularity=granularity,
                validated=resource.validated,
                validator=resource.validator,
                coverage=coverage,
                variant_groups=tuple(sorted(groups.items())),
                supersedes=(prior.id if prior and classification.is_correction
                            else None),
                created_at=now)
            records.append(record)
        return records

    def _fingerprinted(self, state: CorpusState,
                       targets: list[Level]) -> Corpus:
        """The corpus; if it has no coverage fingerprint yet, with that of
        the first full-coverage target that reconstructs any text."""
        if state.corpus.coverage_fingerprint is not None:
            return state.corpus
        for level in targets:
            if level.coverage != COVERAGE_FULL:
                continue
            try:
                tokens = state.coverage(level.id)
            except (DanglingPointerError, NoPrimaryAnchorError):
                continue
            if tokens:
                return dataclasses.replace(
                    state.corpus,
                    coverage_fingerprint=coverage_fingerprint(tokens))
        return state.corpus

    def withdraw(self, resource_id: str) -> Resource:
        """Delete a resource's payload, keeping its descriptive record,
        so the catalog keeps listing the resource with ``available:
        false``."""
        with self._commit() as draft:
            state = draft._owner("resources", resource_id)
            resource = state.resources[resource_id]
            if not resource.available:
                return resource
            state = draft._writable(state.corpus.id)
            state.drop(resource.levels)
            resource = state.resources[resource_id] = dataclasses.replace(
                resource, available=False)
        # After the commit, so readers of earlier snapshots still find it.
        state.payload_path(resource).unlink(missing_ok=True)
        return resource

    @staticmethod
    def _materialize(state: CorpusState, resource: Resource, payload: bytes,
                     level_id: str, entry: Parsed) -> None:
        """Add a stored payload to ``entry``, of one of its levels."""
        try:
            value = Archive._parse_for(state, resource.format, _utf8(payload),
                                       state.levels[level_id], resource)
            Archive._add_parsed(entry, level_id, resource, value)
        except CorpusForgeError as err:
            # It parsed and merged at deposit, so its anchor or a stored
            # file changed.
            entry.unparsed = Violation(err.code, level_id, err.message)


def _read(method):
    @functools.wraps(method)
    def read(self, *args, **kwargs):
        return method(self._view, *args, **kwargs)
    return read


for _name, _method in list(vars(Snapshot).items()):
    if callable(_method) and not _name.startswith("_"):
        setattr(Archive, _name, _read(_method))
