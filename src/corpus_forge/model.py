"""Core entities: corpus, description level, resource.

A corpus is a linguistic coverage under study.  Description levels are
its conceptual decomposition (segmentation, structure, analyses); they
may depend on each other for coverage reconstruction.  Resources are the
operational decomposition: the deposited files.  The two decompositions
are deliberately non-isomorphic — one resource can materialize several
levels, one level can be spread over several resources.

All three are immutable: derive a changed one with ``dataclasses.replace``.
"""

from __future__ import annotations

import re
import unicodedata
from dataclasses import dataclass, field
from typing import Mapping

# Declared coverage contribution of a level.  A level contributing no
# coverage of its own must reconstruct it through its dependencies.
COVERAGE_FULL = "full"
COVERAGE_PARTIAL = "partial"
COVERAGE_NONE = "none"
COVERAGE_VALUES = (COVERAGE_FULL, COVERAGE_PARTIAL, COVERAGE_NONE)

PRIMARY = "Primary"
SECONDARY = "Secondary"

# Well-known level kinds.  The set is open: any non-empty token works.
KIND_SEGMENTATION = "segmentation"
KIND_STRUCTURE = "structure"
KIND_MORPHOSYNTAX = "morphosyntax"
KIND_SYNTAX = "syntax"


def slugify(title: str) -> str:
    """Derive a stable ascii identifier from a title."""
    decomposed = unicodedata.normalize("NFKD", title)
    ascii_text = decomposed.encode("ascii", "ignore").decode("ascii")
    slug = re.sub(r"[^a-z0-9]+", "-", ascii_text.casefold()).strip("-")
    return slug or "corpus"


@dataclass(frozen=True)
class Corpus:
    id: str
    title: str
    language: str = ""
    coverage_fingerprint: str | None = None
    declared_meta: Mapping[str, str] = field(default_factory=dict)
    created_at: str = ""


@dataclass(frozen=True)
class Level:
    id: str
    corpus_id: str
    kind: str
    coverage: str = COVERAGE_NONE
    depends_on: tuple[tuple[str, str], ...] = ()  # (level id, purpose)
    declared_meta: Mapping[str, str] = field(default_factory=dict)
    created_at: str = ""

    def classify(self) -> str:
        """Primary levels contribute coverage; secondary levels only
        point at it."""
        return SECONDARY if self.coverage == COVERAGE_NONE else PRIMARY


@dataclass(frozen=True)
class Resource:
    id: str
    corpus_id: str
    format: str
    filename: str
    levels: tuple[str, ...] = ()
    depositor: str = ""
    deposited_at: str = ""
    validated: bool = False
    validator: str | None = None
    sha256: str = ""
    size: int = 0
    available: bool = True
    declared_meta: Mapping[str, str] = field(default_factory=dict)


@dataclass(frozen=True)
class Violation:
    """One integrity finding from archive validation."""

    code: str
    subject: str
    message: str

    def __str__(self) -> str:
        return f"{self.code} [{self.subject}]: {self.message}"
