"""Version classification calculus.

Successive deposits touching the same corpus and description-level kind
form a version chain.  Each new submission is classified against the
latest member of its chain by comparing granularities (data-category
sets) and by whether the submission carries an explicit validation:

    not validated   equal -> parallel, finer -> parallel enriched,
                    coarser or different -> supplementary
    validated       equal or finer -> exhaustive correction,
                    coarser or different -> transverse correction

The first submission of a chain is always the initial version.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

from .registry import Registry


class Comparison(str, Enum):
    EQUAL = "equal"
    FINER = "finer"
    COARSER = "coarser"
    DIFFERENT = "different"


class Classification(str, Enum):
    INITIAL = "initial"
    PARALLEL = "parallel-version"
    PARALLEL_ENRICHED = "parallel-enriched-version"
    SUPPLEMENTARY = "supplementary-version"
    EXHAUSTIVE_CORRECTION = "exhaustive-correction"
    TRANSVERSE_CORRECTION = "transverse-correction"

    @property
    def is_correction(self) -> bool:
        return self in (Classification.EXHAUSTIVE_CORRECTION,
                        Classification.TRANSVERSE_CORRECTION)

    @property
    def label(self) -> str:
        """Reporting name (stored values stay lowercase slugs)."""
        return _LABELS[self]


_LABELS = {
    Classification.INITIAL: "Initial",
    Classification.PARALLEL: "ParallelVersion",
    Classification.PARALLEL_ENRICHED: "ParallelEnriched",
    Classification.SUPPLEMENTARY: "Supplementary",
    Classification.EXHAUSTIVE_CORRECTION: "ExhaustiveCorrection",
    Classification.TRANSVERSE_CORRECTION: "TransverseCorrection",
}


def compare_granularity(new: frozenset[str],
                        old: frozenset[str]) -> Comparison:
    """Order two granularities.

    Strict set inclusion decides directly; otherwise the comparison
    retries on upward closures, so that a category refining another
    (``fine-pos`` under ``part-of-speech``) counts as finer rather than
    merely different.  Distinct sets with identical closures stay
    different: they describe the same territory with different
    categories.
    """
    registry = Registry.default()
    if new == old:
        return Comparison.EQUAL
    if new > old:
        return Comparison.FINER
    if new < old:
        return Comparison.COARSER
    closed_new, closed_old = registry.closure(new), registry.closure(old)
    if closed_new > closed_old:
        return Comparison.FINER
    if closed_new < closed_old:
        return Comparison.COARSER
    return Comparison.DIFFERENT


def classify_submission(
    new: frozenset[str],
    prior: frozenset[str] | None,
    *,
    validated: bool = False,
) -> Classification:
    """Classify a submission against the latest prior version of its chain.

    ``prior`` is the granularity of that version, or None when the chain
    is empty.  Total: every (new, prior, validated) combination yields
    exactly one classification.
    """
    if prior is None:
        return Classification.INITIAL
    comparison = compare_granularity(new, prior)
    if validated:
        if comparison in (Comparison.EQUAL, Comparison.FINER):
            return Classification.EXHAUSTIVE_CORRECTION
        return Classification.TRANSVERSE_CORRECTION
    if comparison is Comparison.EQUAL:
        return Classification.PARALLEL
    if comparison is Comparison.FINER:
        return Classification.PARALLEL_ENRICHED
    return Classification.SUPPLEMENTARY


@dataclass(frozen=True)
class VersionRecord:
    """One classified submission in a corpus/kind version chain."""

    id: str
    corpus_id: str
    level_kind: str
    level_id: str
    resource_id: str
    number: int
    classification: Classification
    granularity: frozenset[str]
    validated: bool = False
    validator: str | None = None
    coverage: str = ""
    variant_groups: tuple[tuple[str, int], ...] = ()
    supersedes: str | None = None
    created_at: str = ""
