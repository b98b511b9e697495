"""Version classification calculus: comparison and submission classes."""

import pytest
from hypothesis import given, strategies as st

from corpus_forge.registry import Registry
from corpus_forge.versioning import (
    Classification,
    Comparison,
    classify_submission,
    compare_granularity,
)

REG = Registry.default()

BASE = frozenset({"part-of-speech", "lemma"})
FINER = BASE | {"adverb-subclass"}
COARSER = frozenset({"lemma"})
DIFFERENT = frozenset({"referential-markable"})


class TestCompareGranularity:
    def test_equal(self):
        assert compare_granularity(BASE, frozenset(BASE)) is Comparison.EQUAL

    def test_strict_superset_is_finer(self):
        assert compare_granularity(FINER, BASE) is Comparison.FINER

    def test_strict_subset_is_coarser(self):
        assert compare_granularity(COARSER, BASE) is Comparison.COARSER

    def test_disjoint_is_different(self):
        assert compare_granularity(DIFFERENT, BASE) is Comparison.DIFFERENT

    def test_overlapping_incomparable_is_different(self):
        a = frozenset({"lemma", "inflection"})
        b = frozenset({"lemma", "token-index"})
        assert compare_granularity(a, b) is Comparison.DIFFERENT

    def test_narrower_category_counts_as_finer_through_closure(self):
        a = frozenset({"fine-pos", "lemma"})
        b = frozenset({"part-of-speech", "lemma"})
        assert compare_granularity(a, b) is Comparison.FINER
        assert compare_granularity(b, a) is Comparison.COARSER

    def test_empty_set_is_coarser_than_anything(self):
        assert compare_granularity(frozenset(), BASE) is Comparison.COARSER
        assert compare_granularity(BASE, frozenset()) is Comparison.FINER
        assert compare_granularity(frozenset(), frozenset()) is Comparison.EQUAL

    def test_provisional_categories_compare_by_name(self):
        a = frozenset({"x-speaker"})
        assert compare_granularity(a, frozenset({"x-speaker"})) is Comparison.EQUAL
        assert compare_granularity(a, frozenset({"x-other"})) is Comparison.DIFFERENT

    cats = st.frozensets(st.sampled_from(sorted(REG.ids())), max_size=6)

    @given(cats)
    def test_reflexive(self, a):
        assert compare_granularity(a, a) is Comparison.EQUAL

    @given(cats, cats)
    def test_antisymmetric(self, a, b):
        ab = compare_granularity(a, b)
        ba = compare_granularity(b, a)
        flip = {Comparison.EQUAL: Comparison.EQUAL,
                Comparison.FINER: Comparison.COARSER,
                Comparison.COARSER: Comparison.FINER,
                Comparison.DIFFERENT: Comparison.DIFFERENT}
        assert ba is flip[ab]

    @given(cats, cats)
    def test_equal_only_for_identical_sets(self, a, b):
        if compare_granularity(a, b) is Comparison.EQUAL:
            assert a == b


class TestClassifySubmission:
    def test_first_submission_is_initial(self):
        assert classify_submission(BASE, None) is Classification.INITIAL
        assert classify_submission(BASE, None, validated=True) is \
            Classification.INITIAL

    # the full decision table: comparison x validation
    TABLE = [
        (BASE, BASE, False, Classification.PARALLEL),
        (FINER, BASE, False, Classification.PARALLEL_ENRICHED),
        (COARSER, BASE, False, Classification.SUPPLEMENTARY),
        (DIFFERENT, BASE, False, Classification.SUPPLEMENTARY),
        (BASE, BASE, True, Classification.EXHAUSTIVE_CORRECTION),
        (FINER, BASE, True, Classification.EXHAUSTIVE_CORRECTION),
        (COARSER, BASE, True, Classification.TRANSVERSE_CORRECTION),
        (DIFFERENT, BASE, True, Classification.TRANSVERSE_CORRECTION),
    ]

    @pytest.mark.parametrize("new,prior,validated,expected", TABLE)
    def test_decision_table(self, new, prior, validated, expected):
        assert classify_submission(new, prior, validated=validated) is expected

    def test_corrections_flagged_as_corrections(self):
        assert Classification.EXHAUSTIVE_CORRECTION.is_correction
        assert Classification.TRANSVERSE_CORRECTION.is_correction
        assert not Classification.PARALLEL.is_correction
        assert not Classification.INITIAL.is_correction

    @given(st.frozensets(st.sampled_from(sorted(REG.ids())), max_size=5),
           st.frozensets(st.sampled_from(sorted(REG.ids())), max_size=5),
           st.booleans())
    def test_total_function(self, new, prior, validated):
        got = classify_submission(new, prior, validated=validated)
        assert isinstance(got, Classification)
        assert got is not Classification.INITIAL

    def test_faulty_then_corrected_lemma_scenario(self):
        """An equal-granularity validated resubmission (the fixed lemma
        file) classifies as an exhaustive correction."""
        faulty = frozenset({"lemma"})
        fixed = frozenset({"lemma"})
        assert classify_submission(fixed, faulty, validated=True) is \
            Classification.EXHAUSTIVE_CORRECTION
