"""Data-category registry and granularity extraction."""

import pathlib

import pytest

from corpus_forge.errors import RegistryError
from corpus_forge.formats import (
    AnnotationItem,
    Link,
    parse_inline_coref,
    parse_inline_morpho,
    parse_referential_standoff,
    parse_segmentation,
    parse_standoff_morpho,
    parse_structural_inline,
    parse_syntax_constituency,
    parse_tabular_morpho,
)
from corpus_forge.registry import (
    SEGMENTATION_GRANULARITY,
    DataCategory,
    Registry,
    granularity_of,
)

FIXTURES = pathlib.Path(__file__).parent / "fixtures"


def fixture(name: str) -> str:
    return (FIXTURES / name).read_text(encoding="utf-8")


class TestRegistryLoading:
    def test_default_registry_loads(self):
        reg = Registry.default()
        assert len(reg) >= 15
        assert "part-of-speech" in reg
        assert reg.lookup("lemma") == "lemma"

    def test_aliases_resolve(self):
        reg = Registry.default()
        assert reg.lookup("msd") == "part-of-speech"
        assert reg.lookup("tag_coarse") == "part-of-speech"
        assert reg.lookup("tag_fine") == "fine-pos"
        assert reg.lookup("word") == "reference-unit"
        assert reg.lookup("coref") == "referential-markable"
        assert reg.lookup("referentialMarkable") == "referential-markable"
        assert reg.lookup("ident") == "coreference-identity"
        assert reg.lookup("p") == "text-structure"
        assert reg.lookup("rs") == "named-entity"

    def test_compound_aliases_resolve(self):
        reg = Registry.default()
        assert reg.lookup("msd:s") == "inflection"
        assert reg.lookup("msd:3p") == "inflection"
        assert reg.lookup("msd:_") is None

    def test_unknown_term_is_none(self):
        assert Registry.default().lookup("frobnicate") is None

    def test_ancestors_follow_broader_chain(self):
        reg = Registry.from_text(
            "a\tA\t-\t-\nb\tB\ta\t-\nc\tC\tb\t-\n")
        assert reg.ancestors("c") == {"a", "b"}
        assert reg.ancestors("a") == frozenset()

    def test_closure_adds_ancestors(self):
        reg = Registry.default()
        assert reg.closure(frozenset({"fine-pos"})) == {
            "fine-pos", "part-of-speech"}

    def test_closure_keeps_provisional_categories(self):
        reg = Registry.default()
        assert reg.closure(frozenset({"x-custom"})) == {"x-custom"}

    def test_duplicate_id_rejected(self):
        with pytest.raises(RegistryError):
            Registry.from_text("a\tA\t-\t-\na\tA2\t-\t-\n")

    def test_unknown_broader_rejected(self):
        with pytest.raises(RegistryError):
            Registry.from_text("a\tA\tmissing\t-\n")

    def test_broader_cycle_rejected(self):
        with pytest.raises(RegistryError) as err:
            Registry.from_text("a\tA\tb\t-\nb\tB\ta\t-\n")
        assert "cycle" in str(err.value)

    def test_alias_collision_rejected(self):
        with pytest.raises(RegistryError):
            Registry.from_text("a\tA\t-\tx\nb\tB\t-\tx\n")

    def test_alias_shadowing_id_rejected(self):
        with pytest.raises(RegistryError):
            Registry.from_text("a\tA\t-\t-\nb\tB\t-\ta\n")

    def test_bad_column_count_rejected(self):
        with pytest.raises(RegistryError) as err:
            Registry.from_text("a\tA\t-\n")
        assert "line 1" in str(err.value)

    def test_comments_and_blanks_skipped(self):
        reg = Registry.from_text("# comment\n\na\tA\t-\t-\n")
        assert len(reg) == 1

    def test_category_accessor(self):
        reg = Registry.default()
        cat = reg.category("fine-pos")
        assert isinstance(cat, DataCategory)
        assert cat.broader == "part-of-speech"
        with pytest.raises(RegistryError):
            reg.category("nope")


class TestGranularityExtraction:
    def test_tabular_footprint(self):
        items = parse_tabular_morpho(fixture("fig04_tabular_morpho.tsv"))
        got = granularity_of(items)
        assert got.categories == {"token-index", "word-form", "lemma",
                                  "part-of-speech", "fine-pos"}
        assert got.provisional == ()

    def test_standoff_morpho_footprint(self):
        items = parse_standoff_morpho(fixture("fig05_standoff_morpho.xml"))
        got = granularity_of(items)
        assert got.categories == {"part-of-speech", "inflection", "lemma"}
        assert got.provisional == ()

    def test_inline_morpho_footprint(self):
        items = parse_inline_morpho(fixture("fig11_inline_morpho.xml"))
        got = granularity_of(items)
        assert got.categories == {"lemma"}

    def test_inline_coref_footprint(self):
        units = parse_segmentation(fixture("goriot_segmentation_full.xml"))
        items = parse_inline_coref(fixture("fig08_inline_coref.xml"), units)
        got = granularity_of(items)
        assert got.categories == {"referential-markable",
                                  "coreference-identity"}

    def test_referential_standoff_footprint(self):
        items = parse_referential_standoff(fixture("fig10_referential.xml"))
        got = granularity_of(items)
        assert got.categories == {"referential-markable", "referential-link"}

    def test_structural_footprint(self):
        items = parse_structural_inline(fixture("fig02_structure.xml"))
        got = granularity_of(items)
        assert got.categories == {"text-structure", "named-entity",
                                  "entity-type", "entity-key"}

    def test_syntax_footprint(self):
        items = parse_syntax_constituency(fixture("fig06_syntax.vis"))
        got = granularity_of(items)
        assert got.categories == {"syntactic-function",
                                  "constituent-category", "syntactic-flags"}

    def test_segmentation_constant(self):
        assert SEGMENTATION_GRANULARITY == {"reference-unit"}

    def test_unknown_keys_become_provisional(self):
        items = [AnnotationItem(categories={"speaker": "A", "lemma": "x"})]
        got = granularity_of(items)
        assert got.categories == {"x-speaker", "lemma"}
        assert got.provisional == ("speaker",)

    def test_unknown_link_types_become_provisional(self):
        items = [AnnotationItem(links=(Link("bridging", ("m_1",)),))]
        got = granularity_of(items)
        assert got.categories == {"x-bridging"}
        assert got.provisional == ("bridging",)

    def test_unknown_elements_stay_silent(self):
        items = [AnnotationItem(element="w", categories={"lemma": "x"})]
        assert granularity_of(items).categories == {"lemma"}

    def test_empty_values_do_not_contribute(self):
        items = [AnnotationItem(categories={"msd": "", "lemma": "x"})]
        assert granularity_of(items).categories == {"lemma"}

    def test_nested_items_contribute(self):
        tree = [AnnotationItem(
            categories={"function": "S"},
            children=(AnnotationItem(categories={"lemma": "x"}),))]
        assert granularity_of(tree).categories == {
            "syntactic-function", "lemma"}

    def test_footprint_of_nothing_is_empty(self):
        assert granularity_of([]).categories == frozenset()
