"""Data-category registry and granularity extraction."""

import pathlib

import pytest
from hypothesis import given, strategies as st

from corpus_forge.errors import RegistryError
from corpus_forge.formats import (
    AnnotationItem,
    Items,
    Link,
    iter_items,
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
from strategies import REGISTRY_IDS, attr_names

FIXTURES = pathlib.Path(__file__).parent / "fixtures"


def fixture(name: str) -> str:
    return (FIXTURES / name).read_text(encoding="utf-8")


class TestRegistryLoading:
    def test_default_registry_loads(self):
        reg = Registry.default()
        assert len(REGISTRY_IDS) >= 15
        assert [reg.category(c).id for c in REGISTRY_IDS] == REGISTRY_IDS
        assert reg.lookup("part-of-speech") == "part-of-speech"
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

    @pytest.mark.parametrize("line", ["\tA\t-\t-", " \tA\t-\t-",
                                      "a\t\t-\t-"],
                             ids=["empty-id", "blank-id", "empty-name"])
    def test_empty_id_or_name_rejected(self, line):
        with pytest.raises(RegistryError) as err:
            Registry.from_text(f"a0\tA0\t-\t-\n{line}\n")
        assert err.value.message == "line 2: empty id or name"

    def test_comments_and_blanks_skipped(self):
        reg = Registry.from_text("# comment\n\na\tA\t-\t-\n")
        assert reg.category("a").name == "A"
        assert reg.lookup("# comment") is None

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
        assert got == {"token-index", "word-form", "lemma",
                       "part-of-speech", "fine-pos"}
        assert {c for c in got if c.startswith("x-")} == set()

    def test_standoff_morpho_footprint(self):
        items = parse_standoff_morpho(fixture("fig05_standoff_morpho.xml"))
        got = granularity_of(items)
        assert got == {"part-of-speech", "inflection", "lemma"}
        assert {c for c in got if c.startswith("x-")} == set()

    def test_inline_morpho_footprint(self):
        items = parse_inline_morpho(fixture("fig11_inline_morpho.xml"))
        got = granularity_of(items)
        assert got == {"lemma"}

    def test_inline_coref_footprint(self):
        units = parse_segmentation(fixture("goriot_segmentation_full.xml"))
        items = parse_inline_coref(fixture("fig08_inline_coref.xml"), units)
        got = granularity_of(items)
        assert got == {"referential-markable",
                       "coreference-identity"}

    def test_referential_standoff_footprint(self):
        items = parse_referential_standoff(fixture("fig10_referential.xml"))
        got = granularity_of(items)
        assert got == {"referential-markable", "referential-link"}

    def test_structural_footprint(self):
        items = parse_structural_inline(fixture("fig02_structure.xml"))
        got = granularity_of(items)
        assert got == {"text-structure", "named-entity",
                       "entity-type", "entity-key"}

    def test_syntax_footprint(self):
        items = parse_syntax_constituency(fixture("fig06_syntax.vis"))
        got = granularity_of(items)
        assert got == {"syntactic-function",
                       "constituent-category", "syntactic-flags"}

    def test_segmentation_constant(self):
        assert SEGMENTATION_GRANULARITY == {"reference-unit"}

    def test_unknown_keys_become_provisional(self):
        items = Items.of([
            AnnotationItem(categories={"speaker": "A", "lemma": "x"})])
        got = granularity_of(items)
        assert got == {"x-speaker", "lemma"}
        assert {c for c in got if c.startswith("x-")} \
            == {"x-speaker"}

    def test_unknown_link_types_become_provisional(self):
        items = Items.of([AnnotationItem(links=(Link("bridging", ("m_1",)),))])
        got = granularity_of(items)
        assert got == {"x-bridging"}
        assert {c for c in got if c.startswith("x-")} \
            == {"x-bridging"}

    def test_unknown_elements_stay_silent(self):
        items = Items.of([AnnotationItem(element="w",
                                         categories={"lemma": "x"})])
        assert granularity_of(items) == {"lemma"}

    def test_empty_values_do_not_contribute(self):
        items = Items.of([AnnotationItem(categories={"msd": "",
                                                     "lemma": "x"})])
        assert granularity_of(items) == {"lemma"}

    def test_nested_items_contribute(self):
        tree = Items.of([AnnotationItem(
            categories={"function": "S"},
            children=(AnnotationItem(categories={"lemma": "x"}),))])
        assert granularity_of(tree) == {
            "syntactic-function", "lemma"}

    def test_footprint_of_nothing_is_empty(self):
        assert granularity_of(Items()) == frozenset()


def granularity_item_by_item(items):
    """``granularity_of`` as it resolved each term of each item in turn:
    the reference for the one that resolves each distinct term once."""
    registry = Registry.default()
    categories = set()
    for item in iter_items(items):
        if item.element is not None:
            resolved = registry.lookup(item.element)
            if resolved is not None:
                categories.add(resolved)
        for key, value in item.categories.items():
            if not value:
                continue
            categories.add(registry.lookup(key) or f"x-{key}")
            for sub in value.split(":")[1:]:
                compound = registry.lookup(f"{key}:{sub}")
                if compound is not None:
                    categories.add(compound)
        for link in item.links:
            categories.add(registry.lookup(link.type) or f"x-{link.type}")
    return frozenset(categories)


# Registered terms and unknown ones, with values that hold compound
# sub-values (``msd`` with ``s`` reads ``msd:s``).
TERMS = st.sampled_from(["msd", "lemma", "u", "turn", "w", "coref", "ident",
                         "type", "function"]) | attr_names
VALUES = st.sampled_from(["", "x", "N:s", "V:3s:pst", "A::p", ":"])
ITEMS = st.recursive(
    st.builds(AnnotationItem, element=st.none() | TERMS,
              categories=st.dictionaries(TERMS, VALUES, max_size=3),
              links=st.lists(st.builds(Link, type=TERMS,
                                       targets=st.just(("m_1",))),
                             max_size=2).map(tuple)),
    lambda children: st.builds(
        AnnotationItem, element=st.none() | TERMS,
        children=st.lists(children, max_size=3).map(tuple)),
    max_leaves=8)


@given(st.lists(ITEMS, max_size=4))
def test_granularity_resolves_as_item_by_item(items):
    assert granularity_of(Items.of(items)) == granularity_item_by_item(items)

