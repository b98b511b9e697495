"""Interchange codec behaviour, pinned against the fixture corpus."""

import pathlib

import pytest
from hypothesis import example, given, strategies as st

from corpus_forge.errors import (
    MissingSpanError,
    NestingError,
    ParseError,
    UnknownTargetError,
)
from corpus_forge.formats import (
    FORMATS,
    AnnotationItem,
    Link,
    iter_items,
    parse_inline_coref,
    parse_inline_morpho,
    parse_referential_standoff,
    parse_segmentation,
    parse_standoff_items,
    parse_standoff_morpho,
    parse_structural_inline,
    parse_syntax_constituency,
    parse_tabular_morpho,
    resolve_link_targets,
    serialize_inline_morpho,
    serialize_referential_standoff,
    serialize_segmentation,
    serialize_standoff_items,
    serialize_standoff_morpho,
    serialize_tabular_morpho,
    syntax_terminals,
)
from corpus_forge.standoff import ReferenceUnit, SpanExpr, segment_text

FIXTURES = pathlib.Path(__file__).parent / "fixtures"


def fixture(name: str) -> str:
    return (FIXTURES / name).read_text(encoding="utf-8")


# Text with characters that escape to entities and with entity names:
# "&lt;" serializes as "&amp;lt;", which must not read back as "<".
ESCAPABLE = st.lists(st.sampled_from([*"abcéœà'.-&;<>\"", "lt;", "amp;",
                                      "quot;"]), max_size=6).map("".join)


@pytest.fixture(scope="module")
def full_units():
    return parse_segmentation(fixture("goriot_segmentation_full.xml"))


class TestSegmentationCodec:
    def test_parse_fixture_values(self):
        units = parse_segmentation(fixture("fig03_segmentation.xml"))
        assert [(u.id, u.form) for u in units] == [
            ("word_27", "Madame"), ("word_28", "Vauquer"), ("word_29", ","),
            ("word_30", "née"), ("word_31", "De")]
        assert [u.index for u in units] == [0, 1, 2, 3, 4]

    def test_round_trip_is_bit_exact(self):
        text = fixture("fig03_segmentation.xml")
        assert serialize_segmentation(parse_segmentation(text)) == text

    def test_full_excerpt_fixture(self):
        units = parse_segmentation(fixture("goriot_segmentation_full.xml"))
        assert len(units) == 76
        assert units[0].id == "word_27"
        assert units[-1].id == "word_102"
        assert units[-1].form == "."

    def test_entities_escape_both_ways(self):
        unit = ReferenceUnit(id="word_1", form='a<b>&"c', index=0)
        text = serialize_segmentation([unit])
        assert "&lt;" in text and "&amp;" in text
        assert parse_segmentation(text) == [unit]

    @given(st.lists(
        ESCAPABLE.filter(lambda s: s and s == s.strip()),
        min_size=1, max_size=10))
    @example(["&lt;", "&amp;quot;x"])
    def test_parse_inverts_serialize(self, forms):
        units = [ReferenceUnit(id=f"word_{i + 1}", form=f, index=i)
                 for i, f in enumerate(forms)]
        assert parse_segmentation(serialize_segmentation(units)) == units

    def test_stray_text_rejected(self):
        with pytest.raises(ParseError):
            parse_segmentation('loose <word id="word_1">a</word>')

    def test_nested_word_rejected(self):
        with pytest.raises(ParseError):
            parse_segmentation(
                '<word id="word_1">a<word id="word_2">b</word></word>')

    def test_missing_id_rejected(self):
        with pytest.raises(ParseError):
            parse_segmentation("<word>a</word>")

    def test_duplicate_id_rejected(self):
        with pytest.raises(ParseError):
            parse_segmentation(
                '<word id="word_1">a</word><word id="word_1">b</word>')

    def test_foreign_element_rejected(self):
        with pytest.raises(ParseError):
            parse_segmentation('<token id="word_1">a</token>')

    def test_error_line_counts_newlines_inside_earlier_tags(self):
        doc = ('<word id="word_1" note="a\nb">x</word>\n'
               '<word id="word_2">y</word>\n<token id="word_3">z</token>')
        with pytest.raises(ParseError) as err:
            parse_segmentation(doc)
        assert err.value.line == 4

    def test_unclosed_word_rejected(self):
        with pytest.raises(ParseError):
            parse_segmentation('<word id="word_1">a')

    def test_empty_selfclosing_word_rejected(self):
        with pytest.raises(ParseError):
            parse_segmentation('<word id="word_1"/>')


class TestTabularMorphoCodec:
    def test_parse_fixture_values(self):
        items = parse_tabular_morpho(fixture("fig04_tabular_morpho.tsv"))
        assert len(items) == 9
        assert items[0].categories == {
            "index": "1", "form": "Madame", "lemma": "madame",
            "tag_coarse": "NCFIN", "tag_fine": "Ncf."}
        assert items[3].categories["lemma"] == "naître"
        assert items[7].categories == {
            "index": "8", "form": "est", "lemma": "être",
            "tag_coarse": "VINDP3S", "tag_fine": "Vmip3s"}
        assert all(i.surface == i.categories["form"] for i in items)

    def test_blank_lines_skipped(self):
        items = parse_tabular_morpho("\n1\ta\tb\tc\td\n\n")
        assert len(items) == 1

    def test_wrong_column_count_names_line(self):
        with pytest.raises(ParseError) as err:
            parse_tabular_morpho("1\ta\tb\tc\td\n2\tx\ty\n")
        assert "line 2" in str(err.value)
        assert "5" in str(err.value)

    def test_non_numeric_index_rejected(self):
        with pytest.raises(ParseError):
            parse_tabular_morpho("one\ta\tb\tc\td")

    def test_round_trip(self):
        text = fixture("fig04_tabular_morpho.tsv").rstrip("\n")
        assert serialize_tabular_morpho(parse_tabular_morpho(text)) == text


class TestStandoffMorphoCodec:
    def test_parse_fixture_values(self):
        items = parse_standoff_morpho(fixture("fig05_standoff_morpho.xml"))
        assert [str(i.span) for i in items] == [
            f"word_{n}" for n in range(27, 36)]
        assert items[0].categories == {"msd": "SBC:_:s", "lemma": "madame"}
        assert items[7].categories == {"msd": "ECJ:3p:s:pst:ind",
                                       "lemma": "être:3g"}
        # punctuation rows carry a blank analysis
        assert items[2].categories == {"msd": "", "lemma": ","}

    def test_serializer_canonical_line(self):
        items = parse_standoff_morpho(fixture("fig05_standoff_morpho.xml"))
        lines = serialize_standoff_morpho(items).splitlines()
        assert lines[0] == '<w span="word_27"\tmsd="SBC:_:s"\tlemma="madame"/>'
        assert lines[2] == '<w span="word_29"\tmsd=" "\tlemma=","/>'

    def test_parse_inverts_serialize(self):
        items = parse_standoff_morpho(fixture("fig05_standoff_morpho.xml"))
        assert parse_standoff_morpho(serialize_standoff_morpho(items)) == items

    @given(st.lists(st.tuples(
        ESCAPABLE.map(str.strip), ESCAPABLE), min_size=1, max_size=8))
    @example([("&gt;", "&amp;")])
    def test_parse_inverts_serialize_any_value(self, values):
        items = [AnnotationItem(span=SpanExpr(((f"word_{i + 1}", None),)),
                                element="w",
                                categories={"msd": msd, "lemma": lemma})
                 for i, (msd, lemma) in enumerate(values)]
        assert parse_standoff_morpho(serialize_standoff_morpho(items)) == items

    def test_error_line_counts_newlines_inside_earlier_tags(self):
        doc = ('<w span="word_1"\tmsd="X"\tlemma="a\n\nb"/>\n'
               '<w span="word_2"\tmsd="Y"/>')
        with pytest.raises(ParseError) as err:
            parse_standoff_morpho(doc)
        assert err.value.line == 4

    def test_extra_attributes_survive(self):
        items = parse_standoff_morpho(
            '<w span="word_1" msd="X" lemma="y" source="tool"/>')
        assert items[0].categories["source"] == "tool"
        again = parse_standoff_morpho(serialize_standoff_morpho(items))
        assert again == items

    def test_full_excerpt_fixture_parses(self, full_units):
        items = parse_standoff_morpho(fixture("goriot_standoff_morpho_full.xml"))
        assert len(items) == len(full_units)
        assert [str(i.span) for i in items] == [u.id for u in full_units]

    def test_missing_span_rejected(self):
        with pytest.raises(MissingSpanError) as err:
            parse_standoff_morpho('<w msd="X" lemma="y"/>')
        assert "missing-span" in str(err.value)

    def test_missing_lemma_rejected(self):
        with pytest.raises(ParseError):
            parse_standoff_morpho('<w span="word_1" msd="X"/>')

    def test_open_close_w_rejected(self):
        with pytest.raises(ParseError):
            parse_standoff_morpho('<w span="word_1" lemma="y">x</w>')

    def test_serialize_requires_span_and_lemma(self):
        with pytest.raises(MissingSpanError):
            serialize_standoff_morpho(
                [AnnotationItem(categories={"lemma": "x"})])
        with pytest.raises(ParseError):
            serialize_standoff_morpho(
                [AnnotationItem(span=SpanExpr((("word_1", None),)))])


class TestInlineCorefCodec:
    def test_fixture_markables_and_link(self, full_units):
        items = parse_inline_coref(fixture("fig08_inline_coref.xml"), full_units)
        assert [(i.id, str(i.span)) for i in items] == [
            ("1", "word_47..word_49"), ("2", "word_63..word_64")]
        assert items[0].links == ()
        assert items[1].links == (Link("ident", ("1",)),)

    def test_duplicate_markable_id_rejected(self, full_units):
        doc = fixture("fig08_inline_coref.xml").replace('id="2"', 'id="1"', 1)
        with pytest.raises(ParseError):
            parse_inline_coref(doc, full_units)

    def test_unknown_link_target_rejected(self, full_units):
        doc = fixture("fig08_inline_coref.xml").replace('ref="1"', 'ref="9"')
        with pytest.raises(UnknownTargetError) as err:
            parse_inline_coref(doc, full_units)
        assert err.value.target == "9"
        assert "unknown-target" in str(err.value)


class TestInlineMorphoCodec:
    def test_standalone_fixture_values(self):
        items = parse_inline_morpho(fixture("fig11_inline_morpho.xml"))
        assert [(i.surface, i.categories["lemma"]) for i in items] == [
            ("C'", "ce"), ("est", "être:3g"), ("moi", "lui"), ("qui", "qui"),
            ("suis", "suivre:3g"), ("l'", "le"), ("auteur", "auteur"),
            ("de", "de"), ("ta", "ton"), ("joie.", "joie")]

    def test_corrected_fixture_differs_only_at_faulty_lemma(self):
        faulty = parse_inline_morpho(fixture("fig11_inline_morpho.xml"))
        fixed = parse_inline_morpho(fixture("fig11_corrected.xml"))
        diffs = [(a, b) for a, b in zip(faulty, fixed) if a != b]
        assert diffs == [(faulty[4], fixed[4])]
        assert fixed[4].categories["lemma"] == "être:3g"

    def test_parse_inverts_serialize(self):
        items = parse_inline_morpho(fixture("fig11_inline_morpho.xml"))
        assert parse_inline_morpho(serialize_inline_morpho(items)) == items

    def test_aligned_mode_yields_spans(self):
        units = segment_text("C'est moi qui suis l'auteur de ta joie.")
        items = parse_inline_morpho(fixture("fig11_inline_morpho.xml"), units)
        assert [str(i.span) for i in items[:3]] == ["word_1", "word_2", "word_3"]
        # the final element wraps the token and its sentence period
        assert str(items[-1].span) == "word_10..word_11"

    def test_foreign_element_rejected(self):
        with pytest.raises(ParseError):
            parse_inline_morpho('<x lemma="a">b</x>')

    def test_missing_lemma_rejected(self):
        with pytest.raises(ParseError):
            parse_inline_morpho("<w>b</w>")

    def test_stray_text_rejected(self):
        with pytest.raises(ParseError):
            parse_inline_morpho('<w lemma="a">b</w> loose')


class TestReferentialStandoffCodec:
    def test_fixture_markables(self):
        items = parse_referential_standoff(fixture("fig10_referential.xml"))
        markables = [i for i in items if i.element == "referentialMarkable"]
        assert [(m.id, m.surface) for m in markables] == [
            ("m_1", "des technologies de l'information "),
            ("m_2", "une infosphère"),
            ("m_3", "elles")]

    def test_fixture_variant_group(self):
        items = parse_referential_standoff(fixture("fig10_referential.xml"))
        links = [i for i in items if i.element == "referentialLink"]
        assert [l.group for l in links] == ["alt_1", "alt_1"]
        assert [l.links[0] for l in links] == [
            Link("reference", ("m_1", "m_2"), source="m_3"),
            Link("reference", ("m_1",), source="m_3")]

    def test_targets_resolve_within_fixture(self):
        items = parse_referential_standoff(fixture("fig10_referential.xml"))
        resolve_link_targets(items)

    def test_parse_inverts_serialize(self):
        items = parse_referential_standoff(fixture("fig10_referential.xml"))
        again = parse_referential_standoff(
            serialize_referential_standoff(items))
        assert again == items

    def test_links_only_deposit_parses(self):
        doc = ('<referentialLink referentialSource="id(a_1)" '
               'referentialTarget="id(m_9)"/>')
        items = parse_referential_standoff(doc)
        assert items[0].links[0].targets == ("m_9",)
        with pytest.raises(UnknownTargetError):
            resolve_link_targets(items)

    def test_split_level_resolves_across_parts(self):
        markables = parse_referential_standoff(
            '<referentialMarkable id="m_9">elle</struct> dort.')
        links = parse_referential_standoff(
            '<referentialLink referentialTarget="id(m_9)"/>')
        resolve_link_targets(markables + links)

    def test_malformed_id_reference_rejected(self):
        with pytest.raises(ParseError):
            parse_referential_standoff(
                '<referentialLink referentialTarget="m_1"/>')

    def test_markable_without_id_rejected(self):
        with pytest.raises(ParseError):
            parse_referential_standoff("<referentialMarkable>x</struct>")

    def test_empty_variant_group_rejected(self):
        with pytest.raises(ParseError):
            parse_referential_standoff("<alt>\n</alt>")

    def test_missing_target_attribute_rejected(self):
        with pytest.raises(ParseError):
            parse_referential_standoff(
                '<referentialLink referentialSource="id(m_1)"/>')

    def test_foreign_element_rejected(self):
        with pytest.raises(ParseError):
            parse_referential_standoff("<markable id='m'>x</markable>")


class TestStructuralInlineCodec:
    def test_fixture_root_carries_full_text(self):
        roots = parse_structural_inline(fixture("fig02_structure.xml"))
        source = fixture("fig01_goriot_source.txt").rstrip("\n")
        assert [r.element for r in roots] == ["p"]
        assert roots[0].surface == source

    def test_fixture_hierarchy(self):
        roots = parse_structural_inline(fixture("fig02_structure.xml"))
        p = roots[0]
        assert [c.element for c in p.children] == ["seg", "seg"]
        seg1 = p.children[0]
        assert [c.id for c in seg1.children if c.element == "rs"] == [
            "p1", "p11", "or1"]
        rs_p1 = seg1.children[0]
        assert [c.categories.get("key") for c in rs_p1.children] == [
            "Mme Vauquer", "De Conflans"]
        or1 = seg1.children[2]
        assert [c.id for c in or1.children if c.element == "rs"] == [
            "pl2", "pl3", "pl4"]

    def test_fixture_item_count_and_categories(self):
        roots = parse_structural_inline(fixture("fig02_structure.xml"))
        items = iter_items(roots)
        assert len(items) == 18
        names = [i for i in items if i.element == "name"]
        assert all("key" in n.categories and "type" in n.categories
                   for n in names)

    def test_untracked_wrappers_are_transparent(self):
        roots = parse_structural_inline(
            "<body><p>Un <hi>mot</hi> fort</p></body>")
        assert [r.element for r in roots] == ["p"]
        assert roots[0].surface == "Un mot fort"
        assert roots[0].children == ()

    def test_unbalanced_markup_rejected(self):
        with pytest.raises(ParseError):
            parse_structural_inline("<p><seg>texte</p></seg>")


class TestSyntaxConstituencyCodec:
    def test_fixture_forest_shape(self):
        roots = parse_syntax_constituency(fixture("fig06_syntax.vis"))
        assert len(roots) == 7
        assert [len(r.children) for r in roots] == [0, 0, 0, 2, 0, 0, 1]

    def test_fixture_labels_and_flags(self):
        roots = parse_syntax_constituency(fixture("fig06_syntax.vis"))
        assert roots[0].categories == {
            "function": "S", "category": "prop", "flags": '"Madame_Vauquer"'}
        assert roots[0].surface == "Madame_Vauquer"
        pp = roots[3]
        assert pp.categories == {"function": "DN", "category": "pp"}
        assert pp.surface is None
        assert [c.categories["category"] for c in pp.children] == ["prp", "prop"]
        # flags survive verbatim, angle brackets included
        assert roots[6].children[0].categories["flags"] == "'une' <idf> F S"

    def test_bare_punctuation_becomes_terminal(self):
        roots = parse_syntax_constituency(fixture("fig06_syntax.vis"))
        assert roots[1].categories == {}
        assert roots[1].surface == ","

    def test_terminals_in_document_order(self):
        roots = parse_syntax_constituency(fixture("fig06_syntax.vis"))
        assert [t.surface for t in syntax_terminals(roots)] == [
            "Madame_Vauquer", ",", "née", "De", "Conflans", ",", "est", "une"]

    def test_depth_jump_rejected(self):
        with pytest.raises(NestingError) as err:
            parse_syntax_constituency("A:np\n==B:pp\tx")
        assert "nesting" in str(err.value)
        assert err.value.line == 2

    def test_depth_may_fall_freely(self):
        roots = parse_syntax_constituency(
            "A:np\n=B:pp\n==C:n\tx\nD:np\ty")
        assert len(roots) == 2

    def test_empty_label_rejected(self):
        with pytest.raises(ParseError):
            parse_syntax_constituency("=\tx")


class TestStandoffItemsCodec:
    def test_round_trips_rich_items(self):
        items = [
            AnnotationItem(id="m1", span=SpanExpr.parse("word_1..word_3"),
                           element="coref", categories={"type": "ident"},
                           links=(Link("coref", ("m0",)),), group="alt_1"),
            AnnotationItem(surface="des mots", categories={"lemma": "mot"}),
        ]
        assert parse_standoff_items(serialize_standoff_items(items)) == items

    def test_reserved_category_key_rejected(self):
        with pytest.raises(ParseError):
            serialize_standoff_items(
                [AnnotationItem(categories={"span": "word_1"})])

    def test_nested_items_rejected(self):
        with pytest.raises(ParseError):
            serialize_standoff_items(
                [AnnotationItem(children=(AnnotationItem(),))])

    def test_sourced_links_rejected(self):
        with pytest.raises(ParseError):
            serialize_standoff_items(
                [AnnotationItem(links=(Link("r", ("a",), source="b"),))])


class TestFormatRegistry:
    def test_expected_tags(self):
        assert set(FORMATS) == {
            "segmentation", "tabular-morpho", "standoff-morpho",
            "inline-morpho", "inline-coref", "referential-standoff",
            "structural-inline", "syntax-constituency", "standoff-items"}

    def test_units_requirements_are_sound(self):
        assert FORMATS["segmentation"].needs_units == "no"
        assert FORMATS["inline-coref"].needs_units == "required"
        assert FORMATS["inline-morpho"].needs_units == "optional"

    def test_shapes_are_declared(self):
        assert [tag for tag, codec in FORMATS.items()
                if codec.yields_units] == ["segmentation"]
        assert list(FORMATS["syntax-constituency"].project) == [
            "morphosyntax"]
