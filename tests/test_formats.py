"""Interchange codec behaviour, pinned against the fixture corpus."""

import dataclasses
import gc
import pathlib
import re
import string
from types import MappingProxyType

import pytest
from hypothesis import example, given, settings, strategies as st

from corpus_forge import _markup, standoff
from corpus_forge.archive import Archive, LevelSpec
from corpus_forge.errors import (
    CorpusForgeError,
    MisalignmentError,
    MissingSpanError,
    NestingError,
    ParseError,
    SpanSyntaxError,
    UnknownTargetError,
)
from corpus_forge.formats import (
    FORMATS,
    AnnotationItem,
    Items,
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
    syntax_terminals,
)
from corpus_forge.standoff import ReferenceUnit, SpanExpr, segment_text
from oracles import (
    serialize_inline_morpho,
    serialize_referential_standoff,
    serialize_segmentation,
    serialize_standoff_items,
    serialize_standoff_morpho,
    serialize_tabular_morpho,
)
from strategies import attr_names, payload_items

FIXTURES = pathlib.Path(__file__).parent / "fixtures"


def fixture(name: str) -> str:
    return (FIXTURES / name).read_text(encoding="utf-8")


# Text with characters that escape to entities and with entity names:
# "&lt;" serializes as "&amp;lt;", which must not read back as "<".
ESCAPABLE = st.lists(st.sampled_from([*"abcéœà'.-&;<>\"", "lt;", "amp;",
                                      "quot;"]), max_size=6).map("".join)


SERIALIZERS = {
    "tabular-morpho": serialize_tabular_morpho,
    "inline-morpho": serialize_inline_morpho,
    "referential-standoff": serialize_referential_standoff,
    "standoff-items": serialize_standoff_items,
}


@pytest.mark.parametrize("tag", sorted(SERIALIZERS))
@settings(max_examples=25, deadline=None)
@given(data=st.data())
def test_parse_inverts_serialize_any_items(tag, data):
    items = data.draw(payload_items[tag])
    assert FORMATS[tag].parse(SERIALIZERS[tag](items)) == items


@pytest.fixture(scope="module")
def full_units():
    return parse_segmentation(fixture("goriot_segmentation_full.xml"))


def well_formed_documents():
    """Markup fragments XML would accept as element content, where also
    an attribute value may hold ``<``: no ``<`` in text; ``>``, ``/``,
    ``=`` and the other quote may appear in both."""
    text = st.text(st.sampled_from("ab =/>\"'&;\n\t"), max_size=6)
    name = st.from_regex(r"[A-Za-z_][A-Za-z0-9_.-]{0,3}", fullmatch=True)
    space = st.sampled_from(["", " ", "\n", " \t"])
    attribute = st.builds(
        lambda name, before, after, quote, value:
            f" {name}{before}={after}{quote}{value.replace(quote, '')}{quote}",
        name, space, space, st.sampled_from("\"'"),
        st.text(st.sampled_from("ab <>/=\"'&;\n"), max_size=6))
    start = st.builds(
        lambda name, attrs, space: (name, "".join(attrs) + space),
        name, st.lists(attribute, max_size=3), space)

    def element(children):
        return st.builds(
            lambda tag, body, space: (
                f"<{tag[0]}{tag[1]}{space}/>" if body is None
                else f"<{tag[0]}{tag[1]}>{body}</{tag[0]}{space}>"),
            start, st.none() | children, space)
    content = st.recursive(
        text, lambda children: st.lists(element(children) | text,
                                        max_size=4).map("".join),
        max_leaves=12)
    return st.lists(element(content) | text, max_size=4).map("".join)


class TestMarkupScanner:
    # The tag pattern as a lazy loop that takes one character at a time:
    # the scanner's greedy pattern must find exactly its matches.
    LAZY_TAG_RE = re.compile(
        r"<(/?)([A-Za-z_][\w.-]*)((?:[^<>\"']|\"[^\"]*\"|'[^']*')*?)(/?)>")
    # The tag pattern before it stopped at ``<``: it scanned each tag that
    # never closes to the end of the document.
    CROSSING_TAG_RE = re.compile(
        r"<(/?)([A-Za-z_][\w.-]*)"
        r"([^>\"'/]*(?:(?:/(?!>)|\"[^\"]*\"|'[^']*')[^>\"'/]*)*)(/?)>")

    @given(well_formed_documents())
    @example('<a x="1>2" y=\'"/>\'/>t>/<b\n><c z = "" />d</c ></b>')
    def test_well_formed_documents_scan_as_before(self, doc):
        assert [(m.span(), m.groups()) for m in _markup.TAG_RE.finditer(doc)] \
            == [(m.span(), m.groups())
                for m in self.CROSSING_TAG_RE.finditer(doc)]

    def test_a_less_than_sign_ends_a_tag_that_never_closed(self):
        assert [m.group(0) for m in _markup.TAG_RE.finditer(
            '<w a="1" <b/> <c x="<"/>')] == ["<b/>", '<c x="<"/>']

    @given(st.text(st.sampled_from("<>/=\"' \n" + string.ascii_lowercase),
                   max_size=60))
    @example('<a x="1>2"/><b / ><c/ >d</c>')
    @example("<a x='/>' y=\"'\" /></a")
    def test_tag_pattern_matches_the_lazy_one(self, doc):
        assert [(m.span(), m.groups()) for m in _markup.TAG_RE.finditer(doc)] \
            == [(m.span(), m.groups())
                for m in self.LAZY_TAG_RE.finditer(doc)]

    def test_attributes_keep_the_last_of_a_repeated_name(self):
        assert _markup.parse_attrs(' a="1" b = \'x&amp;y\' a="2"') \
            == {"a": "2", "b": "x&y"}

    # Value pieces as written and as read: the five entities and text
    # that holds no ``&``; OTHER_QUOTE is the quote that does not
    # delimit the value.
    PIECES = {"&amp;": "&", "&lt;": "<", "&gt;": ">", "&quot;": '"',
              "&apos;": "'", "lt;": "lt;", "amp;": "amp;", "a": "a",
              "é": "é", " ": " ", "=": "=", "<>/": "<>/"}
    OTHER_QUOTE = "other quote"

    @given(st.lists(st.tuples(
        attr_names, st.sampled_from("\"'"),
        st.lists(st.sampled_from([*PIECES, OTHER_QUOTE]), max_size=5),
        st.sampled_from(["", " ", "\t", "\n "]),
        st.sampled_from(["", " ", "\n"])), max_size=5))
    @example([("a", '"', ["&amp;", "lt;"], "", ""),
              ("b", "'", [OTHER_QUOTE], " ", " "),
              ("a", '"', [OTHER_QUOTE, "&apos;"], "", "")])
    def test_attributes_read_each_value_unescaped_once(self, attrs):
        raw, expected = "", {}
        for name, quote, pieces, before, after in attrs:
            other = "'" if quote == '"' else '"'
            written = [other if piece == self.OTHER_QUOTE else piece
                       for piece in pieces]
            raw += f" {name}{before}={after}{quote}{''.join(written)}{quote}"
            expected[name] = "".join(self.PIECES.get(piece, piece)
                                     for piece in written)
        assert _markup.parse_attrs(raw) == expected


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

    def test_unit_id_with_a_final_newline_rejected(self):
        with pytest.raises(SpanSyntaxError):
            parse_segmentation('<word id="word_1\n">a</word>')

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

    def test_markable_over_only_whitespace_rejected(self):
        with pytest.raises(MisalignmentError) as err:
            parse_inline_coref('un<coref id="1"> </coref>mot',
                               segment_text("un mot"))
        assert (err.value.element, err.value.offset) == ("1", 2)
        assert err.value.message == ("element '1' boundary at offset 2 falls "
                                     "inside a reference unit")

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

    # Standalone, a document's errors name their line; aligned, not.
    MODES = pytest.mark.parametrize("units, where", [
        (None, "line 1: "), (segment_text("b"), "")],
        ids=["standalone", "aligned"])

    @MODES
    def test_foreign_element_rejected(self, units, where):
        with pytest.raises(ParseError) as err:
            parse_inline_morpho('<x lemma="a">b</x>', units)
        assert err.value.message == f"{where}unexpected element <x>"

    @MODES
    def test_missing_lemma_rejected(self, units, where):
        with pytest.raises(ParseError) as err:
            parse_inline_morpho("<w>b</w>", units)
        assert err.value.message == f"{where}<w> lacks a lemma attribute"

    @pytest.mark.parametrize("doc, message", [
        ('<w lemma="a">b</w> loose', "stray text 'loose' after last <w>"),
        ('loose\n<w lemma="a">b</w>',
         "line 2: stray text 'loose' outside <w> elements"),
        ('<w lemma="a">b</w>\n<w lemma="c"> </w>',
         "line 2: <w> covers no text"),
    ], ids=["after-last", "outside", "covers-no-text"])
    def test_text_outside_or_missing_from_w_rejected(self, doc, message):
        with pytest.raises(ParseError) as err:
            parse_inline_morpho(doc)
        assert err.value.message == message


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

    def test_undeclared_link_source_rejected(self):
        items = parse_referential_standoff(
            '<referentialMarkable id="m_1">x</struct>'
            '<referentialLink referentialSource="id(m_9)" '
            'referentialTarget="id(m_1)"/>')
        with pytest.raises(UnknownTargetError) as err:
            resolve_link_targets(items)
        assert err.value.target == "m_9"
        assert err.value.message == "link target 'm_9' is not declared"

    def test_split_level_resolves_across_parts(self):
        level = Items()
        level.extend(parse_referential_standoff(
            '<referentialMarkable id="m_9">elle</struct> dort.'))
        level.extend(parse_referential_standoff(
            '<referentialLink referentialTarget="id(m_9)"/>'))
        resolve_link_targets(level)

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

    @pytest.mark.parametrize("doc, message", [
        ("<p><seg>texte</p></seg>", "line 1: unexpected closing tag </p>"),
        ("<p>un\n<seg>mot</seg>", "line 1: unclosed element <p>"),
    ], ids=["crossed", "unclosed"])
    def test_unbalanced_markup_rejected(self, doc, message):
        with pytest.raises(ParseError) as err:
            parse_structural_inline(doc)
        assert err.value.message == message

    def test_flat_view_lists_each_item_once(self):
        roots = parse_structural_inline(fixture("fig02_structure.xml"))
        flat = roots.flat()
        assert len(roots) == 1
        assert len(flat) == len(iter_items(flat)) == 18
        assert flat.flat() is flat
        assert list(flat) == [dataclasses.replace(item, children=())
                              for item in iter_items(roots)]


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


class TestErrorLines:
    """Codec errors name the line of the input they concern."""

    @pytest.mark.parametrize("parse, doc, error, line", [
        (parse_segmentation,
         '<word id="word_1">a</word>\n\n  loose\n<word id="word_2">b</word>',
         ParseError, 3),
        (parse_standoff_morpho,
         '<w span="word_1" lemma="a"/>\nloose <w span="word_2" lemma="b"/>',
         ParseError, 2),
        (parse_standoff_items, '<item span="word_1"/>\n<item/>\n\nloose',
         ParseError, 4),
        (parse_segmentation, '<word id="word_1">a</word>\n<word id="w2">b</word>',
         SpanSyntaxError, 2),
        (parse_segmentation,
         '<word id="word_1">a</word>\n\n<word id="word_2">b\n</word>',
         SpanSyntaxError, 3),
        (parse_standoff_morpho, '<w span="word_1" lemma="a"/>\n'
         '<w span="word_2 word_0" lemma="b"/>', SpanSyntaxError, 2),
        (parse_standoff_morpho, '<w span="word_1" lemma="a"/>\n'
         '<w span="word_1..word_2..word_3" lemma="b"/>', SpanSyntaxError, 2),
        (parse_standoff_morpho, '<w span="word_1" lemma="a"/>\n'
         '<w span=" , " lemma="b"/>', SpanSyntaxError, 2),
        (parse_standoff_items, '<item/>\n<item/>\n<item span="word_x"/>',
         SpanSyntaxError, 3),
        (parse_standoff_items, '<item/>\n<item/>\n<item span="word_1.."/>',
         SpanSyntaxError, 3),
        (parse_standoff_items, '<item/>\n<item/>\n<item span=""/>',
         SpanSyntaxError, 3),
        (parse_standoff_morpho, '<w span="word_1" lemma="a"/>\n<w lemma="b"/>',
         MissingSpanError, 2),
        (parse_referential_standoff,
         '<referentialLink referentialTarget="id(a)"/>\n\n<alt>\n</alt>',
         ParseError, 3),
    ], ids=["segmentation-stray-text", "standoff-morpho-stray-text",
            "standoff-items-stray-tail", "segmentation-invalid-unit-id",
            "segmentation-padded-form", "standoff-morpho-invalid-span-id",
            "standoff-morpho-malformed-range", "standoff-morpho-empty-span",
            "standoff-items-invalid-span-id", "standoff-items-malformed-range",
            "standoff-items-empty-span", "standoff-morpho-missing-span",
            "referential-empty-variant-group"])
    def test_codec_error_names_its_line(self, parse, doc, error, line):
        with pytest.raises(error) as err:
            parse(doc)
        assert type(err.value) is error
        assert err.value.line == line
        assert str(err.value).startswith(f"{error.code}: line {line}: ")


# Per codec: a well-formed line, formatted with a unit number, and faults
# that each make the codec raise an error naming the fault's first line.
LINE_FAULTS = {
    "segmentation": (parse_segmentation, '<word id="word_{}">a</word>', [
        "loose", '<word id="word_0">a</word>', '<w id="word_99">a</w>',
        '<word id="word_99"/>', "<word>a</word>",
        '<word id="word_99">a\n</word>', '<word id="word_99">a'
        '<word id="word_98">b</word></word>']),
    "standoff-morpho": (parse_standoff_morpho,
                        '<w span="word_{}" lemma="a"/>', [
        "loose", '<w span="word_0" lemma="a"/>', '<w lemma="a"/>',
        '<w span="word_1"/>', '<item span="word_1"/>',
        '<w span="word_1..word_2..word_3" lemma="a"/>',
        '<w span=" , " lemma="a"/>', '<w span="word_1" lemma="a">']),
    "standoff-items": (parse_standoff_items, '<item span="word_{}"/>', [
        "loose", '<item span="word_x"/>', '<item span="word_1.."/>',
        '<item span=""/>', "<w/>", "<item>", "</item/>"]),
}


@pytest.mark.parametrize("codec", sorted(LINE_FAULTS))
@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_a_fault_on_any_line_is_named(codec, data):
    """The offset of a tag turns into the line it starts on, after any
    run of well-formed and blank lines."""
    parse, good, faults = LINE_FAULTS[codec]
    lines = [line.format(number) for number, line in enumerate(
        data.draw(st.lists(st.sampled_from([good, "", "  "]), max_size=8)),
        1)]
    at = data.draw(st.integers(0, len(lines)))
    lines.insert(at, data.draw(st.sampled_from(["", " ", "\t"]))
                 + data.draw(st.sampled_from(faults)))
    with pytest.raises(CorpusForgeError) as err:
        parse("\n".join(lines))
    assert err.value.line == at + 1
    assert str(err.value).startswith(f"{err.value.code}: line {at + 1}: ")


class CountingPattern:
    """Stand-in for a compiled pattern that counts its ``fullmatch``
    calls."""

    def __init__(self, pattern):
        self.pattern = pattern
        self.calls = 0

    def fullmatch(self, text):
        self.calls += 1
        return self.pattern.fullmatch(text)


@pytest.mark.parametrize("parse, line", [
    (parse_segmentation, '<word id="word_{}">a</word>'),
    (parse_standoff_morpho, '<w span="word_{}" lemma="a"/>'),
    (parse_standoff_items, '<item span="word_{}"/>'),
], ids=["segmentation", "standoff-morpho", "standoff-items"])
def test_each_unit_id_is_checked_once(monkeypatch, parse, line):
    counter = CountingPattern(standoff.UNIT_ID_RE)
    monkeypatch.setattr(standoff, "UNIT_ID_RE", counter)
    n = 7
    assert len(parse("\n".join(line.format(i) for i in range(1, n + 1)))) == n
    assert counter.calls == n


def test_coverage_of_a_filled_level_checks_no_unit_id(monkeypatch, tmp_path):
    archive = Archive(tmp_path / "store")
    archive.register_corpus("T", corpus_id="t")
    seg = archive.add_level("t", "segmentation", "full")
    archive.deposit("t", '<word id="word_1">a</word>\n'
                    '<word id="word_2">b</word>', "segmentation",
                    levels=[seg.id])
    (morph,) = archive.deposit(
        "t", '<w span="word_2" lemma="b"/>\n<w span="word_1..word_2" '
        'lemma="a"/>', "standoff-morpho",
        new_levels=[LevelSpec("morphosyntax", "none", (seg.id,))]).levels
    assert archive.coverage(morph) == ["a", "b"]  # fills both entries
    counter = CountingPattern(standoff.UNIT_ID_RE)
    monkeypatch.setattr(standoff, "UNIT_ID_RE", counter)
    assert archive.coverage(morph) == ["a", "b"]
    assert counter.calls == 0


def test_parsed_objects_have_no_instance_dict():
    units = parse_segmentation(fixture("fig03_segmentation.xml"))
    items = parse_standoff_morpho(fixture("fig05_standoff_morpho.xml"))
    links = [link for item in parse_referential_standoff(
        fixture("fig10_referential.xml")) for link in item.links]
    _, elements = _markup.strip_markup(fixture("fig02_structure.xml"))
    for parsed in (units, [item.span for item in items], items, links,
                   elements):
        assert parsed
        assert not any(hasattr(obj, "__dict__") for obj in parsed)


# Each value type a codec builds: a value, its repr and a change for
# ``dataclasses.replace``.
VALUES = {
    "ReferenceUnit": (ReferenceUnit("word_1", "Madame", 0),
                      "ReferenceUnit(id='word_1', form='Madame', index=0)",
                      {"index": 4}),
    "SpanExpr": (SpanExpr((("word_1", None), ("word_2", "word_3"))),
                 "SpanExpr(parts=(('word_1', None), ('word_2', 'word_3')))",
                 {"parts": (("word_9", None),)}),
    "Link": (Link("coref", ("m2",), source="m1"),
             "Link(type='coref', targets=('m2',), source='m1')",
             {"source": None}),
    "AnnotationItem": (
        AnnotationItem(id="m1", span=SpanExpr.parse("word_1"), element="w",
                       categories={"lemma": "a"},
                       links=(Link("coref", ("m2",)),), group="alt_1"),
        "AnnotationItem(id='m1', span=SpanExpr(parts=(('word_1', None),)), "
        "surface=None, element='w', categories=mappingproxy({'lemma': 'a'}), "
        "links=(Link(type='coref', targets=('m2',), source=None),), "
        "children=(), group='alt_1')",
        {"group": None}),
}


class TestValueTypes:
    """Value types keep the dataclass contract, also those whose own
    ``__init__`` stores each field through its slot."""

    @pytest.mark.parametrize("name", sorted(VALUES))
    def test_every_field_is_frozen(self, name):
        value = VALUES[name][0]
        for f in dataclasses.fields(value):
            with pytest.raises(dataclasses.FrozenInstanceError):
                setattr(value, f.name, getattr(value, f.name))

    @pytest.mark.parametrize("name", sorted(VALUES))
    def test_replace_eq_and_repr(self, name):
        value, text, changes = VALUES[name]
        assert repr(value) == text
        copy = dataclasses.replace(value)
        assert copy == value and copy is not value
        changed = dataclasses.replace(value, **changes)
        assert changed != value
        assert {f.name: getattr(changed, f.name)
                for f in dataclasses.fields(value)} \
            == {f.name: changes.get(f.name, getattr(value, f.name))
                for f in dataclasses.fields(value)}

    def test_only_an_item_is_unhashable(self):
        for name, (value, _, _) in VALUES.items():
            if name == "AnnotationItem":
                with pytest.raises(TypeError):
                    hash(value)
            else:
                assert hash(value) == hash(dataclasses.replace(value))

    @pytest.mark.parametrize("build, message", [
        (lambda: ReferenceUnit("word_0", "a", 0),
         "invalid reference unit id 'word_0'"),
        (lambda: ReferenceUnit(id="word_1\n", form="a", index=0),
         "invalid reference unit id 'word_1\\n'"),
        (lambda: ReferenceUnit("word_1", " a", 0),
         "unit word_1: form must be non-empty without surrounding "
         "whitespace, got ' a'"),
        (lambda: ReferenceUnit("word_1", "", 0),
         "unit word_1: form must be non-empty without surrounding "
         "whitespace, got ''"),
        (lambda: SpanExpr((("word_1", "word_x"),)),
         "invalid unit id 'word_x' in span"),
        (lambda: SpanExpr(parts=()), "span expression has no parts"),
        (lambda: dataclasses.replace(VALUES["ReferenceUnit"][0], id="w1"),
         "invalid reference unit id 'w1'"),
        (lambda: dataclasses.replace(VALUES["SpanExpr"][0],
                                     parts=(("word_01", None),)),
         "invalid unit id 'word_01' in span"),
    ])
    def test_a_direct_build_checks_its_ids(self, build, message):
        with pytest.raises(SpanSyntaxError) as err:
            build()
        assert str(err.value) == f"span-syntax: {message}"
        assert err.value.line is None

    def test_defaults(self):
        item = AnnotationItem()
        assert item == AnnotationItem(None, None, None, None, {}, (), (), None)
        assert isinstance(item.categories, MappingProxyType)
        assert dict(item.categories) == {}
        with pytest.raises(TypeError):
            item.categories["lemma"] = "a"  # type: ignore[index]
        assert Link("coref", ("m2",)).source is None

    def test_a_read_only_mapping_is_kept_not_wrapped_again(self):
        item = AnnotationItem(surface="a", categories={"lemma": "a"})
        copy = item
        for _ in range(3):
            copy = dataclasses.replace(copy, group="g")
        (terminal,) = syntax_terminals([copy])
        assert copy.categories is item.categories
        assert terminal.categories is item.categories
        assert [type(r) for r in gc.get_referents(terminal.categories)] \
            == [dict]


# Per codec: a payload whose first and third items carry one category
# set, the second another, and the first item built field by field.
SHARING = {
    "standoff-morpho": (
        parse_standoff_morpho,
        '<w span="word_1" msd="DET" lemma="le"/>\n'
        '<w span="word_2" msd="NC" lemma="chat"/>\n'
        '<w span="word_3" msd="DET" lemma="le"/>\n',
        AnnotationItem(span=SpanExpr((("word_1", None),)), element="w",
                       categories={"msd": "DET", "lemma": "le"})),
    "tabular-morpho": (
        parse_tabular_morpho,
        "1\tle\tle\tDET\t\n2\tchat\tchat\tNC\t\n1\tle\tle\tDET\t\n",
        AnnotationItem(surface="le", categories={
            "index": "1", "form": "le", "lemma": "le", "tag_coarse": "DET"})),
    "standoff-items": (
        parse_standoff_items,
        '<item id="a" element="w" lemma="le" msd="DET"/>\n'
        '<item id="b" element="w" lemma="chat" msd="NC"/>\n'
        '<item id="c" element="w" msd="DET" lemma="le"/>\n',
        AnnotationItem(id="a", element="w",
                       categories={"lemma": "le", "msd": "DET"})),
}


@pytest.mark.parametrize("tag", sorted(SHARING))
def test_equal_categories_share_one_read_only_mapping(tag):
    parse, doc, first = SHARING[tag]
    items = parse(doc)
    assert items[0] == first
    assert items[0].categories is items[2].categories
    assert items[1].categories is not items[0].categories
    assert items[1].categories != items[0].categories
    with pytest.raises(TypeError):
        items[0].categories["lemma"] = "x"  # type: ignore[index]
    assert items[0].categories == first.categories


def test_span_ids_are_the_segmentation_s_own_strings():
    units = parse_segmentation('<word id="word_1">le</word>'
                               '<word id="word_2">le</word>')
    (item,) = parse_standoff_morpho('<w span="word_2" lemma="le"/>')
    assert item.span.parts[0][0] is units[1].id
    assert units[0].form is units[1].form


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
