"""Segmentation, span resolution, fingerprints, inline alignment."""

import hashlib
import unicodedata

import pytest
from hypothesis import example, given, strategies as st

from corpus_forge.errors import (
    DanglingPointerError,
    MisalignmentError,
    NoPrimaryAnchorError,
    ReversedRangeError,
    SpanSyntaxError,
    TextMismatchError,
)
from corpus_forge.formats import AnnotationItem, Items, parse_standoff_items
from corpus_forge.standoff import (
    DETACH_CHARS,
    ReferenceUnit,
    SpanExpr,
    align_inline,
    coverage_fingerprint,
    reconstruct_coverage,
    resolve_span,
    segment_text,
    span_cell,
    span_for_indices,
    tokenize_with_offsets,
)
from oracles import (
    pointer_coverage,
    serialize_standoff_items,
    tokenize_each_token_split,
)
from strategies import spans, unit_ids

GORIOT_OPENING = (
    "Madame Vauquer, née De Conflans, est une vieille femme qui, "
    "depuis quarante ans, tient à Paris une pension bourgeoise établie "
    "rue Neuve-Sainte-Geneviève, entre le quartier latin et le faubourg "
    "Saint-Marceau. Cette pension, connue sous le nom de la Maison-Vauquer, "
    "admet également des hommes et des femmes, des jeunes gens et des "
    "vieillards, sans que jamais la médisance ait attaqué les mœurs de ce "
    "respectable établissement."
)

GORIOT_TOKENS = (
    "Madame Vauquer , née De Conflans , est une vieille femme qui , "
    "depuis quarante ans , tient à Paris une pension bourgeoise établie "
    "rue Neuve-Sainte-Geneviève , entre le quartier latin et le faubourg "
    "Saint-Marceau . Cette pension , connue sous le nom de la Maison-Vauquer , "
    "admet également des hommes et des femmes , des jeunes gens et des "
    "vieillards , sans que jamais la médisance ait attaqué les mœurs de ce "
    "respectable établissement ."
).split(" ")


# Apostrophes, detached characters, contractions in any case, digits and
# non-Latin letters, to be joined with whitespace into tokens.
TOKEN_ATOMS = (" ", "  ", "\n", "'", "’", *DETACH_CHARS, "au", "AUX", "dU",
               "Du", "des", "l'", "C’", "qu'", "7", "42", "été", "Москва",
               "日本", "Vauquer")


class TestSegmentation:
    def test_goriot_opening_forms(self):
        units = segment_text(GORIOT_OPENING)
        assert [u.form for u in units] == GORIOT_TOKENS
        assert len(units) == 76

    def test_ids_and_indices_are_sequential(self):
        units = segment_text("Madame Vauquer, née De")
        assert [u.id for u in units] == [
            "word_1", "word_2", "word_3", "word_4", "word_5"]
        assert [u.index for u in units] == [0, 1, 2, 3, 4]
        assert [u.form for u in units] == ["Madame", "Vauquer", ",", "née", "De"]

    def test_clitic_apostrophe_stays_attached(self):
        forms = [u.form for u in segment_text("C'est moi qui suis l'auteur de ta joie.")]
        assert forms == ["C'", "est", "moi", "qui", "suis",
                         "l'", "auteur", "de", "ta", "joie", "."]

    def test_leading_apostrophe_is_detached(self):
        assert [u.form for u in segment_text("'allo'")] == ["'", "allo'"]

    def test_punctuation_runs_detach_one_by_one(self):
        forms = [u.form for u in segment_text("«Rien», dit-elle...")]
        assert forms == ["«", "Rien", "»", ",", "dit-elle", ".", ".", "."]

    def test_hyphenated_words_stay_whole(self):
        forms = [u.form for u in segment_text("rue Neuve-Sainte-Geneviève, est-ce")]
        assert forms == ["rue", "Neuve-Sainte-Geneviève", ",", "est-ce"]

    def test_split_table_expands_contractions(self):
        forms = [u.form for u in segment_text("au four du moulin aux champs")]
        assert forms == ["à", "le", "four", "de", "le", "moulin", "à", "les", "champs"]

    def test_split_table_is_case_insensitive(self):
        assert [u.form for u in segment_text("Au four")] == ["à", "le", "four"]

    def test_des_is_not_split(self):
        assert [u.form for u in segment_text("des hommes")] == ["des", "hommes"]

    def test_empty_and_blank_input(self):
        assert segment_text("") == []
        assert segment_text("   \n\t ") == []

    def test_total_over_arbitrary_text(self):
        units = segment_text("  ...  ''«»  a'b'c  ")
        assert all(u.form for u in units)

    def test_expansion_products_share_source_extent(self):
        tokens = tokenize_with_offsets("du pain")
        assert tokens[0][1:] == tokens[1][1:] == (0, 2)
        assert [t[0] for t in tokens] == ["de", "le", "pain"]

    def test_offsets_point_into_source(self):
        text = "Madame  Vauquer,\nnée"
        for form, s, e in tokenize_with_offsets(text):
            if form != ",":
                assert text[s:e] == form

    @given(st.text(alphabet=st.characters(blacklist_categories=("Cs",)), max_size=80))
    @example("A')0")
    @example("a''b c'('d")
    def test_resegmenting_joined_forms_is_fixed_point(self, text):
        forms = [u.form for u in segment_text(text)]
        assert [u.form for u in segment_text(" ".join(forms))] == forms

    @given(st.lists(st.sampled_from(TOKEN_ATOMS) | st.text(max_size=3),
                    max_size=30).map("".join))
    @example("C'est l’auteur «du» PAIN, AU 42 Москва’s aux'")
    def test_a_letters_only_token_splits_as_any_token(self, text):
        """A token of letters alone is taken whole, without the splitter:
        every token's forms and extents are what splitting it gives."""
        assert tokenize_with_offsets(text) == tokenize_each_token_split(text)


class TestSplitTable:
    def test_lookup_case_insensitive(self):
        assert [u.form for u in segment_text("AUX des")] == [
            "à", "les", "des"]


class TestReferenceUnit:
    def test_rejects_malformed_ids(self):
        for bad in ["word_0", "word_", "w_1", "word_01", "word_1x", ""]:
            with pytest.raises(SpanSyntaxError):
                ReferenceUnit(id=bad, form="x", index=0)

    def test_rejects_an_id_with_a_final_newline(self):
        with pytest.raises(SpanSyntaxError):
            ReferenceUnit(id="word_1\n", form="x", index=0)
        with pytest.raises(SpanSyntaxError):
            SpanExpr((("word_1", "word_2\n"),))

    def test_rejects_padded_or_empty_forms(self):
        with pytest.raises(SpanSyntaxError):
            ReferenceUnit(id="word_1", form=" x", index=0)
        with pytest.raises(SpanSyntaxError):
            ReferenceUnit(id="word_1", form="", index=0)


class TestSpanExpr:
    def test_parse_single(self):
        assert SpanExpr.parse("word_3").parts == (("word_3", None),)

    def test_parse_range(self):
        assert SpanExpr.parse("word_3..word_5").parts == (("word_3", "word_5"),)

    def test_parse_mixed_separators(self):
        expr = SpanExpr.parse("word_1, word_3..word_4 word_9")
        assert expr.parts == (("word_1", None), ("word_3", "word_4"),
                              ("word_9", None))

    def test_str_is_canonical(self):
        assert str(SpanExpr.parse("word_1,word_3..word_4")) == "word_1 word_3..word_4"

    def test_parse_str_round_trip(self):
        for text in ["word_1", "word_2..word_7", "word_1 word_3..word_4 word_9"]:
            assert str(SpanExpr.parse(text)) == text

    def test_malformed_expressions_raise(self):
        for bad in ["", "word_3..word_5..word_7", "word_3..", "..word_5",
                    "token_3", "word_0"]:
            with pytest.raises(SpanSyntaxError):
                SpanExpr.parse(bad)

    @given(spans)
    def test_any_span_reads_back_from_its_text(self, span):
        assert SpanExpr.parse(str(span)) == span

    @given(unit_ids | st.text(st.sampled_from("word_019.,x \n"), max_size=12))
    def test_a_lone_id_reads_as_the_general_reading_does(self, text):
        """A trailing comma sends ``text`` through the general reading,
        which splits it into the same parts; a lone id takes the one
        match."""
        def read(text):
            try:
                return SpanExpr.parse(text)
            except SpanSyntaxError as err:
                return str(err)
        assert read(text) == read(text + ",")


class TestResolveSpan:
    units = segment_text("Madame Vauquer, née De Conflans,")

    def resolve(self, text):
        """The units a span's cell resolves to, by the positions
        ``resolve_span`` returns."""
        return [self.units[i] for i in resolve_span(
            [span_cell(SpanExpr.parse(text).parts)], self.units)]

    def test_single(self):
        got = self.resolve("word_2")
        assert [u.form for u in got] == ["Vauquer"]

    def test_range_is_inclusive(self):
        got = self.resolve("word_1..word_2")
        assert [u.form for u in got] == ["Madame", "Vauquer"]

    def test_overlapping_parts_deduplicate(self):
        got = self.resolve("word_2..word_4 word_3")
        assert [u.id for u in got] == ["word_2", "word_3", "word_4"]

    def test_result_in_document_order(self):
        got = self.resolve("word_5 word_1")
        assert [u.id for u in got] == ["word_1", "word_5"]

    def test_reversed_range_raises(self):
        with pytest.raises(ReversedRangeError):
            resolve_span([span_cell(SpanExpr.parse("word_4..word_2").parts)],
                         self.units)

    def test_dangling_pointer_names_the_unit(self):
        with pytest.raises(DanglingPointerError) as err:
            resolve_span([span_cell(SpanExpr.parse("word_99").parts)],
                         self.units)
        assert err.value.unit_id == "word_99"
        assert "dangling-pointer" in str(err.value)

    @given(st.lists(st.integers(min_value=0, max_value=6), min_size=1, max_size=8))
    def test_span_for_indices_round_trips(self, indices):
        cell = span_for_indices(self.units, indices)
        got = resolve_span([cell], self.units)
        assert got == sorted(set(indices))

    def test_span_for_indices_prefers_ranges(self):
        assert str(SpanExpr(span_for_indices(self.units, [0, 1, 2, 5]))) == \
            "word_1..word_3 word_6"

    def test_span_for_indices_rejects_empty(self):
        with pytest.raises(SpanSyntaxError):
            span_for_indices(self.units, [])


class TestCoverageFingerprint:
    def test_matches_independent_digest(self):
        tokens = ["Madame", "Vauquer", ",", "née", "De"]
        expected = hashlib.sha256("\n".join(tokens).encode("utf-8")).hexdigest()
        assert coverage_fingerprint(tokens) == expected

    def test_empty_sequence_is_sha256_of_empty(self):
        assert coverage_fingerprint([]) == (
            "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855")

    def test_unicode_normalization_collapses_decompositions(self):
        composed = "née"
        decomposed = unicodedata.normalize("NFD", composed)
        assert composed != decomposed
        assert coverage_fingerprint([composed]) == coverage_fingerprint([decomposed])

    def test_case_and_diacritics_matter(self):
        base = coverage_fingerprint(["née"])
        assert coverage_fingerprint(["Née"]) != base
        assert coverage_fingerprint(["nee"]) != base

    def test_token_boundaries_matter(self):
        assert coverage_fingerprint(["ab", "c"]) != coverage_fingerprint(["a", "bc"])

    @given(st.lists(st.text(min_size=1, max_size=5), max_size=10))
    def test_deterministic(self, tokens):
        assert coverage_fingerprint(tokens) == coverage_fingerprint(list(tokens))


class TestAlignInline:
    units = segment_text("Madame Vauquer, née De Conflans,")

    def test_element_over_unit_run_becomes_range_span(self):
        doc = "<coref id=\"m1\">Madame Vauquer</coref>, née De Conflans,"
        items = align_inline(doc, self.units)
        assert len(items) == 1
        assert items[0].id == "m1"
        assert str(items[0].span) == "word_1..word_2"
        assert items[0].element == "coref"

    def test_boundary_whitespace_is_trimmed(self):
        doc = "<seg> Madame Vauquer, </seg>née De Conflans,"
        items = align_inline(doc, self.units)
        assert str(items[0].span) == "word_1..word_3"

    def test_ref_attribute_becomes_link(self):
        doc = ("<coref id=\"m1\">Madame Vauquer</coref>, née De "
               "<coref id=\"m2\" ref=\"m1\">Conflans</coref>,")
        items = align_inline(doc, self.units)
        assert items[1].links[0].type == "coref"
        assert items[1].links[0].targets == ("m1",)

    def test_boundary_inside_token_is_rejected(self):
        doc = "<b>Mad</b>ame Vauquer, née De Conflans,"
        with pytest.raises(MisalignmentError) as err:
            align_inline(doc, self.units)
        assert err.value.element == "b"
        assert "misalignment" in str(err.value)

    def test_diverging_text_is_rejected_with_position(self):
        doc = "Madame <x>Morin</x>, née De Conflans,"
        with pytest.raises(TextMismatchError) as err:
            align_inline(doc, self.units)
        assert err.value.position == 1

    def test_contraction_cannot_be_half_covered(self):
        units = segment_text("va au four")
        items = align_inline("va <x>au</x> four", units)
        assert str(items[0].span) == "word_2..word_3"

    def test_entities_unescape_before_comparison(self):
        units = segment_text("a & b")
        items = align_inline("<x>a &amp; b</x>", units)
        assert str(items[0].span) == "word_1..word_3"

    def test_round_trip_forms_survive(self):
        doc = "<seg><rs>Madame Vauquer</rs>, née <rs>De Conflans</rs>,</seg>"
        items = align_inline(doc, self.units)
        spans = [str(i.span) for i in items]
        assert spans == ["word_1..word_7", "word_1..word_2", "word_5..word_6"]


def _items(*values):
    return Items.of(values)


SEG_UNITS = segment_text("Madame Vauquer, née De Conflans,")


class TestReconstructCoverage:
    def test_segmentation_returns_own_forms(self):
        assert reconstruct_coverage("segmentation", SEG_UNITS, [], None) == [
            "Madame", "Vauquer", ",", "née", "De", "Conflans", ","]

    def test_pointer_level_dereferences_to_anchor(self):
        items = _items(AnnotationItem(span=SpanExpr.parse("word_2")),
                       AnnotationItem(span=SpanExpr.parse("word_4..word_5")))
        assert reconstruct_coverage(
            "morphosyntax", [], items, SEG_UNITS) == ["Vauquer", "née", "De"]

    def test_duplicated_references_count_once(self):
        items = _items(AnnotationItem(span=SpanExpr.parse("word_1..word_2")),
                       AnnotationItem(span=SpanExpr.parse("word_2")))
        assert reconstruct_coverage(
            "reference", [], items, SEG_UNITS) == ["Madame", "Vauquer"]

    def test_transitive_chain_through_pointer_level(self):
        # a syntax level over morphology resolves nested spans against
        # the segmentation both depend on
        items = _items(AnnotationItem(children=(
            AnnotationItem(span=SpanExpr.parse("word_3")),)))
        assert reconstruct_coverage("syntax", [], items, SEG_UNITS) == [","]

    def test_carrier_level_resegments_own_surfaces(self):
        items = _items(AnnotationItem(surface="Madame Vauquer,"),
                       AnnotationItem(surface="née De Conflans,"))
        assert reconstruct_coverage("structure", [], items, None) == [
            "Madame", "Vauquer", ",", "née", "De", "Conflans", ","]

    def test_unmaterialized_level_covers_nothing(self):
        assert reconstruct_coverage("reference", [], [], SEG_UNITS) == []

    def test_dangling_pointer_is_reported(self):
        items = _items(AnnotationItem(span=SpanExpr.parse("word_99")))
        with pytest.raises(DanglingPointerError):
            reconstruct_coverage("morphosyntax", [], items, SEG_UNITS)

    def test_chain_without_form_carrier_is_rejected(self):
        items = _items(AnnotationItem(span=SpanExpr.parse("word_1")))
        with pytest.raises(NoPrimaryAnchorError):
            reconstruct_coverage("reference", [], items, None)


# Ten units; ids past word_10 dangle.
ANCHOR = segment_text("Madame Vauquer , née De Conflans , est une vieille")
anchor_ids = st.integers(1, 12).map(lambda n: f"word_{n}")
cells_of_level = st.lists(
    st.none()
    | anchor_ids.map(lambda unit_id: SpanExpr(((unit_id, None),)))
    | st.lists(st.tuples(anchor_ids, st.none() | anchor_ids), min_size=1,
               max_size=3).map(lambda parts: SpanExpr(tuple(parts))),
    min_size=1, max_size=12)


def _outcome(compute):
    """What ``compute`` returns, or the type and message it raises."""
    try:
        return compute()
    except (DanglingPointerError, ReversedRangeError) as err:
        return type(err), str(err)


@given(cells_of_level)
@example([SpanExpr.parse("word_2"), SpanExpr.parse("word_5..word_3"),
          SpanExpr.parse("word_12")])
@example([SpanExpr.parse("word_12"), None, SpanExpr.parse("word_5..word_3")])
@example([SpanExpr.parse("word_3 word_1..word_2"), None,
          SpanExpr.parse("word_3")])
def test_span_cells_cover_what_their_parts_cover(spans_):
    """A level's span cells, lone ids among ranges and lists, cover the
    tokens that resolving each item's parts in turn gives, or raise its
    first error: built from items, parsed, and nested under one item."""
    items = [AnnotationItem(span=span, element="w") for span in spans_]
    expected = _outcome(lambda: pointer_coverage(items, ANCHOR))
    for level in (Items.of(items),
                  parse_standoff_items(serialize_standoff_items(items)),
                  Items.of([AnnotationItem(children=tuple(items))])):
        assert _outcome(lambda: reconstruct_coverage(
            "morphosyntax", [], level, ANCHOR)) == expected
