"""Manifest persistence: entity round-trips and strict parsing."""

import dataclasses
import pathlib

import pytest
from hypothesis import given, settings, strategies as st

from corpus_forge import manifest
from corpus_forge.errors import StoreError
from corpus_forge.formats import FORMATS
from corpus_forge.manifest import (
    dumps_corpus,
    escape_value,
    loads_corpus,
    unescape_value,
)
from corpus_forge.model import COVERAGE_VALUES, Corpus, Level, Resource, slugify
from corpus_forge.registry import Registry
from corpus_forge.versioning import Classification, VersionRecord
from strategies import kinds, metas, texts

FORMAT_1 = pathlib.Path(__file__).parent / "fixtures" / "format1.manifest"


def full_entities():
    corpus = Corpus(
        id="goriot", title="Le Père Goriot",
        language="fr",
        coverage_fingerprint="ab" * 32,
        declared_meta={"genre": "littéraire", "word-count": "100000"},
        created_at="2005-06-01T12:00:00Z")
    levels = [
        Level(id="goriot-segmentation-1", corpus_id="goriot",
              kind="segmentation", coverage="full",
              created_at="2005-06-01T12:00:00Z"),
        Level(id="goriot-morphosyntax-1", corpus_id="goriot",
              kind="morphosyntax", coverage="none",
              depends_on=(("goriot-segmentation-1", "anchors-to"),),
              declared_meta={"producer": "WinBrill"},
              created_at="2005-06-01T12:00:01Z"),
    ]
    resources = [
        Resource(id="goriot-r001", corpus_id="goriot", format="segmentation",
                 filename="goriot-r001.segmentation",
                 levels=("goriot-segmentation-1",),
                 depositor="atilf", deposited_at="2005-06-01T12:00:02Z",
                 validated=False, validator=None,
                 sha256="cd" * 32, size=154, available=True,
                 declared_meta={"license": "research-only"}),
        Resource(id="goriot-r002", corpus_id="goriot",
                 format="standoff-morpho",
                 filename="goriot-r002.standoff-morpho",
                 levels=("goriot-morphosyntax-1",),
                 depositor="", deposited_at="2005-06-01T12:00:03Z",
                 validated=True, validator="annotator",
                 sha256="ef" * 32, size=512, available=False),
    ]
    versions = [
        VersionRecord(
            id="goriot-morphosyntax-v1", corpus_id="goriot",
            level_kind="morphosyntax", level_id="goriot-morphosyntax-1",
            resource_id="goriot-r002", number=1,
            classification=Classification.INITIAL,
            granularity=frozenset({"part-of-speech", "lemma", "inflection"}),
            validated=True, validator="annotator",
            coverage="12" * 32,
            variant_groups=(("alt_1", 2),),
            supersedes=None,
            created_at="2005-06-01T12:00:03Z"),
    ]
    return corpus, levels, resources, versions


class TestRoundTrip:
    def test_full_round_trip(self):
        corpus, levels, resources, versions = full_entities()
        text = dumps_corpus(corpus, levels, resources, versions)
        corpus2, levels2, resources2, versions2 = loads_corpus(text)
        assert corpus2 == corpus
        assert levels2 == levels
        assert resources2 == resources
        assert versions2 == versions

    def test_dump_is_stable(self):
        entities = full_entities()
        assert dumps_corpus(*entities) == dumps_corpus(*entities)

    def test_reload_of_dump_of_load_is_identity(self):
        text = dumps_corpus(*full_entities())
        assert dumps_corpus(*loads_corpus(text)) == text

    def test_opens_with_format_preamble(self):
        text = dumps_corpus(*full_entities())
        assert text.startswith("archive-format: 1\n\n")

    def test_minimal_corpus(self):
        corpus = Corpus(id="x", title="X")
        text = dumps_corpus(corpus, [], [], [])
        corpus2, levels, resources, versions = loads_corpus(text)
        assert corpus2 == corpus
        assert levels == [] and resources == [] and versions == []

    def test_empty_granularity_round_trips(self):
        corpus, levels, resources, versions = full_entities()
        record = versions[0]
        bare = VersionRecord(
            id=record.id, corpus_id=record.corpus_id,
            level_kind=record.level_kind, level_id=record.level_id,
            resource_id=record.resource_id, number=1,
            classification=Classification.INITIAL,
            granularity=frozenset(), validated=False, validator=None,
            coverage="", variant_groups=(), supersedes=None,
            created_at="")
        text = dumps_corpus(corpus, [], [], [bare])
        _, _, _, loaded = loads_corpus(text)
        assert loaded[0].granularity == frozenset()
        assert loaded[0].variant_groups == ()


@st.composite
def entities(draw):
    """A corpus with levels, resources and versions as the archive makes
    them: level ids are ``<corpus>-<kind>-<n>``, every other text any."""
    corpus_id = slugify(draw(texts))
    level_kinds = draw(st.lists(kinds, max_size=3))
    level_ids = [f"{corpus_id}-{kind}-{n}"
                 for n, kind in enumerate(level_kinds, 1)]
    some_levels = (st.lists(st.sampled_from(level_ids), max_size=3).map(tuple)
                   if level_ids else st.just(()))
    corpus = Corpus(
        id=corpus_id, title=draw(texts), language=draw(texts),
        coverage_fingerprint=draw(st.none() | texts),
        declared_meta=draw(metas), created_at=draw(texts))
    levels = [Level(
        id=level_id, corpus_id=corpus_id, kind=kind,
        coverage=draw(st.sampled_from(COVERAGE_VALUES)),
        depends_on=tuple(zip(draw(some_levels), draw(st.lists(texts)))),
        declared_meta=draw(metas), created_at=draw(texts))
        for level_id, kind in zip(level_ids, level_kinds)]
    resources = [Resource(
        id=draw(texts), corpus_id=corpus_id,
        format=draw(st.sampled_from(sorted(FORMATS))),
        filename=draw(texts), levels=draw(some_levels),
        depositor=draw(texts), deposited_at=draw(texts),
        validated=draw(st.booleans()), validator=draw(st.none() | texts),
        sha256=draw(texts), size=draw(st.integers(0, 10**9)),
        available=draw(st.booleans()), declared_meta=draw(metas))
        for _ in range(draw(st.integers(0, 2)))]
    versions = [VersionRecord(
        id=draw(texts), corpus_id=corpus_id, level_kind=draw(texts),
        level_id=draw(texts), resource_id=draw(texts),
        number=draw(st.integers(1, 99)),
        classification=draw(st.sampled_from(Classification)),
        granularity=draw(st.frozensets(
            st.sampled_from(sorted(Registry.default().ids())), max_size=3)),
        validated=draw(st.booleans()), validator=draw(st.none() | texts),
        coverage=draw(texts),
        variant_groups=tuple(draw(st.lists(
            st.tuples(texts, st.integers(0, 99)), max_size=2))),
        supersedes=draw(st.none() | texts), created_at=draw(texts))
        for _ in range(draw(st.integers(0, 2)))]
    return corpus, levels, resources, versions


class TestEveryEntityRoundTrips:
    @settings(max_examples=30, deadline=None)
    @given(entities())
    def test_load_of_dump_is_identity(self, entities):
        corpus, levels, resources, versions = entities
        assert loads_corpus(dumps_corpus(*entities)) == (
            corpus, levels, resources, versions)

    @pytest.mark.parametrize("value", ["-", " padded ", "\\-", "a\rb",
                                       "\u2028", "\x85", "\x1c\x0b\x0c"])
    def test_awkward_optional_values(self, value):
        corpus = Corpus(id="x", title=value, language=value)
        resource = Resource(id="x-r001", corpus_id="x", format="segmentation",
                            filename="f", depositor=value, validator=value)
        loaded = loads_corpus(dumps_corpus(corpus, [], [resource], []))
        assert loaded == (corpus, [], [resource], [])

    def test_empty_and_missing_validator_differ(self):
        resources = [Resource(id=f"r{i}", corpus_id="x", format="segmentation",
                              filename="f", validator=v)
                     for i, v in enumerate((None, "", "-"))]
        text = dumps_corpus(Corpus(id="x", title="X"), [], resources, [])
        assert "validator: -\n" in text and "validator: \\-\n" in text
        assert loads_corpus(text)[2] == resources

    def test_group_id_with_a_bar(self):
        corpus, levels, resources, versions = full_entities()
        versions = [dataclasses.replace(versions[0],
                                        variant_groups=(("a|b", 2),))]
        assert loads_corpus(dumps_corpus(corpus, [], [], versions))[3] \
            == versions


class TestFormatOne:
    """A manifest written before the field table must keep its meaning."""

    def test_written_manifest_reloads_byte_for_byte(self):
        text = FORMAT_1.read_text(encoding="utf-8")
        assert "\nlevels: \n" in text  # an empty value keeps its ": "
        assert dumps_corpus(*loads_corpus(text)) == text

    def test_written_manifest_reads_its_fields(self):
        corpus, levels, resources, versions = loads_corpus(
            FORMAT_1.read_text(encoding="utf-8"))
        assert corpus.title == "Le Père Goriot \\ tome 1"
        assert levels[1].depends_on == (
            ("goriot-segmentation-1", "anchors-to"),
            ("goriot-segmentation-1", ""))
        assert levels[1].declared_meta["notes"] == "two\nlines"
        assert levels[1].created_at == ""
        assert [r.validator for r in resources] == [None, "annotator", None]
        assert (resources[1].depositor, resources[1].sha256) == ("", "")
        assert resources[2].levels == ()
        assert versions[0].variant_groups == (("alt_1", 2), ("alt_2", 3))
        assert versions[1].granularity == frozenset()
        assert versions[1].supersedes == "goriot-morphosyntax-v1"

    @pytest.mark.parametrize("block", [manifest.CORPUS, manifest.LEVEL,
                                       manifest.RESOURCE, manifest.VERSION])
    def test_each_attribute_has_one_row(self, block):
        attrs = [row[1] for row in block.fields]
        attrs += ["declared_meta"] if block.meta else []
        assert sorted(attrs) == sorted(
            f.name for f in dataclasses.fields(block.entity))


class TestEscaping:
    def test_newline_and_backslash(self):
        assert escape_value("a\nb\\c") == "a\\nb\\\\c"
        assert unescape_value("a\\nb\\\\c") == "a\nb\\c"

    def test_round_trip_awkward_title(self):
        corpus = Corpus(id="x", title="line one\nline two \\ end")
        text = dumps_corpus(corpus, [], [], [])
        assert "\nline two" not in text.split("title: ")[1].split("\n")[0]
        corpus2, *_ = loads_corpus(text)
        assert corpus2.title == corpus.title

    @pytest.mark.parametrize("value", [
        "plain", "with: colon", "tab\there", "trailing\\", "\\n literal",
    ])
    def test_escape_unescape_identity(self, value):
        assert unescape_value(escape_value(value)) == value


class TestStrictness:
    def dump(self):
        return dumps_corpus(*full_entities())

    def test_missing_preamble(self):
        text = "\n".join(self.dump().splitlines()[2:])
        with pytest.raises(StoreError):
            loads_corpus(text)

    def test_wrong_format_number(self):
        text = self.dump().replace("archive-format: 1", "archive-format: 9")
        with pytest.raises(StoreError):
            loads_corpus(text)

    def test_unknown_key_rejected(self):
        text = self.dump().replace("title:", "headline:")
        with pytest.raises(StoreError):
            loads_corpus(text)

    def test_repeated_key_rejected(self):
        text = self.dump().replace(
            "language: fr", "language: fr\nlanguage: en")
        with pytest.raises(StoreError):
            loads_corpus(text)

    def test_missing_required_key(self):
        lines = [l for l in self.dump().splitlines()
                 if not l.startswith("title:")]
        with pytest.raises(StoreError):
            loads_corpus("\n".join(lines))

    def test_two_corpus_blocks(self):
        corpus, levels, resources, versions = full_entities()
        block = dumps_corpus(corpus, [], [], []).split("\n\n", 1)[1]
        with pytest.raises(StoreError):
            loads_corpus(self.dump() + "\n" + block)

    def test_no_corpus_block(self):
        with pytest.raises(StoreError):
            loads_corpus("archive-format: 1\n")

    def test_unknown_block_type(self):
        with pytest.raises(StoreError):
            loads_corpus(self.dump() + "\nwidget: w1\ncorpus: goriot\n")

    def test_non_key_value_line(self):
        with pytest.raises(StoreError):
            loads_corpus(self.dump() + "\nstray line without separator\n")

    def test_malformed_variant_group(self):
        text = self.dump().replace("variant-group: alt_1|2",
                                   "variant-group: alt_1|two")
        with pytest.raises(StoreError):
            loads_corpus(text)


class TestModelHelpers:
    def test_slugify_strips_accents_and_case(self):
        assert slugify("Le Père Goriot") == "le-pere-goriot"

    def test_slugify_collapses_punctuation(self):
        assert slugify("L'Est Républicain (1999)") == "l-est-republicain-1999"

    def test_slugify_empty_falls_back(self):
        assert slugify("???") == "corpus"

    def test_level_classification(self):
        level = Level(id="l", corpus_id="c", kind="morphosyntax",
                      coverage="none")
        assert level.classify() == "Secondary"
        level = dataclasses.replace(level, coverage="partial")
        assert level.classify() == "Primary"
        level = dataclasses.replace(level, coverage="full")
        assert level.classify() == "Primary"
