"""Archive engine: registration, deposits, versioning, validation,
persistence, and concurrency."""

import ast
import dataclasses
import hashlib
import pathlib
import re
import sys
import tempfile
import threading
from datetime import datetime, timezone
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

from corpus_forge import archive as archive_mod
from corpus_forge.archive import Archive, LevelSpec, Snapshot
from corpus_forge.catalog import (
    build_resource_header,
    catalog_summary,
    corpus_header,
    corpus_record,
    export_catalog,
    level_header,
)
from corpus_forge.errors import (
    CorpusForgeError,
    DependencyCycleError,
    EmptyTitleError,
    NoLevelError,
    NoPrimaryAnchorError,
    ParseError,
    SpanSyntaxError,
    StoreError,
    UnknownDependencyError,
    UnknownEntityError,
)
from corpus_forge.manifest import dumps_corpus
from corpus_forge.model import Corpus, Level, LevelSummary, Resource
from corpus_forge.registry import Registry
from corpus_forge.standoff import (
    coverage_fingerprint,
    reconstruct_coverage,
    segment_text,
)
from corpus_forge.versioning import Classification
from strategies import kinds, metas, texts, titles

FIXTURES = pathlib.Path(__file__).parent / "fixtures"
ONE_WORD = '<word id="word_1">Madame</word>'

FIXED_MOMENT = datetime(2005, 6, 1, 12, 0, 0, tzinfo=timezone.utc)
FIXED_STAMP = "2005-06-01T12:00:00Z"


def fixture(name: str) -> str:
    return (FIXTURES / name).read_text(encoding="utf-8")


@pytest.fixture
def archive(tmp_path):
    return Archive(tmp_path / "store", clock=lambda: FIXED_MOMENT)


def goriot(archive):
    """Corpus with a materialized full segmentation; returns ids."""
    corpus = archive.register_corpus("Père Goriot", language="fr")
    seg = archive.add_level(corpus.id, "segmentation", "full")
    archive.deposit(corpus.id, fixture("goriot_segmentation_full.xml"),
                    "segmentation", levels=[seg.id])
    return corpus.id, seg.id


def morpho_level(archive, corpus_id, seg_id):
    return archive.add_level(corpus_id, "morphosyntax", "none",
                             depends_on=[seg_id])


def computed(archive, level_id):
    """The ``computed`` lines of a level's header, by key."""
    return dict(level_header(archive, level_id).computed)


def materialized(archive, level_id):
    return computed(archive, level_id)["materialized"] == "true"


class TestRegisterCorpus:
    def test_id_is_title_slug(self, archive):
        corpus = archive.register_corpus("Le Père Goriot")
        assert corpus.id == "le-pere-goriot"

    def test_slug_collisions_get_suffixes(self, archive):
        first = archive.register_corpus("Corpus")
        second = archive.register_corpus("Corpus")
        third = archive.register_corpus("CORPUS!")
        assert [first.id, second.id, third.id] == [
            "corpus", "corpus-2", "corpus-3"]

    def test_explicit_id(self, archive):
        corpus = archive.register_corpus("Père Goriot", corpus_id="goriot")
        assert corpus.id == "goriot"

    def test_duplicate_explicit_id_rejected(self, archive):
        archive.register_corpus("A", corpus_id="goriot")
        with pytest.raises(StoreError):
            archive.register_corpus("B", corpus_id="goriot")

    def test_empty_title_rejected(self, archive):
        with pytest.raises(EmptyTitleError):
            archive.register_corpus("   ")

    def test_meta_is_copied(self, archive):
        meta = {"genre": "littéraire"}
        corpus = archive.register_corpus("Père Goriot", meta=meta)
        meta["genre"] = "mutated"
        assert archive.corpus(corpus.id).declared_meta == {
            "genre": "littéraire"}

    def test_created_at_from_injected_clock(self, archive):
        corpus = archive.register_corpus("Père Goriot")
        assert corpus.created_at == FIXED_STAMP


class TestAddLevel:
    def test_ids_count_per_kind(self, archive):
        corpus = archive.register_corpus("X", corpus_id="x")
        first = archive.add_level("x", "segmentation", "full")
        second = archive.add_level("x", "segmentation", "partial")
        other = archive.add_level("x", "structure", "full")
        assert first.id == "x-segmentation-1"
        assert second.id == "x-segmentation-2"
        assert other.id == "x-structure-1"

    def test_unknown_corpus(self, archive):
        with pytest.raises(UnknownEntityError):
            archive.add_level("nope", "segmentation", "full")

    def test_invalid_coverage(self, archive):
        archive.register_corpus("X", corpus_id="x")
        with pytest.raises(StoreError):
            archive.add_level("x", "segmentation", "total")

    def test_invalid_kind(self, archive):
        archive.register_corpus("X", corpus_id="x")
        with pytest.raises(StoreError):
            archive.add_level("x", "two words", "full")

    def test_unknown_dependency(self, archive):
        archive.register_corpus("X", corpus_id="x")
        with pytest.raises(UnknownDependencyError):
            archive.add_level("x", "morphosyntax", "none",
                              depends_on=["x-segmentation-1"])

    def test_cross_corpus_dependency_rejected(self, archive):
        archive.register_corpus("X", corpus_id="x")
        archive.register_corpus("Y", corpus_id="y")
        seg = archive.add_level("y", "segmentation", "full")
        with pytest.raises(UnknownDependencyError):
            archive.add_level("x", "morphosyntax", "none",
                              depends_on=[seg.id])

    def test_dependency_purpose_recorded(self, archive):
        archive.register_corpus("X", corpus_id="x")
        seg = archive.add_level("x", "segmentation", "full")
        morpho = archive.add_level(
            "x", "morphosyntax", "none",
            depends_on=[(seg.id, "tags-the-units-of")])
        assert morpho.depends_on == ((seg.id, "tags-the-units-of"),)

    def test_meta_stored(self, archive):
        archive.register_corpus("X", corpus_id="x")
        level = archive.add_level("x", "morphosyntax", "none",
                                  meta={"producer": "WinBrill"})
        assert archive.level(level.id).declared_meta == {
            "producer": "WinBrill"}


class TestRefusedAtTheBoundary:
    """What a manifest line cannot hold is refused when it is offered, so
    the archive stays openable and reloads to the same state."""

    @pytest.mark.parametrize("key", ["bad\nkey", "bad\rkey", "bad: key"])
    def test_meta_key_refused_everywhere(self, archive, tmp_path, key):
        seg = archive.add_level(
            archive.register_corpus("X", corpus_id="x").id,
            "segmentation", "full")
        writes = [
            lambda: archive.register_corpus("Y", meta={key: "v"}),
            lambda: archive.add_level("x", "structure", "full",
                                      meta={key: "v"}),
            lambda: archive.deposit(
                "x", '<word id="word_1">Madame</word>', "segmentation",
                new_levels=[LevelSpec("segmentation", "full",
                                      meta=((key, "v"),))]),
            lambda: archive.deposit(
                "x", '<word id="word_1">Madame</word>', "segmentation",
                levels=[seg.id], meta={key: "v"}),
        ]
        for write in writes:
            with pytest.raises(StoreError, match=re.escape(repr(key))):
                write()
        reloaded = Archive(tmp_path / "store")
        assert export_catalog(reloaded) == export_catalog(archive)

    # A header would not show these: the entity's own field fills the
    # first key, or it shows both keys as one x- field.
    HIDDEN_META = {
        "corpus key beside its x- form": ("foo", lambda a, seg: (
            a.register_corpus("T", meta={"foo": "1", "x-foo": "2"}))),
        "corpus title": ("title", lambda a, seg: a.register_corpus(
            "T", language="fr", meta={"title": "Other"})),
        "corpus language": ("language", lambda a, seg: a.register_corpus(
            "T", meta={"language": "de"})),
        "level key beside its x- form": ("foo", lambda a, seg: (
            a.add_level("x", "structure", "full",
                        meta={"x-foo": "2", "foo": "1"}))),
        "new level key beside its x- form": ("foo", lambda a, seg: (
            a.deposit("x", ONE_WORD, "segmentation", new_levels=[LevelSpec(
                "segmentation", "full", meta=(("foo", "1"), ("x-foo", "2")))]
            ))),
        "resource key beside its x- form": ("foo", lambda a, seg: (
            a.deposit("x", ONE_WORD, "segmentation", levels=[seg],
                      meta={"foo": "1", "x-foo": "2"}))),
        "resource depositor": ("depositor", lambda a, seg: (
            a.deposit("x", ONE_WORD, "segmentation", levels=[seg],
                      depositor="me", meta={"depositor": "other"}))),
    }

    @pytest.mark.parametrize("case", sorted(HIDDEN_META))
    def test_meta_a_header_would_not_show_is_refused(self, archive, tmp_path,
                                                     case):
        archive.register_corpus("X", corpus_id="x")
        seg = archive.add_level("x", "segmentation", "full").id

        def tree():
            return {p.relative_to(tmp_path): p.read_bytes()
                    for p in sorted(tmp_path.rglob("*")) if p.is_file()}

        before, export = tree(), export_catalog(archive)
        key, write = self.HIDDEN_META[case]
        with pytest.raises(StoreError, match=re.escape(repr(key))):
            write(archive, seg)
        assert tree() == before
        assert export_catalog(archive) == export

    def test_stored_meta_a_header_hides_renders_as_before(self, archive,
                                                          tmp_path):
        archive.register_corpus("T", language="fr", meta={"genre": "g"},
                                corpus_id="t")
        path = tmp_path / "store" / "corpora" / "t" / "manifest"
        path.write_text(path.read_text(encoding="utf-8").replace(
            "meta-genre: g\n", "meta-foo: 1\nmeta-genre: g\n"
            "meta-language: de\nmeta-title: Other\nmeta-x-foo: 2\n"),
            encoding="utf-8")
        assert corpus_header(Archive(tmp_path / "store"), "t").declared == (
            ("genre", "g"), ("language", "fr"), ("title", "T"),
            ("x-foo", "1"), ("x-foo", "2"))

    # Lines a hand-edited manifest adds after an entity's meta line, and
    # the entity and key ``validate`` names.
    STORED_HIDDEN_META = {
        "corpus key beside its x- form": (
            "meta-genre: g\n", "meta-foo: 1\nmeta-x-foo: 2\n", "t", "foo"),
        "corpus title": ("meta-genre: g\n", "meta-title: Other\n", "t",
                         "title"),
        "corpus language": ("meta-genre: g\n", "meta-language: de\n", "t",
                            "language"),
        "level key beside its x- form": (
            "meta-k: v\n", "meta-x-k: w\n", "t-segmentation-1", "k"),
        "resource depositor": ("meta-r: 1\n", "meta-depositor: other\n",
                               "t-r001", "depositor"),
    }

    @pytest.mark.parametrize("case", sorted(STORED_HIDDEN_META))
    def test_validate_reports_stored_meta_a_header_hides(self, archive,
                                                         tmp_path, case):
        archive.register_corpus("T", language="fr", meta={"genre": "g"},
                                corpus_id="t")
        seg = archive.add_level("t", "segmentation", "full", meta={"k": "v"})
        archive.deposit("t", ONE_WORD, "segmentation", levels=[seg.id],
                        meta={"r": "1"})
        assert archive.validate() == []
        line, added, subject, key = self.STORED_HIDDEN_META[case]
        path = tmp_path / "store" / "corpora" / "t" / "manifest"
        path.write_text(path.read_text(encoding="utf-8").replace(
            line, line + added), encoding="utf-8")
        (violation,) = Archive(tmp_path / "store").validate()
        assert (violation.code, violation.subject) == ("hidden-meta", subject)
        assert repr(key) in violation.message

    @settings(max_examples=20, deadline=None)
    @given(meta=metas, level_meta=metas, resource_meta=metas)
    def test_every_declared_field_shows_in_its_header(self, meta, level_meta,
                                                      resource_meta):
        with tempfile.TemporaryDirectory() as root:
            archive = Archive(root)
            corpus = archive.register_corpus("T", "fr", meta)
            seg = archive.add_level(corpus.id, "segmentation", "full",
                                    meta=level_meta)
            resource = archive.deposit(
                corpus.id, ONE_WORD, "segmentation", levels=[seg.id],
                depositor="me", meta=resource_meta).resource
            # Each header also shows its entity's own declared fields:
            # title and language, none, depositor.
            for header, declared, own in [
                    (corpus_header(archive, corpus.id), meta, 2),
                    (level_header(archive, seg.id), level_meta, 0),
                    (build_resource_header(resource), resource_meta, 1)]:
                keys = {key for key, _ in header.declared}
                assert len(keys) == len(declared) + own
                for key, value in declared.items():
                    assert ((key, value) in header.declared
                            or (f"x-{key}", value) in header.declared)

    @pytest.mark.parametrize("kind", ["a,b", "a|b"])
    def test_kind_with_a_list_separator_refused(self, archive, kind):
        archive.register_corpus("X", corpus_id="x")
        with pytest.raises(StoreError, match=re.escape(repr(kind))):
            archive.add_level("x", kind, "full")
        assert archive.levels("x") == []

    SURROGATE_WRITES = {
        "depositor": lambda a, seg, st: a.deposit(
            "x", ONE_WORD, "segmentation",
            levels=[seg], depositor="\ud800"),
        "validator": lambda a, seg, st: a.deposit(
            "x", ONE_WORD, "segmentation",
            levels=[seg], validated=True, validator="v\udc00"),
        "payload": lambda a, seg, st: a.deposit(
            "x", '<word id="word_1">Mad\ud800</word>', "segmentation",
            levels=[seg]),
        "title": lambda a, seg, st: a.register_corpus("\ud800x"),
        "language": lambda a, seg, st: a.register_corpus(
            "Y", language="fr\udfff"),
        "meta 'k'": lambda a, seg, st: a.register_corpus(
            "Y", meta={"k": "\udc00"}),
        "meta key": lambda a, seg, st: a.add_level(
            "x", "structure", "full", meta={"\ud800": "v"}),
        "level kind": lambda a, seg, st: a.add_level(
            "x", "seg\ud800", "full"),
        "dependency purpose": lambda a, seg, st: a.add_dependency(
            st, seg, "\ud800"),
        "deposit meta": lambda a, seg, st: a.deposit(
            "x", ONE_WORD, "segmentation",
            levels=[seg], meta={"k": "\udc00"}),
        "table title": lambda a, seg, st: a.register_table(
            "T\ud800\t-\t-\tsegmentation"),
    }
    SURROGATE_FIELDS = {"deposit meta": "meta 'k'", "table title": "title"}

    @pytest.mark.parametrize("case", sorted(SURROGATE_WRITES))
    def test_lone_surrogate_refused_before_any_write(self, archive, tmp_path,
                                                     case):
        archive.register_corpus("X", corpus_id="x")
        seg = archive.add_level("x", "segmentation", "full").id
        structure = archive.add_level("x", "structure", "full").id

        def tree():
            return {p.relative_to(tmp_path): p.read_bytes()
                    for p in sorted(tmp_path.rglob("*")) if p.is_file()}

        before = tree()
        field = self.SURROGATE_FIELDS.get(case, case)
        with pytest.raises(StoreError, match=re.escape(field)):
            self.SURROGATE_WRITES[case](archive, seg, structure)
        assert tree() == before
        reloaded = Archive(tmp_path / "store")
        assert export_catalog(reloaded) == export_catalog(archive)

    def test_unit_id_with_a_final_newline_is_refused(self, archive, tmp_path):
        # No span could reach it: "word_1" is not "word_1\n".
        seg = archive.add_level(
            archive.register_corpus("X", corpus_id="x").id,
            "segmentation", "full")
        with pytest.raises(SpanSyntaxError):
            archive.deposit("x", '<word id="word_1\n">Madame</word>',
                            "segmentation", levels=[seg.id])
        assert archive.resources("x") == []
        assert not (tmp_path / "store" / "corpora" / "x" / "resources").exists()

    @pytest.mark.parametrize("corpus_id", [
        "../escape", "../../x", "a/b", "Goriot", "", "-x", "a--b"])
    def test_corpus_id_must_be_a_slug(self, archive, tmp_path, corpus_id):
        with pytest.raises(StoreError, match=re.escape(repr(corpus_id))):
            archive.register_corpus("T", corpus_id=corpus_id)
        assert archive.corpora() == []
        assert sorted(p.name for p in tmp_path.iterdir()) == []


class TestIdsAcrossCorpora:
    """A corpus id may be another corpus's id plus a kind prefix."""

    def test_level_ids_never_collide(self, archive, tmp_path):
        archive.register_corpus("A", corpus_id="a")
        archive.register_corpus("A B", corpus_id="a-b")
        seg = archive.add_level("a-b", "segmentation", "full")
        odd = archive.add_level("a", "b-segmentation", "full")
        assert seg.id != odd.id
        assert [l.id for l in archive.levels("a-b")] == [seg.id]
        assert [l.id for l in archive.levels("a")] == [odd.id]
        reloaded = Archive(tmp_path / "store")
        assert reloaded.levels("a-b") == archive.levels("a-b")
        assert export_catalog(reloaded) == export_catalog(archive)

    def test_version_records_stay_with_their_corpus(self, archive, tmp_path):
        table = fixture("fig04_tabular_morpho.tsv")
        for corpus_id, kind in (("a-b", "morphosyntax"),
                                ("a", "b-morphosyntax")):
            archive.register_corpus(corpus_id, corpus_id=corpus_id)
            archive.deposit(corpus_id, table, "tabular-morpho",
                            new_levels=[LevelSpec(kind, "partial")])
        for reader in (archive, Archive(tmp_path / "store")):
            assert [v.level_kind for v in reader.versions("a-b")] \
                == ["morphosyntax"]
            assert [v.level_kind for v in reader.versions("a")] \
                == ["b-morphosyntax"]
        assert archive.versions("a")[0].id == archive.versions("a-b")[0].id


class TestAddDependency:
    def test_wires_dependency(self, archive):
        archive.register_corpus("X", corpus_id="x")
        seg = archive.add_level("x", "segmentation", "full")
        morpho = archive.add_level("x", "morphosyntax", "none")
        archive.add_dependency(morpho.id, seg.id)
        assert archive.level(morpho.id).depends_on == ((seg.id, "anchors-to"),)

    def test_self_cycle_rejected(self, archive):
        archive.register_corpus("X", corpus_id="x")
        level = archive.add_level("x", "morphosyntax", "none")
        with pytest.raises(DependencyCycleError):
            archive.add_dependency(level.id, level.id)

    def test_two_level_cycle_rejected(self, archive):
        archive.register_corpus("X", corpus_id="x")
        a = archive.add_level("x", "syntax", "none")
        b = archive.add_level("x", "morphosyntax", "none")
        archive.add_dependency(a.id, b.id)
        with pytest.raises(DependencyCycleError):
            archive.add_dependency(b.id, a.id)

    def test_cross_corpus_rejected(self, archive):
        archive.register_corpus("X", corpus_id="x")
        archive.register_corpus("Y", corpus_id="y")
        a = archive.add_level("x", "syntax", "none")
        b = archive.add_level("y", "segmentation", "full")
        with pytest.raises(UnknownDependencyError):
            archive.add_dependency(a.id, b.id)

    def test_unknown_dependency_is_refused_as_add_level_refuses_it(
            self, archive):
        archive.register_corpus("X", corpus_id="x")
        morpho = archive.add_level("x", "morphosyntax", "none")
        refused = []
        for write in (
                lambda: archive.add_level("x", "syntax", "none",
                                          depends_on=["x-nope-1"]),
                lambda: archive.add_dependency(morpho.id, "x-nope-1")):
            with pytest.raises(UnknownDependencyError) as err:
                write()
            refused.append(err.value.message)
        assert refused == ["dependency 'x-nope-1' does not exist"] * 2
        # The level being wired is not a dependency.
        with pytest.raises(UnknownEntityError):
            archive.add_dependency("x-nope-1", morpho.id)

    def test_rewired_level_reads_as_a_reload_would(self, archive, tmp_path):
        archive.register_corpus("X", corpus_id="x")
        other, seg = (archive.add_level("x", "segmentation", "partial")
                      for _ in range(2))
        for level, words in ((other, ("Autre", "texte")),
                             (seg, ("Madame", "Vauquer"))):
            archive.deposit("x", "".join(
                f'<word id="word_{i}">{w}</word>'
                for i, w in enumerate(words, 1)), "segmentation",
                levels=[level.id])
        ref = archive.add_level("x", "reference", "none", depends_on=[seg.id])
        archive.deposit("x", '<coref id="1">Madame Vauquer</coref>',
                        "inline-coref", levels=[ref.id])
        # A tie by id: the other segmentation anchors now, and the
        # payload, aligned on "Madame Vauquer", does not align on it.
        archive.add_dependency(ref.id, other.id)
        assert archive.anchor(ref.id) == other.id
        assert [(v.code, v.subject) for v in archive.validate("x")] \
            == [("text-mismatch", ref.id)]
        assert export_catalog(archive) \
            == export_catalog(Archive(tmp_path / "store"))


class TestDepositBasics:
    def test_segmentation_deposit_materializes_units(self, archive):
        corpus_id, seg_id = goriot(archive)
        units = archive.level_units(seg_id)
        assert len(units) == 76
        assert units[0].form == "Madame"
        assert units[0].id == "word_27"
        assert [u.index for u in units[:4]] == [0, 1, 2, 3]

    def test_full_segmentation_sets_corpus_fingerprint(self, archive):
        corpus_id, seg_id = goriot(archive)
        tokens = [u.form for u in archive.level_units(seg_id)]
        assert (archive.corpus(corpus_id).coverage_fingerprint
                == coverage_fingerprint(tokens))

    def test_payload_stored_verbatim(self, archive):
        corpus_id, seg_id = goriot(archive)
        resource = archive.resources(corpus_id)[0]
        assert (archive.resource_payload(resource.id)
                == fixture("goriot_segmentation_full.xml"))

    def test_resource_ids_count_up(self, archive):
        corpus_id, seg_id = goriot(archive)
        morpho = morpho_level(archive, corpus_id, seg_id)
        result = archive.deposit(
            corpus_id, fixture("goriot_standoff_morpho_full.xml"),
            "standoff-morpho", levels=[morpho.id])
        assert result.resource.id == f"{corpus_id}-r002"

    def test_unknown_format_rejected(self, archive):
        corpus_id, seg_id = goriot(archive)
        with pytest.raises(StoreError):
            archive.deposit(corpus_id, "x", "csv", levels=[seg_id])

    def test_no_target_level_rejected(self, archive):
        corpus_id, _ = goriot(archive)
        with pytest.raises(NoLevelError):
            archive.deposit(corpus_id, "<word id=\"word_1\">a</word>",
                            "segmentation")

    def test_cross_corpus_level_rejected(self, archive):
        corpus_id, seg_id = goriot(archive)
        archive.register_corpus("Other", corpus_id="other")
        with pytest.raises(UnknownEntityError):
            archive.deposit("other", "<word id=\"word_1\">a</word>",
                            "segmentation", levels=[seg_id])

    def test_segmentation_payload_needs_segmentation_level(self, archive):
        corpus_id, seg_id = goriot(archive)
        morpho = morpho_level(archive, corpus_id, seg_id)
        with pytest.raises(StoreError):
            archive.deposit(corpus_id, "<word id=\"word_1\">a</word>",
                            "segmentation", levels=[morpho.id])

    def test_bytes_payload_accepted(self, archive):
        corpus_id, _ = goriot(archive)
        seg2 = archive.add_level(corpus_id, "segmentation", "partial")
        payload = "<word id=\"word_900\">hé</word>".encode("utf-8")
        archive.deposit(corpus_id, payload, "segmentation", levels=[seg2.id])
        assert archive.level_units(seg2.id)[0].form == "hé"

    def test_invalid_utf8_rejected(self, archive):
        corpus_id, seg_id = goriot(archive)
        with pytest.raises(ParseError):
            archive.deposit(corpus_id, b"\xff\xfe", "segmentation",
                            levels=[seg_id])

    def test_failed_parse_leaves_no_trace(self, archive):
        corpus_id, seg_id = goriot(archive)
        before_levels = [l.id for l in archive.levels(corpus_id)]
        before_resources = [r.id for r in archive.resources(corpus_id)]
        with pytest.raises(ParseError):
            archive.deposit(
                corpus_id, "<word id='word_1'>unclosed",
                "segmentation",
                new_levels=[LevelSpec("segmentation", "partial")])
        assert [l.id for l in archive.levels(corpus_id)] == before_levels
        assert [r.id for r in archive.resources(corpus_id)] \
            == before_resources

    def test_level_id_minted_by_a_failed_write_stays_free(self, archive):
        corpus_id, _ = goriot(archive)
        minted = f"{corpus_id}-segmentation-2"
        with pytest.raises(ParseError):
            archive.deposit(
                corpus_id, "<word id='word_1'>unclosed", "segmentation",
                new_levels=[LevelSpec("segmentation", "partial")])
        with pytest.raises(UnknownEntityError):
            archive.level(minted)
        assert archive.add_level(corpus_id, "segmentation", "partial").id \
            == minted
        assert archive.level(minted).corpus_id == corpus_id

    def test_failed_commit_leaves_no_trace(self, archive, tmp_path):
        archive.register_corpus("T", corpus_id="t")
        seg = archive.add_level("t", "segmentation", "full")
        archive.deposit("t", "\n".join(
            f'<word id="word_{i}">w{i}</word>' for i in (1, 2, 3)),
            "segmentation", levels=[seg.id])
        corpus_dir = tmp_path / "store" / "corpora" / "t"
        manifest = (corpus_dir / "manifest").read_text(encoding="utf-8")
        stored = sorted(p.name for p in (corpus_dir / "resources").iterdir())
        levels, resources = archive.levels("t"), archive.resources("t")
        with pytest.raises(StoreError):
            archive.deposit(
                "t", '<word id="word_2">again</word>', "segmentation",
                levels=[seg.id],
                new_levels=[LevelSpec("segmentation", "partial")])
        assert archive.levels("t") == levels
        assert archive.resources("t") == resources
        assert (corpus_dir / "manifest").read_text(encoding="utf-8") \
            == manifest
        assert sorted(p.name for p in (corpus_dir / "resources").iterdir()) \
            == stored
        archive.add_level("t", "structure", "full")
        assert archive.validate("t") == []

    def test_duplicate_unit_ids_rejected_across_deposits(self, archive):
        corpus_id, seg_id = goriot(archive)
        with pytest.raises(StoreError):
            archive.deposit(corpus_id,
                            "<word id=\"word_27\">Madame</word>",
                            "segmentation", levels=[seg_id])


class TestDepositNewLevels:
    def test_new_level_created_with_deposit(self, archive):
        corpus_id, seg_id = goriot(archive)
        result = archive.deposit(
            corpus_id, fixture("goriot_standoff_morpho_full.xml"),
            "standoff-morpho",
            new_levels=[LevelSpec("morphosyntax", "none",
                                  depends_on=(seg_id,))])
        level_id = result.levels[0]
        assert level_id == f"{corpus_id}-morphosyntax-1"
        assert archive.level(level_id).depends_on == ((seg_id, "anchors-to"),)
        assert materialized(archive, level_id)

    def test_pending_levels_may_depend_on_each_other(self, archive):
        corpus = archive.register_corpus("Fresh", corpus_id="fresh")
        result = archive.deposit(
            "fresh", fixture("fig03_segmentation.xml"), "segmentation",
            new_levels=[LevelSpec("segmentation", "full")])
        seg_id = result.levels[0]
        result = archive.deposit(
            "fresh", fixture("fig05_standoff_morpho.xml"), "standoff-morpho",
            new_levels=[LevelSpec("morphosyntax", "none",
                                  depends_on=(seg_id,))])
        assert archive.level(result.levels[0]).depends_on == (
            (seg_id, "anchors-to"),)
        assert archive.anchor(result.levels[0]) == seg_id


class TestStandoffDeposits:
    def test_standoff_morpho_reconstructs_segmentation_coverage(
            self, archive):
        corpus_id, seg_id = goriot(archive)
        morpho = morpho_level(archive, corpus_id, seg_id)
        archive.deposit(corpus_id, fixture("goriot_standoff_morpho_full.xml"),
                        "standoff-morpho", levels=[morpho.id])
        seg_tokens = [u.form for u in archive.level_units(seg_id)]
        assert archive.coverage(morpho.id) == seg_tokens

    def test_inline_coref_aligns_on_anchor(self, archive):
        corpus_id, seg_id = goriot(archive)
        ref = archive.add_level(corpus_id, "reference", "none",
                                depends_on=[seg_id])
        archive.deposit(corpus_id, fixture("fig08_inline_coref.xml"),
                        "inline-coref", levels=[ref.id])
        items = archive.level_items(ref.id)
        assert [(i.id, str(i.span)) for i in items] == [
            ("1", "word_47..word_49"), ("2", "word_63..word_64")]

    def test_inline_coref_without_anchor_rejected(self, archive):
        corpus_id, _ = goriot(archive)
        orphan = archive.add_level(corpus_id, "reference", "none")
        with pytest.raises(NoPrimaryAnchorError):
            archive.deposit(corpus_id, fixture("fig08_inline_coref.xml"),
                            "inline-coref", levels=[orphan.id])

    def test_inline_morpho_is_standalone_without_anchor(self, archive):
        corpus = archive.register_corpus("Lonely", corpus_id="lonely")
        level = archive.add_level("lonely", "morphosyntax", "partial")
        archive.deposit("lonely", fixture("fig11_inline_morpho.xml"),
                        "inline-morpho", levels=[level.id])
        items = archive.level_items(level.id)
        assert items[0].surface is not None
        assert items[0].span is None

    def test_inline_morpho_aligns_when_anchored(self, archive):
        corpus = archive.register_corpus("Anchored", corpus_id="anchored")
        seg = archive.add_level("anchored", "segmentation", "full")
        units = segment_text("C'est moi qui suis l'auteur de ta joie.")
        payload = "\n".join(
            f'<word id="{u.id}">{u.form}</word>' for u in units)
        archive.deposit("anchored", payload, "segmentation", levels=[seg.id])
        morpho = archive.add_level("anchored", "morphosyntax", "none",
                                   depends_on=[seg.id])
        archive.deposit("anchored", fixture("fig11_inline_morpho.xml"),
                        "inline-morpho", levels=[morpho.id])
        items = archive.level_items(morpho.id)
        assert items[0].span is not None
        assert archive.coverage(morpho.id)[:2] == ["C'", "est"]


    def test_inline_payload_reloads_on_the_units_deposited_before_it(
            self, archive, tmp_path):
        archive.register_corpus("T", corpus_id="t")
        seg = archive.add_level("t", "segmentation", "partial")
        archive.deposit("t", '<word id="word_1">Madame</word>\n'
                        '<word id="word_2">Vauquer</word>', "segmentation",
                        levels=[seg.id])
        ref = archive.add_level("t", "reference", "none", depends_on=[seg.id])
        archive.deposit("t", '<coref id="1">Madame Vauquer</coref>',
                        "inline-coref", levels=[ref.id])
        archive.deposit("t", '<word id="word_3">dit</word>', "segmentation",
                        levels=[seg.id])
        assert archive.validate("t") == []
        for reloaded in (Archive(tmp_path / "store"),
                         Archive(tmp_path / "store", defer_parse=True)):
            # Aligned on all three units, the payload is a text-mismatch.
            assert reloaded.coverage(ref.id) == archive.coverage(ref.id)
            assert reloaded.validate("t") == []
            assert export_catalog(reloaded) == export_catalog(archive)


class TestSplitSegmentation:
    PART_A = ("<word id=\"word_1\">Art</word>\n"
              "<word id=\"word_2\">Nouveau</word>\n"
              "<word id=\"word_3\">,</word>")
    PART_B = ("<word id=\"word_4\">dit</word>\n"
              "<word id=\"word_5\">modern</word>\n"
              "<word id=\"word_6\">style</word>")

    def setup_split(self, archive):
        archive.register_corpus("Art Nouveau", corpus_id="artnouveau")
        seg = archive.add_level("artnouveau", "segmentation", "full")
        archive.deposit("artnouveau", self.PART_A, "segmentation",
                        levels=[seg.id])
        archive.deposit("artnouveau", self.PART_B, "segmentation",
                        levels=[seg.id])
        return seg

    def test_indices_stay_contiguous(self, archive):
        seg = self.setup_split(archive)
        units = archive.level_units(seg.id)
        assert [u.index for u in units] == list(range(6))
        assert [u.form for u in units] == [
            "Art", "Nouveau", ",", "dit", "modern", "style"]

    def test_spans_resolve_across_both_deposits(self, archive):
        seg = self.setup_split(archive)
        morpho = archive.add_level("artnouveau", "morphosyntax", "none",
                                   depends_on=[seg.id])
        payload = ("<w span=\"word_2..word_5\"\tmsd=\"Nc\""
                   "\tlemma=\"nouveau\"/>")
        archive.deposit("artnouveau", payload, "standoff-morpho",
                        levels=[morpho.id])
        assert archive.coverage(morpho.id) == [
            "Nouveau", ",", "dit", "modern"]

    def test_a_span_resolves_on_the_anchor_as_it_stands_when_read(
            self, archive):
        """A span names unit ids, which resolve when the level is read:
        one that dangles at its deposit resolves once a later deposit
        into its anchor adds the unit, in process and after a reload."""
        archive.register_corpus("T", corpus_id="t")
        seg = archive.add_level("t", "segmentation", "full")
        archive.deposit("t", ONE_WORD, "segmentation", levels=[seg.id])
        result = archive.deposit(
            "t", '<w span="word_1..word_2" lemma="madame"/>',
            "standoff-morpho",
            new_levels=[LevelSpec("morphosyntax", "none", (seg.id,))])
        (morpho,) = result.levels
        assert result.records[0].coverage == ""
        assert [(v.code, v.subject) for v in archive.validate("t")] == [
            ("dangling-pointer", morpho)]
        archive.deposit("t", '<word id="word_2">Vauquer</word>',
                        "segmentation", levels=[seg.id])
        for store in (archive, Archive(archive.root),
                      Archive(archive.root, defer_parse=True)):
            assert store.coverage(morpho) == ["Madame", "Vauquer"]
            assert "dangling-pointer" not in {
                v.code for v in store.validate("t")}

    def test_fingerprint_skips_a_target_whose_coverage_raises(self,
                                                              archive):
        archive.register_corpus("T", corpus_id="t")
        seg = archive.add_level("t", "segmentation", "partial")
        archive.deposit("t", self.PART_A, "segmentation", levels=[seg.id])
        assert archive.corpus("t").coverage_fingerprint is None
        # The first target anchors on nothing: its coverage raises
        # NoPrimaryAnchorError, and the second one's gives the fingerprint.
        unanchored = archive.add_level("t", "reference", "full")
        anchored = archive.add_level("t", "reference", "full",
                                     depends_on=[seg.id])
        archive.deposit("t", '<item span="word_2..word_3"/>',
                        "standoff-items", levels=[unanchored.id, anchored.id])
        with pytest.raises(NoPrimaryAnchorError):
            archive.coverage(unanchored.id)
        assert archive.corpus("t").coverage_fingerprint \
            == coverage_fingerprint(["Nouveau", ","])

    def test_fingerprint_set_only_once(self, archive):
        seg = self.setup_split(archive)
        corpus = archive.corpus("artnouveau")
        # the fingerprint reflects the first materialization event and
        # does not silently chase later growth
        assert corpus.coverage_fingerprint == coverage_fingerprint(
            ["Art", "Nouveau", ","])


class TestCompositeDeposit:
    def test_one_resource_feeds_two_levels(self, archive):
        corpus_id, seg_id = goriot(archive)
        syntax = archive.add_level(corpus_id, "syntax", "none")
        morpho = archive.add_level(corpus_id, "morphosyntax", "partial")
        result = archive.deposit(
            corpus_id, fixture("fig06_syntax.vis"), "syntax-constituency",
            levels=[syntax.id, morpho.id])
        trees = archive.level_items(syntax.id)
        leaves = archive.level_items(morpho.id)
        assert len(trees) == 7
        assert any(t.children for t in trees)
        assert all(not leaf.children for leaf in leaves)
        assert all(leaf.surface is not None for leaf in leaves)
        assert result.resource.levels == (syntax.id, morpho.id)
        assert {r.level_kind for r in result.records} == {
            "syntax", "morphosyntax"}

    def test_version_chains_stay_per_kind(self, archive):
        corpus_id, seg_id = goriot(archive)
        syntax = archive.add_level(corpus_id, "syntax", "none")
        morpho = archive.add_level(corpus_id, "morphosyntax", "partial")
        archive.deposit(corpus_id, fixture("fig06_syntax.vis"),
                        "syntax-constituency", levels=[syntax.id, morpho.id])
        assert [v.level_kind for v in archive.versions(corpus_id)] == [
            "morphosyntax", "segmentation", "syntax"]


    def test_a_deep_tree_deposits_and_reads(self, archive):
        # Deeper than Python's recursion limit.  A deep tree is compared
        # node by node: == and repr recurse.
        depth = 1_200
        corpus_id, seg_id = goriot(archive)
        syntax = archive.add_level(corpus_id, "syntax", "none",
                                   depends_on=[seg_id])
        archive.deposit(corpus_id, "".join(
            f"{'=' * d}C:np\n" for d in range(depth))
            + f"{'=' * depth}N:n\tMadame\n",
            "syntax-constituency", levels=[syntax.id])
        for read in (archive, Archive(archive.root)):
            assert read.coverage(syntax.id) == ["Madame"]
            assert read.validate(corpus_id) == []
            (node,) = read.level_items(syntax.id)
            for _ in range(depth):
                (node,) = node.children
            assert (node.surface, node.children) == ("Madame", ())


class TestVersionChains:
    def seed_morpho(self, archive):
        corpus_id, seg_id = goriot(archive)
        morpho = morpho_level(archive, corpus_id, seg_id)
        first = archive.deposit(
            corpus_id, fixture("goriot_standoff_morpho_full.xml"),
            "standoff-morpho", levels=[morpho.id])
        return corpus_id, seg_id, morpho, first

    def test_first_deposit_is_initial(self, archive):
        _, _, _, first = self.seed_morpho(archive)
        record = first.records[0]
        assert record.classification is Classification.INITIAL
        assert record.number == 1
        assert record.supersedes is None
        assert record.granularity == frozenset(
            {"part-of-speech", "inflection", "lemma"})

    def test_same_again_is_parallel(self, archive):
        corpus_id, seg_id, morpho, _ = self.seed_morpho(archive)
        second = archive.add_level(corpus_id, "morphosyntax", "none",
                                   depends_on=[seg_id])
        result = archive.deposit(
            corpus_id, fixture("goriot_standoff_morpho_full.xml"),
            "standoff-morpho", levels=[second.id])
        record = result.records[0]
        assert record.classification is Classification.PARALLEL
        assert record.number == 2
        assert record.supersedes is None

    def test_extra_category_is_parallel_enriched(self, archive):
        corpus_id, seg_id, morpho, _ = self.seed_morpho(archive)
        second = archive.add_level(corpus_id, "morphosyntax", "none",
                                   depends_on=[seg_id])
        payload = ("<w span=\"word_36\"\tmsd=\"ADJ1:f:s\"\tlemma=\"vieille\""
                   "\tadv-subclass=\"degré\"/>")
        result = archive.deposit(corpus_id, payload, "standoff-morpho",
                                 levels=[second.id])
        record = result.records[0]
        assert record.classification is Classification.PARALLEL_ENRICHED
        assert "adverb-subclass" in record.granularity

    def test_coarser_not_validated_is_supplementary(self, archive):
        corpus_id, seg_id, morpho, _ = self.seed_morpho(archive)
        second = archive.add_level(corpus_id, "morphosyntax", "none",
                                   depends_on=[seg_id])
        payload = "<w span=\"word_27\"\tmsd=\" \"\tlemma=\"madame\"/>"
        result = archive.deposit(corpus_id, payload, "standoff-morpho",
                                 levels=[second.id])
        assert result.records[0].classification \
            is Classification.SUPPLEMENTARY

    def test_validated_equal_is_exhaustive_correction(self, archive):
        corpus_id, seg_id, morpho, first = self.seed_morpho(archive)
        result = archive.deposit(
            corpus_id, fixture("goriot_standoff_morpho_full.xml"),
            "standoff-morpho", levels=[morpho.id],
            validated=True, validator="annotator")
        record = result.records[0]
        assert record.classification is Classification.EXHAUSTIVE_CORRECTION
        assert record.supersedes == first.records[0].id
        assert record.validated is True
        assert record.validator == "annotator"

    def test_validated_different_is_transverse_correction(self, archive):
        corpus_id, seg_id, morpho, first = self.seed_morpho(archive)
        second = archive.add_level(corpus_id, "morphosyntax", "none",
                                   depends_on=[seg_id])
        payload = "<w span=\"word_27\"\tmsd=\" \"\tlemma=\"madame\"/>"
        result = archive.deposit(corpus_id, payload, "standoff-morpho",
                                 levels=[second.id],
                                 validated=True, validator="annotator")
        record = result.records[0]
        assert record.classification is Classification.TRANSVERSE_CORRECTION
        assert record.supersedes == first.records[0].id

    def test_variant_groups_counted(self, archive):
        corpus_id, seg_id = goriot(archive)
        ref = archive.add_level(corpus_id, "reference", "none",
                                depends_on=[seg_id])
        result = archive.deposit(corpus_id, fixture("fig10_referential.xml"),
                                 "referential-standoff", levels=[ref.id])
        assert result.records[0].variant_groups == (("alt_1", 2),)

    def test_coverage_recorded_per_version(self, archive):
        corpus_id, seg_id, morpho, first = self.seed_morpho(archive)
        seg_tokens = [u.form for u in archive.level_units(seg_id)]
        assert first.records[0].coverage == coverage_fingerprint(seg_tokens)

    def test_version_ids_and_chain_order(self, archive):
        corpus_id, seg_id, morpho, _ = self.seed_morpho(archive)
        archive.deposit(corpus_id, fixture("goriot_standoff_morpho_full.xml"),
                        "standoff-morpho", levels=[morpho.id])
        chain = [v for v in archive.versions(corpus_id)
                 if v.level_kind == "morphosyntax"]
        assert [r.id for r in chain] == [
            f"{corpus_id}-morphosyntax-v1", f"{corpus_id}-morphosyntax-v2"]
        assert [r.number for r in chain] == [1, 2]


class TestClosureAndAccessors:
    def test_closure_linear_chain(self, archive):
        corpus_id, seg_id = goriot(archive)
        morpho = morpho_level(archive, corpus_id, seg_id)
        syntax = archive.add_level(corpus_id, "syntax", "none",
                                   depends_on=[morpho.id])
        assert archive.anchor(syntax.id) == seg_id
        # top -> near -> seg: the nearer segmentation anchors once it
        # holds units.
        near = archive.add_level(corpus_id, "segmentation", "partial",
                                 depends_on=[seg_id])
        top = archive.add_level(corpus_id, "syntax", "none",
                                depends_on=[near.id])
        assert archive.anchor(top.id) == seg_id
        archive.deposit(corpus_id, ONE_WORD, "segmentation",
                        levels=[near.id])
        assert archive.anchor(top.id) == near.id

    def test_closure_diamond_lists_each_level_once(self, archive):
        archive.register_corpus("D", corpus_id="d")
        seg = archive.add_level("d", "segmentation", "full")
        left = archive.add_level("d", "segmentation", "partial",
                                 depends_on=[seg.id])
        right = archive.add_level("d", "segmentation", "partial",
                                  depends_on=[seg.id])
        top = archive.add_level("d", "syntax", "none",
                                depends_on=[right.id, left.id])
        assert archive.anchor(top.id) is None
        archive.deposit("d", ONE_WORD, "segmentation", levels=[seg.id])
        assert archive.anchor(top.id) == seg.id  # through both sides
        archive.deposit("d", ONE_WORD, "segmentation", levels=[right.id])
        assert archive.anchor(top.id) == right.id  # nearer than seg
        archive.deposit("d", ONE_WORD, "segmentation", levels=[left.id])
        # Equally near: ties go by id, not by the order depends_on names.
        assert left.id < right.id
        assert archive.anchor(top.id) == left.id
        assert archive.validate("d") == []

    def test_nearest_segmentation_wins_for_anchoring(self, archive):
        archive.register_corpus("N", corpus_id="n")
        far = archive.add_level("n", "segmentation", "full")
        archive.deposit("n", "<word id=\"word_1\">loin</word>",
                        "segmentation", levels=[far.id])
        near = archive.add_level("n", "segmentation", "partial")
        archive.deposit("n", "<word id=\"word_2\">près</word>",
                        "segmentation", levels=[near.id])
        bridge = archive.add_level("n", "structure", "none",
                                   depends_on=[far.id])
        ref = archive.add_level("n", "reference", "none",
                                depends_on=[near.id, bridge.id])
        archive.deposit("n", "<coref id=\"1\">près</coref>",
                        "inline-coref", levels=[ref.id])
        assert str(archive.level_items(ref.id)[0].span) == "word_2"

    def test_unknown_ids_raise(self, archive):
        with pytest.raises(UnknownEntityError):
            archive.corpus("nope")
        with pytest.raises(UnknownEntityError):
            archive.level("nope")
        with pytest.raises(UnknownEntityError):
            archive.resource("nope")
        with pytest.raises(UnknownEntityError):
            archive.levels("nope")
        with pytest.raises(UnknownEntityError):
            archive.versions("nope")
        with pytest.raises(UnknownEntityError) as err:
            archive.validate("no-such")
        assert str(err.value) == "unknown-entity: unknown corpus 'no-such'"

    def test_returned_entities_are_snapshots(self, archive):
        corpus_id, seg_id = goriot(archive)
        corpus = archive.corpus(corpus_id)
        with pytest.raises(dataclasses.FrozenInstanceError):
            corpus.title = "Mutated"
        with pytest.raises(TypeError):
            corpus.declared_meta["k"] = "v"
        assert archive.corpus(corpus_id).title == "Père Goriot"
        assert "k" not in archive.corpus(corpus_id).declared_meta
        units = archive.level_units(seg_id)
        units.clear()
        assert len(archive.level_units(seg_id)) == 76

    def test_no_returned_value_changes_the_archive(self, archive, tmp_path):
        corpus_id, seg_id = goriot(archive)
        morpho = morpho_level(archive, corpus_id, seg_id)
        result = archive.deposit(
            corpus_id, fixture("goriot_standoff_morpho_full.xml"),
            "standoff-morpho", levels=[morpho.id], meta={"note": "n"})
        held = archive.snapshot()
        before = export_catalog(archive)
        def put(mapping):
            mapping["speaker"] = "x"

        attempts = {
            "corpus": lambda: setattr(archive.corpus(corpus_id), "title", "x"),
            "corpora": lambda: put(archive.corpora()[0].declared_meta),
            "level": lambda: setattr(archive.level(seg_id), "kind", "x"),
            "levels": lambda: put(archive.levels(corpus_id)[0].declared_meta),
            "resource": lambda: setattr(
                archive.resource(result.resource.id), "available", False),
            "resources": lambda: put(
                archive.resources(corpus_id)[1].declared_meta),
            "level_items": lambda: put(
                archive.level_items(morpho.id)[0].categories),
            "level_units": lambda: setattr(
                archive.level_units(seg_id)[0], "form", "x"),
            "versions": lambda: setattr(
                archive.versions(corpus_id)[0], "number", 9),
            "DepositResult": lambda: put(result.resource.declared_meta),
        }
        for name, attempt in attempts.items():
            try:
                attempt()
            except (dataclasses.FrozenInstanceError, TypeError):
                continue
            pytest.fail(f"what {name} returned could be changed")
        assert held.level_items(morpho.id)[0].categories == {
            "msd": "SBC:_:s", "lemma": "madame"}
        assert "x-speaker" not in computed(archive, morpho.id)[
            "granularity"].split(",")
        assert export_catalog(archive) == before \
            == export_catalog(Archive(tmp_path / "store"))

    def test_classify_level(self, archive):
        corpus_id, seg_id = goriot(archive)
        morpho = morpho_level(archive, corpus_id, seg_id)
        assert archive.classify_level(seg_id) == "Primary"
        assert archive.classify_level(morpho.id) == "Secondary"

    def test_level_granularity_of_segmentation(self, archive):
        corpus_id, seg_id = goriot(archive)
        assert computed(archive, seg_id)["granularity"] == "reference-unit"
        assert [v.granularity for v in archive.versions(corpus_id)] == [
            frozenset({"reference-unit"})]


class TestAnchorRule:
    """Alignment, coverage and the level header share one anchor rule:
    the nearest segmentation in the dependency closure that holds
    reference units."""

    COREF = "<coref id=\"m1\">Madame Vauquer</coref> ,"

    @staticmethod
    def segmentation(first: int = 1) -> str:
        return "\n".join(
            f"<word id=\"word_{first + i}\">{form}</word>"
            for i, form in enumerate(["Madame", "Vauquer", ","]))

    def test_reference_over_structure_over_segmentation(self, archive):
        archive.register_corpus("P", corpus_id="p")
        seg = archive.add_level("p", "segmentation", "full")
        archive.deposit("p", self.segmentation(), "segmentation",
                        levels=[seg.id])
        struct = archive.add_level("p", "structure", "full",
                                   depends_on=[seg.id])
        archive.deposit("p", "<p>Madame Vauquer ,</p>", "structural-inline",
                        levels=[struct.id])
        ref = archive.add_level("p", "reference", "none",
                                depends_on=[struct.id])
        result = archive.deposit("p", self.COREF, "inline-coref",
                                 levels=[ref.id])
        assert str(archive.level_items(ref.id)[0].span) == "word_1..word_2"
        assert archive.validate("p") == []
        assert archive.coverage(ref.id) == ["Madame", "Vauquer"]
        assert result.records[0].coverage == coverage_fingerprint(
            ["Madame", "Vauquer"])

    def test_header_anchor_names_the_aligned_segmentation(self, archive):
        archive.register_corpus("Q", corpus_id="q")
        deep = archive.add_level("q", "segmentation", "full")
        archive.deposit("q", self.segmentation(), "segmentation",
                        levels=[deep.id])
        empty = archive.add_level("q", "segmentation", "partial",
                                  depends_on=[deep.id])
        ref = archive.add_level("q", "reference", "none",
                                depends_on=[empty.id])
        archive.deposit("q", self.COREF, "inline-coref", levels=[ref.id])
        assert dict(level_header(archive, ref.id).computed)["anchor"] == deep.id
        assert archive.anchor(ref.id) == deep.id

    def test_header_omits_anchor_until_units_exist(self, archive):
        archive.register_corpus("E", corpus_id="e")
        seg = archive.add_level("e", "segmentation", "full")
        ref = archive.add_level("e", "reference", "none", depends_on=[seg.id])
        assert archive.anchor(ref.id) is None
        assert "anchor" not in dict(level_header(archive, ref.id).computed)
        archive.deposit("e", self.segmentation(), "segmentation",
                        levels=[seg.id])
        assert dict(level_header(archive, ref.id).computed)["anchor"] == seg.id

    @staticmethod
    @st.composite
    def level_dags(draw):
        """Levels in topological order: (kind, dependency positions,
        materialized), plus the dependencies of a reference level on top."""
        levels = []
        for i in range(draw(st.integers(1, 6))):
            kind = draw(st.sampled_from(
                ["segmentation", "structure", "morphosyntax"]))
            deps = draw(st.sets(st.integers(0, i - 1))) if i else set()
            levels.append((kind, sorted(deps), draw(st.booleans())))
        top = draw(st.sets(st.integers(0, len(levels) - 1), min_size=1))
        return levels, sorted(top)

    @settings(max_examples=40, deadline=None)
    @given(dag=level_dags())
    def test_every_consumer_uses_the_same_anchor(self, dag):
        levels, top_deps = dag
        with tempfile.TemporaryDirectory() as root:
            archive = Archive(root, clock=lambda: FIXED_MOMENT)
            archive.register_corpus("D", corpus_id="d")
            ids, unit_owner = [], {}
            for position, (kind, deps, filled) in enumerate(levels):
                level = archive.add_level(
                    "d", kind, "full", depends_on=[ids[d] for d in deps])
                ids.append(level.id)
                if filled and kind == "segmentation":
                    # distinct unit ids name the segmentation they come from
                    archive.deposit("d", self.segmentation(10 * position + 1),
                                    "segmentation", levels=[level.id])
                    unit_owner[10 * position + 1] = level.id
                elif filled and kind == "structure":
                    archive.deposit("d", "<p>Madame Vauquer ,</p>",
                                    "structural-inline", levels=[level.id])
            top = archive.add_level("d", "reference", "none",
                                    depends_on=[ids[d] for d in top_deps])

            # oracle: breadth-first depth, then id, over materialized
            # segmentations reachable from the top level
            depth, frontier = {}, [top.id]
            for distance in range(1, len(ids) + 1):
                frontier = sorted({d for lid in frontier
                                   for d, _ in archive.level(lid).depends_on}
                                  - set(depth))
                depth.update((lid, distance) for lid in frontier)
            anchored = sorted(
                (depth[lid], lid) for lid in unit_owner.values()
                if lid in depth)
            expected = anchored[0][1] if anchored else None

            if expected is None:
                with pytest.raises(NoPrimaryAnchorError):
                    archive.deposit("d", self.COREF, "inline-coref",
                                    levels=[top.id])
                aligned = None
            else:
                archive.deposit("d", self.COREF, "inline-coref",
                                levels=[top.id])
                span = archive.level_items(top.id)[0].span
                aligned = unit_owner[int(span.parts[0][0][5:])]
            header = dict(level_header(archive, top.id).computed).get("anchor")
            with mock.patch.object(archive_mod, "reconstruct_coverage",
                                   wraps=reconstruct_coverage) as spy:
                covered = archive.coverage(top.id)
            anchor_units = spy.call_args.args[3]
            resolved = (None if anchor_units is None
                        else unit_owner[int(anchor_units[0].id[5:])])
            assert aligned == header == resolved == archive.anchor(top.id) \
                == expected
            assert covered == (["Madame", "Vauquer"] if expected else [])


class TestWithdraw:
    def seed(self, archive):
        corpus_id, seg_id = goriot(archive)
        morpho = morpho_level(archive, corpus_id, seg_id)
        result = archive.deposit(
            corpus_id, fixture("goriot_standoff_morpho_full.xml"),
            "standoff-morpho", levels=[morpho.id])
        return corpus_id, morpho, result.resource

    def test_withdraw_removes_payload_keeps_record(self, archive, tmp_path):
        corpus_id, morpho, resource = self.seed(archive)
        withdrawn = archive.withdraw(resource.id)
        assert withdrawn.available is False
        payload = (tmp_path / "store" / "corpora" / corpus_id / "resources"
                   / resource.filename)
        assert not payload.exists()
        assert archive.resource(resource.id).available is False

    def test_snapshot_held_across_a_withdraw_finds_no_payload(self,
                                                              archive):
        corpus_id, morpho, resource = self.seed(archive)
        held = archive.snapshot()
        archive.withdraw(resource.id)
        assert held.resource(resource.id).available
        with pytest.raises(StoreError) as err:
            held.resource_payload(resource.id)
        assert type(err.value) is StoreError
        assert err.value.message \
            == f"resource {resource.id!r} has no stored payload"

    def test_withdraw_dematerializes_level(self, archive):
        corpus_id, morpho, resource = self.seed(archive)
        archive.withdraw(resource.id)
        assert archive.level_items(morpho.id) == []
        assert not materialized(archive, morpho.id)

    def test_header_survives_and_reports_unavailable(self, archive,
                                                     tmp_path):
        corpus_id, morpho, resource = self.seed(archive)
        archive.withdraw(resource.id)
        assert "computed available: false" in \
            build_resource_header(archive.resource(resource.id)).render()
        assert not any((tmp_path / "store").rglob("*.header"))

    def test_corpus_directory_holds_manifest_and_available_payloads(
            self, archive, tmp_path):
        corpus_id, morpho, resource = self.seed(archive)
        second = archive.deposit(
            corpus_id, "<w span=\"word_27\"\tmsd=\" \"\tlemma=\"madame\"/>",
            "standoff-morpho", levels=[morpho.id]).resource
        archive.withdraw(resource.id)
        segmentation = archive.resources(corpus_id)[0]
        directory = tmp_path / "store" / "corpora" / corpus_id
        assert {path.relative_to(directory).as_posix()
                for path in directory.rglob("*") if path.is_file()} \
            == {"manifest", f"resources/{segmentation.filename}",
                f"resources/{second.filename}"}

    def test_other_contributors_survive_withdraw(self, archive):
        corpus_id, morpho, resource = self.seed(archive)
        second = archive.deposit(
            corpus_id, "<w span=\"word_27\"\tmsd=\" \"\tlemma=\"madame\"/>",
            "standoff-morpho", levels=[morpho.id])
        archive.withdraw(resource.id)
        items = archive.level_items(morpho.id)
        assert len(items) == 1
        assert items[0].categories["lemma"] == "madame"

    def test_withdraw_is_idempotent(self, archive):
        corpus_id, morpho, resource = self.seed(archive)
        archive.withdraw(resource.id)
        again = archive.withdraw(resource.id)
        assert again.available is False

    def test_withdrawn_anchor_keeps_archive_openable(self, archive, tmp_path):
        archive.register_corpus("T", corpus_id="t")
        seg = archive.add_level("t", "segmentation", "full")
        words = ("Madame", "Vauquer", "tient")
        segmentation = archive.deposit("t", "\n".join(
            f'<word id="word_{i}">{w}</word>' for i, w in enumerate(words, 1)),
            "segmentation", levels=[seg.id])
        ref = archive.add_level("t", "reference", "none", depends_on=[seg.id])
        archive.deposit("t", '<coref id="1">Madame Vauquer</coref> tient',
                        "inline-coref", levels=[ref.id])
        archive.withdraw(segmentation.resource.id)
        before = archive.validate("t")
        assert [(v.code, v.subject) for v in before] \
            == [("no-primary-anchor", ref.id)]
        assert Archive(tmp_path / "store").validate("t") == before

    def test_unaligned_payload_keeps_archive_openable(self, archive,
                                                      tmp_path):
        archive.register_corpus("T", corpus_id="t")
        seg = archive.add_level("t", "segmentation", "full")
        archive.deposit("t", '<word id="word_1">Madame</word>\n'
                        '<word id="word_2">Vauquer</word>', "segmentation",
                        levels=[seg.id])
        second = archive.deposit("t", '<word id="word_3">tient</word>',
                                 "segmentation", levels=[seg.id])
        morpho = morpho_level(archive, "t", seg.id)
        archive.deposit("t", '<w span="word_1"\tmsd="Nc"\tlemma="madame"/>',
                        "standoff-morpho", levels=[morpho.id])
        ref = archive.add_level("t", "reference", "none", depends_on=[seg.id])
        archive.deposit("t", 'Madame <coref id="1">Vauquer tient</coref>',
                        "inline-coref", levels=[ref.id])
        archive.withdraw(second.resource.id)
        before = archive.validate("t")
        assert [(v.code, v.subject) for v in before] \
            == [("text-mismatch", ref.id)]
        reloaded = Archive(tmp_path / "store")
        assert reloaded.validate("t") == before
        assert not materialized(reloaded, ref.id)
        for level_id in (seg.id, morpho.id):
            assert reloaded.level_units(level_id) \
                == archive.level_units(level_id)
            assert reloaded.level_items(level_id) \
                == archive.level_items(level_id)
        assert reloaded.coverage(morpho.id) == archive.coverage(morpho.id) \
            == ["Madame"]
        assert export_catalog(reloaded) == export_catalog(archive)

    def test_withdrawn_anchor_reads_as_a_reload_would(self, archive,
                                                      tmp_path):
        archive.register_corpus("T", corpus_id="t")
        seg = archive.add_level("t", "segmentation", "full")
        segmentation = archive.deposit(
            "t", '<word id="word_1">Madame</word>', "segmentation",
            levels=[seg.id])
        ref = archive.add_level("t", "reference", "none", depends_on=[seg.id])
        archive.deposit("t", '<coref id="1">Madame</coref>', "inline-coref",
                        levels=[ref.id])
        archive.withdraw(segmentation.resource.id)
        assert not materialized(archive, ref.id)
        assert export_catalog(archive) \
            == export_catalog(Archive(tmp_path / "store"))

    def test_withdrawn_archive_still_validates_clean(self, archive):
        corpus_id, morpho, resource = self.seed(archive)
        archive.withdraw(resource.id)
        assert archive.validate(corpus_id) == []


class TestValidate:
    def test_clean_scenario(self, archive):
        corpus_id, seg_id = goriot(archive)
        morpho = morpho_level(archive, corpus_id, seg_id)
        archive.deposit(corpus_id, fixture("goriot_standoff_morpho_full.xml"),
                        "standoff-morpho", levels=[morpho.id])
        assert archive.validate() == []

    def test_zero_level_corpus_is_valid(self, archive):
        archive.register_corpus("Empty", corpus_id="empty")
        assert archive.validate("empty") == []

    def test_corrupted_span_is_dangling_pointer(self, archive):
        corpus_id, seg_id = goriot(archive)
        morpho = morpho_level(archive, corpus_id, seg_id)
        archive.deposit(
            corpus_id,
            "<w span=\"word_999\"\tmsd=\" \"\tlemma=\"fantôme\"/>",
            "standoff-morpho", levels=[morpho.id])
        codes = [v.code for v in archive.validate(corpus_id)]
        assert codes == ["dangling-pointer"]

    def test_pointer_level_without_dependency(self, archive):
        corpus_id, _ = goriot(archive)
        orphan = archive.add_level(corpus_id, "morphosyntax", "none")
        archive.deposit(
            corpus_id,
            "<w span=\"word_27\"\tmsd=\" \"\tlemma=\"madame\"/>",
            "standoff-morpho", levels=[orphan.id])
        codes = {v.code for v in archive.validate(corpus_id)}
        assert codes == {"pointer-level-without-dependency",
                         "no-primary-anchor"}

    def test_surface_in_pointer_level(self, archive):
        corpus_id, seg_id = goriot(archive)
        level = archive.add_level(corpus_id, "morphosyntax", "none",
                                  depends_on=[seg_id])
        archive.deposit(corpus_id, fixture("fig04_tabular_morpho.tsv"),
                        "tabular-morpho", levels=[level.id])
        codes = [v.code for v in archive.validate(corpus_id)]
        assert "surface-in-pointer-level" in codes

    def test_surface_in_pointer_level_is_read_on_top_level_items(
            self, archive):
        # Its top-level constituent carries a surface, the one below none.
        corpus_id, seg_id = goriot(archive)
        level = archive.add_level(corpus_id, "syntax", "none",
                                  depends_on=[seg_id])
        archive.deposit(corpus_id, "S:prop\tMadame\n=N:n\n",
                        "syntax-constituency", levels=[level.id])
        for reopened in (Archive(archive.root),
                         Archive(archive.root, defer_parse=True)):
            assert [(v.code, v.subject)
                    for v in reopened.validate(corpus_id)] \
                == [("surface-in-pointer-level", level.id)]

    def test_coverage_mismatch_between_full_levels(self, archive):
        corpus_id, seg_id = goriot(archive)
        other = archive.add_level(corpus_id, "segmentation", "full")
        archive.deposit(corpus_id, "<word id=\"word_999\">Autre</word>",
                        "segmentation", levels=[other.id])
        violations = archive.validate(corpus_id)
        assert [v.code for v in violations] == ["coverage-mismatch"]
        assert violations[0].subject == other.id

    def test_matching_full_structure_level_is_clean(self, archive):
        corpus_id, seg_id = goriot(archive)
        structure = archive.add_level(corpus_id, "structure", "full")
        archive.deposit(corpus_id, fixture("fig02_structure.xml"),
                        "structural-inline", levels=[structure.id])
        assert archive.validate(corpus_id) == []

    def test_missing_payload_reported(self, archive, tmp_path):
        corpus_id, seg_id = goriot(archive)
        resource = archive.resources(corpus_id)[0]
        (tmp_path / "store" / "corpora" / corpus_id / "resources"
         / resource.filename).unlink()
        codes = [v.code for v in archive.validate(corpus_id)]
        assert codes == ["missing-payload"]

    def test_payload_missing_at_reload_reported(self, archive, tmp_path):
        corpus_id, seg_id = goriot(archive)
        morpho = morpho_level(archive, corpus_id, seg_id)
        archive.deposit(corpus_id, fixture("goriot_standoff_morpho_full.xml"),
                        "standoff-morpho", levels=[morpho.id])
        segmentation = archive.resources(corpus_id)[0]
        (tmp_path / "store" / "corpora" / corpus_id / "resources"
         / segmentation.filename).unlink()
        eager = Archive(tmp_path / "store")
        deferred = Archive(tmp_path / "store", defer_parse=True)
        for reloaded in (eager, deferred):
            assert [(v.code, v.subject) for v in reloaded.validate()] == [
                ("no-primary-anchor", morpho.id),
                ("missing-payload", segmentation.id)]
        assert export_catalog(deferred) == export_catalog(eager)

    def test_unknown_link_target_reported(self, archive):
        corpus_id, seg_id = goriot(archive)
        ref = archive.add_level(corpus_id, "reference", "none",
                                depends_on=[seg_id])
        payload = (
            "<referentialMarkable id=\"m_1\">elle</referentialMarkable>\n"
            "<referentialLink referentialSource=\"id(m_1)\" "
            "referentialTarget=\"id(m_99)\"/>")
        archive.deposit(corpus_id, payload, "referential-standoff",
                        levels=[ref.id])
        codes = [v.code for v in archive.validate(corpus_id)]
        assert "unknown-target" in codes

    def test_split_referential_deposits_resolve_across_resources(
            self, archive):
        corpus_id, seg_id = goriot(archive)
        ref = archive.add_level(corpus_id, "reference", "none",
                                depends_on=[seg_id])
        markables = (
            "<referentialMarkable id=\"m_1\">Madame Vauquer"
            "</referentialMarkable>\n"
            "<referentialMarkable id=\"m_2\">elle</referentialMarkable>")
        links = ("<referentialLink referentialSource=\"id(m_2)\" "
                 "referentialTarget=\"id(m_1)\"/>")
        archive.deposit(corpus_id, markables, "referential-standoff",
                        levels=[ref.id])
        archive.deposit(corpus_id, links, "referential-standoff",
                        levels=[ref.id])
        assert archive.validate(corpus_id) == []


class TestValidateLoadedManifests:
    def write_manifest(self, tmp_path, corpus, levels=(), resources=()):
        directory = tmp_path / "store" / "corpora" / corpus.id
        directory.mkdir(parents=True)
        (directory / "manifest").write_text(
            dumps_corpus(corpus, list(levels), list(resources), []),
            encoding="utf-8")

    def test_payloads_reload_in_deposit_order(self, tmp_path):
        # Sorted as strings, "t-r1000" comes before "t-r999".
        seg = Level(id="t-segmentation-1", corpus_id="t",
                    kind="segmentation", coverage="full")
        payloads = {"t-r999": '<word id="word_1">A</word> '
                              '<word id="word_2">B</word>',
                    "t-r1000": '<word id="word_3">C</word>'}
        resources = [Resource(id=rid, corpus_id="t", format="segmentation",
                              filename=f"{rid}.segmentation", levels=(seg.id,))
                     for rid in payloads]
        self.write_manifest(tmp_path, Corpus(id="t", title="T"), [seg],
                            sorted(resources, key=lambda r: r.id))
        directory = tmp_path / "store" / "corpora" / "t" / "resources"
        directory.mkdir()
        for resource in resources:
            (directory / resource.filename).write_text(
                payloads[resource.id], encoding="utf-8")
        archive = Archive(tmp_path / "store")
        assert archive.coverage(seg.id) == ["A", "B", "C"]
        assert [r.id for r in archive.resources("t")] == list(payloads)
        assert archive.validate("t") == []

    def test_edited_payload_of_a_dangling_resource_is_reported(
            self, tmp_path):
        # No level reads this payload, so validate checks its digest.
        payload = '<word id="word_1">A</word>'
        resource = Resource(
            id="x-r001", corpus_id="x", format="segmentation",
            filename="x-r001.segmentation", levels=("x-gone-1",),
            sha256=hashlib.sha256(payload.encode()).hexdigest())
        self.write_manifest(tmp_path, Corpus(id="x", title="X"), [],
                            [resource])
        path = tmp_path / "store" / "corpora" / "x" / "resources"
        path.mkdir()
        (path / resource.filename).write_text(payload.replace("A", "B"),
                                              encoding="utf-8")
        for archive in (Archive(tmp_path / "store"),
                        Archive(tmp_path / "store", defer_parse=True)):
            assert [v.code for v in archive.validate("x")] \
                == ["dangling-level", "payload-digest-mismatch"]

    def test_directory_without_a_manifest_is_no_corpus(self, tmp_path):
        self.write_manifest(tmp_path, Corpus(id="x", title="X"))
        (tmp_path / "store" / "corpora" / "empty").mkdir()
        for archive in (Archive(tmp_path / "store"),
                        Archive(tmp_path / "store", defer_parse=True)):
            assert [c.id for c in archive.corpora()] == ["x"]
            assert archive.validate() == []
            with pytest.raises(UnknownEntityError) as err:
                archive.corpus("empty")
            assert err.value.message == "unknown corpus 'empty'"

    def test_payload_without_a_digest_that_is_not_utf8_is_refused(
            self, tmp_path):
        resource = Resource(id="x-r001", corpus_id="x", format="segmentation",
                            filename="x-r001.segmentation")
        self.write_manifest(tmp_path, Corpus(id="x", title="X"), [],
                            [resource])
        path = tmp_path / "store" / "corpora" / "x" / "resources"
        path.mkdir()
        (path / resource.filename).write_bytes(b"\xff")
        with pytest.raises(StoreError) as err:
            Archive(tmp_path / "store").resource_payload("x-r001")
        assert type(err.value) is StoreError
        assert err.value.message == ("resource 'x-r001' has a stored payload "
                                     "that is not valid UTF-8")

    def test_dangling_dependency_reported(self, tmp_path):
        corpus = Corpus(id="x", title="X")
        level = Level(id="x-syntax-1", corpus_id="x", kind="syntax",
                      coverage="none", depends_on=(("x-gone-1", ""),))
        self.write_manifest(tmp_path, corpus, [level])
        archive = Archive(tmp_path / "store")
        codes = {v.code for v in archive.validate("x")}
        assert "dangling-dependency" in codes

    def test_dependency_cycle_reported(self, tmp_path):
        corpus = Corpus(id="x", title="X")
        a = Level(id="x-syntax-1", corpus_id="x", kind="syntax",
                  coverage="none", depends_on=(("x-morphosyntax-1", ""),))
        b = Level(id="x-morphosyntax-1", corpus_id="x", kind="morphosyntax",
                  coverage="none", depends_on=(("x-syntax-1", ""),))
        self.write_manifest(tmp_path, corpus, [a, b])
        archive = Archive(tmp_path / "store")
        codes = [v.code for v in archive.validate("x")]
        assert "dependency-cycle" in codes

    def test_resource_without_level_reported(self, tmp_path):
        corpus = Corpus(id="x", title="X")
        resource = Resource(id="x-r001", corpus_id="x", format="standoff-items",
                            filename="x-r001.standoff-items", levels=(),
                            available=False)
        self.write_manifest(tmp_path, corpus, [], [resource])
        archive = Archive(tmp_path / "store")
        codes = [v.code for v in archive.validate("x")]
        assert "resource-without-level" in codes


    def test_entity_naming_another_corpus_stays_in_its_manifest(
            self, archive, tmp_path):
        archive.register_corpus("X", corpus_id="x")
        archive.register_corpus("Y", corpus_id="y")
        seg = archive.add_level("x", "segmentation", "full")
        resource = archive.deposit("x", ONE_WORD, "segmentation",
                                   levels=[seg.id]).resource
        path = tmp_path / "store" / "corpora" / "x" / "manifest"
        text = path.read_text(encoding="utf-8")
        for head in (f"level: {seg.id}\n", f"resource: {resource.id}\n"):
            assert f"{head}corpus: x\n" in text
            text = text.replace(f"{head}corpus: x\n", f"{head}corpus: y\n")
        path.write_text(text, encoding="utf-8")
        reloaded = Archive(tmp_path / "store")
        assert [(v.code, v.subject) for v in reloaded.validate()] == [
            ("corpus-mismatch", seg.id), ("corpus-mismatch", resource.id)]
        assert reloaded.levels("y") == [] and reloaded.resources("y") == []
        assert reloaded.resource_payload(resource.id) == ONE_WORD
        assert reloaded.coverage(seg.id) == ["Madame"]
        morpho = reloaded.add_level("x", "morphosyntax", "none",
                                    depends_on=[seg.id])
        assert path.read_text(encoding="utf-8").count("corpus: y\n") == 2
        again = Archive(tmp_path / "store")
        for reader in (reloaded, again):
            assert [l.id for l in reader.levels("x")] == [morpho.id, seg.id]
            assert [r.id for r in reader.resources("x")] == [resource.id]
        assert export_catalog(again) == export_catalog(reloaded)

    def test_level_id_outside_the_naming_rule_stays_readable(self, tmp_path):
        seg = Level(id="seg", corpus_id="x", kind="segmentation",
                    coverage="full")
        self.write_manifest(tmp_path, Corpus(id="x", title="X"), [seg])
        archive = Archive(tmp_path / "store")
        assert archive.level("seg") == seg
        archive.deposit("x", ONE_WORD, "segmentation", levels=["seg"])
        morpho = archive.add_level("x", "morphosyntax", "none",
                                   depends_on=["seg"])
        assert archive.anchor(morpho.id) == "seg"
        assert archive.validate() == []
        assert export_catalog(Archive(tmp_path / "store")) \
            == export_catalog(archive)

    @pytest.mark.parametrize("damage", [b"stray line\n", b"\xff\n"],
                             ids=["stray-line", "not-utf-8"])
    def test_unreadable_manifest_is_reported_and_its_id_kept(
            self, tmp_path, damage):
        archive = Archive(tmp_path / "store")
        archive.register_corpus("A", corpus_id="a")
        archive.register_corpus("B", corpus_id="b")
        path = tmp_path / "store" / "corpora" / "b" / "manifest"
        with path.open("ab") as handle:
            handle.write(damage)
        damaged = path.read_bytes()
        reloaded = Archive(tmp_path / "store")
        assert [c.id for c in reloaded.corpora()] == ["a"]
        assert [(v.code, v.subject) for v in reloaded.validate()] \
            == [("unreadable-manifest", "b")]
        assert reloaded.validate("b") == reloaded.validate()
        with pytest.raises(StoreError):
            reloaded.register_corpus("B", corpus_id="b")
        assert reloaded.register_corpus("B").id == "b-2"
        assert path.read_bytes() == damaged

    def test_non_utf8_payload_is_left_unparsed(self, archive, tmp_path):
        corpus_id, seg_id = goriot(archive)
        morpho = morpho_level(archive, corpus_id, seg_id)
        result = archive.deposit(
            corpus_id, fixture("goriot_standoff_morpho_full.xml"),
            "standoff-morpho", levels=[morpho.id])
        path = (tmp_path / "store" / "corpora" / corpus_id / "resources"
                / result.resource.filename)
        path.write_bytes(b"\xff" + path.read_bytes())
        reloaded = Archive(tmp_path / "store")
        assert [(v.code, v.subject) for v in reloaded.validate()] \
            == [("parse-error", morpho.id),
                ("payload-digest-mismatch", result.resource.id)]
        assert reloaded.level_items(morpho.id) == []
        # The catalog describes what was deposited.
        assert materialized(reloaded, morpho.id)
        assert len(reloaded.level_units(seg_id)) == 76
        with pytest.raises(StoreError):
            reloaded.resource_payload(result.resource.id)


    def test_edited_payload_repeating_a_unit_id_is_left_unparsed(
            self, archive, tmp_path):
        archive.register_corpus("T", corpus_id="t")
        seg = archive.add_level("t", "segmentation", "partial")
        archive.deposit("t", '<word id="word_1">A</word>', "segmentation",
                        levels=[seg.id])
        second = archive.deposit("t", '<word id="word_2">B</word>',
                                 "segmentation", levels=[seg.id]).resource
        (tmp_path / "store" / "corpora" / "t" / "resources"
         / second.filename).write_text('<word id="word_1">B</word>',
                                       encoding="utf-8")
        for reloaded in (Archive(tmp_path / "store"),
                         Archive(tmp_path / "store", defer_parse=True)):
            assert [(v.code, v.subject) for v in reloaded.validate()] == [
                ("store-error", seg.id),
                ("payload-digest-mismatch", second.id)]
            assert reloaded.coverage(seg.id) == ["A"]

    def test_edited_payload_is_a_digest_mismatch(self, archive, tmp_path):
        corpus_id, seg_id = goriot(archive)
        morpho = morpho_level(archive, corpus_id, seg_id)
        result = archive.deposit(
            corpus_id, fixture("goriot_standoff_morpho_full.xml"),
            "standoff-morpho", levels=[morpho.id])
        path = (tmp_path / "store" / "corpora" / corpus_id / "resources"
                / result.resource.filename)
        text = path.read_text(encoding="utf-8")
        edited = re.sub('lemma="[^"]*"', 'lemma="edited"', text, count=1)
        assert edited != text
        path.write_text(edited, encoding="utf-8")
        for reloaded in (Archive(tmp_path / "store"),
                         Archive(tmp_path / "store", defer_parse=True)):
            assert [(v.code, v.subject) for v in reloaded.validate()] \
                == [("payload-digest-mismatch", result.resource.id)]

    def test_unknown_stored_format_makes_its_manifest_unreadable(
            self, tmp_path):
        archive = Archive(tmp_path / "store", clock=lambda: FIXED_MOMENT)
        for corpus_id in ("x", "y"):
            archive.register_corpus(corpus_id.upper(), corpus_id=corpus_id)
            seg = archive.add_level(corpus_id, "segmentation", "full")
            archive.deposit(corpus_id, ONE_WORD, "segmentation",
                            levels=[seg.id])
        alone = Archive(tmp_path / "alone", clock=lambda: FIXED_MOMENT)
        alone.register_corpus("Y", corpus_id="y")
        seg = alone.add_level("y", "segmentation", "full")
        alone.deposit("y", ONE_WORD, "segmentation", levels=[seg.id])
        path = tmp_path / "store" / "corpora" / "x" / "manifest"
        text = path.read_text(encoding="utf-8")
        assert "format: segmentation\n" in text
        path.write_text(text.replace("format: segmentation\n",
                                     "format: bogus\n"), encoding="utf-8")
        for reloaded in (Archive(tmp_path / "store"),
                         Archive(tmp_path / "store", defer_parse=True)):
            assert [c.id for c in reloaded.corpora()] == ["y"]
            assert corpus_record(reloaded, "y") == corpus_record(alone, "y")
            assert [(v.code, v.subject) for v in reloaded.validate()] \
                == [("unreadable-manifest", "x")]

    def test_manifest_in_another_corpus_directory_is_unreadable(
            self, tmp_path):
        archive = Archive(tmp_path / "store")
        for corpus_id in ("x", "y"):
            archive.register_corpus(corpus_id.upper(), corpus_id=corpus_id)
        seg = archive.add_level("x", "segmentation", "full")
        archive.deposit("x", ONE_WORD, "segmentation", levels=[seg.id])
        path = tmp_path / "store" / "corpora" / "x" / "manifest"
        text = path.read_text(encoding="utf-8")
        path.write_text(text.replace("\ncorpus: x\n", "\ncorpus: y\n", 1),
                        encoding="utf-8")
        reloaded = Archive(tmp_path / "store")
        assert [c.id for c in reloaded.corpora()] == ["y"]
        assert reloaded.levels("y") == []
        assert [(v.code, v.subject) for v in reloaded.validate()] \
            == [("unreadable-manifest", "x")]
        with pytest.raises(StoreError):
            reloaded.register_corpus("X", corpus_id="x")

    @pytest.mark.parametrize("resource_id, filename", [
        ("x-r001", "../../../../outside.segmentation"),
        ("../../../../outside", "../../../../outside.segmentation"),
        ("x-r001", "x-r002.segmentation")])
    def test_resource_file_other_than_its_own_is_unreadable(
            self, tmp_path, resource_id, filename):
        # From the corpus's resources directory, "../../../../" is tmp_path.
        outside = tmp_path / "outside.segmentation"
        outside.write_text(ONE_WORD, encoding="utf-8")
        seg = Level(id="x-segmentation-1", corpus_id="x",
                    kind="segmentation", coverage="full")
        resource = Resource(id=resource_id, corpus_id="x",
                            format="segmentation", filename=filename,
                            levels=(seg.id,))
        self.write_manifest(tmp_path, Corpus(id="x", title="X"), [seg],
                            [resource])
        (tmp_path / "store" / "corpora" / "x" / "resources").mkdir()
        reloaded = Archive(tmp_path / "store")
        assert [(v.code, v.subject) for v in reloaded.validate()] \
            == [("unreadable-manifest", "x")]
        with pytest.raises(UnknownEntityError):
            reloaded.resource_payload(resource_id)
        with pytest.raises(UnknownEntityError):
            reloaded.withdraw(resource_id)
        assert outside.read_text(encoding="utf-8") == ONE_WORD

    @pytest.mark.parametrize("block", ["level", "resource", "version"])
    def test_repeated_block_makes_its_manifest_unreadable(
            self, tmp_path, block):
        archive = Archive(tmp_path / "store")
        archive.register_corpus("X", corpus_id="x")
        seg = archive.add_level("x", "segmentation", "full")
        archive.deposit("x", ONE_WORD, "segmentation", levels=[seg.id])
        path = tmp_path / "store" / "corpora" / "x" / "manifest"
        blocks = path.read_text(encoding="utf-8").split("\n\n")
        repeated = next(b for b in blocks if b.startswith(f"{block}: "))
        blocks.insert(blocks.index(repeated), repeated)
        path.write_text("\n\n".join(blocks), encoding="utf-8")
        damaged = path.read_bytes()
        reloaded = Archive(tmp_path / "store")
        assert [(v.code, v.subject) for v in reloaded.validate()] \
            == [("unreadable-manifest", "x")]
        # A write would keep one of the two blocks.
        with pytest.raises(UnknownEntityError):
            reloaded.add_level("x", "morphosyntax", "none",
                               depends_on=[seg.id])
        assert path.read_bytes() == damaged

    @pytest.mark.parametrize("first", ["a", "a-b", None])
    def test_an_id_two_manifests_hold_has_one_owner(self, tmp_path, first):
        # The longest corpus id that prefixes the level id owns it; an id
        # outside the naming rule goes to the first corpus by id.
        for corpus_id in ("a", "a-b"):
            self.write_manifest(tmp_path, Corpus(id=corpus_id, title="T"), [
                Level(id=level_id, corpus_id=corpus_id, kind="segmentation",
                      coverage="full")
                for level_id in ("a-b-segmentation-1", "seg")])
        reloaded = Archive(tmp_path / "store", defer_parse=first is not None)
        if first is not None:
            reloaded.levels(first)
        assert [reloaded.level(level_id).corpus_id
                for level_id in ("a-b-segmentation-1", "seg")] == ["a-b", "a"]
        violations = reloaded.validate()
        assert [(v.code, v.subject) for v in violations] == [
            ("shared-id", "a-b-segmentation-1"), ("shared-id", "seg")]
        assert violations[0].message.endswith("a read by id finds 'a-b'")


class TestLevelSummaries:
    """Each level's manifest block records what its payloads parsed into,
    so the catalog renders from manifests alone; ``validate`` checks the
    record against a parse."""

    def build(self, archive):
        """Goriot with a segmentation, a morphology, a structure and a
        dialogue structure with turns; returns the corpus id."""
        corpus_id, seg_id = goriot(archive)
        archive.deposit(corpus_id, fixture("goriot_standoff_morpho_full.xml"),
                        "standoff-morpho", levels=[
                            morpho_level(archive, corpus_id, seg_id).id])
        for payload in (fixture("fig02_structure.xml"),
                        "<turn>Bonjour docteur</turn> <turn>Bonjour</turn>"):
            archive.deposit(corpus_id, payload, "structural-inline",
                            new_levels=[LevelSpec("structure", "partial")])
        return corpus_id

    @staticmethod
    def manifest(root, corpus_id):
        return root / "store" / "corpora" / corpus_id / "manifest"

    def test_deposit_records_its_levels_summaries(self, archive, tmp_path):
        corpus_id = self.build(archive)
        text = self.manifest(tmp_path, corpus_id).read_text(encoding="utf-8")
        assert "\nsummary: 76 0 0 reference-unit\n" in text
        assert "\nsummary: 0 76 0 inflection,lemma,part-of-speech\n" in text
        assert archive.level(f"{corpus_id}-structure-2").summary \
            == LevelSummary(0, 2, 2, frozenset({"text-structure"}))
        assert "computed turn-count: 2\n" in corpus_record(archive, corpus_id)

    def test_a_new_level_records_an_empty_summary(self, archive):
        archive.register_corpus("X", corpus_id="x")
        assert archive.add_level("x", "segmentation", "full").summary \
            == LevelSummary()

    def test_withdraw_rewrites_the_levels_it_drops(self, archive, tmp_path):
        corpus_id = self.build(archive)
        seg_id = f"{corpus_id}-segmentation-1"
        ref = archive.deposit(
            corpus_id, fixture("fig08_inline_coref.xml"), "inline-coref",
            new_levels=[LevelSpec("reference", "none", (seg_id,))]).levels[0]
        assert archive.level(ref).summary.items == 2
        archive.withdraw(archive.resources(corpus_id)[0].id)
        assert archive.level(seg_id).summary == LevelSummary()
        # Inline coreference aligns on the units it no longer finds.
        assert archive.level(ref).summary == LevelSummary()
        assert not materialized(archive, ref)
        reloaded = Archive(tmp_path / "store")
        assert reloaded.level(ref).summary == LevelSummary()
        assert export_catalog(reloaded) == export_catalog(archive)

    def test_an_edited_summary_is_reported(self, archive, tmp_path):
        corpus_id = self.build(archive)
        path = self.manifest(tmp_path, corpus_id)
        text = path.read_text(encoding="utf-8")
        path.write_text(text.replace("\nsummary: 0 76 0 ",
                                     "\nsummary: 0 75 0 "), encoding="utf-8")
        for reloaded in (Archive(tmp_path / "store"),
                         Archive(tmp_path / "store", defer_parse=True)):
            assert [(v.code, v.subject, v.message)
                    for v in reloaded.validate()] == [(
                        "level-summary-mismatch",
                        f"{corpus_id}-morphosyntax-1",
                        "manifest records summary '0 75 0 inflection,lemma,"
                        "part-of-speech' but its payloads parse into "
                        "'0 76 0 inflection,lemma,part-of-speech'")]
            # The catalog describes what was deposited.
            assert computed(reloaded, f"{corpus_id}-morphosyntax-1")[
                "items"] == "75"

    def test_manifests_without_summaries_read_as_before(self, archive,
                                                        tmp_path):
        corpus_id = self.build(archive)
        archive.register_corpus("Other", corpus_id="other")
        archive.add_level("other", "segmentation", "full")
        manifests = sorted((tmp_path / "store").glob("corpora/*/manifest"))
        assert len(manifests) == 2
        for path in manifests:
            text = path.read_text(encoding="utf-8")
            legacy = re.sub(r"\nsummary: [^\n]*", "", text)
            assert "summary" not in legacy and legacy != text
            path.write_text(legacy, encoding="utf-8")
        path = self.manifest(tmp_path, corpus_id)
        for reloaded in (Archive(tmp_path / "store"),
                         Archive(tmp_path / "store", defer_parse=True)):
            assert export_catalog(reloaded) == export_catalog(archive)
            assert reloaded.validate() == []
        # A write records the summaries of the levels it writes only.
        Archive(tmp_path / "store").deposit(
            corpus_id, '<word id="word_900">Fin</word>', "segmentation",
            levels=[f"{corpus_id}-segmentation-1"])
        written = path.read_text(encoding="utf-8")
        assert re.findall(r"\nsummary: [^\n]*", written) \
            == ["\nsummary: 77 0 0 reference-unit"]


class TestPersistence:
    def build(self, archive):
        corpus_id, seg_id = goriot(archive)
        morpho = morpho_level(archive, corpus_id, seg_id)
        archive.deposit(corpus_id, fixture("goriot_standoff_morpho_full.xml"),
                        "standoff-morpho", levels=[morpho.id],
                        depositor="atilf", meta={"license": "research-only"})
        ref = archive.add_level(corpus_id, "reference", "none",
                                depends_on=[seg_id],
                                meta={"producer": "hand"})
        archive.deposit(corpus_id, fixture("fig10_referential.xml"),
                        "referential-standoff", levels=[ref.id])
        return corpus_id

    def test_reload_restores_entities(self, archive, tmp_path):
        corpus_id = self.build(archive)
        reloaded = Archive(tmp_path / "store")
        assert reloaded.corpus(corpus_id) == archive.corpus(corpus_id)
        assert reloaded.levels(corpus_id) == archive.levels(corpus_id)
        assert reloaded.resources(corpus_id) == archive.resources(corpus_id)
        assert reloaded.versions(corpus_id) == archive.versions(corpus_id)

    def test_reload_rematerializes_payloads(self, archive, tmp_path):
        corpus_id = self.build(archive)
        reloaded = Archive(tmp_path / "store")
        for level in archive.levels(corpus_id):
            assert (reloaded.level_items(level.id)
                    == archive.level_items(level.id))
            assert (reloaded.level_units(level.id)
                    == archive.level_units(level.id))

    def test_reload_preserves_catalog_bytes(self, archive, tmp_path):
        corpus_id = self.build(archive)
        reloaded = Archive(tmp_path / "store")
        assert export_catalog(reloaded) == export_catalog(archive)

    @settings(max_examples=20, deadline=None)
    @given(title=titles, language=texts, meta=metas, kind=kinds,
           level_meta=metas, depositor=texts,
           validator=st.none() | texts, resource_meta=metas)
    def test_any_accepted_entity_survives_a_reload(
            self, title, language, meta, kind, level_meta, depositor,
            validator, resource_meta):
        with tempfile.TemporaryDirectory() as root:
            archive = Archive(root, clock=lambda: FIXED_MOMENT)
            corpus = archive.register_corpus(title, language, meta)
            seg = archive.add_level(corpus.id, "segmentation", "full",
                                    meta=level_meta)
            archive.deposit(corpus.id, '<word id="word_1">Madame</word>',
                            "segmentation", levels=[seg.id],
                            depositor=depositor, validator=validator,
                            meta=resource_meta)
            archive.deposit(corpus.id, '<item span="word_1" group="g"/>',
                            "standoff-items", validated=True,
                            validator=validator,
                            new_levels=[LevelSpec(kind, "none", (seg.id,),
                                                  tuple(level_meta.items()))])
            reloaded = Archive(root)
            assert export_catalog(reloaded) == export_catalog(archive)
            assert reloaded.resources(corpus.id) \
                == archive.resources(corpus.id)

    def test_mutations_after_reload_continue_numbering(self, archive,
                                                       tmp_path):
        corpus_id = self.build(archive)
        reloaded = Archive(tmp_path / "store", clock=lambda: FIXED_MOMENT)
        morpho_id = f"{corpus_id}-morphosyntax-1"
        result = reloaded.deposit(
            corpus_id, fixture("goriot_standoff_morpho_full.xml"),
            "standoff-morpho", levels=[morpho_id])
        assert result.resource.id == f"{corpus_id}-r004"
        assert result.records[0].number == 2
        assert result.records[0].classification is Classification.PARALLEL

    @staticmethod
    def reloaded_with_a_gap(tmp_path):
        """Three one-word segmentation deposits to corpus "t", reloaded
        from a manifest without the second deposit's resource and version
        blocks, as a lost write or a hand edit leaves it."""
        archive = Archive(tmp_path / "store", clock=lambda: FIXED_MOMENT)
        archive.register_corpus("T", corpus_id="t")
        seg = archive.add_level("t", "segmentation", "partial")
        for n in (1, 2, 3):
            archive.deposit("t", f'<word id="word_{n}">w{n}</word>',
                            "segmentation", levels=[seg.id])
        (tmp_path / "store" / "corpora" / "t" / "manifest").write_text(
            dumps_corpus(
                archive.corpus("t"), archive.levels("t"),
                [r for r in archive.resources("t") if r.id != "t-r002"],
                [v for v in archive.versions("t")
                 if v.id != "t-segmentation-v2"]),
            encoding="utf-8")
        return Archive(tmp_path / "store", clock=lambda: FIXED_MOMENT), seg

    def test_a_gap_in_resource_ids_reuses_no_recorded_id(self, tmp_path):
        reloaded, seg = self.reloaded_with_a_gap(tmp_path)
        result = reloaded.deposit("t", '<word id="word_4">w4</word>',
                                  "segmentation", levels=[seg.id])
        assert result.resource.id == "t-r004"
        assert [r.id for r in reloaded.resources("t")] \
            == ["t-r001", "t-r003", "t-r004"]
        assert reloaded.resource_payload("t-r003") \
            == '<word id="word_3">w3</word>'
        assert reloaded.coverage(seg.id) == ["w1", "w3", "w4"]

    def test_a_gap_in_a_version_chain_reuses_no_number(self, tmp_path):
        reloaded, seg = self.reloaded_with_a_gap(tmp_path)
        result = reloaded.deposit("t", '<word id="word_4">w4</word>',
                                  "segmentation", levels=[seg.id])
        assert [(r.id, r.number) for r in result.records] \
            == [("t-segmentation-v4", 4)]
        assert [v.id for v in reloaded.versions("t")] == [
            "t-segmentation-v1", "t-segmentation-v3", "t-segmentation-v4"]


class TestRegisterTable:
    def test_twelve_corpora(self, archive):
        corpora = archive.register_table(fixture("table1_corpora.tsv"),
                                         language="fr")
        assert len(corpora) == 12
        assert len(archive.corpora()) == 12
        assert all(c.language == "fr" for c in archive.corpora())

    def test_goriot_row_levels_and_meta(self, archive):
        archive.register_table(fixture("table1_corpora.tsv"), language="fr")
        corpus = archive.corpus("pere-goriot")
        assert corpus.declared_meta["genre"] == "littéraire"
        assert corpus.declared_meta["word-count"] == "100000"
        kinds = {l.kind: l for l in archive.levels("pere-goriot")}
        assert set(kinds) == {"segmentation", "structure", "morphosyntax",
                              "syntax"}
        assert kinds["segmentation"].coverage == "full"
        assert kinds["morphosyntax"].depends_on[0][0] \
            == kinds["segmentation"].id
        assert kinds["syntax"].depends_on[0][0] == kinds["morphosyntax"].id

    def test_segmentation_added_implicitly_for_anchored_kinds(self, archive):
        archive.register_table("Implicit\t-\t-\tmorphosyntax\n")
        kinds = {l.kind for l in archive.levels("implicit")}
        assert kinds == {"segmentation", "morphosyntax"}

    def test_malformed_row_rejected(self, archive):
        with pytest.raises(StoreError):
            archive.register_table("only two\tcolumns\n")

    def test_blank_and_comment_lines_skipped(self, archive):
        corpora = archive.register_table(
            "# title\twords\tgenre\tkinds\n\n   \n"
            "  # indented comment\nOnly\t-\t-\tsegmentation\n")
        assert [c.id for c in corpora] == ["only"]
        assert [c.id for c in archive.corpora()] == ["only"]


class TestOneCommitPath:
    """Every writer changes the archive through ``Archive._commit``."""

    def test_writers_lock_is_taken_only_in_commit(self):
        tree = ast.parse(pathlib.Path(archive_mod.__file__).read_text(
            encoding="utf-8"))
        (archive_class,) = [node for node in tree.body
                            if isinstance(node, ast.ClassDef)
                            and node.name == "Archive"]
        takers = {method.name for method in archive_class.body
                  if isinstance(method, ast.FunctionDef)
                  for node in ast.walk(method)
                  if isinstance(node, ast.Attribute)
                  and node.attr == "_lock" and isinstance(node.ctx, ast.Load)}
        assert takers == {"_commit"}

    WRITES_THAT_FAIL = {
        "deposit to a new level that does not parse": (ParseError, lambda a: (
            a.deposit("x", "<word id='word_9'>unclosed", "segmentation",
                      new_levels=[LevelSpec("segmentation", "partial")]))),
        "dependency that closes a cycle": (DependencyCycleError, lambda a: (
            a.add_dependency("x-segmentation-1", "x-morphosyntax-1"))),
        "table with a malformed later row": (StoreError, lambda a: (
            a.register_table("Fine\t-\t-\tmorphosyntax\nonly\ttwo\n"))),
    }

    @pytest.mark.parametrize("case", sorted(WRITES_THAT_FAIL))
    def test_a_write_that_fails_changes_nothing(self, archive, tmp_path,
                                                case):
        archive.register_corpus("X", corpus_id="x")
        seg = archive.add_level("x", "segmentation", "full")
        archive.deposit("x", ONE_WORD, "segmentation", levels=[seg.id])
        morpho_level(archive, "x", seg.id)

        def tree():
            return {p.relative_to(tmp_path): p.read_bytes()
                    for p in sorted(tmp_path.rglob("*")) if p.is_file()}

        before, export = tree(), export_catalog(archive)
        error, write = self.WRITES_THAT_FAIL[case]
        with pytest.raises(error):
            write(archive)
        assert tree() == before
        assert export_catalog(archive) == export
        assert export_catalog(Archive(tmp_path / "store")) == export


class TestConcurrency:
    def test_snapshots_stay_whole_under_concurrent_writers(self, tmp_path):
        archive = Archive(tmp_path / "store")
        archive.register_corpus("Stress", corpus_id="s")
        errors, done = [], threading.Event()

        def writer(i):
            try:
                for _ in range(5):
                    archive.add_level("s", f"kind{i}", "full")
            except Exception as err:  # pragma: no cover - failure reporting
                errors.append(err)

        def reader():
            try:
                while not done.is_set():
                    record = corpus_record(archive, "s")
                    count = re.search(r"computed level-count: (\d+)", record)
                    assert record.count("header: level") == int(count[1])
            except Exception as err:  # pragma: no cover - failure reporting
                errors.append(err)

        readers = [threading.Thread(target=reader) for _ in range(2)]
        writers = [threading.Thread(target=writer, args=(i,))
                   for i in range(4)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            for thread in readers + writers:
                thread.start()
            for thread in writers:
                thread.join(timeout=60)
            done.set()
            for thread in readers:
                thread.join(timeout=60)
        finally:
            done.set()
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in readers + writers)
        assert errors == []
        assert len(archive.levels("s")) == 20
        assert len(Archive(tmp_path / "store").levels("s")) == 20

    def test_reads_do_not_wait_for_a_writer(self, archive, monkeypatch):
        corpus_id, seg_id = goriot(archive)
        codec = archive_mod.FORMATS["segmentation"]
        parsing, release = threading.Event(), threading.Event()

        def held_parse(*args):
            parsing.set()
            release.wait(timeout=10)
            return codec.parse(*args)
        monkeypatch.setitem(archive_mod.FORMATS, "segmentation",
                            dataclasses.replace(codec, parse=held_parse))
        level = archive.add_level(corpus_id, "segmentation", "partial")
        writer = threading.Thread(target=archive.deposit, args=(
            corpus_id, '<word id="word_1">a</word>', "segmentation",
            [level.id]))
        writer.start()
        try:
            assert parsing.wait(timeout=10)
            reads = []
            reader = threading.Thread(target=lambda: reads.append(
                export_catalog(archive)))
            reader.start()
            reader.join(timeout=5)
            assert not reader.is_alive()
            assert writer.is_alive()
            assert reads and "computed materialized: false" in reads[0]
        finally:
            release.set()
            writer.join(timeout=10)
        assert not writer.is_alive()
        assert materialized(archive, level.id)

    def test_first_reads_of_a_deferred_open_parse_each_corpus_once(
            self, tmp_path, monkeypatch):
        archive = Archive(tmp_path / "store")
        ids = [f"c{i}" for i in range(4)]
        # Long enough to parse that readers switch in the middle of it.
        payload = "".join(f'<word id="word_{n}">w</word>'
                          for n in range(1, 301))
        for corpus_id in ids:
            archive.register_corpus(corpus_id.upper(), corpus_id=corpus_id)
            seg = archive.add_level(corpus_id, "segmentation", "full")
            archive.deposit(corpus_id, payload, "segmentation",
                            levels=[seg.id])
        expected = {c: (corpus_record(archive, c),
                        archive.coverage(f"{c}-segmentation-1")) for c in ids}
        deferred = Archive(tmp_path / "store", defer_parse=True)
        held = deferred.snapshot()
        parsed, errors = [], []
        materialize = Archive._materialize

        def counted(state, resource, *rest):
            parsed.append(resource.id)
            return materialize(state, resource, *rest)
        monkeypatch.setattr(Archive, "_materialize", counted)

        def reader(i):
            try:
                for corpus_id in ids[i % 4:] + ids[:i % 4]:
                    assert (corpus_record(held, corpus_id),
                            held.coverage(f"{corpus_id}-segmentation-1")) \
                        == expected[corpus_id]
            except Exception as err:  # pragma: no cover - failure reporting
                errors.append(err)

        def writer():
            try:
                deferred.add_level("c3", "reference", "none",
                                   depends_on=["c3-segmentation-1"])
            except Exception as err:  # pragma: no cover - failure reporting
                errors.append(err)

        threads = [threading.Thread(target=reader, args=(i,))
                   for i in range(8)] + [threading.Thread(target=writer)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert errors == []
        assert sorted(parsed) == [f"{c}-r001" for c in ids]

    def test_first_record_reads_render_as_a_fresh_open(self, tmp_path,
                                                       monkeypatch):
        archive = Archive(tmp_path / "store")
        ids = [f"c{i}" for i in range(4)]
        # Long enough to render that readers switch in the middle of it.
        words = "".join(f'<word id="word_{n}">w</word>' for n in range(1, 301))
        lemmas = "".join(f'<w span="word_{n}" lemma="w" pos="N"/>'
                         for n in range(1, 301))
        for corpus_id in ids:
            archive.register_corpus(corpus_id.upper(), corpus_id=corpus_id)
            archive.deposit(corpus_id, words, "segmentation",
                            new_levels=[LevelSpec("segmentation", "full")])
            archive.deposit(corpus_id, lemmas, "standoff-morpho", new_levels=[
                LevelSpec("morphosyntax", "none",
                          (f"{corpus_id}-segmentation-1",))])
        fresh = {c: corpus_record(Archive(tmp_path / "store"), c)
                 for c in ids}
        deferred = Archive(tmp_path / "store", defer_parse=True)
        parsed, seen, errors = [], [], []
        materialize = Archive._materialize

        def counted(state, resource, *rest):
            parsed.append(resource.id)
            return materialize(state, resource, *rest)
        monkeypatch.setattr(Archive, "_materialize", counted)

        def reader(i):
            try:
                for corpus_id in ids[i % 4:] + ids[:i % 4]:
                    seen.append((corpus_id,
                                 corpus_record(deferred, corpus_id)))
            except Exception as err:  # pragma: no cover - failure reporting
                errors.append(err)

        def writer():
            try:
                deferred.deposit("c3", '<word id="word_301">w</word>',
                                 "segmentation", levels=["c3-segmentation-1"])
            except Exception as err:  # pragma: no cover - failure reporting
                errors.append(err)

        threads = [threading.Thread(target=reader, args=(i,))
                   for i in range(8)] + [threading.Thread(target=writer)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert errors == []
        # Records render from the manifests' summaries: only the deposit
        # parses, the earlier payload of the level it writes.
        assert parsed == ["c3-r001"]
        written = corpus_record(Archive(tmp_path / "store"), "c3")
        assert written != fresh["c3"]
        assert len(seen) == 32
        for corpus_id, record in seen:
            assert record == fresh[corpus_id] or (
                corpus_id == "c3" and record == written)
        assert corpus_record(deferred, "c3") == written

    def test_first_level_reads_parse_each_payload_once(self, tmp_path,
                                                       monkeypatch):
        archive = Archive(tmp_path / "store")
        archive.register_corpus("C", corpus_id="c")
        # Long enough to parse that readers switch in the middle of it.
        words = "".join(f'<word id="word_{n}">w</word>' for n in range(1, 301))
        seg = archive.deposit("c", words, "segmentation", new_levels=[
            LevelSpec("segmentation", "full")]).levels[0]
        for payload, fmt, kind in (
                ("".join(f'<w span="word_{n}" lemma="w"/>'
                         for n in range(1, 301)), "standoff-morpho",
                 "morphosyntax"),
                ('<coref id="1">w w</coref>' + " w" * 298, "inline-coref",
                 "reference")):
            archive.deposit("c", payload, fmt, new_levels=[
                LevelSpec(kind, "none", (seg,))])
        levels = [l.id for l in archive.levels("c")]
        opened = Archive(tmp_path / "store")
        expected = {l: (opened.coverage(l), computed(opened, l))
                    for l in levels}
        deferred = Archive(tmp_path / "store", defer_parse=True)
        held = deferred.snapshot()
        parsed, errors = [], []
        materialize = Archive._materialize

        def counted(state, resource, *rest):
            parsed.append(resource.id)
            return materialize(state, resource, *rest)
        monkeypatch.setattr(Archive, "_materialize", counted)

        def reader(i):
            try:
                for level_id in levels[i % 3:] + levels[:i % 3]:
                    assert (held.coverage(level_id),
                            computed(held, level_id)) == expected[level_id]
            except Exception as err:  # pragma: no cover - failure reporting
                errors.append(err)

        def writer():
            try:  # drops the morphology, filled first
                deferred.withdraw("c-r002")
            except Exception as err:  # pragma: no cover - failure reporting
                errors.append(err)

        threads = [threading.Thread(target=reader, args=(i,))
                   for i in range(8)] + [threading.Thread(target=writer)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert errors == []
        assert sorted(parsed) == ["c-r001", "c-r002", "c-r003"]

    def test_parallel_writers_and_readers(self, tmp_path):
        archive = Archive(tmp_path / "store")
        errors = []

        def writer(i):
            try:
                corpus = archive.register_corpus(f"Corpus {i}",
                                                 corpus_id=f"c{i}")
                seg = archive.add_level(corpus.id, "segmentation", "full")
                payload = "\n".join(
                    f"<word id=\"word_{j}\">tok{i}x{j}</word>"
                    for j in range(1, 6))
                archive.deposit(corpus.id, payload, "segmentation",
                                levels=[seg.id])
                assert len(archive.coverage(seg.id)) == 5
            except Exception as err:  # pragma: no cover - failure reporting
                errors.append(err)

        def reader():
            try:
                for _ in range(20):
                    export_catalog(archive)
                    archive.validate()
            except Exception as err:  # pragma: no cover - failure reporting
                errors.append(err)

        threads = [threading.Thread(target=writer, args=(i,))
                   for i in range(8)]
        threads.append(threading.Thread(target=reader))
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert errors == []
        assert len(archive.corpora()) == 8
        assert archive.validate() == []
        reloaded = Archive(tmp_path / "store")
        assert export_catalog(reloaded) == export_catalog(archive)


class TestCorpusIsolation:
    """A write to one corpus changes no other corpus's record, and no
    record of a snapshot taken before it."""

    # "a" with kind "b-segmentation" and "a-b" with kind "segmentation"
    # would share a level id.
    IDS = ("a", "a-b", "b")
    KINDS = ("segmentation", "morphosyntax", "b-segmentation")

    @staticmethod
    def records(snapshot):
        return {c.id: corpus_record(snapshot, c.id)
                for c in snapshot.corpora()}

    def write(self, archive, data):
        """One random write; returns the corpus it targets."""
        snapshot = archive.snapshot()
        corpora = [c.id for c in snapshot.corpora()]
        levels = [l.id for cid in corpora for l in snapshot.levels(cid)]
        resources = [r.id for cid in corpora
                     for r in snapshot.resources(cid)]
        op = data.draw(st.sampled_from(
            ["register", "level", "deposit", "morphology", "dependency",
             "withdraw"] if corpora else ["register"]))
        if op == "register":
            corpus_id = data.draw(st.sampled_from(self.IDS))
            archive.register_corpus(corpus_id.upper(), corpus_id=corpus_id)
            return corpus_id
        if op == "withdraw":
            if not resources:
                return None
            subject = data.draw(st.sampled_from(resources))
            archive.withdraw(subject)
            return snapshot.resource(subject).corpus_id
        if op == "dependency":
            if not levels:
                return None
            subject = data.draw(st.sampled_from(levels))
            archive.add_dependency(subject, data.draw(st.sampled_from(levels)))
            return snapshot.level(subject).corpus_id
        corpus_id = data.draw(st.sampled_from(corpora))
        # Any level may be drawn, so the cross-corpus refusals run too.
        deps = data.draw(st.lists(st.sampled_from(levels), max_size=1)
                         if levels else st.just([]))
        kind = data.draw(st.sampled_from(self.KINDS))
        if op == "level":
            archive.add_level(corpus_id, kind,
                              data.draw(st.sampled_from(["full", "none"])),
                              depends_on=deps)
        elif op == "deposit":
            # Onto existing levels, or onto a new one, which is refused
            # unless it is a segmentation.
            new = ([LevelSpec(kind, "full")] if data.draw(st.booleans())
                   else [])
            archive.deposit(
                corpus_id,
                f'<word id="word_{data.draw(st.integers(1, 2))}">Madame</word>',
                "segmentation", levels=[] if new else deps, new_levels=new)
        else:
            archive.deposit(corpus_id, '<w span="word_1" lemma="madame"/>',
                            "standoff-morpho",
                            new_levels=[LevelSpec(kind, "none", tuple(deps))])
        return corpus_id

    @settings(max_examples=25, deadline=None)
    @given(data=st.data())
    def test_writes_stay_in_their_corpus(self, data):
        ticks = iter(range(10**6))
        with tempfile.TemporaryDirectory() as root:
            archive = Archive(root, clock=lambda: datetime.fromtimestamp(
                1.2e9 + next(ticks), timezone.utc))
            for _ in range(data.draw(st.integers(1, 12))):
                before = archive.snapshot()
                records, export = self.records(before), export_catalog(before)
                try:
                    written = self.write(archive, data)
                except CorpusForgeError:
                    assert archive.snapshot() is before
                    continue
                assert export_catalog(before) == export
                after = self.records(archive.snapshot())
                for corpus_id, record in records.items():
                    if corpus_id != written:
                        assert after[corpus_id] == record, corpus_id
            assert export_catalog(Archive(root)) == export_catalog(archive)

    @staticmethod
    def level_reads(archive, level_id):
        try:
            coverage = archive.coverage(level_id)
        except CorpusForgeError as err:
            coverage = (err.code, err.message)
        return (coverage, archive.level_units(level_id),
                archive.level_items(level_id), computed(archive, level_id))

    @settings(max_examples=25, deadline=None)
    @given(data=st.data())
    def test_deferred_parse_answers_as_the_parse_at_open(self, data):
        with tempfile.TemporaryDirectory() as root:
            archive = Archive(root)
            for _ in range(data.draw(st.integers(1, 12))):
                try:
                    self.write(archive, data)
                except CorpusForgeError:
                    pass
            eager = Archive(root)
            deferred = Archive(root, defer_parse=True)
            corpora = [c.id for c in eager.corpora()]
            # The corpus read first parses alone, without the others.
            for corpus_id in data.draw(st.permutations(corpora)):
                for level in eager.levels(corpus_id):
                    assert self.level_reads(deferred, level.id) \
                        == self.level_reads(eager, level.id)
            assert deferred.validate() == eager.validate()
            assert export_catalog(deferred) == export_catalog(eager)
            # The catalog read first parses every corpus.
            assert export_catalog(Archive(root, defer_parse=True)) \
                == export_catalog(eager)

    @settings(max_examples=25, deadline=None)
    @given(data=st.data())
    def test_rendered_catalog_is_never_stale(self, data):
        ticks = iter(range(10**6))
        with tempfile.TemporaryDirectory() as root:
            archive = Archive(root, clock=lambda: datetime.fromtimestamp(
                1.2e9 + next(ticks), timezone.utc))
            held = []

            def check():
                # Each read twice: the second is answered from the memo.
                live = archive.snapshot()
                seen = [(self.records(live), catalog_summary(live))
                        for _ in range(2)]
                assert seen[0] == seen[1]
                for reloaded in (Archive(root),
                                 Archive(root, defer_parse=True)):
                    assert (self.records(reloaded),
                            catalog_summary(reloaded)) == seen[0]
                held.append((live, seen[0]))

            for _ in range(data.draw(st.integers(1, 12))):
                try:
                    self.write(archive, data)
                except CorpusForgeError:
                    pass
                check()
            for corpus in archive.corpora():
                for resource in archive.resources(corpus.id):
                    if resource.available:
                        archive.withdraw(resource.id)
                        check()
            for snapshot, rendered in held:
                assert (self.records(snapshot),
                        catalog_summary(snapshot)) == rendered

    def test_held_unparsed_snapshot_keeps_its_export_after_a_withdraw(
            self, archive, tmp_path):
        corpus_id, seg_id = goriot(archive)
        morpho = morpho_level(archive, corpus_id, seg_id)
        archive.deposit(corpus_id, fixture("goriot_standoff_morpho_full.xml"),
                        "standoff-morpho", levels=[morpho.id])
        export = export_catalog(Archive(tmp_path / "store"))
        deferred = Archive(tmp_path / "store", defer_parse=True)
        held = deferred.snapshot()
        segmentation = held.resources(corpus_id)[0]
        assert segmentation.levels == (seg_id,)
        deferred.withdraw(segmentation.id)
        assert export_catalog(held) == export
        assert export_catalog(deferred) \
            == export_catalog(Archive(tmp_path / "store")) != export

    def test_held_snapshot_keeps_an_unread_level_after_a_withdraw(
            self, archive, tmp_path):
        corpus_id, seg_id = goriot(archive)
        morpho = morpho_level(archive, corpus_id, seg_id)
        archive.deposit(corpus_id, fixture("goriot_standoff_morpho_full.xml"),
                        "standoff-morpho", levels=[morpho.id])
        ref = archive.add_level(corpus_id, "reference", "none",
                                depends_on=[seg_id])
        archive.deposit(corpus_id, fixture("fig08_inline_coref.xml"),
                        "inline-coref", levels=[ref.id])
        opened = Archive(tmp_path / "store")
        expected = {level_id: (opened.coverage(level_id),
                               level_header(opened, level_id).render())
                    for level_id in (morpho.id, ref.id)}
        deferred = Archive(tmp_path / "store", defer_parse=True)
        held = deferred.snapshot()
        segmentation, *anchored = held.resources(corpus_id)
        assert segmentation.levels == (seg_id,)
        deferred.withdraw(segmentation.id)
        # Then the payloads of the levels that anchor on it go too.
        for resource in anchored:
            deferred.withdraw(resource.id)
        for level_id, (coverage, header) in expected.items():
            assert held.coverage(level_id) == coverage
            assert level_header(held, level_id).render() == header
        assert not deferred.level_items(ref.id)


class TestLoadOnFirstRead:
    """A deferred open lists the corpora; a corpus's manifest loads on the
    first read of that corpus, as it was when the archive opened."""

    def test_held_snapshot_answers_from_the_manifest_at_open(
            self, archive, tmp_path):
        for corpus_id in ("x", "y"):
            archive.register_corpus(corpus_id.upper(), corpus_id=corpus_id)
            seg = archive.add_level(corpus_id, "segmentation", "full")
            archive.deposit(corpus_id, ONE_WORD, "segmentation",
                            levels=[seg.id])
        opened = Archive(tmp_path / "store")
        expected = (opened.levels("y"), opened.resources("y"),
                    corpus_record(opened, "y"))
        deferred = Archive(tmp_path / "store", defer_parse=True)
        held = deferred.snapshot()
        assert held.corpus("x").id == "x"  # y is not read yet
        deferred.deposit("y", '<w span="word_1" lemma="madame"/>',
                         "standoff-morpho", new_levels=[
                             LevelSpec("morphosyntax", "none", (seg.id,))])
        assert (held.levels("y"), held.resources("y"),
                corpus_record(held, "y")) == expected
        assert len(deferred.levels("y")) == 2
        assert corpus_record(deferred, "y") \
            == corpus_record(Archive(tmp_path / "store"), "y")

    def test_ids_minted_after_a_deferred_open_stay_unique(
            self, archive, tmp_path):
        archive.register_corpus("A", corpus_id="a")
        archive.register_corpus("A B", corpus_id="a-b")
        seg = archive.add_level("a-b", "segmentation", "full")
        deferred = Archive(tmp_path / "store", defer_parse=True)
        odd = deferred.add_level("a", "b-segmentation", "full")
        assert odd.id != seg.id
        assert deferred.register_corpus("A B").id == "a-b-2"
        assert deferred.validate() == []


def test_every_public_read_has_a_caller_outside_the_tests():
    """Each public method of Snapshot (and so of Archive) and of Registry
    is called in the package or the benchmark, or README documents it.
    A caller is found by name: ``.name(`` in their Python source.

    Each public module-level function and class of the package is
    referenced there outside its own definition, or README names it.  A
    reference is an identifier, an attribute or an imported name, or a
    string that is the whole name (the tracer patches by name); so the
    codecs count, which only ``FORMATS`` reaches."""
    repo = pathlib.Path(__file__).parents[1]
    sources = {path: path.read_text(encoding="utf-8")
               for folder in ("src", "perfbench")
               for path in sorted((repo / folder).rglob("*.py"))}
    code = "".join(sources.values())
    readme = (repo / "README.md").read_text(encoding="utf-8")
    unused = [f"{cls.__name__}.{name}" for cls in (Snapshot, Registry)
              for name in vars(cls)
              if not name.startswith("_") and callable(getattr(cls, name))
              and f".{name}(" not in code
              and not re.search(rf"`{name}[`(]", readme)]
    trees = {path: ast.parse(source) for path, source in sources.items()}
    referenced = set()
    for node in (node for tree in trees.values() for node in ast.walk(tree)):
        if isinstance(node, ast.Name):
            referenced.add(node.id)
        elif isinstance(node, ast.Attribute):
            referenced.add(node.attr)
        elif isinstance(node, ast.alias):
            referenced.add(node.name)
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            referenced.add(node.value)
    unused += [f"{path.stem}.{node.name}" for path, tree in trees.items()
               if path.is_relative_to(repo / "src" / "corpus_forge")
               for node in tree.body
               if isinstance(node, (ast.FunctionDef, ast.ClassDef))
               and not node.name.startswith("_")
               and node.name not in referenced
               and not re.search(rf"`{node.name}[`(]", readme)]
    assert unused == []
