"""Metadata headers, auto statistics, and catalog export."""

import pathlib
import threading
from datetime import datetime, timezone

import pytest
from hypothesis import given, settings, strategies as st

from corpus_forge import catalog
from corpus_forge.archive import Archive
from corpus_forge.catalog import (
    MetadataHeader,
    archive_stamp,
    build_header,
    build_resource_header,
    catalog_summary,
    compute_auto_stats,
    corpus_header,
    corpus_record,
    export_catalog,
    level_header,
    write_export,
)
from corpus_forge.errors import ParseError, StoreError
from oracles import parse_header
from strategies import metas, texts

FIXTURES = pathlib.Path(__file__).parent / "fixtures"

FIXED_MOMENT = datetime(2005, 6, 1, 12, 0, 0, tzinfo=timezone.utc)


def fixture(name: str) -> str:
    return (FIXTURES / name).read_text(encoding="utf-8")


@pytest.fixture
def archive(tmp_path):
    return Archive(tmp_path / "store", clock=lambda: FIXED_MOMENT)


def goriot(archive):
    corpus = archive.register_corpus(
        "Père Goriot", language="fr",
        meta={"genre": "littéraire", "word-count": "100000"})
    seg = archive.add_level(corpus.id, "segmentation", "full")
    archive.deposit(corpus.id, fixture("goriot_segmentation_full.xml"),
                    "segmentation", levels=[seg.id], depositor="atilf")
    return corpus.id, seg.id


class TestBuildHeader:
    def test_known_fields_kept(self):
        header = build_header("corpus", "c", {"title": "T", "language": "fr"})
        assert dict(header.declared) == {"title": "T", "language": "fr"}
        assert header.warnings == ()

    def test_unknown_field_moves_under_extension_prefix(self):
        header = build_header("corpus", "c", {"color": "blue"})
        assert dict(header.declared) == {"x-color": "blue"}
        assert len(header.warnings) == 1
        assert "x-color" in header.warnings[0]

    def test_existing_extension_field_silently_kept(self):
        header = build_header("level", "l", {"x-pipeline": "v2"})
        assert dict(header.declared) == {"x-pipeline": "v2"}
        assert header.warnings == ()

    def test_unknown_tier_rejected(self):
        with pytest.raises(StoreError):
            build_header("planet", "p", {})

    def test_fields_sorted_deterministically(self):
        header = build_header("corpus", "c",
                              {"title": "T", "genre": "g", "source": "s"})
        assert [key for key, _ in header.declared] == [
            "genre", "source", "title"]

    def test_computed_fields_never_merge_into_declared(self):
        header = build_header("corpus", "c", {"word-count": "100000"},
                              {"word-count": "0"})
        assert dict(header.declared)["word-count"] == "100000"
        assert dict(header.computed)["word-count"] == "0"


class TestHeaderRoundTrip:
    def sample(self):
        return build_header(
            "resource", "r1",
            {"depositor": "atilf", "note": "line one\nline two"},
            {"size": "154", "format": "segmentation"},
            generated_at="2005-06-01T12:00:00Z")

    def test_render_parse_identity(self):
        header = self.sample()
        assert parse_header(header.render()) == header

    def test_render_is_line_oriented(self):
        text = self.sample().render()
        assert "\nline two" not in text  # newline escaped inside the value
        assert text.startswith("header: resource\nsubject: r1\n")

    def test_parse_rejects_junk_lines(self):
        with pytest.raises(ParseError):
            parse_header("header: corpus\nsubject: c\ngenerated: -\nnope\n")

    def test_parse_rejects_missing_preamble(self):
        with pytest.raises(ParseError):
            parse_header("declared title: T\n")

    def test_warnings_round_trip(self):
        header = build_header("corpus", "c", {"color": "blue"})
        assert parse_header(header.render()).warnings == header.warnings

    @settings(max_examples=40, deadline=None)
    @given(tier=st.sampled_from(sorted(catalog.TIER_FIELDS)), subject=texts,
           declared=metas, computed=metas, generated=texts)
    def test_every_header_round_trips(self, tier, subject, declared,
                                      computed, generated):
        header = build_header(tier, subject, declared, computed, generated)
        assert parse_header(header.render()) == header


class TestAutoStats:
    def test_empty_corpus_counts_zero(self, archive):
        archive.register_corpus("Empty", corpus_id="empty")
        assert compute_auto_stats(archive, "empty") == {
            "word-count": "0", "level-count": "0", "resource-count": "0"}

    def test_word_count_from_segmentation(self, archive):
        corpus_id, _ = goriot(archive)
        stats = compute_auto_stats(archive, corpus_id)
        assert stats["word-count"] == "76"
        assert stats["level-count"] == "1"
        assert stats["resource-count"] == "1"

    def test_word_count_prefers_full_segmentation(self, archive):
        archive.register_corpus("Two", corpus_id="two")
        for coverage, words in (("partial", 1), ("full", 3)):
            seg = archive.add_level("two", "segmentation", coverage)
            archive.deposit("two", "\n".join(
                f'<word id="word_{i}">w{i}</word>'
                for i in range(1, words + 1)), "segmentation",
                levels=[seg.id])
        assert compute_auto_stats(archive, "two")["word-count"] == "3"

    def test_declared_and_computed_side_by_side(self, archive):
        corpus_id, _ = goriot(archive)
        header = corpus_header(archive, corpus_id)
        assert dict(header.declared)["word-count"] == "100000"
        assert dict(header.computed)["word-count"] == "76"

    def test_turn_count_only_with_dialogue_structure(self, archive):
        corpus_id, _ = goriot(archive)
        assert "turn-count" not in compute_auto_stats(archive, corpus_id)
        archive.register_corpus("Dialogue", corpus_id="dialogue")
        level = archive.add_level("dialogue", "structure", "full")
        archive.deposit(
            "dialogue",
            "<turn>Bonjour docteur</turn> <turn>Bonjour</turn>",
            "structural-inline", levels=[level.id])
        assert compute_auto_stats(archive, "dialogue")["turn-count"] == "2"


class TestLevelHeaders:
    def test_anchor_and_producer(self, archive):
        corpus_id, seg_id = goriot(archive)
        morpho = archive.add_level(corpus_id, "morphosyntax", "none",
                                   depends_on=[seg_id],
                                   meta={"producer": "WinBrill"})
        header = level_header(archive, morpho.id)
        assert dict(header.declared)["producer"] == "WinBrill"
        assert dict(header.computed)["anchor"] == seg_id
        assert dict(header.computed)["classification"] == "Secondary"
        assert dict(header.computed)["materialized"] == "false"

    def test_materialized_with_counts_and_granularity(self, archive):
        corpus_id, seg_id = goriot(archive)
        morpho = archive.add_level(corpus_id, "morphosyntax", "none",
                                   depends_on=[seg_id])
        archive.deposit(corpus_id, fixture("goriot_standoff_morpho_full.xml"),
                        "standoff-morpho", levels=[morpho.id])
        header = level_header(archive, morpho.id)
        computed = dict(header.computed)
        assert computed["materialized"] == "true"
        assert computed["items"] == "76"
        assert computed["granularity"] == "inflection,lemma,part-of-speech"

    def test_segmentation_items_are_units(self, archive):
        corpus_id, seg_id = goriot(archive)
        header = level_header(archive, seg_id)
        assert dict(header.computed)["items"] == "76"
        assert "anchor" not in dict(header.computed)


class TestResourceHeaders:
    def test_deposit_date_and_depositor(self, archive):
        corpus_id, _ = goriot(archive)
        resource = archive.resources(corpus_id)[0]
        header = build_resource_header(resource)
        assert dict(header.declared)["depositor"] == "atilf"
        assert dict(header.computed)["deposited"] == "2005-06-01T12:00:00Z"
        assert dict(header.computed)["format"] == "segmentation"
        assert header.generated_at == "2005-06-01T12:00:00Z"

    def test_license_note_declared(self, archive):
        corpus_id, seg_id = goriot(archive)
        seg2 = archive.add_level(corpus_id, "segmentation", "partial")
        archive.deposit(corpus_id, "<word id=\"word_900\">x</word>",
                        "segmentation", levels=[seg2.id],
                        meta={"license": "research-only"})
        resource = archive.resources(corpus_id)[-1]
        header = build_resource_header(resource)
        assert dict(header.declared)["license"] == "research-only"


class TestExportCatalog:
    def test_two_exports_are_byte_identical(self, archive):
        goriot(archive)
        assert export_catalog(archive) == export_catalog(archive)

    def test_empty_archive_is_a_valid_document(self, archive):
        text = export_catalog(archive)
        assert text == "catalog-format: 1\ngenerated: -\ncorpora: 0\n"

    def test_one_record_per_corpus(self, archive):
        archive.register_table(fixture("table1_corpora.tsv"), language="fr")
        text = export_catalog(archive)
        assert text.count("header: corpus") == 12
        assert "corpora: 12" in text.splitlines()[2]

    def test_metadata_only_corpora_appear(self, archive):
        archive.register_corpus("No Deposits", corpus_id="declared-only")
        level = archive.add_level("declared-only", "morphosyntax", "none")
        text = export_catalog(archive)
        assert "subject: declared-only" in text
        assert f"subject: {level.id}" in text
        assert "computed materialized: false" in text

    def test_every_resource_appears_exactly_once(self, archive):
        corpus_id, seg_id = goriot(archive)
        morpho = archive.add_level(corpus_id, "morphosyntax", "none",
                                   depends_on=[seg_id])
        archive.deposit(corpus_id, fixture("goriot_standoff_morpho_full.xml"),
                        "standoff-morpho", levels=[morpho.id])
        text = export_catalog(archive)
        for resource in archive.resources(corpus_id):
            assert text.count(f"subject: {resource.id}\n") == 1

    def test_corpora_ordered_by_id(self, archive):
        archive.register_corpus("Zèbre", corpus_id="zebre")
        archive.register_corpus("Alpha", corpus_id="alpha")
        text = export_catalog(archive)
        assert text.index("subject: alpha") < text.index("subject: zebre")

    def test_headers_survive_withdrawal(self, archive):
        corpus_id, seg_id = goriot(archive)
        resource = archive.resources(corpus_id)[0]
        archive.withdraw(resource.id)
        text = export_catalog(archive)
        assert f"subject: {resource.id}" in text
        assert "computed available: false" in text
        assert "computed materialized: false" in text

    def test_generated_stamp_is_event_derived(self, archive):
        corpus_id, _ = goriot(archive)
        assert archive_stamp(archive) == "2005-06-01T12:00:00Z"
        header = corpus_header(archive, corpus_id)
        assert header.generated_at == "2005-06-01T12:00:00Z"

    def test_write_export_lands_at_archive_root(self, archive, tmp_path):
        goriot(archive)
        path = write_export(archive)
        assert path == tmp_path / "store" / "catalog.export"
        assert path.read_text(encoding="utf-8") == export_catalog(archive)


class TestCatalogSummary:
    def test_summary_counts(self, archive):
        corpus_id, seg_id = goriot(archive)
        text = catalog_summary(archive)
        assert f"corpus: {corpus_id}" in text
        assert "levels: 1" in text
        assert "resources: 1" in text

    def test_offset_skips_but_keeps_total(self, archive):
        archive.register_table(fixture("table1_corpora.tsv"), language="fr")
        text = catalog_summary(archive, offset=10)
        assert "corpora: 12" in text
        assert "offset: 10" in text
        assert text.count("corpus: ") == 2

    def test_record_equals_export_slice(self, archive):
        corpus_id, _ = goriot(archive)
        record = corpus_record(archive, corpus_id)
        assert record in export_catalog(archive)


class TestOneCommitPerRead:
    def test_record_is_not_torn_by_a_concurrent_commit(self, archive,
                                                       monkeypatch):
        corpus_id, _ = goriot(archive)
        stats = catalog.compute_auto_stats
        commits = []

        def commit_between_reads(*args):
            result = stats(*args)
            if not commits:
                writer = threading.Thread(
                    target=lambda: commits.append(archive.add_level(
                        corpus_id, "structure", "full")))
                writer.start()
                writer.join(timeout=10)
                assert not writer.is_alive()
            return result
        monkeypatch.setattr(catalog, "compute_auto_stats",
                            commit_between_reads)
        record = corpus_record(archive, corpus_id)
        assert commits
        assert "computed level-count: 1" in record
        assert record.count("header: level") == 1


class TestRenderedOncePerState:
    def test_second_reads_render_nothing(self, archive, monkeypatch):
        corpus_id, seg_id = goriot(archive)
        morpho = archive.add_level(corpus_id, "morphosyntax", "none",
                                   depends_on=[seg_id])
        archive.deposit(corpus_id, fixture("goriot_standoff_morpho_full.xml"),
                        "standoff-morpho", levels=[morpho.id])
        archive.register_corpus("Empty", corpus_id="empty")
        calls = []

        def counted(name, function):
            def call(*args):
                calls.append(name)
                return function(*args)
            return call
        monkeypatch.setattr(catalog, "compute_auto_stats", counted(
            "compute_auto_stats", catalog.compute_auto_stats))
        monkeypatch.setattr(MetadataHeader, "render", counted(
            "render", MetadataHeader.render))
        snapshot = archive.snapshot()
        reads = (lambda: corpus_record(snapshot, corpus_id),
                 lambda: export_catalog(snapshot),
                 lambda: catalog_summary(snapshot))
        first = [read() for read in reads]
        assert {"compute_auto_stats", "render"} <= set(calls)
        for read, text in zip(reads, first):
            calls.clear()
            assert read() == text
            assert calls == []

    def test_a_write_keeps_other_corpora_rendered(self, archive):
        corpus_id, seg_id = goriot(archive)
        archive.register_corpus("Other", corpus_id="other")
        seg = archive.add_level("other", "segmentation", "full")
        archive.deposit("other", '<word id="word_1">Madame</word>',
                        "segmentation", levels=[seg.id])
        record, other = (corpus_record(archive, corpus_id),
                         corpus_record(archive, "other"))
        archive.deposit("other", '<word id="word_2">Vauquer</word>',
                        "segmentation", levels=[seg.id])
        assert corpus_record(archive, corpus_id) is record
        assert corpus_record(archive, "other") != other
