"""Acceptance gate: eight end-to-end criteria, one printed verdict each.

Every criterion exercises the engine the way a depositor or service
consumer would, against the bundled fixture corpus.  Expected values are
pinned exactly (counts, ids, span expressions, classifications); the two
timed criteria carry explicit wall-clock budgets.  Each criterion prints
exactly one ``acceptance n/8 <name>: PASS|FAIL`` line on the real stdout
so the verdicts survive pytest's capture.
"""

import contextlib
import random
import re
import sys
import time
from pathlib import Path

import pytest

from corpus_forge.archive import Archive
from corpus_forge.catalog import export_catalog, level_header
from corpus_forge.cli import main
from corpus_forge.errors import (
    DependencyCycleError,
    MisalignmentError,
    NoLevelError,
)
from corpus_forge.formats import (
    Link,
    parse_inline_coref,
    parse_referential_standoff,
    parse_segmentation,
    parse_standoff_morpho,
    parse_syntax_constituency,
    parse_tabular_morpho,
    syntax_terminals,
)
from corpus_forge.manifest import dumps_corpus
from corpus_forge.model import Corpus, Level
from corpus_forge.service import handle_request, make_server
from corpus_forge.standoff import (
    align_inline,
    coverage_fingerprint,
    segment_text,
)
from corpus_forge.versioning import (
    Classification,
    Comparison,
    classify_submission,
    compare_granularity,
)
from oracles import serialize_segmentation, serialize_standoff_morpho

FIXTURES = Path(__file__).parent / "fixtures"

PARSE_BUDGET_SECONDS = 1.0
PIPELINE_BUDGET_SECONDS = 10.0
FIXED_POINT_TEXTS = 100
FIXED_POINT_SEED = 986441

# One verdict line per criterion; the conftest terminal-summary hook
# replays them after the run so they survive pytest's output capture.
VERDICTS: list[str] = []


def fixture(name: str) -> str:
    return (FIXTURES / name).read_text(encoding="utf-8")


@contextlib.contextmanager
def criterion(number: int, name: str):
    """Record and print one pass/fail verdict per criterion."""
    verdict = "PASS"
    try:
        yield
    except BaseException:
        verdict = "FAIL"
        raise
    finally:
        line = f"acceptance {number}/8 {name}: {verdict}"
        VERDICTS.append(line)
        print(line, file=sys.__stdout__, flush=True)


def test_codec_fixtures_round_trip_with_exact_counts():
    with criterion(1, "codec fixtures round-trip with exact counts"):
        started = time.perf_counter()

        morpho_text = fixture("fig05_standoff_morpho.xml")
        once = parse_standoff_morpho(morpho_text)
        again = parse_standoff_morpho(serialize_standoff_morpho(once))
        assert again == once
        assert len(once) == 9

        units = parse_segmentation(fixture("fig03_segmentation.xml"))
        assert [(u.id, u.form) for u in units] == [
            ("word_27", "Madame"), ("word_28", "Vauquer"), ("word_29", ","),
            ("word_30", "née"), ("word_31", "De")]

        rows = parse_tabular_morpho(fixture("fig04_tabular_morpho.tsv"))
        assert len(rows) == 9

        roots = parse_syntax_constituency(fixture("fig06_syntax.vis"))
        assert len(roots) == 7
        assert len(syntax_terminals(roots)) == 8

        excerpt_units = parse_segmentation(
            fixture("goriot_segmentation_full.xml"))
        markables = parse_inline_coref(fixture("fig08_inline_coref.xml"),
                                       excerpt_units)
        assert len(markables) == 2
        links = [link for item in markables for link in item.links]
        assert links == [Link("ident", ("1",))]

        referential = parse_referential_standoff(
            fixture("fig10_referential.xml"))
        assert len([i for i in referential
                    if i.element == "referentialMarkable"]) == 3
        link_items = [i for i in referential
                      if i.element == "referentialLink"]
        assert len(link_items) == 2
        assert {i.group for i in link_items} == {"alt_1"}

        elapsed = time.perf_counter() - started
        assert elapsed < PARSE_BUDGET_SECONDS


def test_coverage_reconstruction_is_transitive_and_detects_corruption(
        tmp_path):
    with criterion(2, "pointer levels reconstruct the exact surface and "
                      "corrupted spans are detected"):
        store = Archive(tmp_path / "store")
        store.register_corpus("Père Goriot", language="fr",
                              corpus_id="pere-goriot")
        seg = store.add_level("pere-goriot", "segmentation", "full")
        morpho = store.add_level("pere-goriot", "morphosyntax", "none",
                                 depends_on=[seg.id])
        store.deposit("pere-goriot", fixture("goriot_segmentation_full.xml"),
                      format="segmentation", levels=[seg.id])
        morpho_text = fixture("goriot_standoff_morpho_full.xml")
        store.deposit("pere-goriot", morpho_text,
                      format="standoff-morpho", levels=[morpho.id])

        source_tokens = [u.form for u in
                         segment_text(fixture("fig01_goriot_source.txt"))]
        assert (coverage_fingerprint(store.coverage(morpho.id))
                == coverage_fingerprint(source_tokens))
        assert store.validate("pere-goriot") == []

        broken = store.add_level("pere-goriot", "morphosyntax", "none",
                                 depends_on=[seg.id])
        store.deposit("pere-goriot",
                      morpho_text.replace('"word_27"', '"word_999"', 1),
                      format="standoff-morpho", levels=[broken.id])
        flagged = [v for v in store.validate("pere-goriot")
                   if v.code == "dangling-pointer"]
        assert [v.subject for v in flagged] == [broken.id]


def test_declared_coverage_drives_level_classification(tmp_path):
    with criterion(3, "declared coverage drives level classification"):
        store = Archive(tmp_path / "store")
        store.register_corpus("Père Goriot", language="fr",
                              corpus_id="pere-goriot")
        seg = store.add_level("pere-goriot", "segmentation", "full")
        morpho = store.add_level("pere-goriot", "morphosyntax", "none",
                                 depends_on=[seg.id])
        store.deposit("pere-goriot", fixture("goriot_segmentation_full.xml"),
                      format="segmentation", levels=[seg.id])
        store.deposit("pere-goriot",
                      fixture("goriot_standoff_morpho_full.xml"),
                      format="standoff-morpho", levels=[morpho.id])
        assert store.classify_level(seg.id) == "Primary"
        assert store.classify_level(morpho.id) == "Secondary"

        store.register_corpus("Entretiens oraux", language="fr",
                              corpus_id="oral")
        recording = store.add_level("oral", "recording", "full")
        transcription = store.add_level(
            "oral", "transcription", "full",
            depends_on=[(recording.id, "time-aligned-to")])
        assert store.classify_level(recording.id) == "Primary"
        assert store.classify_level(transcription.id) == "Primary"


def test_version_calculus_truth_table_and_validated_correction(tmp_path):
    with criterion(4, "version calculus truth table including validated "
                      "corrections"):
        base = frozenset({"part-of-speech", "lemma"})
        probes = {
            Comparison.EQUAL: base,
            Comparison.FINER: base | {"inflection"},
            Comparison.COARSER: frozenset({"part-of-speech"}),
            Comparison.DIFFERENT: frozenset({"referential-markable",
                                             "coreference-identity"}),
        }
        expected = {
            (Comparison.EQUAL, False): Classification.PARALLEL,
            (Comparison.FINER, False): Classification.PARALLEL_ENRICHED,
            (Comparison.COARSER, False): Classification.SUPPLEMENTARY,
            (Comparison.DIFFERENT, False): Classification.SUPPLEMENTARY,
            (Comparison.EQUAL, True): Classification.EXHAUSTIVE_CORRECTION,
            (Comparison.FINER, True): Classification.EXHAUSTIVE_CORRECTION,
            (Comparison.COARSER, True): Classification.TRANSVERSE_CORRECTION,
            (Comparison.DIFFERENT, True):
                Classification.TRANSVERSE_CORRECTION,
        }
        for (comparison, validated), want in expected.items():
            new = probes[comparison]
            assert compare_granularity(new, base) is comparison
            got = classify_submission(new, base, validated=validated)
            assert got is want
        for validated in (False, True):
            assert (classify_submission(base, None, validated=validated)
                    is Classification.INITIAL)

        store = Archive(tmp_path / "store")
        store.register_corpus("Séance", language="fr", corpus_id="seance")
        seg = store.add_level("seance", "segmentation", "full")
        morpho = store.add_level("seance", "morphosyntax", "none",
                                 depends_on=[seg.id])
        sentence = "C'est moi qui suis l'auteur de ta joie."
        store.deposit("seance", serialize_segmentation(segment_text(sentence)),
                      format="segmentation", levels=[seg.id])
        first = store.deposit("seance", fixture("fig11_inline_morpho.xml"),
                              format="inline-morpho", levels=[morpho.id])
        second = store.deposit("seance", fixture("fig11_corrected.xml"),
                               format="inline-morpho", levels=[morpho.id],
                               validated=True, validator="adjudicator")
        assert first.records[0].classification is Classification.INITIAL
        corrected = second.records[0]
        assert (corrected.classification
                is Classification.EXHAUSTIVE_CORRECTION)
        assert corrected.supersedes == first.records[0].id
        assert corrected.validator == "adjudicator"


def test_tokenizer_contractions_punctuation_and_fixed_point():
    with criterion(5, "tokenizer expands contractions, detaches "
                      "punctuation, and re-segments to a fixed point"):
        assert [u.form for u in segment_text("au")] == ["à", "le"]
        assert [u.form for u in segment_text("aux")] == ["à", "les"]
        assert [u.form for u in segment_text("du")] == ["de", "le"]

        fixture_units = parse_segmentation(fixture("fig03_segmentation.xml"))
        assert ([u.form for u in segment_text("Madame Vauquer, née De")]
                == [u.form for u in fixture_units])
        assert fixture_units[2].form == ","

        rng = random.Random(FIXED_POINT_SEED)
        vocab = ["au", "aux", "du", "l'auteur", "d'abord", "aujourd'hui",
                 "Madame", "née", "mœurs", "Neuve-Sainte-Geneviève",
                 "pension", "établissement", "quartier", "dit-elle,",
                 "(incertitude)", "«", "»", ",", ".", ";", "!", "?",
                 "joie.", "qu'elle", "...", "M."]
        separators = [" ", "  ", "\n", "\t"]
        for _ in range(FIXED_POINT_TEXTS):
            words = rng.choices(vocab, k=rng.randint(1, 40))
            text = rng.choice(separators).join(words)
            forms = [u.form for u in segment_text(text)]
            again = [u.form for u in segment_text(" ".join(forms))]
            assert again == forms


def test_inline_markup_alignment_onto_reference_units():
    with criterion(6, "inline markup aligns onto reference units and "
                      "mid-token boundaries are rejected"):
        excerpt_units = parse_segmentation(
            fixture("goriot_segmentation_full.xml"))
        doc = fixture("fig08_inline_coref.xml")
        markables = parse_inline_coref(doc, excerpt_units)
        assert [(m.id, str(m.span)) for m in markables] == [
            ("1", "word_47..word_49"), ("2", "word_63..word_64")]

        units = segment_text("Madame Vauquer arrive")
        split_doc = 'Mada<coref id="c1">me Vauquer</coref> arrive'
        with pytest.raises(MisalignmentError) as err:
            align_inline(split_doc, units)
        assert err.value.element == "c1"
        assert err.value.offset == 4

        stripped = re.sub(r"<[^>]+>", "", doc)
        stripped_forms = [u.form for u in segment_text(stripped)]
        fixture_forms = [u.form for u in excerpt_units]
        assert (" ".join(stripped_forms).encode("utf-8")
                == " ".join(fixture_forms).encode("utf-8"))


def test_archive_constraint_suite(tmp_path):
    with criterion(7, "archive constraints: empty corpora, empty deposits, "
                      "cycles, dangling dependencies, unmaterialized "
                      "levels"):
        store = Archive(tmp_path / "store")
        store.register_corpus("Recueil vide", corpus_id="vide")
        assert store.validate("vide") == []

        with pytest.raises(NoLevelError):
            store.deposit("vide", "<w span=\"word_1\"/>",
                          format="standoff-items", levels=[])

        syntax = store.add_level("vide", "syntax", "none")
        morpho = store.add_level("vide", "morphosyntax", "none",
                                 depends_on=[syntax.id])
        with pytest.raises(DependencyCycleError):
            store.add_dependency(syntax.id, morpho.id)

        loaded_dir = tmp_path / "loaded" / "corpora" / "x"
        loaded_dir.mkdir(parents=True)
        dangling = Level(id="x-syntax-1", corpus_id="x", kind="syntax",
                         coverage="none", depends_on=(("x-gone-1", ""),))
        (loaded_dir / "manifest").write_text(
            dumps_corpus(Corpus(id="x", title="X"), [dangling], [], []),
            encoding="utf-8")
        loaded = Archive(tmp_path / "loaded")
        assert "dangling-dependency" in {v.code
                                         for v in loaded.validate("x")}

        catalog_text = export_catalog(store)
        assert dict(level_header(store, syntax.id).computed)[
            "materialized"] == "false"
        assert f"subject: {syntax.id}" in catalog_text
        assert "computed materialized: false" in catalog_text


def test_end_to_end_cli_and_service_pipeline(tmp_path, capsys):
    with criterion(8, "end-to-end deposit pipeline through CLI, catalog, "
                      "and read-only service"):
        started = time.perf_counter()
        root = str(tmp_path / "store")

        def run(*argv):
            code = main(list(argv))
            return code, capsys.readouterr().out

        def deposit(corpus, fmt, payload, *extra):
            code, out = run("deposit", "--root", root, "--corpus", corpus,
                            "--format", fmt, *extra,
                            str(FIXTURES / payload))
            assert code == 0
            return out

        code, out = run("init", "--root", root,
                        "--corpora", str(FIXTURES / "table1_corpora.tsv"),
                        "--language", "fr")
        assert code == 0
        assert out.count("corpus: ") == 12

        deposit("pere-goriot", "segmentation",
                "goriot_segmentation_full.xml",
                "--levels", "pere-goriot-segmentation-1")
        deposit("pere-goriot", "structural-inline", "fig02_structure.xml",
                "--levels", "pere-goriot-structure-1")
        deposit("pere-goriot", "standoff-morpho",
                "goriot_standoff_morpho_full.xml",
                "--levels", "pere-goriot-morphosyntax-1")
        parallel = deposit("pere-goriot", "standoff-morpho",
                           "fig05_standoff_morpho.xml",
                           "--levels", "pere-goriot-morphosyntax-1")
        assert "classification: ParallelVersion\n" in parallel
        deposit("pere-goriot", "syntax-constituency", "fig06_syntax.vis",
                "--new-level", "syntax:partial")
        deposit("pere-goriot", "inline-coref", "fig08_inline_coref.xml",
                "--new-level", "reference:none:pere-goriot-segmentation-1")
        deposit("les-miserables", "segmentation", "fig03_segmentation.xml",
                "--levels", "les-miserables-segmentation-1")
        deposit("vittoria", "tabular-morpho", "fig04_tabular_morpho.tsv",
                "--new-level", "morphosyntax:partial")
        deposit("le-monde-1997", "referential-standoff",
                "fig10_referential.xml", "--new-level", "reference:partial")
        deposit("alice", "inline-morpho", "fig11_inline_morpho.xml",
                "--new-level", "morphosyntax:partial")
        corrected = deposit("alice", "inline-morpho", "fig11_corrected.xml",
                            "--levels", "alice-morphosyntax-2",
                            "--validated", "--validator", "adjudicator")
        assert "classification: ExhaustiveCorrection\n" in corrected

        code, out = run("validate", "--root", root)
        assert code == 0
        assert out == "violations: 0\n"

        code, out = run("catalog", "--root", root)
        assert code == 0
        assert out.count("header: corpus") == 12

        store = Archive(root)
        status, _, body = handle_request(store, "GET", "/corpora")
        assert status == 200
        corpus_ids = [line.split(": ", 1)[1]
                      for line in body.decode("utf-8").splitlines()
                      if line.startswith("corpus: ")]
        assert len(corpus_ids) == 12
        resource_ids = []
        for corpus_id in corpus_ids:
            status, _, body = handle_request(
                store, "GET", f"/corpora/{corpus_id}")
            assert status == 200
            resource_ids.extend(
                line.split(": ", 1)[1]
                for line in body.decode("utf-8").splitlines()
                if re.fullmatch(r"subject: .+-r\d{3}", line))
        assert len(resource_ids) == 11
        for resource_id in resource_ids:
            assert handle_request(
                store, "GET", f"/resources/{resource_id}")[0] == 200
            assert handle_request(
                store, "GET", f"/resources/{resource_id}/header")[0] == 200

        server = make_server(store, port=0)
        import threading
        import urllib.request
        thread = threading.Thread(target=server.serve_forever,
                                  kwargs={"poll_interval": 0.05}, daemon=True)
        thread.start()
        try:
            host, port = server.server_address[:2]
            with urllib.request.urlopen(
                    f"http://{host}:{port}/corpora") as response:
                assert response.status == 200
                assert "corpora: 12" in response.read().decode("utf-8")
        finally:
            server.shutdown()
            server.server_close()
            thread.join(timeout=5)

        elapsed = time.perf_counter() - started
        assert elapsed < PIPELINE_BUDGET_SECONDS
