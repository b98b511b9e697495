"""Command line behaviour: output lines, exit codes, machine output."""

import hashlib
import json
import pathlib
from datetime import datetime, timedelta, timezone

import pytest

from corpus_forge.archive import Archive, LevelSpec
from corpus_forge.catalog import export_catalog, parse_header
from corpus_forge.cli import main

FIXTURES = pathlib.Path(__file__).parent / "fixtures"


def fix(name: str) -> str:
    return str(FIXTURES / name)


@pytest.fixture
def root(tmp_path):
    return str(tmp_path / "store")


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def seeded(root, capsys):
    """Initialized archive with Goriot segmentation + morpho levels."""
    run(capsys, "init", "--root", root,
        "--corpora", fix("table1_corpora.tsv"), "--language", "fr")
    code, out, _ = run(
        capsys, "deposit", "--root", root, "--corpus", "pere-goriot",
        "--format", "segmentation",
        "--levels", "pere-goriot-segmentation-1",
        fix("goriot_segmentation_full.xml"))
    assert code == 0
    return root


class TestInit:
    def test_creates_root(self, root, capsys):
        code, out, _ = run(capsys, "init", "--root", root)
        assert code == 0
        assert f"root: {root}" in out
        assert (pathlib.Path(root) / "corpora").is_dir()

    def test_bulk_registration_prints_corpus_lines(self, root, capsys):
        code, out, _ = run(capsys, "init", "--root", root,
                           "--corpora", fix("table1_corpora.tsv"),
                           "--language", "fr")
        assert code == 0
        assert out.count("corpus: ") == 12
        assert "corpus: pere-goriot\n" in out

    def test_machine_output(self, root, capsys):
        code, out, _ = run(capsys, "init", "--root", root,
                           "--corpora", fix("table1_corpora.tsv"),
                           "--machine")
        doc = json.loads(out)
        assert len(doc["corpora"]) == 12


class TestDeposit:
    def test_first_deposit_prints_initial(self, root, capsys):
        seeded(root, capsys)
        code, out, _ = run(
            capsys, "deposit", "--root", root, "--corpus", "pere-goriot",
            "--format", "standoff-morpho",
            "--levels", "pere-goriot-morphosyntax-1",
            fix("goriot_standoff_morpho_full.xml"))
        assert code == 0
        assert "resource: pere-goriot-r002\n" in out
        assert "classification: Initial\n" in out
        assert "level: Secondary\n" in out

    def test_same_again_prints_parallel_version(self, root, capsys):
        seeded(root, capsys)
        for _ in range(2):
            code, out, _ = run(
                capsys, "deposit", "--root", root, "--corpus", "pere-goriot",
                "--format", "standoff-morpho",
                "--levels", "pere-goriot-morphosyntax-1",
                fix("goriot_standoff_morpho_full.xml"))
        assert code == 0
        assert "classification: ParallelVersion\n" in out

    def test_new_level_flag(self, root, capsys):
        seeded(root, capsys)
        code, out, _ = run(
            capsys, "deposit", "--root", root, "--corpus", "pere-goriot",
            "--format", "standoff-morpho",
            "--new-level",
            "morphosyntax:none:pere-goriot-segmentation-1",
            fix("goriot_standoff_morpho_full.xml"))
        assert code == 0
        archive = Archive(root)
        assert any(l.id == "pere-goriot-morphosyntax-2"
                   for l in archive.levels("pere-goriot"))

    def test_domain_error_exits_1(self, root, capsys):
        seeded(root, capsys)
        code, out, err = run(
            capsys, "deposit", "--root", root, "--corpus", "absent",
            "--format", "segmentation", "--levels", "x",
            fix("fig03_segmentation.xml"))
        assert code == 1
        assert err.startswith("error: unknown-entity")

    def test_machine_output_structure(self, root, capsys):
        seeded(root, capsys)
        code, out, _ = run(
            capsys, "deposit", "--root", root, "--corpus", "pere-goriot",
            "--format", "standoff-morpho",
            "--levels", "pere-goriot-morphosyntax-1", "--machine",
            fix("goriot_standoff_morpho_full.xml"))
        doc = json.loads(out)
        assert doc["records"][0]["classification"] == "Initial"
        assert doc["levels"][0]["classification"] == "Secondary"
        assert "inflection" in doc["records"][0]["granularity"]


class TestListShowClassify:
    def test_list_corpora(self, root, capsys):
        seeded(root, capsys)
        code, out, _ = run(capsys, "list", "--root", root)
        assert code == 0
        assert out.count("corpus: ") == 12

    def test_list_one_corpus(self, root, capsys):
        seeded(root, capsys)
        code, out, _ = run(capsys, "list", "--root", root,
                           "--corpus", "pere-goriot")
        assert "level: pere-goriot-segmentation-1\n" in out
        assert "resource: pere-goriot-r001\n" in out

    def test_show_level_header(self, root, capsys):
        seeded(root, capsys)
        code, out, _ = run(capsys, "show", "--root", root,
                           "--level", "pere-goriot-morphosyntax-1")
        assert code == 0
        assert "header: level\n" in out
        assert "computed classification: Secondary\n" in out
        assert "computed anchor: pere-goriot-segmentation-1\n" in out

    def test_show_resource_header(self, root, capsys):
        seeded(root, capsys)
        code, out, _ = run(capsys, "show", "--root", root,
                           "--resource", "pere-goriot-r001")
        assert "header: resource\n" in out
        assert "computed format: segmentation\n" in out

    def test_show_corpus_record(self, root, capsys):
        seeded(root, capsys)
        code, out, _ = run(capsys, "show", "--root", root,
                           "--corpus", "pere-goriot")
        assert "header: corpus\n" in out
        assert "declared word-count: 100000\n" in out
        assert "computed word-count: 76\n" in out

    def test_show_resource_machine(self, root, capsys):
        seeded(root, capsys)
        argv = ("show", "--root", root, "--resource", "pere-goriot-r001")
        _, text, _ = run(capsys, *argv)
        code, out, _ = run(capsys, *argv, "--machine")
        stamp = parse_header(text).generated_at
        payload = pathlib.Path(fix("goriot_segmentation_full.xml")).read_bytes()
        assert code == 0
        assert out == json.dumps({
            "tier": "resource", "subject": "pere-goriot-r001",
            "generated": stamp, "declared": {}, "warnings": [],
            "computed": {
                "format": "segmentation",
                "file": "pere-goriot-r001.segmentation",
                "levels": "pere-goriot-segmentation-1", "deposited": stamp,
                "validated": "false",
                "sha256": hashlib.sha256(payload).hexdigest(),
                "size": str(len(payload)), "available": "true"}},
            ensure_ascii=False, sort_keys=True) + "\n"

    def test_show_corpus_machine_holds_the_record_headers(self, root, capsys):
        seeded(root, capsys)
        run(capsys, "deposit", "--root", root, "--corpus", "pere-goriot",
            "--format", "standoff-morpho", "--meta", "note=été",
            "--levels", "pere-goriot-morphosyntax-1",
            fix("goriot_standoff_morpho_full.xml"))
        argv = ("show", "--root", root, "--corpus", "pere-goriot")
        _, text, _ = run(capsys, *argv)
        code, out, _ = run(capsys, *argv, "--machine")
        headers = [parse_header(block) for block in text.split("\n\n")]
        assert [h.subject_id for h in headers] == [
            "pere-goriot", "pere-goriot-morphosyntax-1",
            "pere-goriot-segmentation-1", "pere-goriot-structure-1",
            "pere-goriot-syntax-1", "pere-goriot-r001", "pere-goriot-r002"]
        assert code == 0
        assert out == json.dumps({"headers": [
            {"tier": h.tier, "subject": h.subject_id,
             "generated": h.generated_at, "declared": dict(h.declared),
             "computed": dict(h.computed), "warnings": list(h.warnings)}
            for h in headers]}, ensure_ascii=False, sort_keys=True) + "\n"

    def test_show_corpus_machine_orders_headers_as_the_record(self, root,
                                                              capsys):
        run(capsys, "init", "--root", root)
        start = datetime(2005, 6, 1, 12, 0, 0, tzinfo=timezone.utc)
        moments = (start - timedelta(seconds=s) for s in range(100))
        store = Archive(root, clock=lambda: next(moments))
        store.register_corpus("Clock", corpus_id="t")
        payload = pathlib.Path(fix("fig03_segmentation.xml")).read_text(
            encoding="utf-8")
        for _ in range(2):
            store.deposit("t", payload, "segmentation",
                          new_levels=[LevelSpec("segmentation", "full")])
        argv = ("show", "--root", root, "--corpus", "t")
        _, text, _ = run(capsys, *argv)
        code, out, _ = run(capsys, *argv, "--machine")
        assert code == 0
        record = [parse_header(block).subject_id
                  for block in text.split("\n\n")]
        assert record == ["t", "t-segmentation-1", "t-segmentation-2",
                          "t-r002", "t-r001"]
        assert [h["subject"] for h in json.loads(out)["headers"]] == record

    def test_show_requires_exactly_one_subject(self, root, capsys):
        seeded(root, capsys)
        with pytest.raises(SystemExit) as exc:
            main(["show", "--root", root, "--corpus", "a", "--level", "b"])
        assert exc.value.code == 2

    def test_classify(self, root, capsys):
        seeded(root, capsys)
        code, out, _ = run(capsys, "classify", "--root", root,
                           "--level", "pere-goriot-morphosyntax-1")
        assert code == 0
        assert out == "level: Secondary\n"


class TestCoverage:
    def test_token_stream(self, root, capsys):
        seeded(root, capsys)
        run(capsys, "deposit", "--root", root, "--corpus", "pere-goriot",
            "--format", "standoff-morpho",
            "--levels", "pere-goriot-morphosyntax-1",
            fix("goriot_standoff_morpho_full.xml"))
        code, out, _ = run(capsys, "coverage", "--root", root,
                           "--level", "pere-goriot-morphosyntax-1")
        assert code == 0
        assert out.startswith("Madame Vauquer , née De")

    def test_machine_tokens(self, root, capsys):
        seeded(root, capsys)
        code, out, _ = run(capsys, "coverage", "--root", root,
                           "--level", "pere-goriot-segmentation-1",
                           "--machine")
        doc = json.loads(out)
        assert len(doc["tokens"]) == 76

    def test_matches_engine_output(self, root, capsys):
        seeded(root, capsys)
        code, out, _ = run(capsys, "coverage", "--root", root,
                           "--level", "pere-goriot-segmentation-1")
        archive = Archive(root)
        assert out == " ".join(
            archive.coverage("pere-goriot-segmentation-1")) + "\n"


class TestValidate:
    def test_clean_archive_exits_0(self, root, capsys):
        seeded(root, capsys)
        code, out, _ = run(capsys, "validate", "--root", root)
        assert code == 0
        assert out == "violations: 0\n"

    def test_violations_exit_1_and_are_listed(self, root, capsys):
        seeded(root, capsys)
        payload = "tests-bad-span.standoff-morpho"
        bad = pathlib.Path(root) / "bad.standoff-morpho"
        bad.write_text(
            "<w span=\"word_999\"\tmsd=\" \"\tlemma=\"x\"/>",
            encoding="utf-8")
        run(capsys, "deposit", "--root", root, "--corpus", "pere-goriot",
            "--format", "standoff-morpho",
            "--levels", "pere-goriot-morphosyntax-1", str(bad))
        code, out, _ = run(capsys, "validate", "--root", root)
        assert code == 1
        assert "dangling-pointer [pere-goriot-morphosyntax-1]" in out
        assert "violations: 1\n" in out

    def test_machine_violations(self, root, capsys):
        seeded(root, capsys)
        code, out, _ = run(capsys, "validate", "--root", root, "--machine")
        assert json.loads(out) == {"violations": []}


class TestExportCatalog:
    def test_export_writes_file(self, root, capsys):
        seeded(root, capsys)
        code, out, _ = run(capsys, "export", "--root", root)
        assert code == 0
        path = pathlib.Path(root) / "catalog.export"
        assert path.is_file()
        assert f"export: {path}\n" == out

    def test_catalog_prints_export(self, root, capsys):
        seeded(root, capsys)
        code, out, _ = run(capsys, "catalog", "--root", root)
        assert code == 0
        assert out == export_catalog(Archive(root))
        assert out.count("header: corpus") == 12

    def test_catalog_machine(self, root, capsys):
        seeded(root, capsys)
        code, out, _ = run(capsys, "catalog", "--root", root, "--machine")
        doc = json.loads(out)
        assert len(doc["corpora"]) == 12


class TestUsageAndEnvironment:
    def test_unknown_command_exits_2(self, root):
        with pytest.raises(SystemExit) as exc:
            main(["frobnicate", "--root", root])
        assert exc.value.code == 2

    def test_missing_required_flag_exits_2(self, root):
        with pytest.raises(SystemExit) as exc:
            main(["coverage", "--root", root])
        assert exc.value.code == 2

    def test_missing_root_exits_2(self, capsys, monkeypatch):
        monkeypatch.delenv("CORPUS_FORGE_ROOT", raising=False)
        with pytest.raises(SystemExit) as exc:
            main(["list"])
        assert exc.value.code == 2

    def test_root_from_environment(self, root, capsys, monkeypatch):
        seeded(root, capsys)
        monkeypatch.setenv("CORPUS_FORGE_ROOT", root)
        code, out, _ = run(capsys, "list")
        assert code == 0
        assert out.count("corpus: ") == 12

    def test_uninitialized_root_is_domain_error(self, root, capsys):
        code, out, err = run(capsys, "list", "--root", root)
        assert code == 1
        assert "not initialized" in err

    def test_input_that_is_not_utf8_is_a_one_line_error(self, root, capsys,
                                                        tmp_path):
        bad = tmp_path / "bad.xml"
        bad.write_bytes(b'<word id="word_1">caf\xe9</word>\n')
        seeded(root, capsys)
        for argv in (("init", "--corpora", str(bad)),
                     ("deposit", "--corpus", "pere-goriot",
                      "--format", "segmentation",
                      "--levels", "pere-goriot-segmentation-1", str(bad))):
            code, _, err = run(capsys, *argv, "--root", root)
            assert code == 1
            assert err.startswith(
                f"error: parse-error: {bad} is not valid UTF-8")
            assert err.count("\n") == 1

    def test_bad_new_level_spec_exits_2(self, root, capsys):
        seeded(root, capsys)
        with pytest.raises(SystemExit) as exc:
            main(["deposit", "--root", root, "--corpus", "pere-goriot",
                  "--format", "standoff-morpho", "--new-level", "nonsense",
                  fix("goriot_standoff_morpho_full.xml")])
        assert exc.value.code == 2
