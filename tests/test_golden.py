"""The same results: a pinned record of what the engine answers.

``build`` makes one archive from fixed inputs on a fixed clock: the
Père Goriot fixtures over the paper's levels (segmentation, structure,
morphosyntax with a parallel version, syntax, reference), the
referential, tabular and inline-morphology fixtures with a validated
correction, and the benchmark's deep corpus (its five deposits of 1,000
seeded tokens), then one withdraw.  ``record`` captures the stored
manifests, which hold every version record, every CLI read of the
archive, as text and as ``--machine`` output, and every service endpoint
through ``handle_request``.  The files under ``fixtures/golden/`` hold
that record as it was pinned; the test compares bytes and names the
first line that differs.

After a change that is meant to move a pinned byte, write the record
again and say in CHANGES.md which file changed and why::

    PYTHONPATH=src python tests/test_golden.py
"""

import contextlib
import io
import itertools
import pathlib
import random
import sys
import tempfile
from datetime import datetime, timedelta, timezone

from corpus_forge import cli
from corpus_forge.archive import Archive, LevelSpec
from corpus_forge.service import handle_request
from corpus_forge.standoff import segment_text

TESTS = pathlib.Path(__file__).parent
FIXTURES = TESTS / "fixtures"
GOLDEN = FIXTURES / "golden"
sys.path.insert(0, str(TESTS.parent / "perfbench"))
try:
    import gen  # perfbench's seeded payloads
finally:
    sys.path.pop(0)

START = datetime(2006, 5, 1, 9, 0, 0, tzinfo=timezone.utc)
ALICE = "C'est moi qui suis l'auteur de ta joie."
NOTES = ('<item id="n1" span="word_27..word_28" element="note" '
         'kind="name" link-same="n2"/>\n'
         '<item id="n2" span="word_30 word_31" element="note" kind="name"/>')


def fixture(name: str) -> str:
    return (FIXTURES / name).read_text(encoding="utf-8")


def build(root: pathlib.Path) -> None:
    ticks = itertools.count()
    store = Archive(root, clock=lambda: START + timedelta(
        seconds=next(ticks)))

    def deposit(corpus, fmt, text, levels=(), new=(), **extra):
        store.deposit(corpus, text, fmt, levels=levels,
                      new_levels=[LevelSpec(*spec) for spec in new], **extra)

    store.register_table(
        "Père Goriot\t100000\tlittéraire\tstructure,segmentation,"
        "morphosyntax\n"
        "Le Monde 1997\t65000\tjournalistique\t-\n"
        "Vittoria\t10000\tlittéraire\t-\n"
        "Alice\t30000\tlittéraire\tsegmentation,morphosyntax\n",
        language="fr")
    seg = "pere-goriot-segmentation-1"
    deposit("pere-goriot", "segmentation",
            fixture("goriot_segmentation_full.xml"), [seg])
    deposit("pere-goriot", "structural-inline", fixture("fig02_structure.xml"),
            ["pere-goriot-structure-1"], depositor="Balzac team")
    deposit("pere-goriot", "standoff-morpho",
            fixture("goriot_standoff_morpho_full.xml"),
            ["pere-goriot-morphosyntax-1"])
    deposit("pere-goriot", "standoff-morpho", fixture("fig05_standoff_morpho.xml"),
            ["pere-goriot-morphosyntax-1"], meta={"note": "parallel"})
    deposit("pere-goriot", "syntax-constituency", fixture("fig06_syntax.vis"),
            new=[("syntax", "partial")])
    deposit("pere-goriot", "inline-coref", fixture("fig08_inline_coref.xml"),
            new=[("reference", "none", (seg,))])
    deposit("pere-goriot", "standoff-items", NOTES,
            new=[("notes", "none", (seg,))])
    deposit("le-monde-1997", "referential-standoff",
            fixture("fig10_referential.xml"), new=[("reference", "partial")])
    deposit("vittoria", "tabular-morpho", fixture("fig04_tabular_morpho.tsv"),
            new=[("morphosyntax", "partial")])
    deposit("alice", "segmentation", "\n".join(
        f'<word id="{u.id}">{u.form}</word>' for u in segment_text(ALICE)),
        ["alice-segmentation-1"])
    deposit("alice", "inline-morpho", fixture("fig11_inline_morpho.xml"),
            ["alice-morphosyntax-1"])
    deposit("alice", "inline-morpho", fixture("fig11_corrected.xml"),
            ["alice-morphosyntax-1"], validated=True, validator="adjudicator")

    # deep-corpus as the benchmark builds it, at its seed
    rng = random.Random("deep-corpus/1/text")
    toks = gen.tokens(rng, gen.load_vocabulary(FIXTURES), 1000)
    store.register_table(gen.corpus_table(
        ["Deep Corpus"], 1000, "structure,segmentation,morphosyntax,reference"),
        language="fr")
    deep = "deep-corpus"
    deposit(deep, "segmentation", gen.segmentation(toks),
            [f"{deep}-segmentation-1"])
    deposit(deep, "structural-inline", gen.structural(rng, toks),
            [f"{deep}-structure-1"])
    deposit(deep, "standoff-morpho", gen.standoff_morpho(toks),
            [f"{deep}-morphosyntax-1"])
    deposit(deep, "inline-coref", gen.inline_coref(rng, toks),
            [f"{deep}-reference-1"])
    deposit(deep, "standoff-morpho", gen.standoff_morpho(toks, fine=True),
            new=[("morphosyntax", "none", (f"{deep}-segmentation-1",))],
            validated=True, validator="adjudicator")

    store.withdraw("pere-goriot-r004")  # the parallel morphology


def record(root: pathlib.Path) -> dict[str, str]:
    """Every read's output, by golden file name; ``root`` reads as
    ``<root>``."""
    out: dict[str, list[str]] = {}

    def cli_read(name: str, *argv: str) -> None:
        for machine in ((), ("--machine",)):
            stdout, stderr = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(stdout), \
                    contextlib.redirect_stderr(stderr):
                code = cli.main([*argv, "--root", str(root), *machine])
            block = (f"$ corpus-forge {' '.join((*argv, *machine))}\n"
                     f"exit: {code}\n{stdout.getvalue()}")
            if stderr.getvalue():
                block += f"stderr: {stderr.getvalue()}"
            out.setdefault(name, []).append(block)

    store = Archive(root, defer_parse=True)
    corpora = [c.id for c in store.corpora()]
    out["manifest"] = [
        f"== corpora/{c}/manifest ==\n"
        + (root / "corpora" / c / "manifest").read_text(encoding="utf-8")
        for c in corpora]
    levels = [l.id for c in corpora for l in store.levels(c)]
    resources = [r.id for c in corpora for r in store.resources(c)]
    cli_read("list", "list")
    for corpus_id in corpora:
        cli_read("list", "list", "--corpus", corpus_id)
        cli_read("show", "show", "--corpus", corpus_id)
        cli_read("validate", "validate", "--corpus", corpus_id)
    for level_id in levels:
        cli_read("show", "show", "--level", level_id)
        cli_read("classify", "classify", "--level", level_id)
        cli_read("coverage", "coverage", "--level", level_id)
    for resource_id in resources:
        cli_read("show", "show", "--resource", resource_id)
    cli_read("validate", "validate")
    cli_read("catalog", "catalog")
    cli_read("export", "export")
    out["export"].append((root / "catalog.export").read_text(encoding="utf-8"))

    paths = [("/corpora", {}), ("/corpora", {"offset": "2"}),
             ("/corpora/missing", {}), ("/resources/missing/header", {})]
    paths += [(f"/corpora/{c}", {}) for c in corpora]
    paths += [(f"/resources/{r}{tail}", {}) for r in resources
              for tail in ("", "/header")]
    for method, (path, query) in [("GET", p) for p in paths] + [
            ("POST", ("/corpora", {}))]:
        status, headers, body = handle_request(store, method, path, query)
        out.setdefault("service", []).append(
            f"{method} {path} {query}\nstatus: {status}\n"
            + "".join(f"{key}: {value}\n" for key, value in headers)
            + body.decode("utf-8") + "\n")
    return {name: "\n".join(blocks).replace(str(root), "<root>")
            for name, blocks in out.items()}


def first_difference(name: str, got: str, want: str) -> str:
    got_lines, want_lines = got.splitlines(True), want.splitlines(True)
    for number, (a, b) in enumerate(
            itertools.zip_longest(got_lines, want_lines), 1):
        if a != b:
            return (f"golden/{name}.txt line {number}: got {a!r}, "
                    f"pinned {b!r}")
    return f"golden/{name}.txt: equal"


def test_every_read_answers_as_pinned(tmp_path):
    build(tmp_path / "store")
    got = record(tmp_path / "store")
    assert sorted(got) == sorted(p.stem for p in GOLDEN.glob("*.txt"))
    for name, text in sorted(got.items()):
        want = (GOLDEN / f"{name}.txt").read_bytes()
        assert text.encode("utf-8") == want, first_difference(
            name, text, want.decode("utf-8"))


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as work:
        build(pathlib.Path(work) / "store")
        GOLDEN.mkdir(exist_ok=True)
        for stale in GOLDEN.glob("*.txt"):
            stale.unlink()
        for name, text in record(pathlib.Path(work) / "store").items():
            (GOLDEN / f"{name}.txt").write_bytes(text.encode("utf-8"))
