"""The benchmark's tracer still finds the engine functions it wraps.

``perfbench/tracer.py`` patches engine functions by module and name; a
read moved out of ``archive.py`` or a renamed function would leave its
span silent.  This runs a tiny end-to-end sequence under the tracer and
checks that every span the sequence should open fires.
"""

import pathlib

from corpus_forge import catalog
from corpus_forge import service
from corpus_forge.archive import Archive, LevelSpec

PERFBENCH = pathlib.Path(__file__).resolve().parent.parent / "perfbench"

EXPECTED = ("archive.open", "archive.materialize", "archive.deposit",
            "manifest.load", "manifest.dump", "markup.scan", "formats.parse",
            "standoff.resolve", "standoff.align", "standoff.span_build",
            "standoff.reconstruct", "registry.granularity",
            "versioning.classify", "catalog.record", "catalog.stamp",
            "service.handle")


def test_traced_sequence_fires_every_layer(tmp_path, monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    from tracer import Tracer
    tracer = Tracer()
    tracer.install()
    try:
        archive = Archive(tmp_path / "store")
        archive.register_corpus("T", corpus_id="t")
        seg = archive.add_level("t", "segmentation", "full")
        archive.deposit("t", '<word id="word_1">Madame</word>\n'
                        '<word id="word_2">Vauquer</word>', "segmentation",
                        levels=[seg.id])
        archive.deposit("t", '<w span="word_1..word_2"\tmsd="Np"'
                        '\tlemma="Vauquer"/>', "standoff-morpho",
                        new_levels=[LevelSpec("morphosyntax", "none",
                                              (seg.id,))])
        archive.deposit("t", '<coref id="1">Madame Vauquer</coref>',
                        "inline-coref", new_levels=[
                            LevelSpec("coreference", "none", (seg.id,))])
        archive = Archive(tmp_path / "store")
        assert archive.coverage(seg.id) == ["Madame", "Vauquer"]
        assert archive.validate() == []
        assert "computed word-count: 2" in catalog.corpus_record(
            archive, "t")
        assert service.handle_request(archive, "GET", "/corpora/t")[0] \
            == 200
    finally:
        tracer.uninstall()
    assert [name for name in EXPECTED if not tracer.calls[name]] == []
    assert not hasattr(service.handle_request, "__wrapped__")
