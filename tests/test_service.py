"""HTTP facade: request handling, status codes, referential integrity."""

import hashlib
import pathlib
import threading
import urllib.error
import urllib.request

import pytest

from corpus_forge.archive import Archive, LevelSpec
from corpus_forge.catalog import export_catalog
from corpus_forge.service import handle_request, main, make_server

FIXTURES = pathlib.Path(__file__).parent / "fixtures"


@pytest.fixture
def archive(tmp_path):
    store = Archive(tmp_path / "store")
    store.register_table(
        (FIXTURES / "table1_corpora.tsv").read_text(encoding="utf-8"),
        language="fr")
    store.deposit(
        "pere-goriot",
        (FIXTURES / "goriot_segmentation_full.xml").read_text("utf-8"),
        format="segmentation", levels=["pere-goriot-segmentation-1"])
    store.deposit(
        "pere-goriot",
        (FIXTURES / "goriot_standoff_morpho_full.xml").read_text("utf-8"),
        format="standoff-morpho", levels=["pere-goriot-morphosyntax-1"])
    return store


def get(archive, path, query=None):
    return handle_request(archive, "GET", path, query)


def body_text(response):
    return response[2].decode("utf-8")


class TestHandler:
    def test_corpora_summary(self, archive):
        status, headers, body = get(archive, "/corpora")
        assert status == 200
        assert ("Content-Type", "text/plain; charset=utf-8") in headers
        text = body.decode("utf-8")
        assert "corpora: 12" in text
        assert "corpus: pere-goriot" in text

    def test_offset_pagination(self, archive):
        status, _, body = get(archive, "/corpora", {"offset": "10"})
        assert status == 200
        text = body.decode("utf-8")
        assert "corpora: 12" in text
        assert "offset: 10" in text
        assert text.count("corpus: ") == 2

    def test_bad_offset_is_400(self, archive):
        assert get(archive, "/corpora", {"offset": "ten"})[0] == 400
        assert get(archive, "/corpora", {"offset": "-1"})[0] == 400

    def test_corpus_record(self, archive):
        status, _, body = get(archive, "/corpora/pere-goriot")
        assert status == 200
        text = body.decode("utf-8")
        assert "header: corpus" in text
        assert "subject: pere-goriot-r001" in text

    def test_unknown_ids_are_404(self, archive):
        assert get(archive, "/corpora/ghost")[0] == 404
        assert get(archive, "/resources/ghost")[0] == 404
        assert get(archive, "/resources/ghost/header")[0] == 404
        assert get(archive, "/nothing/here")[0] == 404

    def test_payload_roundtrip_with_format_header(self, archive):
        status, headers, body = get(archive, "/resources/pere-goriot-r001")
        assert status == 200
        assert ("Corpus-Forge-Format", "segmentation") in headers
        original = (FIXTURES / "goriot_segmentation_full.xml").read_bytes()
        assert body == original

    def test_resource_header_endpoint(self, archive):
        status, _, body = get(archive,
                              "/resources/pere-goriot-r002/header")
        assert status == 200
        text = body.decode("utf-8")
        assert "header: resource" in text
        assert "computed format: standoff-morpho" in text

    def test_withdrawn_payload_404_header_still_served(self, archive):
        archive.withdraw("pere-goriot-r002")
        assert get(archive, "/resources/pere-goriot-r002")[0] == 404
        status, _, body = get(archive,
                              "/resources/pere-goriot-r002/header")
        assert status == 200
        assert "computed available: false" in body.decode("utf-8")

    def test_writes_are_405(self, archive):
        for method in ("POST", "PUT", "DELETE", "PATCH"):
            status, _, body = handle_request(archive, method,
                                             "/corpora")
            assert status == 405
            assert "read-only" in body.decode("utf-8")

    def test_handler_never_mutates(self, archive):
        before = export_catalog(archive)
        get(archive, "/corpora")
        get(archive, "/corpora/pere-goriot")
        get(archive, "/resources/pere-goriot-r001")
        handle_request(archive, "POST", "/corpora")
        assert export_catalog(archive) == before


class TestReferentialIntegrity:
    def test_every_listed_corpus_resolves(self, archive):
        _, _, body = get(archive, "/corpora")
        ids = [line.split(": ", 1)[1]
               for line in body.decode("utf-8").splitlines()
               if line.startswith("corpus: ")]
        assert len(ids) == 12
        for corpus_id in ids:
            assert get(archive, f"/corpora/{corpus_id}")[0] == 200

    def test_every_record_resource_resolves(self, archive):
        _, _, body = get(archive, "/corpora/pere-goriot")
        rids = {line.split(": ", 1)[1]
                for line in body.decode("utf-8").splitlines()
                if line.startswith("subject: pere-goriot-r")}
        assert rids == {"pere-goriot-r001", "pere-goriot-r002"}
        for rid in rids:
            assert get(archive, f"/resources/{rid}")[0] == 200
            assert get(archive, f"/resources/{rid}/header")[0] == 200


def test_crlf_payload_is_served_verbatim(tmp_path):
    store = Archive(tmp_path / "store")
    store.register_corpus("CRLF", corpus_id="crlf")
    payload = ('<word id="word_1">Madame</word>\r\n'
               '<word id="word_2">Vauquer</word>\r\n')
    resource = store.deposit(
        "crlf", payload, "segmentation",
        new_levels=[LevelSpec("segmentation", "full")]).resource
    assert store.resource_payload(resource.id) == payload
    status, _, body = get(store, f"/resources/{resource.id}")
    assert status == 200
    assert hashlib.sha256(body).hexdigest() == resource.sha256
    assert len(body) == resource.size


@pytest.mark.parametrize("bind", ["localhost", "localhost:", "localhost:http",
                                  "localhost:70000"])
def test_bind_without_a_port_number_is_a_usage_error(tmp_path, capsys, bind):
    with pytest.raises(SystemExit) as exc:
        main(["--root", str(tmp_path), "--bind", bind])
    assert exc.value.code == 2
    assert "expected HOST:PORT" in capsys.readouterr().err


class TestLiveServer:
    @pytest.fixture
    def base_url(self, archive):
        server = make_server(archive, port=0)
        thread = threading.Thread(target=server.serve_forever, daemon=True)
        thread.start()
        host, port = server.server_address[:2]
        yield f"http://{host}:{port}"
        server.shutdown()
        server.server_close()
        thread.join(timeout=5)

    def test_summary_over_the_wire(self, base_url):
        with urllib.request.urlopen(f"{base_url}/corpora") as response:
            assert response.status == 200
            assert "corpora: 12" in response.read().decode("utf-8")

    def test_payload_format_header_over_the_wire(self, base_url):
        url = f"{base_url}/resources/pere-goriot-r001"
        with urllib.request.urlopen(url) as response:
            assert response.headers["Corpus-Forge-Format"] == "segmentation"

    def test_query_string_offset(self, base_url):
        with urllib.request.urlopen(f"{base_url}/corpora?offset=10") as r:
            assert r.read().decode("utf-8").count("corpus: ") == 2

    def test_404_over_the_wire(self, base_url):
        with pytest.raises(urllib.error.HTTPError) as exc:
            urllib.request.urlopen(f"{base_url}/corpora/ghost")
        exc.value.close()
        assert exc.value.code == 404

    def test_post_rejected_over_the_wire(self, base_url):
        request = urllib.request.Request(f"{base_url}/corpora",
                                         data=b"x", method="POST")
        with pytest.raises(urllib.error.HTTPError) as exc:
            urllib.request.urlopen(request)
        exc.value.close()
        assert exc.value.code == 405
