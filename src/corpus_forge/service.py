"""Read-only HTTP facade over an archive.

The wire layer is a thin shell around :func:`handle_request`, a pure
function of (archive snapshot, method, path, query) that never mutates
anything.  Metadata is served as line-oriented UTF-8 text; resource
payloads are returned verbatim with their declared format in a
``Corpus-Forge-Format`` header.  Unknown ids answer 404; headers stay
available even for corpora whose payloads were never (or are no longer)
stored.
"""

from __future__ import annotations

import argparse
import os
import sys
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from urllib.parse import parse_qs, urlsplit

from . import catalog as catalog_mod
from .archive import Archive
from .errors import StoreError, UnknownEntityError

TEXT_PLAIN = "text/plain; charset=utf-8"


def _text(status: int, body: str) -> tuple[int, list[tuple[str, str]], bytes]:
    return status, [("Content-Type", TEXT_PLAIN)], body.encode("utf-8")


def handle_request(archive, method: str, path: str,
                   query: dict[str, str] | None = None
                   ) -> tuple[int, list[tuple[str, str]], bytes]:
    """Map one request onto reads of one archive snapshot.

    Returns (status, headers, body).  GET only:

    - ``/corpora``                catalog summary (``?offset=N`` skips)
    - ``/corpora/{id}``           full record with all headers
    - ``/resources/{id}``         payload bytes, format tagged
    - ``/resources/{id}/header``  header only
    """
    archive = archive.snapshot()
    query = query or {}
    if method.upper() != "GET":
        return _text(405, "method not allowed: read-only service\n")
    parts = [p for p in path.split("/") if p]
    try:
        if parts == ["corpora"]:
            raw_offset = query.get("offset", "0")
            try:
                offset = int(raw_offset)
                if offset < 0:
                    raise ValueError
            except ValueError:
                return _text(400, f"bad offset {raw_offset!r}\n")
            return _text(200, catalog_mod.catalog_summary(archive, offset))
        if len(parts) == 2 and parts[0] == "corpora":
            return _text(200, catalog_mod.corpus_record(archive, parts[1]))
        if len(parts) == 3 and parts[0] == "resources" and parts[2] == "header":
            return _text(200, archive.resource_header(parts[1]))
        if len(parts) == 2 and parts[0] == "resources":
            resource = archive.resource(parts[1])
            try:
                payload = archive.resource_payload(parts[1])
            except StoreError as err:
                return _text(404, f"{err}\n")
            headers = [("Content-Type", TEXT_PLAIN),
                       ("Corpus-Forge-Format", resource.format)]
            return 200, headers, payload.encode("utf-8")
    except UnknownEntityError as err:
        return _text(404, f"{err}\n")
    return _text(404, "not found\n")


def make_server(archive, host: str = "127.0.0.1",
                port: int = 0) -> ThreadingHTTPServer:
    """Build (but do not start) the server; port 0 picks a free port."""

    class Handler(BaseHTTPRequestHandler):
        def _respond(self) -> None:
            split = urlsplit(self.path)
            query = {key: values[-1]
                     for key, values in parse_qs(split.query).items()}
            status, headers, body = handle_request(
                archive, self.command, split.path, query)
            self.send_response(status)
            for key, value in headers:
                self.send_header(key, value)
            self.send_header("Content-Length", str(len(body)))
            self.end_headers()
            self.wfile.write(body)

        do_GET = do_POST = do_PUT = do_DELETE = do_HEAD = _respond

        def log_message(self, *args) -> None:
            pass

    return ThreadingHTTPServer((host, port), Handler)


def serve(root, host: str = "127.0.0.1", port: int = 8080) -> None:
    archive = Archive(root)
    server = make_server(archive, host, port)
    try:
        server.serve_forever()
    finally:
        server.server_close()


def _bind(value: str) -> tuple[str, int]:
    """``HOST:PORT`` for --bind; an empty host means 127.0.0.1."""
    host, sep, port = value.rpartition(":")
    if not sep or not port.isdecimal() or int(port) > 65535:
        raise argparse.ArgumentTypeError(f"expected HOST:PORT, got {value!r}")
    return host or "127.0.0.1", int(port)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="corpus-forge-serve",
        description="Serve an archive's catalog and payloads, read-only.")
    parser.add_argument("--root", default=os.environ.get("CORPUS_FORGE_ROOT"),
                        help="archive root (default: $CORPUS_FORGE_ROOT)")
    parser.add_argument("--bind", default="127.0.0.1:8080", type=_bind,
                        metavar="HOST:PORT")
    args = parser.parse_args(argv)
    if not args.root:
        parser.error("no archive root: pass --root or set CORPUS_FORGE_ROOT")
    serve(args.root, *args.bind)
    return 0


if __name__ == "__main__":
    sys.exit(main())
