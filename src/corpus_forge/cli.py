"""Operator command line over a local archive root.

Each command is a thin mapping onto one engine operation plus output
formatting.  Default output is line-oriented ``key: value`` text;
``--machine`` switches to a single JSON document.  Exit codes: 0 on
success, 1 on domain errors (including validation violations), 2 on
usage errors.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

from . import catalog as catalog_mod
from .archive import Archive, LevelSpec
from .errors import CorpusForgeError, ParseError, StoreError


def _level_spec(value: str) -> LevelSpec:
    """``kind:coverage[:dep+dep...]`` for --new-level."""
    parts = value.split(":", 2)
    if len(parts) < 2 or not parts[0] or not parts[1]:
        raise argparse.ArgumentTypeError(
            f"expected kind:coverage[:dep+dep...], got {value!r}")
    deps = tuple(d for d in parts[2].split("+") if d) if len(parts) == 3 else ()
    return LevelSpec(kind=parts[0], coverage=parts[1], depends_on=deps)


def _meta_pair(value: str) -> tuple[str, str]:
    key, sep, val = value.partition("=")
    if not sep or not key:
        raise argparse.ArgumentTypeError(
            f"expected key=value, got {value!r}")
    return key, val


def _csv(value: str | None) -> list[str]:
    if not value:
        return []
    return [part for part in (p.strip() for p in value.split(",")) if part]


def _header_doc(header: catalog_mod.MetadataHeader) -> dict:
    return {
        "tier": header.tier,
        "subject": header.subject_id,
        "generated": header.generated_at,
        "declared": dict(header.declared),
        "computed": dict(header.computed),
        "warnings": list(header.warnings),
    }


def _emit(args, lines: list[str], doc) -> None:
    if args.machine:
        sys.stdout.write(json.dumps(doc, ensure_ascii=False, sort_keys=True)
                         + "\n")
    else:
        for line in lines:
            sys.stdout.write(line + "\n")


def _read_input(path: str) -> str:
    """An input file's text; universal newlines, so CRLF is stored as LF."""
    try:
        return Path(path).read_text(encoding="utf-8")
    except UnicodeDecodeError as err:
        raise ParseError(f"{path} is not valid UTF-8: {err}") from None


def _open_archive(args) -> Archive:
    root = Path(args.root)
    if not (root / "corpora").is_dir():
        raise StoreError(
            f"archive root {root} is not initialized (run init first)")
    return Archive(root)


def _cmd_init(args) -> int:
    root = Path(args.root)
    (root / "corpora").mkdir(parents=True, exist_ok=True)
    archive = Archive(root)
    ids: list[str] = []
    if args.corpora:
        table = _read_input(args.corpora)
        ids = [c.id for c in
               archive.register_table(table, language=args.language)]
    lines = [f"corpus: {cid}" for cid in ids]
    lines.append(f"root: {root}")
    _emit(args, lines, {"root": str(root), "corpora": ids})
    return 0


def _cmd_deposit(args) -> int:
    archive = _open_archive(args)
    payload = _read_input(args.file)
    result = archive.deposit(
        args.corpus, payload, args.format,
        levels=_csv(args.levels),
        new_levels=args.new_level or [],
        depositor=args.depositor or "",
        validated=args.validated,
        validator=args.validator,
        meta=dict(args.meta or []))
    lines = [f"resource: {result.resource.id}"]
    lines.extend(f"classification: {record.classification.label}"
                 for record in result.records)
    lines.extend(f"level: {archive.classify_level(level_id)}"
                 for level_id in result.levels)
    doc = {
        "resource": result.resource.id,
        "levels": [{"id": level_id,
                    "classification": archive.classify_level(level_id)}
                   for level_id in result.levels],
        "records": [{"kind": record.level_kind,
                     "number": record.number,
                     "classification": record.classification.label,
                     "granularity": sorted(record.granularity),
                     "validated": record.validated}
                    for record in result.records],
    }
    _emit(args, lines, doc)
    return 0


def _cmd_list(args) -> int:
    archive = _open_archive(args)
    if args.corpus:
        levels = archive.levels(args.corpus)
        resources = archive.resources(args.corpus)
        lines = [f"level: {l.id}" for l in levels]
        lines += [f"resource: {r.id}" for r in resources]
        doc = {"corpus": args.corpus,
               "levels": [l.id for l in levels],
               "resources": [r.id for r in resources]}
    else:
        corpora = archive.corpora()
        lines = [f"corpus: {c.id}" for c in corpora]
        doc = {"corpora": [c.id for c in corpora]}
    _emit(args, lines, doc)
    return 0


def _cmd_show(args) -> int:
    archive = _open_archive(args)
    if args.corpus and not args.machine:
        sys.stdout.write(catalog_mod.corpus_record(archive, args.corpus))
    elif args.corpus:
        headers = catalog_mod.corpus_headers(archive, args.corpus)
        _emit(args, [], {"headers": [_header_doc(h) for h in headers]})
    else:
        header = (catalog_mod.level_header(archive, args.level) if args.level
                  else catalog_mod.build_resource_header(
                      archive.resource(args.resource)))
        if args.machine:
            _emit(args, [], _header_doc(header))
        else:
            sys.stdout.write(header.render())
    return 0


def _cmd_validate(args) -> int:
    archive = _open_archive(args)
    violations = archive.validate(args.corpus or None)
    lines = [str(v) for v in violations]
    lines.append(f"violations: {len(violations)}")
    doc = {"violations": [{"code": v.code, "subject": v.subject,
                           "message": v.message} for v in violations]}
    _emit(args, lines, doc)
    return 1 if violations else 0


def _cmd_coverage(args) -> int:
    archive = _open_archive(args)
    tokens = archive.coverage(args.level)
    _emit(args, [" ".join(tokens)],
          {"level": args.level, "tokens": tokens})
    return 0


def _cmd_classify(args) -> int:
    archive = _open_archive(args)
    classification = archive.classify_level(args.level)
    _emit(args, [f"level: {classification}"],
          {"level": args.level, "classification": classification})
    return 0


def _cmd_export(args) -> int:
    archive = _open_archive(args)
    path = catalog_mod.write_export(archive)
    _emit(args, [f"export: {path}"], {"path": str(path)})
    return 0


def _cmd_catalog(args) -> int:
    archive = _open_archive(args)
    if args.machine:
        doc = {"corpora": [
            {"id": c.id, "title": c.title,
             "levels": [l.id for l in archive.levels(c.id)],
             "resources": [r.id for r in archive.resources(c.id)]}
            for c in archive.corpora()]}
        _emit(args, [], doc)
    else:
        sys.stdout.write(catalog_mod.export_catalog(archive))
    return 0


def build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument(
        "--root", default=os.environ.get("CORPUS_FORGE_ROOT"),
        help="archive root directory (default: $CORPUS_FORGE_ROOT)")
    common.add_argument(
        "--machine", action="store_true",
        help="emit one JSON document instead of key: value lines")

    parser = argparse.ArgumentParser(
        prog="corpus-forge",
        description="Archive engine for multi-level annotated corpora.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("init", parents=[common],
                       help="create an archive root, optionally "
                            "bulk-registering corpora from a table")
    p.add_argument("--corpora", help="tab-separated corpus table "
                                     "(title, words, genre, kinds)")
    p.add_argument("--language", default="",
                   help="language for bulk-registered corpora")
    p.set_defaults(handler=_cmd_init)

    p = sub.add_parser("deposit", parents=[common],
                       help="deposit one resource file onto description "
                            "levels")
    p.add_argument("--corpus", required=True)
    p.add_argument("--format", required=True)
    p.add_argument("--levels", help="comma-separated existing level ids")
    p.add_argument("--new-level", action="append", type=_level_spec,
                   metavar="KIND:COVERAGE[:DEP+DEP]",
                   help="declare a level as part of this deposit")
    p.add_argument("--depositor")
    p.add_argument("--validated", action="store_true")
    p.add_argument("--validator")
    p.add_argument("--meta", action="append", type=_meta_pair,
                   metavar="KEY=VALUE", help="declared resource metadata")
    p.add_argument("file")
    p.set_defaults(handler=_cmd_deposit)

    p = sub.add_parser("list", parents=[common],
                       help="list corpora, or levels and resources of one")
    p.add_argument("--corpus")
    p.set_defaults(handler=_cmd_list)

    p = sub.add_parser("show", parents=[common],
                       help="print the metadata header of one subject")
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--corpus")
    group.add_argument("--level")
    group.add_argument("--resource")
    p.set_defaults(handler=_cmd_show)

    p = sub.add_parser("validate", parents=[common],
                       help="run integrity validation")
    p.add_argument("--corpus")
    p.set_defaults(handler=_cmd_validate)

    p = sub.add_parser("coverage", parents=[common],
                       help="print the reconstructed token stream of a level")
    p.add_argument("--level", required=True)
    p.set_defaults(handler=_cmd_coverage)

    p = sub.add_parser("classify", parents=[common],
                       help="print whether a level is Primary or Secondary")
    p.add_argument("--level", required=True)
    p.set_defaults(handler=_cmd_classify)

    p = sub.add_parser("export", parents=[common],
                       help="write catalog.export at the archive root")
    p.set_defaults(handler=_cmd_export)

    p = sub.add_parser("catalog", parents=[common],
                       help="print the catalog export")
    p.set_defaults(handler=_cmd_catalog)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if not args.root:
        parser.error("no archive root: pass --root or set CORPUS_FORGE_ROOT")
    try:
        return args.handler(args)
    except CorpusForgeError as err:
        sys.stderr.write(f"error: {err}\n")
        return 1
    except FileNotFoundError as err:
        sys.stderr.write(f"error: {err}\n")
        return 1


if __name__ == "__main__":
    sys.exit(main())
