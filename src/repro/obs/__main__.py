"""Command-line consumer of the unified observability plane.

Usage::

    python -m repro.obs tail PATH [--schema S] [--kind K]
                        [--since T] [--follow] [--max N] [--strict]
    python -m repro.obs query PATH_OR_DIR... [--schema S] [--kind K]
                        [--since T] [--limit N] [--count]
    python -m repro.obs summary PATH_OR_DIR...
    python -m repro.obs schemas

``tail`` follows one live stream — an NDJSON file another process is
flushing, such as the bus's :class:`~repro.obs.sinks.FileSink` (torn
trailing lines are tolerated and resumed, mid-file corruption fails
loudly) — printing matching records one JSON object per line.  Without
``--follow`` it stops at the current end; with it, the reader polls for
growth until ``--max`` records arrived or interrupted.

``query`` filters archived run directories across all four schemas;
``summary`` prints per-schema/kind record counts; ``schemas`` lists the
registry.  All filters share one predicate: ``--schema``/``--kind`` match
exactly, ``--since`` keeps records stamped at or after the bound (records
without a timestamp never pass a ``--since`` filter).
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path
from typing import Any

from repro.errors import ConfigError
from repro.obs.archive import ArchiveScan, iter_archive, iter_ndjson, match_record
from repro.obs.registry import REGISTRY, SchemaRegistry

#: polling cadence of ``tail --follow`` on a file, seconds
FOLLOW_POLL_S = 0.1


def _filter_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--schema", help="keep only this schema tag")
    parser.add_argument("--kind", help="keep only this record kind")
    parser.add_argument(
        "--since",
        type=float,
        help="keep records stamped at or after this virtual time (seconds); "
        "records without a timestamp are excluded",
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.obs",
        description="Tail, query and summarize the unified observability plane.",
    )
    sub = parser.add_subparsers(dest="command", required=True, metavar="command")

    tail = sub.add_parser("tail", help="follow a live NDJSON file")
    tail.add_argument("source", help="NDJSON path")
    _filter_flags(tail)
    tail.add_argument(
        "--follow",
        action="store_true",
        help="keep polling a file for growth instead of stopping at EOF",
    )
    tail.add_argument(
        "--max",
        type=int,
        default=None,
        metavar="N",
        help="stop after printing N matching records",
    )
    tail.add_argument(
        "--strict",
        action="store_true",
        help="fail on records with an unregistered schema instead of "
        "skipping and counting them",
    )

    query = sub.add_parser("query", help="filter archived run directories")
    query.add_argument("roots", nargs="+", help="record files or run directories")
    _filter_flags(query)
    query.add_argument(
        "--limit", type=int, default=None, metavar="N", help="print at most N records"
    )
    query.add_argument(
        "--count",
        action="store_true",
        help="print only the number of matching records",
    )

    summary = sub.add_parser("summary", help="per-schema/kind record counts")
    summary.add_argument("roots", nargs="+", help="record files or run directories")

    sub.add_parser("schemas", help="list the registered schemas and their kinds")
    return parser


def _emit(record: dict[str, Any]) -> None:
    sys.stdout.write(json.dumps(record))
    sys.stdout.write("\n")
    sys.stdout.flush()


# -- tail ---------------------------------------------------------------------------


def _tail_main(args: argparse.Namespace, registry: SchemaRegistry) -> int:
    path = Path(args.source)
    if not path.is_file():
        raise ConfigError(f"no such file: {path}")
    printed = 0
    skipped: dict[str, int] = {}
    offset = 0
    while True:
        for next_offset, record in iter_ndjson(path, tail=True, start=offset):
            offset = next_offset
            tag = record.get("schema") if isinstance(record, dict) else None
            if not isinstance(tag, str) or tag not in registry:
                label = tag if isinstance(tag, str) else "<missing>"
                if args.strict:
                    raise ConfigError(
                        f"{path}: record with unregistered schema {label!r} "
                        "(drop --strict to skip foreign records)"
                    )
                skipped[label] = skipped.get(label, 0) + 1
                continue
            if not match_record(
                record, schema=args.schema, kind=args.kind, since=args.since
            ):
                continue
            _emit(record)
            printed += 1
            if args.max is not None and printed >= args.max:
                break
        if not args.follow or (args.max is not None and printed >= args.max):
            break
        try:
            time.sleep(FOLLOW_POLL_S)
        except KeyboardInterrupt:
            break
    for label, n in sorted(skipped.items()):
        print(f"[tail: skipped {n} record(s) of unknown schema {label!r}]",
              file=sys.stderr)
    return 0


# -- query / summary ----------------------------------------------------------------


def _query_main(args: argparse.Namespace, registry: SchemaRegistry) -> int:
    scan = ArchiveScan()
    printed = 0
    for record in iter_archive(
        args.roots,
        schema=args.schema,
        kind=args.kind,
        since=args.since,
        registry=registry,
        scan=scan,
    ):
        if not args.count:
            if args.limit is not None and printed >= args.limit:
                break
            _emit(record)
        printed += 1
    if args.count:
        print(printed)
    _report_scan(scan)
    return 0


def _summary_main(args: argparse.Namespace, registry: SchemaRegistry) -> int:
    from repro.util.tables import Table

    scan = ArchiveScan()
    counts: dict[tuple[str, str], int] = {}
    for record in iter_archive(args.roots, registry=registry, scan=scan):
        key = (record["schema"], record["kind"])
        counts[key] = counts.get(key, 0) + 1
    table = Table(
        ["schema", "kind", "records"],
        title=f"Observability archive ({scan.files_scanned} file(s), "
        f"{scan.records_read} record(s))",
    )
    for (schema, kind), n in sorted(counts.items()):
        table.add_row(schema, kind, n)
    print(table.render())
    _report_scan(scan)
    return 0


def _report_scan(scan: ArchiveScan) -> None:
    for label, n in sorted(scan.unknown_schemas.items()):
        print(f"[skipped {n} record(s) of unknown schema {label!r}]", file=sys.stderr)
    for path in scan.files_skipped:
        print(f"[skipped non-record file {path}]", file=sys.stderr)


def _schemas_main(registry: SchemaRegistry) -> int:
    from repro.util.tables import Table

    table = Table(["schema", "kinds", "description"], title="Registered schemas")
    for name in registry.known():
        spec = registry.get(name)
        table.add_row(name, ", ".join(sorted(spec.kinds)), spec.description)
    print(table.render())
    return 0


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    registry = REGISTRY
    try:
        if args.command == "tail":
            return _tail_main(args, registry)
        if args.command == "query":
            return _query_main(args, registry)
        if args.command == "summary":
            return _summary_main(args, registry)
        return _schemas_main(registry)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except BrokenPipeError:  # | head
        return 0


if __name__ == "__main__":
    sys.exit(main())
