#!/usr/bin/env python
"""Hot-path invariant lint: clock discipline, zero-copy decode, one writer.

Three structural rules the codebase relies on, enforced over the AST so
comments and strings never trip them:

1. **Clock discipline** — ``time.perf_counter`` (and its ``_ns``
   variant) may only be referenced inside ``telemetry/hostprof.py``.
   Every other module reads wall time through ``host_now()``, so a test
   can swap in a fake clock (``fake_host_clock``) and make every
   host-time probe deterministic, and virtual-time code cannot silently
   couple to the host clock.

2. **Zero-copy decode paths** — the EVF2 decode-path functions in
   ``codec/frame.py`` (``parse_frame``, ``peek_header``,
   ``peek_provenance``, ``frame_content_size``, ``_header_fields``)
   must never call ``bytes(...)``: a ``bytes()`` call on a memoryview
   slice is a hidden copy, which is exactly what the zero-copy parse
   contract (DESIGN 14) forbids.  Encode-side code (``to_bytes``,
   ``build_frame``, ``materialize``) may copy freely.

3. **One NDJSON writer** — outside ``repro/obs/``, no
   ``X.write(json.dumps(...))`` and no ``X.write(json.dumps(...) + "\n")``.
   Record files are written by :class:`repro.obs.sinks.FileSink` (the
   engine's ``stream=`` file, ``write_jsonl``, the bus file sink), so
   every plane's bytes come from one serializer.

Exit status 0 when clean; 1 with one ``path:line: message`` per
violation otherwise.  Run from the repository root::

    python scripts/check_hotpath_invariants.py

An optional argument overrides the source root (used by the tests).
"""

from __future__ import annotations

import ast
import sys
from pathlib import Path

#: the only module allowed to touch the host clock directly
CLOCK_OWNER = Path("repro") / "telemetry" / "hostprof.py"

#: module holding the zero-copy decode paths
FRAME_MODULE = Path("repro") / "codec" / "frame.py"

#: frame.py functions that must stay copy-free (the decode paths)
DECODE_PATH_FUNCTIONS = frozenset(
    {
        "parse_frame",
        "peek_header",
        "peek_provenance",
        "frame_content_size",
        "_header_fields",
    }
)

#: forbidden host-clock attribute names on the ``time`` module
CLOCK_NAMES = frozenset({"perf_counter", "perf_counter_ns"})

#: the package that owns NDJSON record writing
WRITER_OWNER = Path("repro") / "obs"


def _check_clock_discipline(tree: ast.AST, rel: Path) -> list[str]:
    """Flag any reachable reference to time.perf_counter outside hostprof.py."""
    problems = []
    for node in ast.walk(tree):
        if (
            isinstance(node, ast.Attribute)
            and node.attr in CLOCK_NAMES
            and isinstance(node.value, ast.Name)
            and node.value.id == "time"
        ):
            problems.append(
                f"{rel}:{node.lineno}: time.{node.attr} outside "
                f"{CLOCK_OWNER} — read host time through host_now()"
            )
        elif isinstance(node, ast.ImportFrom) and node.module == "time":
            for alias in node.names:
                if alias.name in CLOCK_NAMES:
                    problems.append(
                        f"{rel}:{node.lineno}: from time import "
                        f"{alias.name} outside {CLOCK_OWNER} — read "
                        "host time through host_now()"
                    )
    return problems


def _check_decode_paths(tree: ast.AST, rel: Path) -> list[str]:
    """Flag bytes(...) calls inside frame.py's decode-path functions."""
    problems = []
    for node in ast.walk(tree):
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        if node.name not in DECODE_PATH_FUNCTIONS:
            continue
        for sub in ast.walk(node):
            if (
                isinstance(sub, ast.Call)
                and isinstance(sub.func, ast.Name)
                and sub.func.id == "bytes"
            ):
                problems.append(
                    f"{rel}:{sub.lineno}: bytes() call inside decode-path "
                    f"function {node.name}() — decode must stay zero-copy "
                    "(materialize()/to_bytes() are the sanctioned copies)"
                )
    return problems


def _is_json_dumps(node: ast.AST) -> bool:
    return (
        isinstance(node, ast.Call)
        and isinstance(node.func, ast.Attribute)
        and node.func.attr == "dumps"
        and isinstance(node.func.value, ast.Name)
        and node.func.value.id == "json"
    )


def _check_single_writer(tree: ast.AST, rel: Path) -> list[str]:
    """Flag X.write(json.dumps(...)) and X.write(json.dumps(...) + ...)."""
    problems = []
    for node in ast.walk(tree):
        if not (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Attribute)
            and node.func.attr == "write"
            and node.args
        ):
            continue
        arg = node.args[0]
        if isinstance(arg, ast.BinOp) and isinstance(arg.op, ast.Add):
            arg = arg.left
        if _is_json_dumps(arg):
            problems.append(
                f"{rel}:{node.lineno}: write(json.dumps(...)) outside "
                f"{WRITER_OWNER} — write records through repro.obs.sinks.FileSink"
            )
    return problems


def check_tree(src_root: Path) -> list[str]:
    """All invariant violations under ``src_root`` (a ``src/`` directory)."""
    problems = []
    for path in sorted(src_root.rglob("*.py")):
        rel = path.relative_to(src_root)
        tree = ast.parse(path.read_text(), filename=str(path))
        if rel != CLOCK_OWNER:
            problems.extend(_check_clock_discipline(tree, rel))
        if rel == FRAME_MODULE:
            problems.extend(_check_decode_paths(tree, rel))
        if WRITER_OWNER not in rel.parents:
            problems.extend(_check_single_writer(tree, rel))
    return problems


def main(argv: list[str]) -> int:
    src_root = Path(argv[1]) if len(argv) > 1 else Path("src")
    if not src_root.is_dir():
        print(f"source root {src_root} not found", file=sys.stderr)
        return 2
    problems = check_tree(src_root)
    for problem in problems:
        print(problem)
    if problems:
        print(f"{len(problems)} hot-path invariant violation(s)")
        return 1
    print(
        "hot-path invariants hold (clock discipline, zero-copy decode, "
        "one NDJSON writer)"
    )
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv))
