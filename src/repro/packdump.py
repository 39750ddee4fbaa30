"""packdump: pretty-print event-pack blobs (``python -m repro.packdump``).

A small forensic CLI for the wire format: given one or more files holding
a raw pack blob each, it prints the frame header, the typed section
table, the codec-descriptor chain, the CRC verdict and any provenance or
sampling sections — without ever raising on damaged input (diagnostics
must work on exactly the packs the analyzer rejects).

Frames (magic ``EVF2``) go through the canonical parser,
:func:`repro.codec.frame.parse_frame`, in non-verifying mode; any other
leading magic is reported as ``format: unknown``.
"""

from __future__ import annotations

import struct
import sys

from repro.codec.frame import (
    FRAME_MAGIC,
    SEC_CODEC,
    SEC_PROVENANCE,
    SEC_SAMPLING,
    parse_frame,
    section_name,
)
from repro.codec.stages import decode_chain
from repro.errors import PackFormatError

# -- v2 frames, via the canonical parser --------------------------------------------


def _dump_v2(blob: bytes, out: list[str]) -> None:
    out.append("format: v2 frame (magic EVF2)")
    try:
        frame = parse_frame(blob, verify=False)
    except PackFormatError as exc:
        out.append(f"  MALFORMED: {type(exc).__name__}: {exc}")
        return
    out.append(
        f"  app_id {frame.app_id}  rank {frame.rank}  count {frame.count}"
        f"  flags {frame.flags:#06x}"
    )
    out.append("  sections:")
    for (stype, body), offset in zip(frame.sections, frame.offsets):
        out.append(
            f"    {section_name(stype):<12} {len(body):>8} B  at offset {offset}"
        )
    if frame.stored_crc is None:
        out.append("  crc32: MISSING")
    else:
        verdict = "OK" if frame.crc_ok else "MISMATCH"
        out.append(f"  crc32: {frame.stored_crc:#010x} {verdict}")
    if frame.section(SEC_CODEC) is not None:
        try:
            spec = frame.codec
        except PackFormatError:
            out.append("  codec chain: UNDECODABLE descriptor bytes")
        else:
            out.append(f"  codec chain: {spec or 'identity'}")
            try:
                decode_chain(spec)
            except PackFormatError as exc:
                out.append(f"    (not decodable by this build: {exc})")
    if frame.section(SEC_SAMPLING) is not None:
        out.append(f"  events sampled out upstream: {frame.events_dropped}")
    if frame.section(SEC_PROVENANCE) is not None:
        prov = frame.provenance
        out.append(
            f"  provenance: flow {prov.flow_id:#x} app {prov.app_id} "
            f"rank {prov.rank} sealed t={prov.t_seal:.9g}"
        )


def dump(blob: bytes) -> str:
    """Render one pack blob as human-readable text (never raises)."""
    out: list[str] = [f"{len(blob)} bytes"]
    if len(blob) >= 4:
        magic = struct.unpack_from("<I", blob, 0)[0]
        if magic == FRAME_MAGIC:
            _dump_v2(blob, out)
        else:
            out.append(f"format: unknown (leading magic {magic:#010x})")
    else:
        out.append("format: unknown (too short for a magic number)")
    return "\n".join(out)


def main(argv: list[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if not argv or argv[0] in ("-h", "--help"):
        print("usage: python -m repro.packdump <blob.bin> [<blob.bin> ...]")
        print(__doc__.split("\n\n")[1])
        return 0 if argv else 2
    status = 0
    for path in argv:
        try:
            with open(path, "rb") as fh:
                blob = fh.read()
        except OSError as exc:
            print(f"{path}: cannot read: {exc}")
            status = 1
            continue
        print(f"== {path}")
        print(dump(blob))
    return status


if __name__ == "__main__":
    sys.exit(main())
