"""The versioned pack frame: one header plus typed, length-prefixed sections.

Wire layout (all little-endian)::

    u32 magic "EVF2" | u16 version | u16 app_id | u32 rank | u32 count |
    u16 nsections | u16 flags
    -- then `nsections` sections, each:
    u16 type | u16 reserved | u32 length | <length bytes>

Section types::

    1  PAYLOAD     event records, possibly transformed by a codec chain
    2  CRC         u32 crc32 over every frame byte before this section's header
    3  PROVENANCE  u64 flow_id | u16 origin_app | u32 origin_rank | f64 t_seal
    4  CODEC       UTF-8 codec-chain spec, e.g. "delta+dict+zlib"
    5  SAMPLING    u32 events dropped by the adaptive sampler for this pack

The writer always emits the CRC section last so it covers everything in
front of it; sections a reader does not recognise are skipped (and
preserved on re-emit), making the format forward-compatible.  ``count``
is the number of event records the payload decodes to — after sampling,
before any lossless transform.

Frame parsing lives *only* here.  The packer, the stream layer, fault
tampering and analyzer ingest all share this implementation; there is no
trailer sniffing anywhere else.

Zero-copy contract: :func:`parse_frame` stores section bodies as
``memoryview`` slices into the caller's blob — no per-section copies on
the decode path.  A view pins the blob alive and is safe to hold as long
as the blob is immutable (``bytes``); callers that parse a mutable
buffer, or need the sections to outlive a buffer they plan to recycle,
must call :meth:`Frame.materialize` first (see DESIGN §14).

Content accounting: the modelled byte volume of a pack is
:func:`frame_content_size` — a fixed 16-byte logical header plus 40 bytes
per record, matching the original v1 layout exactly.  Framing overhead,
checksums, provenance stamps and codec output sizes are all
accounting-exempt, so the integrity/observability envelope never shifts
simulated figures and the identity chain stays bit-identical to the
pre-frame format's timing.
"""

from __future__ import annotations

import struct
import zlib
from dataclasses import dataclass, field

from repro.errors import (
    ChecksumError,
    FrameTruncatedError,
    PackFormatError,
    SectionLengthError,
)

FRAME_MAGIC = 0x45564632  # "EVF2"
FRAME_VERSION = 2
_HEADER_FMT = "<IHHIIHH"  # magic, version, app_id, rank, count, nsections, flags
_HEADER_STRUCT = struct.Struct(_HEADER_FMT)
FRAME_HEADER_SIZE = _HEADER_STRUCT.size
assert FRAME_HEADER_SIZE == 20
_SECTION_FMT = "<HHI"  # type, reserved, length
_SECTION_STRUCT = struct.Struct(_SECTION_FMT)
SECTION_HEADER_SIZE = _SECTION_STRUCT.size
assert SECTION_HEADER_SIZE == 8

SEC_PAYLOAD = 1
SEC_CRC = 2
SEC_PROVENANCE = 3
SEC_CODEC = 4
SEC_SAMPLING = 5

_SECTION_NAMES = {
    SEC_PAYLOAD: "PAYLOAD",
    SEC_CRC: "CRC",
    SEC_PROVENANCE: "PROVENANCE",
    SEC_CODEC: "CODEC",
    SEC_SAMPLING: "SAMPLING",
}

_PROV_FMT = "<QHId"  # flow_id, origin_app, origin_rank, t_seal
_PROV_STRUCT = struct.Struct(_PROV_FMT)
PROVENANCE_BODY_SIZE = _PROV_STRUCT.size
assert PROVENANCE_BODY_SIZE == 22
_CRC_FMT = "<I"
_CRC_STRUCT = struct.Struct(_CRC_FMT)
CRC_BODY_SIZE = 4
_SAMPLING_FMT = "<I"
_SAMPLING_STRUCT = struct.Struct(_SAMPLING_FMT)
SAMPLING_BODY_SIZE = 4

#: the CRC section header never varies — emit it as a constant
_CRC_SECTION_HEADER = _SECTION_STRUCT.pack(SEC_CRC, 0, CRC_BODY_SIZE)

# Modelled content accounting (v1-compatible): 16-byte logical header plus
# 40 bytes per record.  These are *accounting* constants, not wire offsets;
# instrument.events asserts its record size matches CONTENT_RECORD_SIZE.
CONTENT_HEADER_SIZE = 16
CONTENT_RECORD_SIZE = 40


def section_name(kind: int) -> str:
    """Human-readable name for a section type (``UNKNOWN(n)`` otherwise)."""
    return _SECTION_NAMES.get(kind, f"UNKNOWN({kind})")


@dataclass(frozen=True)
class PackProvenance:
    """The compact flow stamp carried by a provenance-traced pack."""

    flow_id: int
    app_id: int
    rank: int
    t_seal: float


@dataclass(slots=True)
class Frame:
    """A parsed (or under-construction) pack frame.

    ``sections`` holds every non-CRC section in wire order; the CRC is
    recomputed on :meth:`to_bytes`, so round-tripping a frame through
    parse → edit → emit always yields a valid checksum.  ``crc_ok`` /
    ``stored_crc`` report what :func:`parse_frame` found on the wire
    (``None`` for a frame built in memory).

    Section bodies are ``memoryview`` slices of the parsed blob (see the
    module docstring's zero-copy contract) or ``bytes`` for frames built
    or edited in memory; both compare, slice, hash-dump and re-emit the
    same way.  Call :meth:`materialize` to force plain ``bytes`` bodies.
    """

    app_id: int
    rank: int
    count: int
    flags: int = 0
    sections: list[tuple[int, bytes | memoryview]] = field(default_factory=list)
    stored_crc: int | None = None
    crc_ok: bool | None = None
    #: Body byte offsets aligned with ``sections`` — filled by
    #: :func:`parse_frame` only (empty for frames built in memory), so
    #: tooling can address wire bytes without a second format walk.
    offsets: list[int] = field(default_factory=list)

    def section(self, kind: int) -> bytes | memoryview | None:
        """Body of the first section of ``kind``, or ``None``."""
        for stype, body in self.sections:
            if stype == kind:
                return body
        return None

    def materialize(self) -> "Frame":
        """Copy every section body to plain ``bytes``, detaching the frame
        from the parsed blob (required before the blob's buffer is reused
        or mutated; a no-op for frames built in memory)."""
        self.sections = [(t, bytes(b)) for t, b in self.sections]
        return self

    @property
    def payload(self) -> bytes | memoryview:
        return self.section(SEC_PAYLOAD) or b""

    @property
    def codec(self) -> str:
        """The codec-chain spec this payload was encoded with ("" = identity)."""
        body = self.section(SEC_CODEC)
        if body is None:
            return ""
        try:
            return bytes(body).decode("utf-8")
        except UnicodeDecodeError as exc:
            raise SectionLengthError(f"codec descriptor is not UTF-8: {exc}") from exc

    @property
    def provenance(self) -> PackProvenance | None:
        body = self.section(SEC_PROVENANCE)
        if body is None:
            return None
        flow_id, app_id, rank, t_seal = _PROV_STRUCT.unpack(body)
        return PackProvenance(flow_id=flow_id, app_id=app_id, rank=rank, t_seal=t_seal)

    @property
    def events_dropped(self) -> int:
        """Events the adaptive sampler dropped while sealing this pack."""
        body = self.section(SEC_SAMPLING)
        if body is None:
            return 0
        return _SAMPLING_STRUCT.unpack(body)[0]

    def replace_section(self, kind: int, body: bytes) -> None:
        """Replace the first section of ``kind`` in place, or append one."""
        for i, (stype, _) in enumerate(self.sections):
            if stype == kind:
                self.sections[i] = (kind, bytes(body))
                return
        self.sections.append((kind, bytes(body)))

    def drop_section(self, kind: int) -> None:
        """Remove every section of ``kind`` (no-op when absent)."""
        self.sections = [(t, b) for t, b in self.sections if t != kind]

    def with_provenance(self, prov: PackProvenance) -> "Frame":
        self.replace_section(
            SEC_PROVENANCE,
            _PROV_STRUCT.pack(prov.flow_id, prov.app_id, prov.rank, prov.t_seal),
        )
        return self

    @property
    def content_size(self) -> int:
        """Modelled content bytes: logical header + fixed-width records."""
        return CONTENT_HEADER_SIZE + self.count * CONTENT_RECORD_SIZE

    def to_bytes(self) -> bytes:
        """Serialize, appending a freshly computed CRC section last.

        Single-pass: header and sections are appended to one reusable
        module-level ``bytearray`` (the emit path runs on the
        single-threaded kernel loop; re-entrant calls fall back to a
        local buffer), the CRC is computed over it in place, and the
        only copy made is the immutable ``bytes`` returned.
        """
        global _emit_busy
        if _emit_busy:
            buf = bytearray()
            reused = False
        else:
            _emit_busy = True
            buf = _EMIT_BUF
            del buf[:]
            reused = True
        try:
            buf += _HEADER_STRUCT.pack(
                FRAME_MAGIC,
                FRAME_VERSION,
                self.app_id,
                self.rank,
                self.count,
                len(self.sections) + 1,  # + the CRC section
                self.flags,
            )
            pack_section = _SECTION_STRUCT.pack
            for stype, body in self.sections:
                buf += pack_section(stype, 0, len(body))
                buf += body
            crc = zlib.crc32(buf)
            buf += _CRC_SECTION_HEADER
            buf += _CRC_STRUCT.pack(crc)
            return bytes(buf)
        finally:
            if reused:
                _emit_busy = False


#: reusable emit buffer + busy flag (single-threaded hot path; see to_bytes)
_EMIT_BUF = bytearray()
_emit_busy = False


def build_frame(
    app_id: int,
    rank: int,
    count: int,
    payload: bytes,
    codec: str = "",
    provenance: PackProvenance | None = None,
    events_dropped: int = 0,
    flags: int = 0,
) -> bytes:
    """Serialize one frame with the canonical section order.

    Sections are written PAYLOAD, CODEC?, SAMPLING?, PROVENANCE?, CRC —
    optional sections appear only when non-trivial, so a plain
    identity-chain pack carries exactly payload + CRC.
    """
    if not (0 <= app_id < 2**16):
        raise PackFormatError(f"app_id {app_id} outside u16")
    if not (0 <= rank < 2**32):
        raise PackFormatError(f"rank {rank} outside u32")
    frame = Frame(app_id=app_id, rank=rank, count=count, flags=flags)
    sections = frame.sections
    sections.append((SEC_PAYLOAD, bytes(payload)))
    if codec:
        sections.append((SEC_CODEC, codec.encode("utf-8")))
    if events_dropped:
        sections.append((SEC_SAMPLING, _SAMPLING_STRUCT.pack(events_dropped)))
    if provenance is not None:
        frame.with_provenance(provenance)
    return frame.to_bytes()


def parse_frame(blob, verify: bool = True) -> Frame:
    """Parse one frame; the single wire-format reader in the codebase.

    With ``verify=True`` (the default) a missing or mismatching CRC
    section raises :class:`ChecksumError`; with ``verify=False`` the
    checksum outcome is only recorded on ``Frame.crc_ok`` so diagnostic
    tools can inspect damaged frames.  Unknown section types are kept in
    ``Frame.sections`` untouched (forward compatibility: they survive a
    parse → emit round trip).

    Section bodies are zero-copy ``memoryview`` slices of ``blob``; see
    the module docstring for the lifetime contract.
    """
    try:
        view = memoryview(blob)
    except TypeError:
        raise PackFormatError(f"pack payload is not bytes: {type(blob).__name__}")
    total = len(view)
    if total < FRAME_HEADER_SIZE:
        raise FrameTruncatedError(
            f"frame of {total} bytes shorter than {FRAME_HEADER_SIZE}-byte header"
        )
    magic, version, app_id, rank, count, nsections, flags = _HEADER_STRUCT.unpack_from(
        view, 0
    )
    if magic != FRAME_MAGIC:
        raise PackFormatError(f"bad pack magic {magic:#010x}")
    if version != FRAME_VERSION:
        raise PackFormatError(f"unsupported pack version {version}")
    frame = Frame(app_id, rank, count, flags)
    sections = frame.sections
    offsets = frame.offsets
    unpack_section = _SECTION_STRUCT.unpack_from
    offset = FRAME_HEADER_SIZE
    crc_covered_end: int | None = None
    for _ in range(nsections):
        if offset + SECTION_HEADER_SIZE > total:
            raise FrameTruncatedError(
                f"frame ended at byte {total} inside a section header at {offset}"
            )
        stype, _reserved, length = unpack_section(view, offset)
        body_start = offset + SECTION_HEADER_SIZE
        if body_start + length > total:
            raise FrameTruncatedError(
                f"section {section_name(stype)} declares {length} bytes at offset "
                f"{body_start} but frame has {total}"
            )
        if stype == SEC_CRC:
            if length != CRC_BODY_SIZE:
                raise SectionLengthError(
                    f"CRC section of {length} bytes, expected {CRC_BODY_SIZE}"
                )
            if crc_covered_end is None:  # first CRC wins; covers bytes before it
                crc_covered_end = offset
                frame.stored_crc = _CRC_STRUCT.unpack_from(view, body_start)[0]
        else:
            if stype == SEC_PROVENANCE and length != PROVENANCE_BODY_SIZE:
                raise SectionLengthError(
                    f"provenance section of {length} bytes, "
                    f"expected {PROVENANCE_BODY_SIZE}"
                )
            if stype == SEC_SAMPLING and length != SAMPLING_BODY_SIZE:
                raise SectionLengthError(
                    f"sampling section of {length} bytes, expected {SAMPLING_BODY_SIZE}"
                )
            sections.append((stype, view[body_start : body_start + length]))
            offsets.append(body_start)
        offset = body_start + length
    if offset != total:
        raise SectionLengthError(
            f"{total - offset} trailing bytes after the {nsections} declared sections"
        )
    if crc_covered_end is not None:
        frame.crc_ok = zlib.crc32(view[:crc_covered_end]) == frame.stored_crc
    if verify:
        if frame.stored_crc is None:
            raise ChecksumError("frame has no CRC section")
        if not frame.crc_ok:
            computed = zlib.crc32(view[:crc_covered_end])
            raise ChecksumError(
                f"pack checksum mismatch: stored {frame.stored_crc:#010x}, "
                f"computed {computed:#010x}"
            )
    return frame


@dataclass(frozen=True)
class FrameInfo:
    """Cheap header peek: everything knowable without walking sections."""

    app_id: int
    rank: int
    count: int
    nsections: int
    flags: int

    @property
    def content_size(self) -> int:
        return CONTENT_HEADER_SIZE + self.count * CONTENT_RECORD_SIZE


def _header_fields(blob) -> tuple[int, int, int, int, int]:
    """Validated header fields (app_id, rank, count, nsections, flags)."""
    try:
        view = memoryview(blob)
    except TypeError:
        raise PackFormatError(f"pack payload is not bytes: {type(blob).__name__}")
    if len(view) < FRAME_HEADER_SIZE:
        raise FrameTruncatedError(
            f"frame of {len(view)} bytes shorter than {FRAME_HEADER_SIZE}-byte header"
        )
    magic, version, app_id, rank, count, nsections, flags = _HEADER_STRUCT.unpack_from(
        view, 0
    )
    if magic != FRAME_MAGIC:
        raise PackFormatError(f"bad pack magic {magic:#010x}")
    if version != FRAME_VERSION:
        raise PackFormatError(f"unsupported pack version {version}")
    return app_id, rank, count, nsections, flags


def peek_header(blob) -> FrameInfo:
    """Decode just the 20-byte frame header (no section walk, no CRC)."""
    app_id, rank, count, nsections, flags = _header_fields(blob)
    return FrameInfo(
        app_id=app_id, rank=rank, count=count, nsections=nsections, flags=flags
    )


def frame_content_size(blob) -> int:
    """Modelled content bytes of a serialized frame (header peek only)."""
    return CONTENT_HEADER_SIZE + _header_fields(blob)[2] * CONTENT_RECORD_SIZE


def peek_provenance(blob) -> PackProvenance | None:
    """Read a pack's provenance stamp without touching the payload.

    Returns ``None`` for anything that is not a provenance-stamped frame —
    non-bytes payloads, damaged frames, or frames without the section — so
    hot paths can call it unconditionally on whatever travels a stream.

    This is a light section-header walk: it performs every structural
    check :func:`parse_frame` does (so the None-vs-stamp outcome is
    identical to ``parse_frame(blob, verify=False).provenance`` with
    errors mapped to ``None``) but never copies a body, builds a
    :class:`Frame`, or computes the CRC.
    """
    try:
        view = memoryview(blob)
    except TypeError:
        return None
    total = len(view)
    if total < FRAME_HEADER_SIZE:
        return None
    magic, version, _app_id, _rank, _count, nsections, _flags = (
        _HEADER_STRUCT.unpack_from(view, 0)
    )
    if magic != FRAME_MAGIC or version != FRAME_VERSION:
        return None
    unpack_section = _SECTION_STRUCT.unpack_from
    offset = FRAME_HEADER_SIZE
    prov_start = -1
    for _ in range(nsections):
        if offset + SECTION_HEADER_SIZE > total:
            return None
        stype, _reserved, length = unpack_section(view, offset)
        body_start = offset + SECTION_HEADER_SIZE
        if body_start + length > total:
            return None
        if stype == SEC_CRC:
            if length != CRC_BODY_SIZE:
                return None
        elif stype == SEC_PROVENANCE:
            if length != PROVENANCE_BODY_SIZE:
                return None
            if prov_start < 0:  # first provenance section wins, like parse_frame
                prov_start = body_start
        elif stype == SEC_SAMPLING and length != SAMPLING_BODY_SIZE:
            return None
        offset = body_start + length
    if offset != total or prov_start < 0:
        return None
    flow_id, app_id, rank, t_seal = _PROV_STRUCT.unpack_from(view, prov_start)
    return PackProvenance(flow_id=flow_id, app_id=app_id, rank=rank, t_seal=t_seal)
