"""Codec bench: wire-volume reduction versus codec CPU, chain by chain.

Runs the fig14-style coupled workload (an instrumented SP kernel
streaming into the analyzer partition) once per reduction chain and
reports what each stage composition buys: physical wire bytes versus
modelled content bytes, the per-pack compression ratio, the virtual CPU
charged for encoding and decoding, and the end-to-end slowdown against
the identity chain.  One table row per chain, so ``BENCH_codec.json``
*is* the reduction trade-off document.

The committed baseline pins every cell, which includes each chain's
``events`` (lossless chains deliver the identity chain's count) and
``ratio`` (compressing chains compress).  On this lane's workload,
``tests/test_codec_session.py`` asserts for every chain that no pack is
rejected, no event is lost, and writer-side and analyzer-side wire bytes
agree.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.apps.nas import SP
from repro.core.session import CouplingSession
from repro.errors import ConfigError
from repro.instrument.overhead import InstrumentationCost
from repro.network.machine import TERA100
from repro.telemetry import Telemetry
from repro.util.tables import Table

#: chain sweep: identity baseline, then increasingly composed reductions
CHAINS = ("", "delta", "delta+dict", "delta+dict+zlib")


@dataclass
class CodecPoint:
    """One reduction chain on one coupled-workload configuration."""

    chain: str
    events: int
    packs: int
    bytes_content: int
    bytes_wire: int
    #: physical wire bytes per modelled content byte (< 1 compresses)
    ratio: float
    encode_cpu_s: float
    decode_cpu_s: float
    app_walltime_s: float
    #: app walltime relative to the identity chain (1.0 = free)
    slowdown: float


@dataclass
class CodecResult:
    """Reduction-chain sweep of the wire-volume/CPU trade-off."""

    machine: str
    scale: str
    seed: int
    points: list[CodecPoint] = field(default_factory=list)

    def table(self) -> Table:
        t = Table(
            [
                "chain", "events", "packs", "content_kb", "wire_kb",
                "ratio", "encode_us", "decode_us", "walltime_s", "slowdown",
            ],
            title=f"Event reduction sweep ({self.machine}, scale={self.scale})",
        )
        for p in self.points:
            t.add_row(
                p.chain or "identity", p.events, p.packs,
                f"{p.bytes_content / 1024:.2f}", f"{p.bytes_wire / 1024:.2f}",
                f"{p.ratio:.4f}", f"{p.encode_cpu_s * 1e6:.2f}",
                f"{p.decode_cpu_s * 1e6:.2f}", f"{p.app_walltime_s:.6f}",
                f"{p.slowdown:.6f}",
            )
        return t


def _workload(scale: str):
    if scale == "paper":
        return SP(64, "C", iterations=3)
    if scale == "small":
        return SP(16, "C", iterations=3)
    raise ConfigError(f"unknown scale {scale!r}")


def codec_reduction(
    scale: str = "small",
    seed: int = 0,
    telemetry: Telemetry | None = None,
) -> CodecResult:
    """Sweep reduction chains over the coupled workload.

    The identity chain runs first and anchors the slowdown column.
    """
    kernel = _workload(scale)
    result = CodecResult(machine=TERA100.name, scale=scale, seed=seed)
    # Small packs so every writer emits a stream of them: per-pack ratio
    # statistics need many frames, not one tail flush per rank.
    cost = InstrumentationCost(block_size=4096, na_buffers=2)
    base_walltime = None
    for chain in CHAINS:
        session = CouplingSession(
            machine=TERA100, seed=seed, instrumentation=cost, telemetry=telemetry
        )
        name = session.add_application(kernel)
        session.set_analyzer(ratio=4.0)
        if chain:
            session.set_reduction(chain)
        run = session.run()
        app = run.app(name)
        stats = run.analyzer_stats
        if chain:
            red = run.reduction
            bytes_content, bytes_wire = red["bytes_content"], red["bytes_wire"]
            ratio = red["ratio"]
            encode_cpu, decode_cpu = red["encode_cpu_s"], red["decode_cpu_s"]
        else:
            # Aggregated over every analyzer rank: modelled content bytes
            # ingested and the physical frame bytes that carried them.
            bytes_content = stats["bytes"]
            bytes_wire = stats["bytes_wire"]
            ratio = bytes_wire / bytes_content if bytes_content else 0.0
            encode_cpu = decode_cpu = 0.0
        if base_walltime is None:
            base_walltime = app.walltime
        result.points.append(
            CodecPoint(
                chain=chain,
                events=app.events,
                packs=app.packs,
                bytes_content=bytes_content,
                bytes_wire=bytes_wire,
                ratio=ratio,
                encode_cpu_s=encode_cpu,
                decode_cpu_s=decode_cpu,
                app_walltime_s=app.walltime,
                slowdown=app.walltime / base_walltime if base_walltime else 0.0,
            )
        )
    return result
