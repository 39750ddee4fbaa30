"""Exclusive, yield-aware host-time split across the layers of ``repro``.

The tracer wraps the public entry points of each layer from the outside;
no model source changes.  A :class:`LayerClock` keeps a stack of layers
and charges every host interval to exactly the layer on top of it:

* entering a wrapped entry point pushes its layer (pausing the caller's);
* returning pops it;
* a wrapped *generator* is charged only while its own frame runs: the
  wrapper drives it with a manual ``send`` loop and pops its layer across
  every yield back to the kernel (``yield from`` would resume the inner
  frame without passing through the wrapper);
* garbage collection is charged to ``gc`` through ``gc.callbacks``;
* time outside every wrapper (the benchmark's own loop, world building
  and result collection) goes to ``residual``.

Self times therefore telescope: their sum is the traced wall time.
"""

from __future__ import annotations

import gc
import sys
from time import perf_counter
from typing import Any, Callable

RESIDUAL = "residual"

#: layer -> (end-to-end metric it should move, workloads where it should).
LAYERS: dict[str, tuple[str, str]] = {
    "apps": ("wall_s", "overhead"),
    "pmpi": ("wall_s", "overhead; ~0 on stream"),
    "mpi": ("wall_s, peak_rss_mb", "overhead; little on stream"),
    "simt": ("wall_s", "all three, largest share on stream"),
    "network": ("wall_s", "overhead"),
    "instrument": ("wall_s", "overhead and reduce; 0 on stream"),
    "vmpi": ("wall_s", "stream"),
    "codec": ("wall_s", "reduce; 0 on stream"),
    "blackboard": ("wall_s", "reduce"),
    "analysis": ("wall_s", "reduce"),
    "gc": ("wall_s, peak_rss_mb", "overhead"),
}

#: Work counters per layer (``<layer>.<counter>``), all reported.
COUNTERS: dict[str, tuple[str, ...]] = {
    "apps": ("mpi_calls",),
    "pmpi": ("calls", "intercepted"),
    "mpi": ("p2p_msgs", "p2p_bytes", "collectives", "waits"),
    "simt": ("events", "timeouts"),
    "network": ("transfers", "bytes"),
    "instrument": ("events", "packs"),
    "vmpi": ("writes", "reads", "read_eagain", "bytes"),
    "codec": ("bytes_in", "bytes_out", "frames"),
    "blackboard": ("jobs",),
    "analysis": ("packs", "events"),
    "gc": ("collections",),
}

#: Counters that must read exactly 0 on the stream workload (the control:
#: no interception, packs, codec or analysis runs there).
STREAM_ZEROS = ("pmpi.intercepted",) + tuple(
    f"{layer}.{name}"
    for layer in ("instrument", "codec", "blackboard", "analysis")
    for name in COUNTERS[layer]
)

_VMPI_EAGAIN = -11  # repro.vmpi.stream.EAGAIN

ALL = ("overhead", "stream", "reduce")
SESSIONS = ("overhead", "reduce")  # instrumented coupling sessions
STREAM = ("stream",)


class LayerClock:
    """A stack of layers; host time always goes to the layer on top."""

    __slots__ = ("stack", "self_s", "last")

    def __init__(self) -> None:
        self.stack = [RESIDUAL]
        self.self_s = dict.fromkeys((*LAYERS, RESIDUAL), 0.0)
        self.last = perf_counter()

    def push(self, layer: str) -> None:
        now = perf_counter()
        stack = self.stack
        self.self_s[stack[-1]] += now - self.last
        self.last = now
        stack.append(layer)

    def pop(self) -> None:
        now = perf_counter()
        self.self_s[self.stack.pop()] += now - self.last
        self.last = now

    def reset(self) -> None:
        """Zero every self time and restart the clock (stack must be empty)."""
        if self.stack != [RESIDUAL]:
            raise RuntimeError(f"layer stack not balanced: {self.stack}")
        self.self_s = dict.fromkeys(self.self_s, 0.0)
        self.last = perf_counter()

    def checkpoint(self) -> None:
        """Charge the interval up to now to the layer on top."""
        self.push(self.stack[-1])
        self.pop()


def traced(clock: LayerClock, layer: str, gen, on_return=None):
    """Drive ``gen`` charging only its own frame time to ``layer``."""
    push, pop = clock.push, clock.pop
    send = gen.send
    value: Any = None
    error: BaseException | None = None
    while True:
        push(layer)
        try:
            out = send(value) if error is None else gen.throw(error)
        except StopIteration as stop:
            if on_return is not None:
                on_return(stop.value)
            return stop.value
        finally:
            pop()
        try:
            value = yield out
            error = None
        except GeneratorExit:
            gen.close()
            raise
        except BaseException as exc:  # forwarded into the wrapped frame
            value, error = None, exc


def _arg(args: tuple, kwargs: dict, index: int, name: str) -> Any:
    return args[index] if len(args) > index else kwargs[name]


class Tracer:
    """Installs the layer wrappers and holds their self times and counts."""

    def __init__(self) -> None:
        self.clock = LayerClock()
        self.counts = {
            f"{layer}.{name}": 0 for layer, names in COUNTERS.items() for name in names
        }
        #: entry point -> calls, and the workloads where it must fire
        self.calls: dict[str, int] = {}
        self.expect: dict[str, tuple[str, ...]] = {}
        self._undo: list[tuple[Any, str, Any]] = []

    # -- wrapping --------------------------------------------------------------------

    def _wrapper(self, key: str, layer: str, fn: Callable, kind: str, before, after, on):
        """``kind`` is ``call`` (plain function), ``gen`` (generator function)
        or ``hook`` (a PMPI hook returning None, CPU seconds or a generator).
        ``before(args, kwargs)`` runs at call time, ``after(args, result)``
        once the call or the generator returns."""
        calls, clock = self.calls, self.clock
        push, pop = clock.push, clock.pop
        calls[key] = 0
        self.expect[key] = on
        if kind == "gen":

            def wrapper(*args, **kwargs):
                calls[key] += 1
                if before is not None:
                    before(args, kwargs)
                done = None if after is None else (lambda result: after(args, result))
                return traced(clock, layer, fn(*args, **kwargs), done)

            return wrapper

        def wrapper(*args, **kwargs):
            calls[key] += 1
            if before is not None:
                before(args, kwargs)
            push(layer)
            try:
                result = fn(*args, **kwargs)
            finally:
                pop()
            if after is not None:
                after(args, result)
            if kind == "hook" and hasattr(result, "send"):
                return traced(clock, layer, result)
            return result

        return wrapper

    def _set(self, owner: Any, attr: str, value: Any) -> None:
        self._undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def wrap_method(
        self, cls, attr, layer, kind="call", before=None, after=None, *, on=ALL, key=None
    ) -> None:
        """Wrap ``cls.attr``; ``on`` names the workloads where it must fire.
        Wrappers sharing a ``key`` are counted (and checked) together."""
        key = key or f"{cls.__qualname__}.{attr}"
        fn = cls.__dict__[attr]
        self._set(cls, attr, self._wrapper(key, layer, fn, kind, before, after, on))

    def wrap_function(self, fn, layer, kind="call", before=None, after=None, *, on=ALL) -> None:
        """Rebind every module-level name in ``repro`` that refers to ``fn``."""
        key = fn.__qualname__
        wrapper = self._wrapper(key, layer, fn, kind, before, after, on)
        for name, module in list(sys.modules.items()):
            if name == "repro" or name.startswith("repro."):
                for attr, value in list(vars(module).items()):
                    if value is fn:
                        self._set(module, attr, wrapper)

    # -- counters --------------------------------------------------------------------

    def _inc(self, *names: str, by: Callable | None = None):
        """``before`` hook: count one call on each name, plus ``by``'s amount."""
        counts = self.counts

        def before(args, kwargs):
            for name in names:
                counts[name] += 1
            if by is not None:
                key, amount = by(args, kwargs)
                counts[key] += amount

        return before

    def _mpi_entry(self, *names: str):
        """A public MPI call: also counted against ``apps`` when issued by it."""
        counts, stack = self.counts, self.clock.stack

        def before(args, kwargs):
            if stack[-1] == "apps":
                counts["apps.mpi_calls"] += 1
            for name in names:
                counts[name] += 1

        return before

    # -- installation ----------------------------------------------------------------

    def install(self) -> None:
        """Wrap every layer's entry points; call before any world is built."""
        from repro.analysis import engine
        from repro.apps.base import AppKernel
        from repro.apps import synthetic
        from repro.blackboard.board import Blackboard
        from repro.blackboard.multilevel import MultiLevelBlackboard
        from repro.codec import frame
        from repro.codec.stages import CodecChain
        from repro.instrument.interceptor import StreamingInstrumentation
        from repro.instrument.packer import EventPackBuilder, decode_pack_frame
        from repro.mpi.collectives import CollectiveEngine
        from repro.mpi.communicator import Comm
        from repro.mpi.message import Mailbox
        from repro.mpi.pmpi import PMPIStack
        from repro.mpi.world import ProgramAPI
        from repro.network.cluster import Cluster
        from repro.simt.kernel import Kernel
        from repro.vmpi.stream import VMPIStream

        counts, clock = self.counts, self.clock
        method, function = self.wrap_method, self.wrap_function
        inc, mpi_entry = self._inc, self._mpi_entry

        # apps: every kernel's main generator and the synthetic stream programs
        pending = [AppKernel]
        while pending:
            cls = pending.pop()
            pending.extend(cls.__subclasses__())
            main = cls.__dict__.get("main")
            if main is not None and not getattr(main, "__isabstractmethod__", False):
                method(cls, "main", "apps", "gen", on=SESSIONS, key="AppKernel.main")
        function(synthetic.stream_writer_program, "apps", "gen", on=STREAM)
        function(synthetic.stream_reader_program, "apps", "gen", on=STREAM)

        # pmpi: the interception wrapper; the implementation it drives is mpi
        def intercept(args, kwargs):
            counts["pmpi.calls"] += 1
            if args[0].interceptors:
                counts["pmpi.intercepted"] += 1

        around = self._wrapper(
            "PMPIStack.around", "pmpi", PMPIStack.around, "gen", intercept, None, ALL
        )
        self._set(
            PMPIStack,
            "around",
            lambda stack, name, impl, **kw: around(stack, name, traced(clock, "mpi", impl), **kw),
        )

        # mpi: public calls, the raw send path, matching and collectives
        for attr in ("isend", "send", "irecv", "recv", "sendrecv", "iprobe"):
            method(Comm, attr, "mpi", "gen", mpi_entry(), on=SESSIONS, key="Comm p2p")
        for attr in ("_collective", "split", "dup"):
            collective = mpi_entry("mpi.collectives")
            method(Comm, attr, "mpi", "gen", collective, on=SESSIONS, key="Comm collectives")
        waits = mpi_entry("mpi.waits")
        for attr in ("wait", "waitall"):
            method(Comm, attr, "mpi", "gen", waits, on=("overhead",), key="Comm waits")
        method(ProgramAPI, "waitany", "mpi", "gen", waits, on=("overhead",), key="Comm waits")
        method(ProgramAPI, "init", "mpi", "gen", mpi_entry())
        method(ProgramAPI, "finalize", "mpi", "gen", mpi_entry())
        method(
            Comm, "_raw_isend", "mpi", "gen",
            inc("mpi.p2p_msgs", by=lambda a, k: ("mpi.p2p_bytes", _arg(a, k, 2, "nbytes"))),
        )
        method(Mailbox, "deliver", "mpi")
        method(Mailbox, "post", "mpi")
        method(CollectiveEngine, "join", "mpi", on=SESSIONS)

        # simt: the event loop and the waitable factories
        started: list[int] = []

        def run_before(args, kwargs):
            started.append(args[0].events_dispatched)

        def run_after(args, result):
            counts["simt.events"] += args[0].events_dispatched - started.pop()

        method(Kernel, "run", "simt", "call", run_before, run_after)
        method(Kernel, "timeout", "simt", "call", inc("simt.timeouts"))

        # network
        method(
            Cluster, "transfer", "network", "call",
            inc("network.transfers", by=lambda a, k: ("network.bytes", _arg(a, k, 3, "nbytes"))),
        )

        # instrument
        method(StreamingInstrumentation, "on_exit", "instrument", "hook", on=SESSIONS)
        method(EventPackBuilder, "add", "instrument", "call", inc("instrument.events"), on=SESSIONS)
        method(EventPackBuilder, "emit", "instrument", "call", inc("instrument.packs"), on=SESSIONS)

        # vmpi
        def written(args, nbytes):
            counts["vmpi.bytes"] += nbytes

        def read(args, result):
            if result[0] == _VMPI_EAGAIN:
                counts["vmpi.read_eagain"] += 1

        method(VMPIStream, "write", "vmpi", "gen", inc("vmpi.writes"), written)
        method(VMPIStream, "read", "vmpi", "gen", inc("vmpi.reads"), read)
        method(VMPIStream, "open_map", "vmpi", "gen")
        method(VMPIStream, "close", "vmpi", "gen")

        # codec: chain encode/decode and the EVF2 frame writer/parser
        def bytes_in(index, name):
            return inc(by=lambda a, k: ("codec.bytes_in", len(_arg(a, k, index, name))))

        def encoded(args, result):
            counts["codec.bytes_out"] += len(result.payload)

        def decoded(args, result):
            counts["codec.bytes_out"] += len(result)

        method(
            CodecChain, "encode", "codec", "call", bytes_in(1, "records"), encoded,
            on=("reduce",),  # the overhead sessions use the identity chain
        )
        method(CodecChain, "decode", "codec", "call", bytes_in(1, "payload"), decoded, on=SESSIONS)
        function(frame.build_frame, "codec", "call", inc("codec.frames"), on=SESSIONS)
        function(frame.parse_frame, "codec", "call", inc("codec.frames"), on=SESSIONS)
        method(frame.Frame, "to_bytes", "codec", on=SESSIONS)

        # blackboard
        method(Blackboard, "submit", "blackboard", on=SESSIONS)
        method(Blackboard, "execute", "blackboard", "call", inc("blackboard.jobs"), on=SESSIONS)
        method(Blackboard, "run_until_idle", "blackboard", on=SESSIONS)
        method(MultiLevelBlackboard, "submit_pack", "blackboard", on=SESSIONS)

        # analysis: the analyzer program, ingest, unpacking and the modules
        def unpacked(args, result):
            counts["analysis.events"] += result[0].count

        function(engine.analyzer_program, "analysis", "gen", on=SESSIONS)
        method(
            engine.AnalyzerEngine, "ingest", "analysis", "call", inc("analysis.packs"),
            on=SESSIONS,
        )
        method(engine.AnalyzerEngine, "merge_states", "analysis", on=SESSIONS)
        method(engine.AnalyzerEngine, "build_report", "analysis", on=SESSIONS)
        function(decode_pack_frame, "analysis", "call", after=unpacked, on=SESSIONS)
        for module_cls in set(engine._MODULE_CLASSES.values()):
            for attr in ("update", "merge"):
                if attr in module_cls.__dict__:
                    key = f"analysis modules.{attr}"
                    method(module_cls, attr, "analysis", on=SESSIONS, key=key)

        # host runtime: garbage collection
        gc.callbacks.append(self._on_gc)

    def _on_gc(self, phase: str, _info: dict) -> None:
        if phase == "start":
            self.counts["gc.collections"] += 1
            self.clock.push("gc")
        else:
            self.clock.pop()

    def uninstall(self) -> None:
        if self._on_gc in gc.callbacks:
            gc.callbacks.remove(self._on_gc)
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    # -- per-pass accounting -----------------------------------------------------------

    def reset(self) -> None:
        self.clock.reset()
        for key in self.counts:
            self.counts[key] = 0
        for key in self.calls:
            self.calls[key] = 0

    def snapshot(self) -> dict[str, Any]:
        """Self times, counts and entry-point calls since the last reset."""
        self.clock.checkpoint()
        return {
            "self_s": dict(self.clock.self_s),
            "counts": dict(self.counts),
            "calls": dict(self.calls),
            "balanced": self.clock.stack == [RESIDUAL],
        }



def expected_nonzero(workload: str) -> list[str]:
    """Counters the workload must move (the coverage self-check)."""
    keys = [
        "apps.mpi_calls", "pmpi.calls", "mpi.p2p_msgs", "mpi.p2p_bytes", "simt.events",
        "simt.timeouts", "network.transfers", "network.bytes", "vmpi.writes", "vmpi.reads",
        "vmpi.bytes",
    ]
    if workload in SESSIONS:
        keys += ["mpi.collectives", *STREAM_ZEROS]
    if workload == "overhead":
        keys.append("mpi.waits")
    if workload == "stream":
        keys.append("vmpi.read_eagain")
    return keys
