"""Hot-path kernel semantics: batched dispatch, hook grids, edge cases.

The telemetry-off drain (``_drain_fast``) batches same-timestamp events
and reduces the periodic-hook test to one float compare.  These tests pin
the observable contract both drains must share: hook firing points
relative to batches, ``call_every(first=)`` grid alignment, and the
stale-cache edges around cancellation and empty schedules.  The last
section bounds the allocation blocks each hot layer pins per unit of work.
"""

import gc
import tracemalloc

import pytest

import repro.codec.frame as frame_mod
import repro.codec.stages as stages_mod
import repro.instrument.interceptor as interceptor_mod
import repro.instrument.packer as packer_mod
import repro.simt.kernel as kernel_mod
import repro.simt.primitives as primitives_mod
import repro.simt.process as process_mod
import repro.vmpi.stream as stream_mod
from repro.codec.stages import build_chain
from repro.errors import SimulationError
from repro.mpi.pmpi import CallRecord
from repro.simt import Kernel
from repro.telemetry import Telemetry


def _instrumented_kernel() -> Kernel:
    return Kernel(telemetry=Telemetry())


def _both_kernels():
    """The two drain implementations under test: fast path and step()."""
    return [Kernel(), _instrumented_kernel()]


def _sleeper(k, log, name, delays):
    def proc(kk):
        for d in delays:
            yield kk.timeout(d)
            log.append((name, kk.now))

    return k.spawn(proc(k), name=name)


# -- hook ordering under batched same-timestamp dispatch ---------------------------


@pytest.mark.parametrize("make_kernel", [Kernel, _instrumented_kernel])
def test_hook_fires_once_before_first_event_of_a_tie_batch(make_kernel):
    k = make_kernel()
    log = []
    for name in ("a", "b", "c"):
        _sleeper(k, log, name, [1.0])
    k.call_every(10.0, lambda now: log.append(("hook", now)), first=1.0)
    k.run()
    assert log == [("hook", 1.0), ("a", 1.0), ("b", 1.0), ("c", 1.0)]


@pytest.mark.parametrize("make_kernel", [Kernel, _instrumented_kernel])
def test_hook_interleaves_between_timestamp_batches(make_kernel):
    k = make_kernel()
    log = []
    _sleeper(k, log, "a", [1.0, 1.0])
    _sleeper(k, log, "b", [1.0, 1.0])
    k.call_every(1.0, lambda now: log.append(("hook", now)))
    k.run()
    assert log == [
        ("hook", 1.0), ("a", 1.0), ("b", 1.0),
        ("hook", 2.0), ("a", 2.0), ("b", 2.0),
    ]


@pytest.mark.parametrize("make_kernel", [Kernel, _instrumented_kernel])
def test_hook_registered_mid_batch_fires_within_the_batch(make_kernel):
    # A callback dispatched at t may register a hook due exactly at t; the
    # per-event due compare must catch it before the batch's next event.
    k = make_kernel()
    log = []

    def registrar(kk):
        yield kk.timeout(1.0)
        log.append(("registrar", kk.now))
        kk.call_every(5.0, lambda now: log.append(("hook", now)), first=kk.now)

    k.spawn(registrar(k), name="registrar")
    _sleeper(k, log, "b", [1.0])
    k.run()
    assert log == [("registrar", 1.0), ("hook", 1.0), ("b", 1.0)]


def test_fast_and_instrumented_drains_agree():
    logs = []
    for k in _both_kernels():
        log = []
        _sleeper(k, log, "a", [0.5, 0.5, 1.0])
        _sleeper(k, log, "b", [1.0, 1.0])
        k.call_every(0.7, lambda now, log=log: log.append(("hook", now)))
        k.run()
        logs.append((log, k.now, k.events_dispatched))
    assert logs[0] == logs[1]


@pytest.mark.parametrize("make_kernel", [Kernel, _instrumented_kernel])
def test_hook_catches_up_across_an_event_gap(make_kernel):
    # Events at 0.5 and 3.5 with a 1.0 hook: the 3.5 dispatch owes three
    # grid points, each fired with the clock reading its exact due time.
    k = make_kernel()
    seen = []
    k.call_every(1.0, lambda now: seen.append((now, k.now)))

    def proc(kk):
        yield kk.timeout(0.5)
        yield kk.timeout(3.0)

    k.spawn(proc(k))
    k.run()
    assert seen == [(1.0, 1.0), (2.0, 2.0), (3.0, 3.0)]
    assert k.now == 3.5


# -- call_every(first=) grid alignment ----------------------------------------------


def test_first_pins_the_firing_grid_absolutely():
    k = Kernel()
    k.run(until=0.3)  # attach late, off-grid
    fired = []
    k.call_every(2.0, fired.append, first=5.0)

    def ticker(kk):
        while kk.now < 9.8:
            yield kk.timeout(0.5)

    k.spawn(ticker(k))
    k.run()
    assert fired == [5.0, 7.0, 9.0]


def test_first_in_the_past_rejected():
    k = Kernel()
    k.run(until=2.0)
    with pytest.raises(SimulationError, match="in the past"):
        k.call_every(1.0, lambda now: None, first=1.5)


def test_first_exactly_now_fires_on_next_dispatch():
    k = Kernel()
    k.run(until=2.0)
    fired = []
    k.call_every(1.0, fired.append, first=2.0)
    _sleeper(k, [], "a", [0.0])
    k.run()
    assert fired == [2.0]


def test_default_first_is_one_interval_from_attach():
    k = Kernel()
    k.run(until=1.25)
    fired = []
    k.call_every(0.5, fired.append)
    _sleeper(k, [], "a", [1.0])
    k.run()
    assert fired == [1.75, 2.25]


# -- cancellation and empty-schedule edges ------------------------------------------


@pytest.mark.parametrize("make_kernel", [Kernel, _instrumented_kernel])
def test_cancel_every_from_inside_the_hook(make_kernel):
    k = make_kernel()
    fired = []

    def fn(now):
        fired.append(now)
        if len(fired) == 2:
            k.cancel_every(hook)

    hook = k.call_every(1.0, fn)
    _sleeper(k, [], "a", [1.0] * 6)
    k.run()
    assert fired == [1.0, 2.0]
    assert hook.fired == 2


@pytest.mark.parametrize("make_kernel", [Kernel, _instrumented_kernel])
def test_directly_cancelled_hook_leaves_stale_low_cache_harmless(make_kernel):
    # hook.cancel() skips cancel_every()'s cache recompute, leaving
    # _hooks_due stale-LOW: the drain takes the slow branch once, fires
    # nothing, and repairs the cache.  It must never fire the dead hook.
    k = make_kernel()
    fired = []
    hook = k.call_every(1.0, fired.append)
    hook.cancel()
    _sleeper(k, [], "a", [1.0, 1.0, 1.0])
    k.run()
    assert fired == []
    assert k.now == 3.0


def test_hooks_alone_do_not_keep_the_simulation_alive():
    k = Kernel()
    fired = []
    k.call_every(1.0, fired.append)
    k.run()  # empty schedule, no live processes: clean return
    assert fired == []
    assert k.now == 0.0


@pytest.mark.parametrize("make_kernel", [Kernel, _instrumented_kernel])
def test_no_hook_fires_in_the_idle_gap_before_a_deadline(make_kernel):
    k = make_kernel()
    fired = []
    k.call_every(1.0, fired.append)
    _sleeper(k, [], "a", [1.0])
    k.run(until=5.0)
    assert fired == [1.0]
    assert k.now == 5.0


@pytest.mark.parametrize("make_kernel", [Kernel, _instrumented_kernel])
def test_stop_event_leaves_same_timestamp_peers_schedulable(make_kernel):
    # run(until=<event>) stops as soon as the event triggers, even inside
    # a same-timestamp tie; the peers must fire on the next run().
    k = make_kernel()
    log = []
    target = _sleeper(k, log, "target", [1.0])
    _sleeper(k, log, "late", [1.0])
    k.run(until=target)
    assert ("target", 1.0) in log
    k.run()
    assert ("late", 1.0) in log


def test_cache_recomputes_after_cancelling_the_earliest_hook():
    k = Kernel()
    early_fired, late_fired = [], []
    early = k.call_every(1.0, early_fired.append)
    k.call_every(2.5, late_fired.append)
    k.cancel_every(early)
    _sleeper(k, [], "a", [1.0] * 6)
    k.run()
    assert early_fired == []
    assert late_fired == [2.5, 5.0]


# -- allocation budgets of the hot layers ------------------------------------------
#
# Timing-free complement to the perfbench wall-clock split: each probe drives
# a fixed working set through one hot layer and holds it live across the
# closing tracemalloc snapshot, so the count is the number of allocation
# blocks the layer pins per unit of work.  The counts are deterministic for
# a given interpreter but shift with CPython's small-object internals across
# versions, so each is bounded at 1.5x the count recorded on CPython 3.11.7.

ALLOC_SLACK = 1.5
PROBE_EVENTS = 256  # pending timeouts held by the kernel probe
PROBE_RECORDS = 64  # records packed by the stream probe and encoded by the codec probe
PROBE_FRAMES = 32  # frames parsed and held by the frame probe
PROBE_CHAIN = "delta+dict+zlib"


def _alloc_blocks(files, probe) -> int:
    """Live allocation blocks attributable to ``files`` after ``probe(hold)``."""
    # Untracked warm-up pass: first-call caches (struct tables, codec
    # registries, interned codec specs) allocate once per process and would
    # otherwise make the count depend on which tests ran first.
    probe([])
    hold: list = []
    gc.collect()
    tracemalloc.start(1)
    try:
        probe(hold)
        gc.collect()
        snapshot = tracemalloc.take_snapshot()
    finally:
        tracemalloc.stop()
    snapshot = snapshot.filter_traces([tracemalloc.Filter(True, f) for f in files])
    return sum(stat.count for stat in snapshot.statistics("filename"))


def _probe_kernel(hold: list) -> None:
    kernel = Kernel()
    for i in range(PROBE_EVENTS):
        kernel.timeout(float(i))
    hold.append(kernel)


def _probe_stream(hold: list) -> None:
    builder = packer_mod.EventPackBuilder(
        app_id=0,
        rank=0,
        capacity_bytes=16 + 40 * PROBE_RECORDS,
        chain=build_chain(PROBE_CHAIN),
    )
    record = CallRecord("MPI_Send", 0.0, 1e-6, 0, 0, 4, 1, 7, 1024)
    for _ in range(PROBE_RECORDS):
        builder.add(record)
    hold.append(builder)


def _probe_codec(hold: list) -> None:
    encoder = build_chain(PROBE_CHAIN)
    hold.append(encoder.encode(bytes(40 * PROBE_RECORDS), now=0.0))


def _probe_frame(hold: list) -> None:
    blob = frame_mod.build_frame(
        0, 0, PROBE_RECORDS, bytes(40 * PROBE_RECORDS), codec="delta"
    )
    hold.append([frame_mod.parse_frame(blob) for _ in range(PROBE_FRAMES)])
    hold.append(blob)


def test_kernel_allocations_within_budget():
    files = (kernel_mod.__file__, process_mod.__file__, primitives_mod.__file__)
    assert 0 < _alloc_blocks(files, _probe_kernel) <= ALLOC_SLACK * 1029


def test_stream_pack_build_allocations_within_budget():
    files = (stream_mod.__file__, packer_mod.__file__, interceptor_mod.__file__)
    assert _alloc_blocks(files, _probe_stream) <= ALLOC_SLACK * 2


def test_codec_encode_allocations_within_budget():
    assert _alloc_blocks((stages_mod.__file__,), _probe_codec) <= ALLOC_SLACK * 4


def test_frame_parse_allocations_within_budget():
    assert 0 < _alloc_blocks((frame_mod.__file__,), _probe_frame) <= ALLOC_SLACK * 322
