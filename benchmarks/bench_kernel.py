"""Experiment ``kernel`` — discrete-event kernel microbenchmarks.

Not a paper artifact: these keep the substrate honest.  A full urban
round schedules on the order of 10⁵ events; the kernel must sustain
hundreds of thousands of events per second for the 30-round experiment
to stay interactive.

Each benchmark also records its headline number into
``BENCH_kernel.json`` (via ``bench_json_sink``) so the perf trajectory
is machine-readable across PRs.
"""

import time

from repro.geom import Vec2
from repro.mac.frames import DataFrame, NodeId
from repro.mac.interface import NetworkInterface
from repro.mac.medium import Medium, _Arrival
from repro.radio.channel import Channel, LinkSample
from repro.radio.fading import RicianFading
from repro.radio.modulation import rate_by_name
from repro.radio.pathloss import LogDistancePathLoss
from repro.radio.phy import RadioConfig
from repro.radio.shadowing import (
    CompositeShadowing,
    GudmundsonShadowing,
    TemporalTxShadowing,
)
from repro.sim import Signal, Simulator, gc_paused


def test_event_throughput(benchmark, bench_json_sink):
    """Schedule-and-drain 50k events.

    Runs under the kernel's ``gc_paused()`` bulk-load mode: scheduling
    50k events up front otherwise triggers full cyclic-GC collections
    that re-scan the entire pending set mid-burst and dominate the
    measurement (``run()`` already pauses collection internally; the
    context manager extends that to the pre-load loop, which is how any
    bulk-loading driver is expected to use the kernel).
    """

    def run():
        sim = Simulator()
        with gc_paused():
            for i in range(50_000):
                sim.schedule(i * 1e-4, lambda: None)
            sim.run()
        return sim.now

    result = benchmark(run)
    assert result > 0
    t0 = time.perf_counter()
    run()
    bench_json_sink(
        "kernel.event_throughput",
        {"events": 50_000, "events_per_s": round(50_000 / (time.perf_counter() - t0))},
    )


def test_protocol_step(benchmark, bench_json_sink):
    """Tentpole pin: pooled protocol stepping vs the legacy callback path.

    One full urban round (real channel, mobility and C-ARQ protocol),
    run twice: with the :class:`~repro.core.engine.ProtocolPool` as the
    medium's coalesced delivery sink (default — one coverage-sweep event
    per AP broadcast, SoA deadlines) and with the legacy per-vehicle
    receive callbacks plus cancel/re-schedule coverage watchdogs.  The
    result rows are bit-identical (pinned by the scenario A/B suite);
    only the event traffic differs.  Recorded as ``*_ratio``: full-round
    wall clock includes channel sampling, so the pool's share jitters
    too much for the CI ``*speedup*`` gate.
    """
    import dataclasses

    from repro.scenarios.urban import UrbanScenarioConfig, build_urban_round

    def round_seconds(batched_delivery: bool) -> float:
        cfg = UrbanScenarioConfig(seed=17, round_duration_s=60.0)
        cfg = dataclasses.replace(
            cfg,
            radio=dataclasses.replace(
                cfg.radio, batched_delivery=batched_delivery
            ),
        )
        ctx = build_urban_round(cfg, 0)
        t0 = time.perf_counter()
        ctx.run()
        return time.perf_counter() - t0

    round_seconds(True)  # warm-up
    pooled = benchmark.pedantic(
        round_seconds, args=(True,), rounds=3, iterations=1
    )
    legacy = round_seconds(False)
    bench_json_sink(
        "kernel.protocol_step",
        {
            "round_s": 60.0,
            "pooled_s": round(pooled, 4),
            "legacy_s": round(legacy, 4),
            "pool_ratio": round(legacy / pooled, 2),
        },
    )
    assert pooled > 0 and legacy > 0


def test_process_context_switching(benchmark):
    """10k generator-process wake-ups."""

    def run():
        sim = Simulator()
        counter = []

        def ticker():
            for _ in range(10_000):
                yield 0.001
            counter.append(sim.now)

        sim.process(ticker())
        sim.run()
        return counter[0]

    result = benchmark(run)
    assert result > 9.9


def test_signal_fanout(benchmark):
    """One signal waking 1000 waiting processes, 10 times."""

    def run():
        sim = Simulator()
        woken = []
        signal = Signal("broadcast")

        def waiter():
            for _ in range(10):
                value = yield signal
                woken.append(value)

        for _ in range(1000):
            sim.process(waiter())
        for shot in range(10):
            sim.schedule(float(shot + 1), signal.trigger, shot)
        sim.run()
        return len(woken)

    assert benchmark(run) == 10_000


def _line_network(
    n_nodes: int, *, fast_path: bool, batch: bool, cross: bool = True,
    spacing_m: float = 25.0, seed: int = 11,
):
    """One medium with *n_nodes* static interfaces spaced along a line.

    The channel is the representative urban stack — Gudmundson +
    transmitter-anchored OU shadowing and Rician fading — so the storm
    exercises the full per-frame reception pipeline the scenarios run,
    not just path-loss arithmetic.  The default 25 m spacing makes the
    broadcast neighborhoods dense (~100 reachable candidates), the
    regime the batch kernel targets; pass a wider spacing for the
    sparse O(reachable) culling pin.
    """
    sim = Simulator(seed=seed)
    channel = Channel(
        pathloss=LogDistancePathLoss(exponent=3.0, reference_loss_db=40.0),
        shadowing=CompositeShadowing(
            [
                GudmundsonShadowing(
                    sim.streams.get("shadowing"),
                    sigma_db=4.0,
                    decorrelation_distance_m=20.0,
                ),
                TemporalTxShadowing(
                    sim.streams.get("shadowing-common"),
                    sigma_db=3.0,
                    tau_s=2.0,
                    hub=NodeId(1),
                ),
            ]
        ),
        fading=RicianFading(sim.streams.get("fading"), k_factor=4.0),
        rng=sim.streams.get("channel"),
    )
    medium = Medium(
        sim, channel, fast_path=fast_path, batch=batch,
        cross_broadcast_batch=cross,
    )
    ifaces = []
    for index in range(n_nodes):
        position = Vec2(spacing_m * index, 0.0)
        ifaces.append(
            NetworkInterface(
                sim,
                medium,
                NodeId(index + 1),
                (lambda p: (lambda: p))(position),
                RadioConfig(),
                sim.streams.get(f"mac-{index}"),
                name=f"if{index + 1}",
            )
        )
    return sim, medium, ifaces


def _broadcast_storm(
    n_nodes: int, broadcasts: int, *, fast_path: bool, batch: bool,
    cross: bool = True, spacing_m: float = 25.0,
) -> float:
    """Wall-clock seconds for *broadcasts* medium-level transmissions."""
    sim, medium, ifaces = _line_network(
        n_nodes, fast_path=fast_path, batch=batch, cross=cross,
        spacing_m=spacing_m,
    )
    rate = rate_by_name("dsss-11")
    frame = DataFrame(
        src=ifaces[0].node_id,
        dst=ifaces[-1].node_id,
        size_bytes=1000,
        flow_dst=ifaces[-1].node_id,
        seq=1,
    )
    for i in range(broadcasts):
        tx = ifaces[i % n_nodes]
        shifted = DataFrame(
            src=tx.node_id, dst=frame.dst, size_bytes=1000, flow_dst=frame.dst, seq=i
        )
        sim.schedule(i * 2e-3, medium.transmit, tx, shifted, rate)
    t0 = time.perf_counter()
    sim.run()
    return time.perf_counter() - t0


def test_medium_broadcast_batch_kernel(benchmark, bench_json_sink):
    """The tentpole pin: dense broadcasts run as one NumPy batch.

    200 nodes on a 5 km line with the full stochastic channel stack.
    Three arms, all bit-identical by the A/B pins: the batch kernel
    (default), PR 3's scalar fast path (culling, per-candidate Python),
    and the fully scalar exhaustive reference.  The batch kernel must
    clearly beat the scalar fast path at this density and crush the
    exhaustive path; N=50 is recorded for the scaling story.
    """
    # Warm NumPy's dispatch caches off the clock so the measured batch
    # arm is not charged for one-time import/ufunc setup.
    _broadcast_storm(50, 40, fast_path=True, batch=True)
    batch = benchmark.pedantic(
        _broadcast_storm, args=(200, 400),
        kwargs={"fast_path": True, "batch": True},
        rounds=1, iterations=1,
    )
    # The reference arms are the true pre-coalescer legacy paths: the
    # cross-broadcast queue stays off so they measure PR 3/PR 6 shapes.
    fast = _broadcast_storm(200, 400, fast_path=True, batch=False, cross=False)
    exhaustive = _broadcast_storm(
        200, 400, fast_path=False, batch=False, cross=False
    )
    small_batch = _broadcast_storm(50, 400, fast_path=True, batch=True)
    small_fast = _broadcast_storm(
        50, 400, fast_path=True, batch=False, cross=False
    )
    small_exhaustive = _broadcast_storm(
        50, 400, fast_path=False, batch=False, cross=False
    )
    bench_json_sink(
        "medium.broadcast_storm",
        {
            "nodes": 200,
            "broadcasts": 400,
            "batch_s": round(batch, 4),
            "fast_s": round(fast, 4),
            "exhaustive_s": round(exhaustive, 4),
            "speedup": round(exhaustive / batch, 2),
            "batch_vs_fast_speedup": round(fast / batch, 2),
            "n50_batch_s": round(small_batch, 4),
            "n50_fast_s": round(small_fast, 4),
            "n50_exhaustive_s": round(small_exhaustive, 4),
            # Named "ratio", not "speedup", deliberately: sub-second
            # single-iteration timings jitter too much on shared runners
            # for the CI regression gate (which keys on *speedup*).
            "n50_ratio": round(small_exhaustive / small_batch, 2),
        },
    )
    # Generous floors (CI machines are noisy); the committed
    # BENCH_kernel.json records the actual measured ratios.
    assert exhaustive / batch > 2.0
    assert fast / batch > 1.3


def test_medium_broadcast_o_reachable_sparse(bench_json_sink):
    """PR 3's pin, kept alive: sparse broadcasts stay O(reachable).

    200 nodes at 60 m spacing (12 km line) with the batch kernel off —
    each broadcast reaches only its ~40-node neighborhood, so the
    culling fast path alone must beat the exhaustive path by a wide
    margin.  This guards the neighbor index + reachability bound
    independently of the batch kernel's dense-regime numbers above.
    """
    fast = _broadcast_storm(
        200, 400, fast_path=True, batch=False, cross=False, spacing_m=60.0
    )
    exhaustive = _broadcast_storm(
        200, 400, fast_path=False, batch=False, cross=False, spacing_m=60.0
    )
    bench_json_sink(
        "medium.broadcast_storm_sparse",
        {
            "nodes": 200,
            "broadcasts": 400,
            "spacing_m": 60.0,
            "fast_s": round(fast, 4),
            "exhaustive_s": round(exhaustive, 4),
            "cull_speedup": round(exhaustive / fast, 2),
        },
    )
    assert exhaustive / fast > 1.5


def test_broadcast_storm_counter_snapshot(bench_json_sink):
    """Observability satellite: the storm's shape, in counters.

    One dense and one sparse storm under ``obs.instrumented()``, with
    the medium/kernel counter snapshot recorded next to the wall-clock
    numbers above — so the perf record says not just *how fast* but
    *how much work*: events fired, candidates before/after the cull,
    batch-vs-scalar broadcast split, batch lane distribution.  The
    regression gate only compares ``*speedup*`` keys, so these are
    informational (and tolerated by ``check_bench_regression.py``).
    """
    from repro import obs

    def storm_snapshot(spacing_m: float) -> dict:
        with obs.instrumented():
            _broadcast_storm(
                100, 200, fast_path=True, batch=True, spacing_m=spacing_m
            )
            snap = obs.registry().snapshot()
        before = snap["medium.candidates_before_cull"]["value"]
        after = snap["medium.candidates_after_cull"]["value"]
        lanes = snap["medium.batch_lanes"]
        return {
            "events_fired": snap["sim.events_fired"]["value"],
            "broadcasts": snap["medium.broadcasts"]["value"],
            "batch_broadcasts": snap["medium.batch_broadcasts"]["value"],
            "scalar_broadcasts": snap["medium.scalar_broadcasts"]["value"],
            "candidates_before_cull": before,
            "candidates_after_cull": after,
            "cull_keep_pct": round(100.0 * after / before, 1) if before else 0.0,
            "batch_lanes_mean": (
                round(lanes["total"] / lanes["count"], 1) if lanes["count"] else 0.0
            ),
        }

    dense = storm_snapshot(25.0)
    sparse = storm_snapshot(60.0)
    assert dense["broadcasts"] == sparse["broadcasts"] == 200
    # Dense 25 m spacing is the batch regime; sparse keeps fewer
    # neighbors per broadcast, so the cull must discard more.
    assert dense["batch_broadcasts"] > 0
    assert sparse["candidates_after_cull"] < dense["candidates_after_cull"]
    bench_json_sink(
        "medium.storm_counters",
        {"nodes": 100, "broadcasts": 200, "dense": dense, "sparse": sparse},
    )


def _ap_cluster_network(*, cross: bool, n_aps: int = 6, clients_per_ap: int = 4):
    """The multi-AP shape: isolated infostation cells along a long road.

    Each AP reaches only its own handful of clients — below the
    ``batch_min_candidates`` floor, so without cross-broadcast
    coalescing every delivery samples the channel scalar, one
    ``channel.sample`` call per client.  The 5 km cell spacing is far
    beyond the path-loss reach radius (~1.7 km at these defaults), so
    the neighbor grid culls the other cells and the candidate sets stay
    genuinely small.
    """
    sim = Simulator(seed=7)
    channel = Channel(
        pathloss=LogDistancePathLoss(exponent=3.0, reference_loss_db=40.0),
        shadowing=CompositeShadowing(
            [
                GudmundsonShadowing(
                    sim.streams.get("shadowing"),
                    sigma_db=4.0,
                    decorrelation_distance_m=20.0,
                ),
                TemporalTxShadowing(
                    sim.streams.get("shadowing-common"),
                    sigma_db=3.0,
                    tau_s=2.0,
                    hub=NodeId(1),
                ),
            ]
        ),
        fading=RicianFading(sim.streams.get("fading"), k_factor=4.0),
        rng=sim.streams.get("channel"),
    )
    medium = Medium(
        sim, channel, fast_path=True, batch=True, cross_broadcast_batch=cross
    )
    aps = []
    node = 0
    for cell in range(n_aps):
        base = 5000.0 * cell
        for k in range(clients_per_ap + 1):
            node += 1
            position = Vec2(base + 15.0 * k, 0.0)
            iface = NetworkInterface(
                sim,
                medium,
                NodeId(node),
                (lambda p: (lambda: p))(position),
                RadioConfig(),
                sim.streams.get(f"mac-{node}"),
                name=f"n{node}",
            )
            if k == 0:
                aps.append(iface)
    return sim, medium, aps


def _ap_cluster_storm(cross: bool, waves: int = 50) -> float:
    """Wall-clock seconds for *waves* rounds of simultaneous AP beacons.

    All APs transmit at the same instant each wave — the multi-AP
    beaconing pattern — so the coalescer can pool their sub-floor
    candidate sets into one cross-broadcast sampling pass.
    """
    sim, medium, aps = _ap_cluster_network(cross=cross)
    rate = rate_by_name("dsss-11")
    seq = 0
    for wave in range(waves):
        for ap in aps:
            seq += 1
            frame = DataFrame(
                src=ap.node_id,
                dst=NodeId(int(ap.node_id) + 1),
                size_bytes=200,
                flow_dst=NodeId(int(ap.node_id) + 1),
                seq=seq,
            )
            sim.schedule(wave * 2e-3, medium.transmit, ap, frame, rate)
    t0 = time.perf_counter()
    sim.run()
    return time.perf_counter() - t0


def test_cross_broadcast_scalar_floor(bench_json_sink):
    """Reception-ladder rung 5 pin: coalescing lifts the scalar floor.

    Six APs with four clients each beacon simultaneously, 50 waves.
    Every individual broadcast carries 4 candidates — under the
    ``batch_min_candidates=8`` floor, so the pre-coalescer medium runs
    4 scalar ``channel.sample`` calls per broadcast (1200 total).  With
    ``cross_broadcast_batch`` on the six same-instant candidate sets
    concatenate into one 24-lane multibatch pass and the scalar floor
    disappears entirely.  The call counts are deterministic, so the
    recorded ``scalar_call_speedup`` is exact and safely inside the CI
    regression gate's tolerance; wall times are informational (the
    window is sub-second and jittery on shared runners).
    """
    from repro import obs

    def counted(cross: bool):
        with obs.instrumented():
            seconds = _ap_cluster_storm(cross)
            snapshot = obs.registry().snapshot()
        return seconds, snapshot

    _ap_cluster_storm(True)  # warm NumPy dispatch caches off the clock
    coalesced_s, coalesced = counted(True)
    legacy_s, legacy = counted(False)
    legacy_calls = legacy["medium.scalar_floor_calls"]["value"]
    coalesced_calls = coalesced["medium.scalar_floor_calls"]["value"]
    pooled = coalesced["medium.coalesced_broadcasts"]["value"]
    # The exact deterministic shape: 50 waves x 6 APs x 4 clients
    # sampled scalar without the coalescer; all 300 broadcasts pooled
    # (and off the scalar floor) with it.
    assert legacy_calls == 50 * 6 * 4
    assert pooled == 50 * 6
    # The acceptance bar: the multi-AP window's scalar channel.sample
    # count must drop at least 5x (here it drops to zero).
    assert legacy_calls >= 5 * max(coalesced_calls, 1)
    bench_json_sink(
        "kernel.cross_broadcast",
        {
            "aps": 6,
            "clients_per_ap": 4,
            "waves": 50,
            "coalesced_s": round(coalesced_s, 4),
            "legacy_s": round(legacy_s, 4),
            "scalar_calls_legacy": legacy_calls,
            "scalar_calls_coalesced": coalesced_calls,
            "scalar_call_speedup": round(
                legacy_calls / max(coalesced_calls, 1), 2
            ),
            "coalesced_broadcasts": pooled,
        },
    )


def test_lane_scratch_alloc_delta(bench_json_sink):
    """The small-array-churn pin: warm candidate gathers allocate nothing.

    ``Medium._receive_batch`` and the coalescer's drain write candidate
    lanes into one medium-owned :class:`~repro.radio.batch.LaneScratch`
    instead of building per-broadcast ``np.array`` temporaries.  Once
    the scratch has grown to the storm's peak lane count, every further
    ``reserve`` must hand back the same buffers — tracemalloc pins the
    allocation delta of 10k warm gathers at (near) zero, while a
    capacity-crossing reserve still visibly reallocates.
    """
    import tracemalloc

    from repro.radio.batch import LaneScratch

    scratch = LaneScratch()
    scratch.reserve(200)  # warm to the peak (rounds up to 256 capacity)
    warm_xs, warm_gains = scratch.rx_xs, scratch.rx_gains
    tracemalloc.start()
    base = tracemalloc.get_traced_memory()[0]
    for lanes in (1, 8, 64, 200, 256):
        for _ in range(2_000):
            scratch.reserve(lanes)
    warm_delta = tracemalloc.get_traced_memory()[0] - base
    assert scratch.rx_xs is warm_xs and scratch.rx_gains is warm_gains
    scratch.reserve(4096)  # crossing capacity must still grow for real
    grow_delta = tracemalloc.get_traced_memory()[0] - base
    tracemalloc.stop()
    assert scratch.rx_xs is not warm_xs
    # 10k warm reserves: no array churn (tolerance covers tracemalloc's
    # own bookkeeping residue, far below one 64-lane float64 column).
    assert warm_delta < 512
    # The growth path really reallocated the float64/int64 columns.
    assert grow_delta > 4096 * 8
    bench_json_sink(
        "kernel.lane_scratch_alloc",
        {
            "warm_reserves": 10_000,
            "warm_capacity": 256,
            "warm_alloc_bytes": warm_delta,
            "grow_to": 4096,
            "grow_alloc_bytes": grow_delta,
        },
    )


def test_hot_object_alloc_slots(benchmark, bench_json_sink):
    """The satellite pin: hot per-frame objects stay ``__slots__``-lean.

    Every broadcast allocates one ``LinkSample`` + ``_Arrival`` per
    surviving receiver and the queue churns ``Event`` objects; slotted
    classes drop the per-instance dict.  Measured against dict-based
    stand-ins of the same shape so the delta is visible in the record.
    """

    import sys
    from dataclasses import dataclass

    @dataclass(frozen=True)
    class DictSample:  # LinkSample minus slots=True — the control
        rx_power_dbm: float
        mean_rx_power_dbm: float
        distance_m: float

    class DictArrival:  # _Arrival minus __slots__ — the control
        def __init__(self, frame, rate, sample, start, end):
            self.frame = frame
            self.rate = rate
            self.sample = sample
            self.start = start
            self.end = end
            self.interferers_dbm = []
            self.half_duplex = False

    frame = DataFrame(
        src=NodeId(1), dst=NodeId(2), size_bytes=1000, flow_dst=NodeId(2), seq=1
    )
    rate = rate_by_name("dsss-11")

    def alloc_slotted(count=20_000):
        for i in range(count):
            sample = LinkSample(-70.0 - i, -72.0, 120.0)
            _Arrival(frame, rate, sample, 0.0, 1.0)
        return count

    def alloc_dict(count=20_000):
        for i in range(count):
            sample = DictSample(-70.0 - i, -72.0, 120.0)
            DictArrival(frame, rate, sample, 0.0, 1.0)
        return count

    assert LinkSample.__slots__ and _Arrival.__slots__
    assert not hasattr(LinkSample(-70.0, -72.0, 1.0), "__dict__")
    benchmark(alloc_slotted)
    alloc_dict()  # warm the control off the clock too
    t0 = time.perf_counter()
    alloc_slotted()
    slotted_s = time.perf_counter() - t0
    t0 = time.perf_counter()
    alloc_dict()
    dict_s = time.perf_counter() - t0
    slotted_bytes = sys.getsizeof(LinkSample(-70.0, -72.0, 1.0))
    dict_sample = DictSample(-70.0, -72.0, 1.0)
    dict_bytes = sys.getsizeof(dict_sample) + sys.getsizeof(dict_sample.__dict__)
    bench_json_sink(
        "kernel.hot_object_alloc",
        {
            "objects": 40_000,
            "slots_s": round(slotted_s, 4),
            "dict_control_s": round(dict_s, 4),
            "slots_gain": round(dict_s / slotted_s, 2),
            "sample_bytes_slots": slotted_bytes,
            "sample_bytes_dict": dict_bytes,
        },
    )
