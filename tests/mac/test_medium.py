"""Shared-medium behaviour: delivery, interference, half-duplex, sensing."""

import numpy as np
import pytest

from repro.geom import Vec2
from repro.mac.frames import DataFrame, NodeId
from repro.mac.interface import NetworkInterface
from repro.mac.medium import LossCause, Medium
from repro.mac.timing import frame_airtime
from repro.radio.channel import Channel
from repro.radio.modulation import rate_by_name
from repro.radio.pathloss import LogDistancePathLoss
from repro.radio.phy import RadioConfig
from repro.sim import Simulator
from repro.trace.capture import TraceCollector

RATE = rate_by_name("dsss-1")


def make_net(positions, *, trace=None, seed=0):
    """A sim + medium + one interface per given position."""
    sim = Simulator(seed=seed)
    channel = Channel(
        pathloss=LogDistancePathLoss(exponent=3.0, reference_loss_db=40.0),
        rng=sim.streams.get("channel"),
    )
    medium = Medium(sim, channel, trace=trace)
    ifaces = []
    for index, position in enumerate(positions):
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


def data_frame(src, dst, seq=1, size=500):
    return DataFrame(src=src, dst=dst, size_bytes=size, flow_dst=dst, seq=seq)


class TestDelivery:
    def test_nearby_frame_delivered(self):
        sim, _, (a, b) = make_net([Vec2(0, 0), Vec2(20, 0)])
        received = []
        b.add_receive_callback(lambda frame, info: received.append((frame, info)))
        a.send(data_frame(a.node_id, b.node_id))
        sim.run()
        assert len(received) == 1
        frame, info = received[0]
        assert frame.seq == 1
        assert info.snr_db > 20.0

    def test_promiscuous_reception(self):
        """Frames addressed to others are still delivered (monitor mode)."""
        sim, _, (a, b, c) = make_net([Vec2(0, 0), Vec2(20, 0), Vec2(40, 0)])
        at_c = []
        c.add_receive_callback(lambda frame, info: at_c.append(frame))
        a.send(data_frame(a.node_id, b.node_id))
        sim.run()
        assert len(at_c) == 1

    def test_far_node_hears_nothing(self):
        sim, _, (a, b) = make_net([Vec2(0, 0), Vec2(50_000, 0)])
        received = []
        b.add_receive_callback(lambda frame, info: received.append(frame))
        a.send(data_frame(a.node_id, b.node_id))
        sim.run()
        assert received == []

    def test_delivery_happens_after_airtime(self):
        sim, _, (a, b) = make_net([Vec2(0, 0), Vec2(20, 0)])
        times = []
        b.add_receive_callback(lambda frame, info: times.append(sim.now))
        a.send(data_frame(a.node_id, b.node_id, size=1062))
        sim.run()
        assert len(times) == 1
        assert times[0] >= frame_airtime(1062, RATE)

    def test_counters(self):
        sim, _, (a, b) = make_net([Vec2(0, 0), Vec2(20, 0)])
        a.send(data_frame(a.node_id, b.node_id, size=500))
        sim.run()
        assert a.frames_sent == 1
        assert a.bytes_sent == 500
        assert b.frames_received == 1


class TestInterference:
    def test_simultaneous_transmissions_collide(self):
        sim, medium, (a, b, c) = make_net([Vec2(0, 0), Vec2(20, 0), Vec2(40, 0)])
        received = []
        b.add_receive_callback(lambda frame, info: received.append(frame))
        # Bypass CSMA: both frames hit the air at the same instant.
        sim.schedule(0.0, medium.transmit, a, data_frame(a.node_id, b.node_id, 1), RATE)
        sim.schedule(0.0, medium.transmit, c, data_frame(c.node_id, b.node_id, 2), RATE)
        sim.run()
        assert received == []

    def test_collision_recorded_as_interference(self):
        trace = TraceCollector()
        sim, medium, (a, b, c) = make_net(
            [Vec2(0, 0), Vec2(20, 0), Vec2(40, 0)], trace=trace
        )
        sim.schedule(0.0, medium.transmit, a, data_frame(a.node_id, b.node_id, 1), RATE)
        sim.schedule(0.0, medium.transmit, c, data_frame(c.node_id, b.node_id, 2), RATE)
        sim.run()
        causes = {record.cause for record in trace.rx_records if record.node == b.node_id}
        assert causes == {LossCause.INTERFERENCE}

    def test_csma_avoids_the_collision(self):
        """The same two senders using the MAC queue do NOT collide."""
        sim, _, (a, b, c) = make_net([Vec2(0, 0), Vec2(20, 0), Vec2(40, 0)])
        received = []
        b.add_receive_callback(lambda frame, info: received.append(frame))
        a.send(data_frame(a.node_id, b.node_id, 1))
        c.send(data_frame(c.node_id, b.node_id, 2))
        sim.run()
        assert len(received) == 2


class TestHalfDuplex:
    def test_receiver_transmitting_loses_arrival(self):
        trace = TraceCollector()
        sim, medium, (a, b) = make_net([Vec2(0, 0), Vec2(20, 0)], trace=trace)
        received = []
        b.add_receive_callback(lambda frame, info: received.append(frame))
        # B starts a long transmission; A's frame arrives mid-burst.
        b.send(data_frame(b.node_id, a.node_id, 9, size=2000))
        sim.schedule(
            0.005, medium.transmit, a, data_frame(a.node_id, b.node_id, 1), RATE
        )
        sim.run()
        assert received == []
        b_losses = [
            record.cause
            for record in trace.rx_records
            if record.node == b.node_id and record.frame.seq == 1
        ]
        assert b_losses == [LossCause.HALF_DUPLEX]


class TestCarrierSense:
    def test_medium_busy_during_transmission(self):
        sim, medium, (a, b) = make_net([Vec2(0, 0), Vec2(20, 0)])
        samples = []
        a.send(data_frame(a.node_id, b.node_id, size=2000))
        sim.schedule(0.008, lambda: samples.append(medium.busy(b)))
        sim.run()
        assert samples == [True]

    def test_medium_idle_when_quiet(self):
        _, medium, (a, b) = make_net([Vec2(0, 0), Vec2(20, 0)])
        assert not medium.busy(a)
        assert not medium.busy(b)

    def test_own_transmission_is_busy(self):
        sim, medium, (a, b) = make_net([Vec2(0, 0), Vec2(20, 0)])
        samples = []
        a.send(data_frame(a.node_id, b.node_id, size=2000))
        sim.schedule(0.008, lambda: samples.append(medium.busy(a)))
        sim.run()
        assert samples == [True]


class TestQueue:
    def test_fifo_order(self):
        sim, _, (a, b) = make_net([Vec2(0, 0), Vec2(20, 0)])
        received = []
        b.add_receive_callback(lambda frame, info: received.append(frame.seq))
        for seq in range(1, 6):
            a.send(data_frame(a.node_id, b.node_id, seq))
        sim.run()
        assert received == [1, 2, 3, 4, 5]

    def test_flush_drops_pending(self):
        sim, _, (a, b) = make_net([Vec2(0, 0), Vec2(20, 0)])
        for seq in range(1, 6):
            a.send(data_frame(a.node_id, b.node_id, seq))
        dropped = a.flush()
        assert dropped == 5 or dropped == 4  # first may already be contending
        sim.run()
        assert a.frames_sent <= 1

    def test_src_mismatch_rejected(self):
        from repro.errors import MacError

        _, _, (a, b) = make_net([Vec2(0, 0), Vec2(20, 0)])
        with pytest.raises(MacError):
            a.send(data_frame(b.node_id, a.node_id))

    def test_double_attach_rejected(self):
        from repro.errors import MacError

        sim, medium, (a, b) = make_net([Vec2(0, 0), Vec2(20, 0)])
        with pytest.raises(MacError):
            medium.attach(a)


class TestTraceHooks:
    def test_tx_and_rx_recorded(self):
        trace = TraceCollector()
        sim, _, (a, b) = make_net([Vec2(0, 0), Vec2(20, 0)], trace=trace)
        a.send(data_frame(a.node_id, b.node_id, 7))
        sim.run()
        assert len(trace.tx_records) == 1
        assert trace.tx_records[0].node == a.node_id
        delivered = [r for r in trace.rx_records if r.delivered]
        assert [r.frame.seq for r in delivered] == [7]


class TestCarrierSenseAggregation:
    """Concurrent arrivals add up in the energy detector (dbm_sum)."""

    def test_two_subthreshold_arrivals_sense_busy_together(self):
        # With exponent 3 / 40 dB reference loss / 15 dBm EIRP, the mean
        # power at 251 m is ≈ -97.2 dBm: individually below the -96 dBm
        # carrier-sense threshold, but two of them sum to ≈ -94.2 dBm.
        sim, medium, (listener, left, right) = make_net(
            [Vec2(0, 0), Vec2(-251, 0), Vec2(251, 0)]
        )
        samples = []
        sim.schedule(
            0.0, medium.transmit, left, data_frame(left.node_id, listener.node_id, 1), RATE
        )
        sim.schedule(0.001, lambda: samples.append(medium.busy(listener)))
        sim.schedule(
            0.002, medium.transmit, right, data_frame(right.node_id, listener.node_id, 2), RATE
        )
        sim.schedule(0.003, lambda: samples.append(medium.busy(listener)))
        sim.run()
        assert samples == [False, True]


class TestReceptionFastPath:
    """The culling fast path must match the exhaustive path bit for bit."""

    def run_grid(self, *, fast_path):
        """A 30-node line network: one broadcast from the west end."""
        sim = Simulator(seed=7)
        channel = Channel(
            pathloss=LogDistancePathLoss(exponent=3.0, reference_loss_db=40.0),
            rng=sim.streams.get("channel"),
        )
        trace = TraceCollector()
        medium = Medium(sim, channel, trace=trace, fast_path=fast_path)
        ifaces = []
        for index in range(30):
            position = Vec2(60.0 * index, 0.0)
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
        ifaces[0].send(data_frame(ifaces[0].node_id, ifaces[-1].node_id))
        sim.run()
        return [(r.node, r.cause, r.snr_db, r.rx_power_dbm) for r in trace.rx_records]

    def test_fast_and_exhaustive_records_identical(self):
        assert self.run_grid(fast_path=True) == self.run_grid(fast_path=False)

    def test_fast_path_culls_far_receivers(self):
        records = self.run_grid(fast_path=True)
        assert records  # near receivers hear the frame...
        heard = {node for node, *_ in records}
        assert NodeId(30) not in heard  # ...the far end of the line does not

    def test_far_node_culled_without_perturbing_near_links(self):
        """Removing a distant interface must not change near outcomes."""

        def run(with_far_node):
            sim = Simulator(seed=3)
            channel = Channel(
                pathloss=LogDistancePathLoss(exponent=3.0, reference_loss_db=40.0),
                rng=sim.streams.get("channel"),
            )
            trace = TraceCollector()
            medium = Medium(sim, channel, trace=trace)
            positions = [Vec2(0, 0), Vec2(30, 0)]
            if with_far_node:
                positions.append(Vec2(80_000, 0))
            ifaces = []
            for index, position in enumerate(positions):
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
            ifaces[0].send(data_frame(ifaces[0].node_id, ifaces[1].node_id))
            sim.run()
            return [(r.node, r.snr_db, r.rx_power_dbm) for r in trace.rx_records]

        assert run(True) == run(False)


class TestBatchKernel:
    """The vectorized batch reception path vs the scalar reference."""

    def _storm_records(self, *, fast_path, batch, n_nodes=30, broadcasts=120):
        from repro.mac.frames import NodeId
        from repro.radio.fading import RicianFading
        from repro.radio.shadowing import (
            CompositeShadowing,
            GudmundsonShadowing,
            TemporalTxShadowing,
        )

        sim = Simulator(seed=42)
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
        trace = TraceCollector()
        medium = Medium(sim, channel, trace=trace, fast_path=fast_path, batch=batch)
        rate = rate_by_name("dsss-11")
        ifaces = []
        for i in range(n_nodes):
            pos = Vec2(55.0 * i, (i % 3) * 7.0)
            ifaces.append(
                NetworkInterface(
                    sim,
                    medium,
                    NodeId(i + 1),
                    (lambda p: (lambda: p))(pos),
                    RadioConfig(),
                    sim.streams.get(f"mac-{i}"),
                    name=f"if{i + 1}",
                )
            )
        for k in range(broadcasts):
            tx = ifaces[k % n_nodes]
            frame = data_frame(tx.node_id, ifaces[(k + 1) % n_nodes].node_id, seq=k)
            sim.schedule(k * 1.7e-3, medium.transmit, tx, frame, rate)
        sim.run()
        return [
            (r.time, int(r.node), r.frame.seq, r.cause, r.snr_db, r.rx_power_dbm)
            for r in trace.rx_records
        ]

    def test_batch_bit_identical_to_scalar_fast_and_exhaustive(self):
        batch = self._storm_records(fast_path=True, batch=True)
        scalar_fast = self._storm_records(fast_path=True, batch=False)
        exhaustive = self._storm_records(fast_path=False, batch=False)
        batch_exhaustive = self._storm_records(fast_path=False, batch=True)
        assert batch  # the topology must actually produce receptions
        assert batch == scalar_fast == exhaustive == batch_exhaustive

    def test_batch_knob_exposed(self):
        _, medium, _ = make_net([Vec2(0, 0), Vec2(10, 0)])
        assert medium.batch is True
        sim = Simulator()
        channel = Channel(rng=sim.streams.get("channel"))
        assert Medium(sim, channel, batch=False).batch is False

    def test_small_candidate_sets_use_scalar_loop(self):
        # Below batch_min_candidates the scalar loop runs — delivery
        # still works end to end.
        trace = TraceCollector()
        sim, medium, ifaces = make_net([Vec2(0, 0), Vec2(30, 0)], trace=trace)
        ifaces[0].send(data_frame(ifaces[0].node_id, ifaces[1].node_id))
        sim.run()
        assert any(r.cause is LossCause.DELIVERED for r in trace.rx_records)

    def test_batch_frame_end_actually_delivers_to_interfaces(self):
        """Regression: dense frame-ends must reach ``iface.deliver``.

        The batch frame-end path (``len(finishing) ≥
        batch_min_candidates``) classifies via trace-visible records,
        so a bug that drops the *delivery dispatch* while still writing
        trace rows is invisible to the record-comparison pins above.
        Pin ``frames_received`` — the interface-side evidence — equal
        between the batch and scalar arms on a dense topology.
        """

        def received_counts(*, batch):
            trace = TraceCollector()
            sim, medium, ifaces = make_net(
                [Vec2(12.0 * i, 0.0) for i in range(12)], trace=trace
            )
            medium._batch = batch
            rate = rate_by_name("dsss-11")
            for k in range(10):
                tx = ifaces[k % 3]
                frame = data_frame(tx.node_id, ifaces[-1].node_id, seq=k)
                sim.schedule(k * 2e-3, medium.transmit, tx, frame, rate)
            sim.run()
            delivered_rows = sum(
                1 for r in trace.rx_records if r.cause is LossCause.DELIVERED
            )
            return [i.frames_received for i in ifaces], delivered_rows

        batch_counts, batch_rows = received_counts(batch=True)
        scalar_counts, scalar_rows = received_counts(batch=False)
        assert batch_rows == scalar_rows > 0
        assert batch_counts == scalar_counts
        # The interface counters must agree with the trace's verdicts.
        assert sum(batch_counts) == batch_rows

    def test_batched_mobility_groups_match_per_candidate_queries(self):
        # Interfaces built with a shared-track PathMobility go through
        # the grouped position query; result must equal the plain
        # position_fn world bit for bit.
        from repro.geom import Polyline
        from repro.mobility.path import PathMobility

        def records(with_mobility):
            sim = Simulator(seed=3)
            channel = Channel(
                pathloss=LogDistancePathLoss(exponent=3.0, reference_loss_db=40.0),
                rng=sim.streams.get("channel"),
            )
            trace = TraceCollector()
            medium = Medium(sim, channel, trace=trace, batch_min_candidates=2)
            track = Polyline([Vec2(0, 0), Vec2(8000, 0)])
            rate = rate_by_name("dsss-11")
            ifaces = []
            for i in range(12):
                mobility = PathMobility(
                    track, 10.0 + i, start_arc_length=60.0 * i
                )
                ifaces.append(
                    NetworkInterface(
                        sim,
                        medium,
                        NodeId(i + 1),
                        (lambda m: (lambda: m.position(sim.now)))(mobility),
                        RadioConfig(),
                        sim.streams.get(f"mac-{i}"),
                        name=f"if{i + 1}",
                        mobility=mobility if with_mobility else None,
                    )
                )
            for k in range(40):
                tx = ifaces[k % 12]
                frame = data_frame(tx.node_id, ifaces[(k + 1) % 12].node_id, seq=k)
                sim.schedule(k * 2.3e-3, medium.transmit, tx, frame, rate)
            sim.run()
            return [
                (r.time, int(r.node), r.frame.seq, r.cause, r.snr_db, r.rx_power_dbm)
                for r in trace.rx_records
            ]

        grouped = records(True)
        scalar = records(False)
        assert grouped
        assert grouped == scalar

    def test_cross_broadcast_storm_matches_one_at_a_time(self):
        """The coalescer A/B on a dense storm with clustered instants."""
        # Bursts of same-instant transmissions (three per slot) exercise
        # multi-broadcast drains; the CSMA traffic on top exercises the
        # busy()-triggered early flush.
        def records(cross):
            sim = Simulator(seed=42)
            channel = Channel(
                pathloss=LogDistancePathLoss(exponent=3.0, reference_loss_db=40.0),
                rng=sim.streams.get("channel"),
            )
            trace = TraceCollector()
            medium = Medium(
                sim, channel, trace=trace, cross_broadcast_batch=cross
            )
            ifaces = []
            for i in range(18):
                pos = Vec2(45.0 * i, (i % 2) * 9.0)
                ifaces.append(
                    NetworkInterface(
                        sim, medium, NodeId(i + 1),
                        (lambda p: (lambda: p))(pos), RadioConfig(),
                        sim.streams.get(f"mac-{i}"), name=f"if{i + 1}",
                    )
                )
            rate = rate_by_name("dsss-11")
            for k in range(60):
                tx = ifaces[k % 18]
                frame = data_frame(tx.node_id, ifaces[(k + 5) % 18].node_id, seq=k)
                sim.schedule((k // 3) * 2.1e-3, medium.transmit, tx, frame, rate)
            ifaces[2].send(data_frame(ifaces[2].node_id, ifaces[3].node_id, seq=900))
            ifaces[7].send(data_frame(ifaces[7].node_id, ifaces[8].node_id, seq=901))
            sim.run()
            rows = [
                (r.time, int(r.node), r.frame.seq, r.cause, r.snr_db, r.rx_power_dbm)
                for r in trace.rx_records
            ]
            return rows, [i.frames_received for i in ifaces]

        coalesced_rows, coalesced_counts = records(True)
        legacy_rows, legacy_counts = records(False)
        assert coalesced_rows
        assert coalesced_rows == legacy_rows
        assert coalesced_counts == legacy_counts

    def test_coalesced_frame_ends_preserve_delivery_order(self):
        """Same-end-time broadcasts: one coalesced frame-end event must
        deliver in exactly the scalar order (groups in registration
        order, receivers in arrival order within), with per-interface
        ``frames_received`` intact — the PR 7 ``_finish_batch``
        accumulator bug class, now one level up.
        """

        def delivery_log(cross):
            sim = Simulator(seed=5)
            channel = Channel(
                pathloss=LogDistancePathLoss(exponent=3.0, reference_loss_db=40.0),
                rng=sim.streams.get("channel"),
            )
            medium = Medium(sim, channel, cross_broadcast_batch=cross)
            ifaces = []
            for i in range(9):
                pos = Vec2(30.0 * i, 0.0)
                ifaces.append(
                    NetworkInterface(
                        sim, medium, NodeId(i + 1),
                        (lambda p: (lambda: p))(pos), RadioConfig(),
                        sim.streams.get(f"mac-{i}"), name=f"if{i + 1}",
                    )
                )
            log = []
            for iface in ifaces:
                iface.add_receive_callback(
                    (lambda me: lambda frame, info: log.append(
                        (sim.now, int(me.node_id), frame.seq)
                    ))(iface)
                )
            # Three same-instant transmissions with equal airtimes: all
            # three frame-ends land on one coalesced URGENT event (the
            # multi-group vectorized path).  A fourth, larger frame ends
            # later and must not be swept into the group.
            for k, tx in enumerate(ifaces[:3]):
                frame = data_frame(tx.node_id, ifaces[4].node_id, seq=k, size=400)
                sim.schedule(0.0, medium.transmit, tx, frame, RATE)
            big = data_frame(ifaces[5].node_id, ifaces[4].node_id, seq=9, size=800)
            sim.schedule(0.0, medium.transmit, ifaces[5], big, RATE)
            sim.run()
            return log, [i.frames_received for i in ifaces]

        coalesced_log, coalesced_counts = delivery_log(True)
        legacy_log, legacy_counts = delivery_log(False)
        assert coalesced_log  # the topology must actually deliver
        assert coalesced_log == legacy_log
        assert coalesced_counts == legacy_counts

    def test_mixed_rate_frame_ends_bucket_without_reordering(self):
        """Coalesced frame-ends across *different* FER curves: the
        per-(rate, size) bucketing must not disturb the sequential
        Bernoulli draw order."""

        def rows(cross):
            trace = TraceCollector()
            sim = Simulator(seed=13)
            channel = Channel(
                pathloss=LogDistancePathLoss(exponent=3.3, reference_loss_db=40.0),
                rng=sim.streams.get("channel"),
            )
            medium = Medium(
                sim, channel, trace=trace, cross_broadcast_batch=cross
            )
            ifaces = []
            for i in range(8):
                pos = Vec2(140.0 * i, 0.0)
                ifaces.append(
                    NetworkInterface(
                        sim, medium, NodeId(i + 1),
                        (lambda p: (lambda: p))(pos), RadioConfig(),
                        sim.streams.get(f"mac-{i}"), name=f"if{i + 1}",
                    )
                )
            # dsss-1 at 400 B and dsss-11 at 4400 B share one airtime
            # tail closely enough that equal-end groups appear across
            # rates once the start instants line up (4400·8/11 = 3200
            # symbols vs 400·8 = 3200 symbols at 1 Mb/s).
            fast_rate = rate_by_name("dsss-11")
            for k in range(12):
                tx = ifaces[k % 4]
                size = 400 if k % 2 else 4400
                rate = RATE if k % 2 else fast_rate
                frame = data_frame(
                    tx.node_id, ifaces[(k + 1) % 8].node_id, seq=k, size=size
                )
                sim.schedule((k // 4) * 3e-3, medium.transmit, tx, frame, rate)
            sim.run()
            return [
                (r.time, int(r.node), r.frame.seq, r.cause, r.snr_db)
                for r in trace.rx_records
            ]

        coalesced = rows(True)
        legacy = rows(False)
        assert coalesced
        assert coalesced == legacy

    def test_transmission_killed_mid_slot_matches_scalar(self):
        """A receiver that starts transmitting in the same instant as an
        incoming broadcast (direct transmit, CSMA bypassed) must lose
        the arrival to half-duplex exactly as the one-at-a-time arm: the
        new transmitter's flush admits the pending arrival first, then
        the kill loop cancels it mid-flight."""

        def causes(cross):
            trace = TraceCollector()
            sim = Simulator(seed=2)
            channel = Channel(
                pathloss=LogDistancePathLoss(exponent=3.0, reference_loss_db=40.0),
                rng=sim.streams.get("channel"),
            )
            medium = Medium(
                sim, channel, trace=trace, cross_broadcast_batch=cross
            )
            ifaces = []
            for i in range(3):
                pos = Vec2(25.0 * i, 0.0)
                ifaces.append(
                    NetworkInterface(
                        sim, medium, NodeId(i + 1),
                        (lambda p: (lambda: p))(pos), RadioConfig(),
                        sim.streams.get(f"mac-{i}"), name=f"if{i + 1}",
                    )
                )
            a, b, c = ifaces
            sim.schedule(
                0.0, medium.transmit, a, data_frame(a.node_id, b.node_id, 1), RATE
            )
            sim.schedule(
                0.0, medium.transmit, b, data_frame(b.node_id, c.node_id, 2), RATE
            )
            sim.run()
            return [
                (r.time, int(r.node), r.frame.seq, r.cause)
                for r in trace.rx_records
            ]

        coalesced = causes(True)
        legacy = causes(False)
        assert coalesced == legacy
        assert any(
            cause is LossCause.HALF_DUPLEX
            for _, node, seq, cause in coalesced
            if node == 2 and seq == 1
        )

    def test_busy_flush_only_drains_candidate_lanes(self):
        """Carrier sense by a non-candidate keeps the queue coalescing;
        sensing by a candidate flushes and reads the admitted energy.

        Needs enough interfaces for the spatial grid to actually cull
        (below ``neighbor_index_min_nodes`` every interface is a
        candidate and any sense would flush).
        """
        positions = [Vec2(15.0 * i, 0.0) for i in range(16)]
        positions.append(Vec2(70_000, 0))
        sim, medium, ifaces = make_net(positions)
        a, b, far = ifaces[0], ifaces[1], ifaces[-1]
        states = []

        def probe():
            sim.schedule(
                0.0, medium.transmit, a, data_frame(a.node_id, b.node_id, 1), RATE
            )
            # Same instant, after the queue formed: the far node is no
            # candidate of a's broadcast, so its carrier sense must not
            # force the drain...
            sim.schedule(0.0, lambda: states.append(
                (medium.busy(far), len(medium._pending))
            ))
            # ...while the in-range receiver's sense must.
            sim.schedule(0.0, lambda: states.append(
                (medium.busy(b), len(medium._pending))
            ))

        sim.schedule(0.0, probe)
        sim.run()
        assert states[0] == (False, 1)  # still queued after far's sense
        assert states[1] == (True, 0)   # drained by b's sense

    def test_cross_broadcast_knob_exposed(self):
        _, medium, _ = make_net([Vec2(0, 0), Vec2(10, 0)])
        assert medium.cross_broadcast_batch is True
        sim = Simulator()
        channel = Channel(rng=sim.streams.get("channel"))
        off = Medium(sim, channel, cross_broadcast_batch=False)
        assert off.cross_broadcast_batch is False

    def test_scripted_channel_subclass_survives_batch_path(self):
        # A Channel subclass that scripts sample() must keep its
        # behaviour even when the candidate set is batch-sized: the
        # batch entry points fall back to the scalar overrides.
        from repro.radio.channel import LinkSample

        class ScriptedChannel(Channel):
            def sample(self, tx_id, rx_id, tx_pos, rx_pos, tx_power_dbm,
                       rx_gain_db=0.0, time=0.0, *, tx_seq=None, budget=None):
                return LinkSample(-60.0, -60.0, 10.0)

        def records(batch):
            sim = Simulator(seed=9)
            channel = ScriptedChannel(
                pathloss=LogDistancePathLoss(exponent=3.0, reference_loss_db=40.0),
                rng=sim.streams.get("channel"),
            )
            trace = TraceCollector()
            medium = Medium(sim, channel, trace=trace, batch=batch)
            ifaces = []
            for i in range(16):
                pos = Vec2(40.0 * i, 0.0)
                ifaces.append(
                    NetworkInterface(
                        sim, medium, NodeId(i + 1),
                        (lambda p: (lambda: p))(pos), RadioConfig(),
                        sim.streams.get(f"mac-{i}"), name=f"if{i + 1}",
                    )
                )
            for k in range(20):
                tx = ifaces[k % 16]
                frame = data_frame(tx.node_id, ifaces[(k + 1) % 16].node_id, seq=k)
                sim.schedule(k * 2e-3, medium.transmit, tx, frame, rate_by_name("dsss-11"))
            sim.run()
            return [
                (r.time, int(r.node), r.frame.seq, r.cause, r.rx_power_dbm)
                for r in trace.rx_records
            ]

        batched = records(True)
        scalar = records(False)
        assert batched
        # Scripted power must be visible on every record in both modes.
        assert all(r[-1] == -60.0 for r in batched)
        assert batched == scalar


class TestFixedLaneMemo:
    """Lanes between fixed interfaces: memoised, yet equal to the channel."""

    SPACING_M = 90.0

    @staticmethod
    def corridor(sim):
        from repro.scenarios.channels import corridor_channel
        from repro.scenarios.urban import RadioEnvironment

        return corridor_channel(RadioEnvironment(), sim)

    @staticmethod
    def urban(sim):
        # Gudmundson + the hub-anchored TemporalTx term: the mean power
        # varies with time, so only the geometry may be memoised.
        from repro.scenarios.channels import urban_channel
        from repro.scenarios.urban import RadioEnvironment

        return urban_channel(RadioEnvironment(), sim, hub=NodeId(1))

    def build(self, make_channel, n_nodes, *, fast_path=True, seed=21):
        sim = Simulator(seed=seed)
        channel = make_channel(sim)
        trace = TraceCollector()
        medium = Medium(sim, channel, trace=trace, fast_path=fast_path, batch=False)
        ifaces = [self.attach_fixed(sim, medium, i) for i in range(n_nodes)]
        return sim, channel, trace, medium, ifaces

    def attach_fixed(self, sim, medium, index):
        from repro.mobility.static import StaticMobility

        mobility = StaticMobility(Vec2(self.SPACING_M * index, 0.0))
        return NetworkInterface(
            sim,
            medium,
            NodeId(index + 1),
            lambda: mobility.position(sim.now),
            RadioConfig(),
            sim.streams.get(f"mac-{index}"),
            name=f"if{index + 1}",
            mobility=mobility,
        )

    TIMES = (0.0, 0.4, 1.3, 2.9, 7.7, 7.72)

    def broadcast(self, sim, medium, ifaces, plan):
        """Schedule ``(time, tx index)`` broadcasts; seq k is tx_seq k+1."""
        for k, (time, tx) in enumerate(plan):
            sender = ifaces[tx]
            frame = data_frame(sender.node_id, ifaces[0].node_id, seq=k)
            sim.schedule_at(time, medium.transmit, sender, frame, RATE)

    @pytest.mark.parametrize("n_nodes", [5, 20], ids=["linear-scan", "grid"])
    @pytest.mark.parametrize("environment", ["corridor", "urban"])
    def test_fixed_pair_equals_uncached_channel_sample(self, environment, n_nodes):
        from repro import obs

        make_channel = getattr(self, environment)
        # Two transmitters, three times each: memoised lanes are reused
        # across TemporalTx grid steps.
        plan = [(t, 3 * (k % 2)) for k, t in enumerate(self.TIMES)]
        with obs.instrumented():
            sim, _, trace, medium, ifaces = self.build(make_channel, n_nodes)
            self.broadcast(sim, medium, ifaces, plan)
            sim.run()
            reg = obs.registry()
            memoised = reg.counter("medium.static_lanes").value
            sampled = reg.counter("medium.scalar_floor_calls").value
        assert memoised > 0 and sampled == 0
        # A twin channel from the same seed, sampled without any memo.
        twin = make_channel(Simulator(seed=21))
        by_id = {iface.node_id: iface for iface in ifaces}
        assert trace.rx_records
        for record in trace.rx_records:
            time, tx = plan[record.frame.seq]
            sender, receiver = ifaces[tx], by_id[record.node]
            expected = twin.sample(
                sender.node_id,
                receiver.node_id,
                sender.position(),
                receiver.position(),
                sender.config.tx_power_dbm,
                receiver.config.antenna_gain_db,
                time=time,
                tx_seq=record.frame.seq + 1,
            )
            assert record.rx_power_dbm == expected.rx_power_dbm

    @pytest.mark.parametrize("environment", ["corridor", "urban"])
    def test_memo_matches_the_exhaustive_path(self, environment):
        def records(fast_path):
            sim, _, trace, medium, ifaces = self.build(
                getattr(self, environment), 20, fast_path=fast_path
            )
            plan = [(0.003 * k, (7 * k) % 20) for k in range(60)]
            self.broadcast(sim, medium, ifaces, plan)
            sim.run()
            return [
                (r.time, int(r.node), r.frame.seq, r.cause, r.snr_db, r.rx_power_dbm)
                for r in trace.rx_records
            ]

        fast = records(True)
        assert fast
        assert fast == records(False)

    def test_exhaustive_path_never_memoises(self):
        sim, _, _, medium, ifaces = self.build(self.corridor, 20, fast_path=False)
        self.broadcast(sim, medium, ifaces, [(0.0, 4)])
        sim.run()
        assert not medium._fixed_memo and not medium._fixed_lists

    def test_attach_after_first_broadcast_drops_lists_and_memo(self):
        sim, _, trace, medium, ifaces = self.build(self.corridor, 20)
        self.broadcast(sim, medium, ifaces, [(0.0, 10)])
        sim.run()
        assert medium._fixed_lists and medium._fixed_memo
        late = self.attach_fixed(sim, medium, 11)  # a second mount at 990 m
        assert not medium._fixed_lists and not medium._fixed_memo
        # Rebuilt on the next broadcast, now with the new mount in it.
        frame = data_frame(ifaces[10].node_id, late.node_id, seq=1)
        medium.transmit(ifaces[10], frame, RATE)
        sim.run()
        assert late in medium._fixed_lists[ifaces[10]]
        assert any(r.node == late.node_id for r in trace.rx_records)

    def test_invalidate_neighbors_drops_lists_and_memo(self):
        sim, _, _, medium, ifaces = self.build(self.corridor, 20)
        self.broadcast(sim, medium, ifaces, [(0.0, 10)])
        sim.run()
        assert medium._fixed_lists and medium._fixed_memo
        medium.invalidate_neighbors()
        assert not medium._fixed_lists and not medium._fixed_memo

    @pytest.mark.parametrize("environment", ["corridor", "urban"])
    def test_channel_reset_drops_the_memo(self, environment):
        make_channel = getattr(self, environment)
        sim, channel, trace, medium, ifaces = self.build(make_channel, 20)
        self.broadcast(sim, medium, ifaces, [(0.0, 10)])
        sim.run()
        first = [(r.node, r.rx_power_dbm) for r in trace.rx_records]
        channel.reset()  # a fresh shadowing realisation
        frame = data_frame(ifaces[10].node_id, ifaces[0].node_id, seq=0)
        sent_at = sim.now
        medium.transmit(ifaces[10], frame, RATE)
        sim.run()
        twin = make_channel(Simulator(seed=21))
        twin.reset()
        sender = ifaces[10]
        by_id = {iface.node_id: iface for iface in ifaces}
        second = trace.rx_records[len(first):]
        assert second
        for record in second:
            receiver = by_id[record.node]
            expected = twin.sample(
                sender.node_id, receiver.node_id, sender.position(),
                receiver.position(), sender.config.tx_power_dbm,
                receiver.config.antenna_gain_db, time=sent_at, tx_seq=2,
            )
            assert record.rx_power_dbm == expected.rx_power_dbm

    @pytest.mark.parametrize("override", ["sample", "link_budget"])
    def test_scripted_channel_subclass_bypasses_the_memo(self, override):
        from repro import obs
        from repro.radio.channel import LinkSample

        class ScriptedSample(Channel):
            def sample(self, tx_id, rx_id, tx_pos, rx_pos, tx_power_dbm,
                       rx_gain_db=0.0, time=0.0, *, tx_seq=None, budget=None):
                return LinkSample(-60.0, -60.0, 10.0)

        class ScriptedBudget(Channel):
            def link_budget(self, tx_pos, rx_pos):
                return tx_pos.distance_to(rx_pos), 100.0

        cls = ScriptedSample if override == "sample" else ScriptedBudget

        def make_channel(sim):
            return cls(
                pathloss=LogDistancePathLoss(exponent=3.0, reference_loss_db=40.0),
                rng=sim.streams.get("channel"),
            )

        with obs.instrumented():
            sim, _, trace, medium, ifaces = self.build(make_channel, 20)
            self.broadcast(sim, medium, ifaces, [(0.0, 10), (0.01, 3)])
            sim.run()
            memoised = obs.registry().counter("medium.static_lanes").value
        assert memoised == 0
        assert not medium._fixed_memo and not medium._fixed_lists
        assert trace.rx_records
        if override == "sample":
            assert all(r.rx_power_dbm == -60.0 for r in trace.rx_records)
        else:
            # Scripted 100 dB loss on every lane; no shadowing or fading.
            radio = RadioConfig()
            scripted = radio.tx_power_dbm + radio.antenna_gain_db - 100.0
            assert all(r.rx_power_dbm == scripted for r in trace.rx_records)
