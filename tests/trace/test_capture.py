"""Trace collector: record-keeping and queries."""

import pickle
import sys

from repro.mac.frames import DataFrame, HelloFrame, NodeId
from repro.mac.medium import LossCause
from repro.radio.modulation import rate_by_name
from repro.trace.capture import TraceCollector
from repro.trace.records import RxRecord, TxRecord

RATE = rate_by_name("dsss-1")
AP, CAR1, CAR2 = NodeId(100), NodeId(1), NodeId(2)


def data(seq, flow=CAR1):
    return DataFrame(src=AP, dst=flow, size_bytes=1062, flow_dst=flow, seq=seq)


class TestRecording:
    def test_tx_recorded(self):
        trace = TraceCollector()
        trace.on_tx(1.0, AP, data(1), RATE)
        assert len(trace.tx_records) == 1
        assert trace.transmitted_seqs(CAR1) == {1}

    def test_rx_delivered_recorded(self):
        trace = TraceCollector()
        trace.on_rx(1.1, CAR1, data(1), LossCause.DELIVERED, 10.0, -80.0)
        assert trace.delivered_seqs(CAR1, CAR1) == {1}

    def test_rx_loss_not_counted_as_delivery(self):
        trace = TraceCollector()
        trace.on_rx(1.1, CAR1, data(1), LossCause.CHANNEL, -5.0, -95.0)
        assert trace.delivered_seqs(CAR1, CAR1) == set()
        assert len(trace.rx_records) == 1

    def test_first_delivery_time_kept(self):
        trace = TraceCollector()
        trace.on_rx(1.0, CAR1, data(4), LossCause.DELIVERED, 10.0, -80.0)
        trace.on_rx(9.0, CAR1, data(4), LossCause.DELIVERED, 10.0, -80.0)
        assert trace.delivery_time(CAR1, CAR1, 4) == 1.0

    def test_delivery_time_missing(self):
        assert TraceCollector().delivery_time(CAR1, CAR1, 9) is None

    def test_queries_leave_the_collector_unchanged(self):
        # Regression: indexing the defaultdicts inserted an empty entry
        # per (node, flow) pair ever queried.
        trace = TraceCollector()
        trace.on_tx(1.0, AP, data(1), RATE)
        trace.on_rx(1.1, CAR1, data(1), LossCause.DELIVERED, 10.0, -80.0)
        sizes = (len(trace._data_transmissions), len(trace._data_deliveries))
        for node in (CAR1, CAR2, NodeId(7)):
            for flow in (CAR1, CAR2, NodeId(8)):
                trace.transmitted_seqs(flow)
                trace.delivered_seqs(node, flow)
                trace.delivery_time(node, flow, 1)
        assert (len(trace._data_transmissions), len(trace._data_deliveries)) == sizes
        assert trace.transmitted_seqs(CAR1) == {1}
        assert trace.delivered_seqs(CAR1, CAR1) == {1}
        assert trace.delivery_time(CAR1, CAR1, 1) == 1.1

    def test_non_data_frames_not_in_flow_queries(self):
        trace = TraceCollector()
        hello = HelloFrame(src=CAR1, dst=NodeId(-1), size_bytes=50)
        trace.on_tx(0.0, CAR1, hello, RATE)
        trace.on_rx(0.1, CAR2, hello, LossCause.DELIVERED, 20.0, -60.0)
        assert trace.transmitted_seqs(CAR1) == set()
        assert len(trace.tx_records) == 1

    def test_flows_separated(self):
        trace = TraceCollector()
        trace.on_rx(1.0, CAR1, data(1, flow=CAR1), LossCause.DELIVERED, 10.0, -80.0)
        trace.on_rx(1.2, CAR1, data(1, flow=CAR2), LossCause.DELIVERED, 10.0, -80.0)
        assert trace.delivered_seqs(CAR1, CAR1) == {1}
        assert trace.delivered_seqs(CAR1, CAR2) == {1}


class TestAggregates:
    def test_loss_causes_histogram(self):
        trace = TraceCollector()
        trace.on_rx(1.0, CAR1, data(1), LossCause.DELIVERED, 10.0, -80.0)
        trace.on_rx(1.2, CAR1, data(2), LossCause.CHANNEL, -3.0, -94.0)
        trace.on_rx(1.4, CAR1, data(3), LossCause.CHANNEL, -4.0, -95.0)
        histogram = trace.loss_causes(CAR1)
        assert histogram[LossCause.DELIVERED] == 1
        assert histogram[LossCause.CHANNEL] == 2

    def test_frames_sent_by(self):
        trace = TraceCollector()
        trace.on_tx(0.0, AP, data(1), RATE)
        trace.on_tx(0.2, AP, data(2), RATE)
        assert trace.frames_sent_by(AP) == 2
        assert trace.frames_sent_by(CAR1) == 0

    def test_clear(self):
        trace = TraceCollector()
        trace.on_tx(0.0, AP, data(1), RATE)
        trace.on_rx(0.1, CAR1, data(1), LossCause.DELIVERED, 10.0, -80.0)
        trace.clear()
        assert trace.tx_records == []
        assert trace.rx_records == []
        assert trace.delivered_seqs(CAR1, CAR1) == set()

    def test_rx_record_delivered_property(self):
        trace = TraceCollector()
        trace.on_rx(1.0, CAR1, data(1), LossCause.DELIVERED, 10.0, -80.0)
        trace.on_rx(1.1, CAR1, data(2), LossCause.INTERFERENCE, 0.0, -85.0)
        assert trace.rx_records[0].delivered
        assert not trace.rx_records[1].delivered


class TestSlots:
    def test_collector_has_no_instance_dict(self):
        # Touched on every TX/RX: slotted like the other hot-path objects.
        assert not hasattr(TraceCollector(), "__dict__")

    def test_collector_is_smaller_than_dict_control(self):
        import sys
        from collections import defaultdict

        class DictCollector:  # same shape, no __slots__ — the control
            def __init__(self):
                self.tx_records = []
                self.rx_records = []
                self._data_deliveries = defaultdict(dict)
                self._data_transmissions = defaultdict(dict)

        slotted = TraceCollector()
        control = DictCollector()
        assert sys.getsizeof(slotted) < (
            sys.getsizeof(control) + sys.getsizeof(control.__dict__)
        )

    def test_records_have_no_instance_dict(self):
        # One RxRecord per arrival: the largest object population of a
        # traced round, so slotted like the collector.
        tx = TxRecord(0.0, AP, data(1), RATE)
        rx = RxRecord(0.1, CAR1, data(1), LossCause.DELIVERED, 10.0, -80.0)
        assert not hasattr(tx, "__dict__")
        assert not hasattr(rx, "__dict__")

    def test_rx_record_is_smaller_than_dict_control(self):
        class DictRecord:  # same fields, no __slots__ — the control
            def __init__(self, time, node, frame, cause, snr_db, rx_power_dbm):
                self.time = time
                self.node = node
                self.frame = frame
                self.cause = cause
                self.snr_db = snr_db
                self.rx_power_dbm = rx_power_dbm

        fields = (0.1, CAR1, data(1), LossCause.DELIVERED, 10.0, -80.0)
        slotted = RxRecord(*fields)
        control = DictRecord(*fields)
        assert sys.getsizeof(slotted) < (
            sys.getsizeof(control) + sys.getsizeof(control.__dict__)
        )

    def test_records_compare_and_pickle_as_before(self):
        rx = RxRecord(0.1, CAR1, data(1), LossCause.CHANNEL, -2.0, -90.0)
        same = RxRecord(0.1, CAR1, data(1), LossCause.CHANNEL, -2.0, -90.0)
        other = RxRecord(0.1, CAR1, data(1), LossCause.DELIVERED, -2.0, -90.0)
        assert rx == same and hash(rx) == hash(same)
        assert rx != other
        assert pickle.loads(pickle.dumps(rx)) == rx
        assert pickle.loads(pickle.dumps(other)).delivered
        tx = TxRecord(0.0, AP, data(1), RATE)
        assert pickle.loads(pickle.dumps(tx)) == tx
