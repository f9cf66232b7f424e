"""The shared wireless medium.

One :class:`Medium` instance connects all interfaces of a scenario.  For
every transmission it samples the channel toward attached receivers,
tracks concurrent arrivals for interference/SINR, enforces half-duplex
radios, and reports outcomes to an optional trace collector.

Reception pipeline per (frame, receiver):

1. bound the receiver's best-case mean power deterministically (path loss
   at current positions plus the configured shadowing headroom) and cull
   the link if it can never clear ``noise_floor - sensitivity_margin`` —
   no RNG is consumed, and because all stochastic channel draws are keyed
   per ``(link, transmission)``, skipping a link cannot perturb any other
   link's realisation;
2. sample path loss + shadowing + fading → received power;
3. drop silently if the mean power is far below the noise floor (the
   receiver's hardware would never sync to the preamble — real sniffers
   record nothing there either);
4. accumulate interference from temporally overlapping arrivals;
5. at frame end, draw delivery from the SINR-dependent frame error rate;
6. a receiver that transmitted during any part of the arrival loses the
   frame outright (half-duplex).

The candidate receivers themselves come from a lazily refreshed spatial
grid (cell size = the maximum reachable radius implied by the path-loss
model), so a broadcast costs O(reachable receivers), not O(attached
interfaces).  ``fast_path=False`` forces the exhaustive path — every
attached interface is bounded *and sampled* — which must produce
bit-identical outcomes (the A/B pin in
``tests/scenarios/test_fast_path_ab.py``).

On top of either discovery mode, ``batch=True`` (the default) runs steps
1–3 for the whole candidate set as one NumPy pass through the vectorized
batch channel kernel (:mod:`repro.radio.batch`) whenever the set is
large enough to amortise the array overhead; the scalar loop remains the
reference implementation and the batch kernel is pinned bit-identical to
it.

Fixed infrastructure is computed once per round.  An interface whose
mobility is a :class:`~repro.mobility.static.StaticMobility` at attach
time is *fixed*.  On the fast path, a lane between two fixed interfaces
keeps its distance, base loss, cull verdict and link hash in a per-pair
memo — and its mean power too when the shadowing ignores time — so each
frame on it costs one keyed fading draw.  Fixed receivers sit in their
own grid, built once per topology; a fixed transmitter takes them from a
list culled in advance and merges it with a query of the mobile grid.
``attach``, :meth:`Medium.invalidate_neighbors` and
:meth:`~repro.radio.channel.Channel.reset` drop the memo and the lists;
the exhaustive path never reads them.
"""

from __future__ import annotations

import enum
import math
import typing
from dataclasses import dataclass

import numpy as np

from repro import obs
from repro.errors import MacError
from repro.mac.frames import Frame
from repro.mac.timing import frame_airtime
from repro.mobility.static import StaticMobility
from repro.obs.probes import medium_probes
from repro.radio.batch import LaneScratch, broadcast_samples
from repro.radio.channel import Channel, LinkSample
from repro.radio.error_models import frame_error_rate_batch
from repro.radio.multibatch import PendingSlice, multibroadcast_samples
from repro.radio.modulation import WifiRate
from repro.sim import Priority, Simulator
from repro.units import dbm_sum, dbm_sum_batch

if typing.TYPE_CHECKING:  # pragma: no cover
    from repro.geom import Vec2
    from repro.mac.interface import NetworkInterface


class LossCause(enum.Enum):
    """Why a frame did or did not make it to a given receiver."""

    DELIVERED = "delivered"
    CHANNEL = "channel"            # SNR-driven corruption, no interference present
    INTERFERENCE = "interference"  # corrupted with concurrent arrivals on air
    HALF_DUPLEX = "half-duplex"    # receiver was transmitting
    BELOW_SENSITIVITY = "below-sensitivity"


@dataclass(slots=True, frozen=True)
class RxInfo:
    """Receive-side metadata handed to the interface with each frame."""

    time: float
    rx_power_dbm: float
    snr_db: float


class _Arrival:
    """Book-keeping for one frame in flight toward one receiver."""

    __slots__ = (
        "frame", "rate", "sample", "start", "end",
        "interferers_dbm", "half_duplex",
    )

    def __init__(
        self,
        frame: Frame,
        rate: WifiRate,
        sample: LinkSample,
        start: float,
        end: float,
    ) -> None:
        self.frame = frame
        self.rate = rate
        self.sample = sample
        self.start = start
        self.end = end
        self.interferers_dbm: list[float] = []
        self.half_duplex = False


class _PendingTx:
    """One queued (not yet evaluated) broadcast of the coalescing arm.

    Everything order-sensitive was read at transmit time (``tx_seq``,
    the candidate snapshot, the transmitter's position); the stochastic
    evaluation is deferred to the instant-end drain, which is exact
    because every channel draw is keyed by values captured here.
    """

    __slots__ = (
        "tx_iface", "frame", "rate", "tx_pos", "tx_power", "tx_id",
        "start", "end", "airtime", "tx_seq", "candidates",
    )

    def __init__(
        self,
        tx_iface: "NetworkInterface",
        frame: Frame,
        rate: WifiRate,
        tx_pos: "Vec2",
        tx_power: float,
        tx_id: typing.Hashable,
        start: float,
        end: float,
        airtime: float,
        tx_seq: int,
        candidates: list["NetworkInterface"],
    ) -> None:
        self.tx_iface = tx_iface
        self.frame = frame
        self.rate = rate
        self.tx_pos = tx_pos
        self.tx_power = tx_power
        self.tx_id = tx_id
        self.start = start
        self.end = end
        self.airtime = airtime
        self.tx_seq = tx_seq
        self.candidates = candidates


class _FixedLane:
    """Memoised link state of one ordered pair of fixed interfaces.

    ``mean_dbm`` is ``None`` when the shadowing varies with time; the
    mean is then recomputed per frame from the memoised loss.
    """

    __slots__ = (
        "reachable", "distance_m", "loss_db", "link", "link_hash",
        "rx_pos", "mean_dbm",
    )

    def __init__(
        self,
        reachable: bool,
        distance_m: float,
        loss_db: float,
        link: tuple,
        link_hash: int,
        rx_pos: "Vec2",
        mean_dbm: float | None,
    ) -> None:
        self.reachable = reachable
        self.distance_m = distance_m
        self.loss_db = loss_db
        self.link = link
        self.link_hash = link_hash
        self.rx_pos = rx_pos
        self.mean_dbm = mean_dbm


def _post_draw_cause(delivered: bool, arrival: "_Arrival") -> LossCause:
    """Loss cause once the frame-error draw is in — shared by both
    frame-end paths so the attribution rules cannot drift apart."""
    if delivered:
        return LossCause.DELIVERED
    if arrival.interferers_dbm:
        return LossCause.INTERFERENCE
    return LossCause.CHANNEL


class _NeighborIndex:
    """Grid buckets of interface positions, refreshed lazily.

    Built from a snapshot of positions; queries widen their radius by the
    maximum distance any node may have moved since the snapshot
    (``max_speed_ms · age``), so the candidate set is always a superset
    of the truly reachable receivers as long as no node outruns the
    configured speed bound.
    """

    __slots__ = ("cell_m", "built_at", "version", "_buckets")

    def __init__(
        self,
        interfaces: list["NetworkInterface"],
        cell_m: float,
        now: float,
        version: int,
    ) -> None:
        self.cell_m = cell_m
        self.built_at = now
        self.version = version
        buckets: dict[tuple[int, int], list["NetworkInterface"]] = {}
        inv = 1.0 / cell_m
        for iface in interfaces:
            pos = iface.position()
            key = (math.floor(pos.x * inv), math.floor(pos.y * inv))
            buckets.setdefault(key, []).append(iface)
        self._buckets = buckets

    def query(self, pos: "Vec2", radius: float) -> list["NetworkInterface"]:
        """Every interface bucketed within *radius* of *pos* (superset)."""
        inv = 1.0 / self.cell_m
        # Unpack the Vec2 once: each coordinate feeds two bounds, and
        # frozen-dataclass attribute reads are not free on this hot path.
        px, py = pos.x, pos.y
        x_lo = math.floor((px - radius) * inv)
        x_hi = math.floor((px + radius) * inv)
        y_lo = math.floor((py - radius) * inv)
        y_hi = math.floor((py + radius) * inv)
        buckets = self._buckets
        found: list["NetworkInterface"] = []
        if (x_hi - x_lo + 1) * (y_hi - y_lo + 1) >= len(buckets):
            # Query box spans more cells than exist: walking the occupied
            # buckets (and box-testing each) is cheaper than probing the box.
            for (ix, iy), bucket in buckets.items():
                if x_lo <= ix <= x_hi and y_lo <= iy <= y_hi:
                    found.extend(bucket)
            return found
        for ix in range(x_lo, x_hi + 1):
            for iy in range(y_lo, y_hi + 1):
                bucket = buckets.get((ix, iy))
                if bucket is not None:
                    found.extend(bucket)
        return found


class Medium:
    """Connects interfaces through a :class:`~repro.radio.channel.Channel`.

    Parameters
    ----------
    sim:
        The simulator that provides the clock and event queue.
    channel:
        Propagation model shared by all links.
    trace:
        Optional collector with ``on_tx(...)`` / ``on_rx(...)`` methods
        (see :mod:`repro.trace.capture`).
    sensitivity_margin_db:
        Arrivals whose mean power is more than this below the receiver
        noise floor are discarded without bookkeeping.
    fast_path:
        When true (default), receivers are found through the spatial
        neighbor index and hopeless links are culled before sampling.
        When false, every attached interface is bounded and sampled — the
        exhaustive A/B reference, bit-identical to the fast path.
    batch:
        When true (default), broadcasts toward at least
        ``batch_min_candidates`` candidates are evaluated by the
        vectorized batch channel kernel (:mod:`repro.radio.batch`) — one
        NumPy pass over the whole candidate set instead of a per-receiver
        Python loop.  Bit-identical to the scalar path by construction
        (keyed draws + pinned float64 semantics); ``False`` forces the
        scalar reference loop.  Orthogonal to ``fast_path``: candidate
        *discovery* stays grid-or-exhaustive, only per-candidate
        *evaluation* changes shape.
    batch_min_candidates:
        Below this candidate count the scalar loop wins (NumPy's fixed
        per-op overhead beats a short Python loop), so the batch kernel
        steps aside.  Purely a throughput knob — both paths produce the
        same arrivals.
    cross_broadcast_batch:
        When true (default), transmissions are not evaluated one at a
        time: each ``transmit`` snapshots its order-sensitive facts
        (``tx_seq``, candidates, positions) and queues the stochastic
        evaluation, which an instant-end drain performs for *all*
        same-instant broadcasts as one concatenated pass through
        :mod:`repro.radio.multibatch`.  Same-end-time frame-end events
        coalesce analogously.  This lets broadcasts individually below
        ``batch_min_candidates`` clear the vectorization floor together
        (their pooled lanes share one NumPy pass) and is bit-identical to the
        one-at-a-time arm by the keyed-randomness argument — pinned by
        the five-arm differential harness.  ``False`` keeps the legacy
        synchronous path byte for byte.
    cross_batch_min_lanes:
        Extra lower bound on the *total* lane count (across all queued
        broadcasts of the drain) for the concatenated NumPy pass; the
        effective floor is ``max(batch_min_candidates,
        cross_batch_min_lanes)``, so pooled lanes vectorize exactly when
        the same number of lanes in one broadcast would — below it the
        drain runs the scalar reference loop per lane, skipping the
        array gather entirely.  Purely a throughput knob.
    cull_headroom_db:
        Shadowing boost granted to a link before it is declared
        unreachable: a receiver is culled when ``tx_power + rx_gain -
        pathloss - obstruction + headroom`` is below its sensitivity
        threshold.  The bound is part of the reception model — both the
        fast and the exhaustive path apply it, which is what makes them
        bit-identical.  ``None`` derives the provable worst case from
        the channel's clamped shadowing models (±4σ: exact pre-fast-path
        physics, but a much wider radius).  The default 12 dB is a
        fidelity/throughput trade-off: links whose deterministic mean
        sits in the 12 dB band *below* the sensitivity threshold need a
        shadowing boost exceeding the headroom to matter, which for a
        composite σ of ~7 dB happens on a few percent of edge-of-range
        frames — all at least ``sensitivity_margin_db`` under the noise
        floor, so they can never deliver and are lost only as potential
        weak interferers and trace rows.  Scenarios that need the exact
        tail set the headroom knob (``RadioEnvironment.cull_headroom_db``)
        higher or pass ``None``.
    neighbor_refresh_s:
        Maximum age of the neighbor index snapshot before it is rebuilt.
    max_speed_ms:
        Upper bound on node speed, used to widen stale-index queries so a
        moving receiver can never be missed.  Raise it for scenarios with
        faster (or teleporting) mobility.
    neighbor_index_min_nodes:
        Below this interface count the index is skipped (a linear scan of
        so few nodes is cheaper than grid bookkeeping).
    """

    __slots__ = (
        "_sim",
        "_channel",
        "_trace",
        "_sensitivity_margin_db",
        "_fast_path",
        "_batch",
        "_batch_min_candidates",
        "_cull_headroom_db",
        "_neighbor_refresh_s",
        "_max_speed_ms",
        "_neighbor_index_min_nodes",
        "_cross_batch",
        "_cross_batch_min_lanes",
        "_pending",
        "_pending_rx",
        "_drain_time",
        "_finish_registry",
        "_scratch",
        "_interfaces",
        "_ongoing",
        "_attach_rank",
        "_rx_static",
        "_obs",
        "_spans",
        "_delivery_sink",
        "_tx_seq",
        "_index",
        "_index_version",
        "_reach_radius_m",
        "_tx_radius_m",
        "_fixed",
        "_mobile",
        "_fixed_index",
        "_fixed_lists",
        "_fixed_memo",
        "_memo_on",
        "_memo_realisation",
    )

    def __init__(
        self,
        sim: Simulator,
        channel: Channel,
        *,
        trace: typing.Any | None = None,
        sensitivity_margin_db: float = 10.0,
        fast_path: bool = True,
        batch: bool = True,
        batch_min_candidates: int = 8,
        cross_broadcast_batch: bool = True,
        cross_batch_min_lanes: int = 2,
        cull_headroom_db: float | None = 12.0,
        neighbor_refresh_s: float = 1.0,
        max_speed_ms: float = 100.0,
        neighbor_index_min_nodes: int = 16,
    ) -> None:
        self._sim = sim
        self._channel = channel
        self._trace = trace
        self._sensitivity_margin_db = sensitivity_margin_db
        self._fast_path = fast_path
        self._batch = batch
        self._batch_min_candidates = batch_min_candidates
        self._cross_batch = cross_broadcast_batch
        self._cross_batch_min_lanes = cross_batch_min_lanes
        # Coalescer state: broadcasts queued this instant, the union of
        # their candidate interfaces (drain triggers), the instant that
        # already scheduled a drain, frame-end groups keyed by end time,
        # and the reusable lane-gather buffers.
        self._pending: list[_PendingTx] = []
        self._pending_rx: set[NetworkInterface] = set()
        self._drain_time = -1.0
        self._finish_registry: dict[
            float, list[list[tuple[NetworkInterface, _Arrival]]]
        ] = {}
        self._scratch = LaneScratch()
        if cull_headroom_db is None:
            cull_headroom_db = channel.shadow_headroom_db()
        self._cull_headroom_db = cull_headroom_db
        self._neighbor_refresh_s = neighbor_refresh_s
        self._max_speed_ms = max_speed_ms
        self._neighbor_index_min_nodes = neighbor_index_min_nodes
        self._interfaces: list[NetworkInterface] = []
        self._ongoing: dict[NetworkInterface, list[_Arrival]] = {}
        # Attach-order rank per interface, cached off the hot path.
        self._attach_rank: dict[NetworkInterface, int] = {}
        # (node id, antenna gain, threshold, mobility batch key, mobility)
        # per interface — the attach-time snapshot both reception paths
        # read: one probe per candidate instead of attribute chases and
        # a batch_key() call per candidate per broadcast.
        self._rx_static: dict[
            NetworkInterface,
            tuple[typing.Hashable, float, float, object, object],
        ] = {}
        # Observability snapshot (see repro.obs): probe bundle + tracer
        # are captured here, so enable/install before building the medium.
        # Both default to None, leaving the hot paths a single is-test.
        self._obs = medium_probes()
        self._spans = obs.tracer()
        # Optional coalesced-delivery sink (see set_delivery_sink).
        self._delivery_sink: typing.Callable[
            [list[tuple["NetworkInterface", Frame, RxInfo]]], None
        ] | None = None
        self._tx_seq = 0
        self._index: _NeighborIndex | None = None
        self._index_version = 0
        self._reach_radius_m: float | None = None
        # Per-transmit-power query radius (radios share a handful of
        # distinct powers, so this stays tiny).
        self._tx_radius_m: dict[float, float] = {}
        # Fixed infrastructure: attach-time mount point per fixed
        # interface, the other interfaces in attach order, the grid of
        # fixed receivers, each fixed transmitter's culled fixed
        # receivers (attach order) and its per-receiver lane memo.
        self._fixed: dict[NetworkInterface, Vec2] = {}
        self._mobile: list[NetworkInterface] = []
        self._fixed_index: _NeighborIndex | None = None
        self._fixed_lists: dict[NetworkInterface, list[NetworkInterface]] = {}
        self._fixed_memo: dict[
            NetworkInterface, dict[NetworkInterface, _FixedLane]
        ] = {}
        # Scripted channels (overridden sample or link_budget) bypass the
        # memo, as they bypass the batch kernel; so does the exhaustive
        # reference path.
        cls = type(channel)
        self._memo_on = (
            fast_path
            and cls.sample is Channel.sample
            and cls.link_budget is Channel.link_budget
        )
        self._memo_realisation = channel.realisation

    @property
    def channel(self) -> Channel:
        """The propagation model in use."""
        return self._channel

    @property
    def trace(self) -> typing.Any | None:
        """The attached trace collector, if any."""
        return self._trace

    @property
    def fast_path(self) -> bool:
        """Whether reception uses the culling fast path."""
        return self._fast_path

    @property
    def batch(self) -> bool:
        """Whether reception uses the vectorized batch channel kernel."""
        return self._batch

    @property
    def cross_broadcast_batch(self) -> bool:
        """Whether same-instant broadcasts coalesce into one channel pass."""
        return self._cross_batch

    @property
    def cull_headroom_db(self) -> float:
        """Shadowing headroom granted by the reachability bound."""
        return self._cull_headroom_db

    def set_trace(self, trace: typing.Any | None) -> None:
        """Install or replace the trace collector."""
        self._trace = trace

    def set_delivery_sink(
        self,
        sink: typing.Callable[
            [list[tuple["NetworkInterface", Frame, RxInfo]]], None
        ] | None,
    ) -> None:
        """Install a coalesced protocol-delivery sink (or remove it).

        Without a sink, each frame-end event hands every successful
        reception to its interface one at a time.  With a sink, the
        frame-end event collects all of a broadcast's deliveries —
        ``(receiver interface, frame, rx info)``, in arrival order — and
        hands the whole batch to *sink* in one call, so a pooled
        protocol engine (:class:`repro.core.engine.ProtocolPool`) can
        step every receiver in a single pass.  The sink takes over
        interface bookkeeping (``frames_received``, receive callbacks)
        for the receivers it manages and must fall back to
        ``iface.deliver`` for the rest.
        """
        self._delivery_sink = sink

    def attach(self, iface: "NetworkInterface") -> None:
        """Register an interface.  Each interface joins exactly one medium.

        The interface's ``config`` and ``mobility`` are snapshotted here
        (thresholds, antenna gain, mobility batch group) and must not be
        reassigned afterwards — both reception paths read the snapshot,
        so a mid-run swap would silently keep the attach-time values.
        Positions stay live either way (``position_fn`` / the mobility
        model are queried per broadcast).
        """
        if iface in self._ongoing:
            raise MacError(f"interface {iface.name!r} already attached")
        self._attach_rank[iface] = len(self._interfaces)
        self._interfaces.append(iface)
        self._ongoing[iface] = []
        threshold = iface.config.noise_floor_dbm - self._sensitivity_margin_db
        mobility = iface.mobility
        self._rx_static[iface] = (
            iface.node_id,
            iface.config.antenna_gain_db,
            threshold,
            mobility.batch_key() if mobility is not None else None,
            mobility,
        )
        if isinstance(mobility, StaticMobility):
            self._fixed[iface] = mobility.fixed_position
        else:
            self._mobile.append(iface)
        self.invalidate_neighbors()

    def invalidate_neighbors(self) -> None:
        """Force a neighbor-index rebuild (topology or mobility jump).

        Also drops the fixed-infrastructure grid, lists and lane memo.
        """
        self._index_version += 1
        self._reach_radius_m = None
        self._tx_radius_m.clear()
        self._drop_fixed_state()

    def _drop_fixed_state(self) -> None:
        """Forget the fixed grid, lists and lane memo (rebuilt lazily)."""
        self._fixed_index = None
        self._fixed_lists.clear()
        self._fixed_memo.clear()
        self._memo_realisation = self._channel.realisation

    # -- fixed infrastructure -------------------------------------------------

    def _lane_memo(
        self, tx_iface: "NetworkInterface"
    ) -> dict["NetworkInterface", _FixedLane] | None:
        """The lane memo of a fixed transmitter, or ``None`` (no memo)."""
        if not self._memo_on or tx_iface not in self._fixed:
            return None
        if self._channel.realisation != self._memo_realisation:
            self._drop_fixed_state()
        lanes = self._fixed_memo.get(tx_iface)
        if lanes is None:
            lanes = self._fixed_memo[tx_iface] = {}
        return lanes

    def _memoise_lane(
        self,
        tx_iface: "NetworkInterface",
        rx_iface: "NetworkInterface",
        lanes: dict["NetworkInterface", _FixedLane],
    ) -> _FixedLane:
        """Compute and memoise the lane from one fixed interface to another.

        The same expressions as the scalar pipeline, evaluated once: the
        lane's geometry cannot change until the memo is dropped.
        """
        channel = self._channel
        tx_pos = self._fixed[tx_iface]
        rx_pos = self._fixed[rx_iface]
        _, rx_gain, threshold, _, _ = self._rx_static[rx_iface]
        tx_power = tx_iface.config.tx_power_dbm
        distance, loss = channel.link_budget(tx_pos, rx_pos)
        reachable = tx_power + rx_gain - loss + self._cull_headroom_db >= threshold
        link, link_hash = channel.link(tx_iface.node_id, rx_iface.node_id)
        mean = None
        if reachable and channel.shadow_time_invariant():
            mean = channel.mean_rx_power_dbm(
                link, tx_pos, rx_pos, tx_power, rx_gain, loss, self._sim.now
            )
        lane = lanes[rx_iface] = _FixedLane(
            reachable, distance, loss, link, link_hash, rx_pos, mean
        )
        return lane

    # -- candidate discovery --------------------------------------------------

    def _radius_for_loss_budget(self, tx_power_dbm: float) -> float:
        """Radius beyond which *tx_power* cannot pass any receiver's bound."""
        if not self._interfaces:
            return math.inf
        best = tx_power_dbm + max(
            iface.config.antenna_gain_db for iface in self._interfaces
        )
        min_threshold = min(
            threshold for _, _, threshold, _, _ in self._rx_static.values()
        )
        max_loss = best - min_threshold + self._cull_headroom_db
        if not math.isfinite(max_loss):
            return math.inf
        return self._channel.max_range_m(max_loss)

    def _candidates(self, tx_iface: "NetworkInterface", tx_pos: "Vec2") -> list:
        """Receivers that could possibly pass the reachability bound.

        Returns a superset of the bound-passing set, in attach order (the
        per-pair bound in :meth:`transmit` does the exact cull).
        """
        interfaces = self._interfaces
        if (
            not self._fast_path
            or len(interfaces) < self._neighbor_index_min_nodes
        ):
            return interfaces
        # Grid cells are a quarter of the strongest radio's reach (a
        # bucket-count / query-precision sweet spot); queries use the
        # transmitter's own (possibly much shorter) reach.
        cell = self._reach_radius_m
        if cell is None:
            cell = self._reach_radius_m = (
                self._radius_for_loss_budget(
                    max(iface.config.tx_power_dbm for iface in interfaces)
                )
                / 4.0
            )
        if not math.isfinite(cell):
            return interfaces
        tx_power = tx_iface.config.tx_power_dbm
        radius = self._tx_radius_m.get(tx_power)
        if radius is None:
            radius = self._radius_for_loss_budget(tx_power)
            self._tx_radius_m[tx_power] = radius
        now = self._sim.now
        # Mobile receivers: a snapshot grid, refreshed with age, queried
        # with the distance anyone may have moved since.
        index = self._index
        if (
            index is None
            or index.version != self._index_version
            or now - index.built_at > self._neighbor_refresh_s
        ):
            index = self._index = _NeighborIndex(
                self._mobile, cell, now, self._index_version
            )
        slack = self._max_speed_ms * (now - index.built_at)
        found = index.query(tx_pos, radius + slack)
        # Fixed receivers: a grid that never goes stale, queried without
        # slack; a fixed transmitter reads its culled list instead.
        lanes = self._lane_memo(tx_iface)
        fixed_index = self._fixed_index
        if fixed_index is None:
            fixed_index = self._fixed_index = _NeighborIndex(
                list(self._fixed), cell, now, self._index_version
            )
        rank = self._attach_rank
        if lanes is None:
            fixed = fixed_index.query(tx_pos, radius)
        else:
            fixed = self._fixed_lists.get(tx_iface)
            if fixed is None:
                fixed = []
                for rx_iface in fixed_index.query(tx_pos, radius):
                    if rx_iface is tx_iface:
                        continue
                    if self._memoise_lane(tx_iface, rx_iface, lanes).reachable:
                        fixed.append(rx_iface)
                fixed.sort(key=rank.__getitem__)
                self._fixed_lists[tx_iface] = fixed
            if not found:
                return fixed  # shared and never mutated: callers only read
        found.extend(fixed)
        if len(found) >= len(interfaces):
            return interfaces
        found.sort(key=rank.__getitem__)
        return found

    # -- transmission ---------------------------------------------------------

    def transmit(self, tx_iface: "NetworkInterface", frame: Frame, rate: WifiRate) -> float:
        """Put *frame* on the air from *tx_iface*; returns the airtime.

        Called by the interface at the instant its back-off completed; the
        interface is responsible for marking itself as transmitting for the
        returned duration.
        """
        if self._cross_batch:
            return self._transmit_coalesced(tx_iface, frame, rate)
        ongoing = self._ongoing
        if tx_iface not in ongoing:
            raise MacError(f"interface {tx_iface.name!r} not attached to this medium")
        now = self._sim.now
        airtime = frame_airtime(frame.size_bytes, rate)
        end = now + airtime
        tx_pos = tx_iface.position()
        self._tx_seq += 1
        tx_seq = self._tx_seq
        if self._trace is not None:
            self._trace.on_tx(now, tx_iface.node_id, frame, rate)

        # A station that starts transmitting kills anything it was receiving.
        for arrival in ongoing[tx_iface]:
            arrival.half_duplex = True

        tx_power = tx_iface.config.tx_power_dbm
        tx_id = tx_iface.node_id
        candidates = self._candidates(tx_iface, tx_pos)
        finishing: list[tuple[NetworkInterface, _Arrival]] = []
        use_batch = (
            self._batch and len(candidates) >= self._batch_min_candidates
        )
        spans = self._spans
        if spans is not None:
            spans.begin(
                "broadcast", cat="medium", sim_time=now, tx=str(tx_id),
                candidates=len(candidates),
                path="batch" if use_batch else "scalar",
            )
        if use_batch:
            self._receive_batch(
                tx_iface, candidates, frame, rate, tx_pos, tx_power, tx_id,
                now, end, tx_seq, finishing,
            )
        else:
            self._scalar_lanes(
                tx_iface, candidates, frame, rate, tx_pos, tx_power, tx_id,
                now, end, tx_seq, finishing,
            )

        if self._obs is not None:
            self._obs.on_broadcast(len(candidates), len(finishing), use_batch)
        if spans is not None:
            spans.end(admitted=len(finishing))
        if finishing:
            # One frame-end event for the whole broadcast (the arrivals all
            # end at the same instant and carry consecutive ranks anyway).
            # URGENT so medium bookkeeping settles before normal callbacks
            # at the same instant observe the channel state.
            self._sim.schedule(
                airtime, self._finish_transmission, finishing, priority=Priority.URGENT
            )
        return airtime

    # -- cross-broadcast coalescing -------------------------------------------

    def _transmit_coalesced(
        self, tx_iface: "NetworkInterface", frame: Frame, rate: WifiRate
    ) -> float:
        """The ``cross_broadcast_batch`` arm of :meth:`transmit`.

        Performs every order-sensitive step synchronously — the tx-seq
        increment, the trace row, the half-duplex kill of frames the
        transmitter was receiving, the candidate snapshot — but defers
        the stochastic candidate evaluation to :meth:`_drain_pending`,
        which runs once per instant (``Priority.LATE``, after all normal
        events) and evaluates *all* queued broadcasts in one pass.
        Anything that could observe an arrival mid-instant (carrier
        sense, a new transmitter's kill loop, a transmitter's flag
        clearing at ``_tx_done``) drains the queue first, so no event
        can tell the arms apart.
        """
        ongoing = self._ongoing
        if tx_iface not in ongoing:
            raise MacError(f"interface {tx_iface.name!r} not attached to this medium")
        if self._pending and tx_iface in self._pending_rx:
            # Queued broadcasts may hold candidate lanes toward this
            # transmitter; admit them now so the kill loop below (and
            # mutual-interference pairing) sees exactly the scalar state.
            self._drain_pending()
        now = self._sim.now
        airtime = frame_airtime(frame.size_bytes, rate)
        end = now + airtime
        tx_pos = tx_iface.position()
        self._tx_seq += 1
        tx_seq = self._tx_seq
        if self._trace is not None:
            self._trace.on_tx(now, tx_iface.node_id, frame, rate)
        # A station that starts transmitting kills anything it was receiving.
        for arrival in ongoing[tx_iface]:
            arrival.half_duplex = True
        candidates = self._candidates(tx_iface, tx_pos)
        if candidates is self._interfaces:
            # The exhaustive/small-scenario discovery path returns the
            # live attach list; snapshot it so a same-instant attach
            # cannot grow a queued broadcast's candidate set.
            candidates = list(candidates)
        self._pending.append(_PendingTx(
            tx_iface, frame, rate, tx_pos, tx_iface.config.tx_power_dbm,
            tx_iface.node_id, now, end, airtime, tx_seq, candidates,
        ))
        self._pending_rx.update(candidates)
        if self._drain_time != now:
            self._drain_time = now
            self._sim.at_instant_end(self._drain_pending)
        return airtime

    def on_tx_ending(self, iface: "NetworkInterface") -> None:
        """Hook from the interface just before it clears ``transmitting``.

        A broadcast queued earlier this instant must see the flag still
        up when its lane toward *iface* is admitted (the scalar arm read
        it at transmit time), so the queue drains before the clear.
        """
        if self._pending and iface in self._pending_rx:
            self._drain_pending()

    def _drain_pending(self) -> None:
        """Evaluate every queued broadcast in one concatenated pass.

        Gathers all pending broadcasts' candidate lanes into flat scratch
        columns, runs the cross-broadcast kernel once (or the scalar
        reference loop, gather-free, when the pooled lanes stay under
        the ``max(batch_min_candidates, cross_batch_min_lanes)``
        vectorization floor), then admits arrivals broadcast
        by broadcast in FIFO — i.e. ``tx_seq`` — order, which reproduces
        the scalar arm's admission order exactly.  Frame-end events with
        equal end times are merged into one coalesced evaluation.
        """
        pending = self._pending
        if not pending:
            return
        self._pending = []
        self._pending_rx.clear()
        now = self._sim.now
        obs_probes = self._obs
        spans = self._spans
        # The drain vectorizes only above the same amortisation floor as
        # the legacy arm: a handful of lanes loses to the scalar loop no
        # matter how they are pooled, so sub-floor drains (the common
        # case when broadcasts rarely coincide) skip the gather entirely.
        # The candidate count is an upper bound — it may include the
        # transmitter's own lane — which only wobbles the *path* choice
        # at the boundary; both paths are bit-identical by construction.
        # The batch knob keeps its meaning under coalescing: with
        # ``batch=False`` every lane still samples through the scalar
        # reference pipeline (only the event structure coalesces).
        use_multibatch = self._batch and sum(
            len(p.candidates) for p in pending
        ) >= max(self._batch_min_candidates, self._cross_batch_min_lanes)
        if use_multibatch and len(pending) == 1:
            # Nothing pooled this instant (the overwhelmingly common case
            # in protocol rounds, where CSMA back-off jitters broadcasts
            # apart): run the legacy single-broadcast batch kernel
            # directly — same gather, same ``broadcast_samples`` pass —
            # instead of paying the multibatch slicing machinery for a
            # one-slice pass.
            p = pending[0]
            finishing: list[tuple[NetworkInterface, _Arrival]] = []
            if spans is not None:
                spans.begin(
                    "broadcast", cat="medium", sim_time=now, tx=str(p.tx_id),
                    candidates=len(p.candidates), path="batch",
                )
            self._receive_batch(
                p.tx_iface, p.candidates, p.frame, p.rate, p.tx_pos,
                p.tx_power, p.tx_id, p.start, p.end, p.tx_seq, finishing,
            )
            if obs_probes is not None:
                obs_probes.on_broadcast(len(p.candidates), len(finishing), True)
            if spans is not None:
                spans.end(admitted=len(finishing))
            if finishing:
                self._register_finish(p.end, finishing)
            return
        if use_multibatch:
            static = self._rx_static
            scratch = self._scratch
            scratch.reserve(sum(len(p.candidates) for p in pending))
            rx_xs = scratch.rx_xs
            rx_ys = scratch.rx_ys
            rx_gains = scratch.rx_gains
            rx_floors = scratch.rx_floors
            rx_ifaces: list[NetworkInterface] = []
            rx_ids: list[typing.Hashable] = []
            slices: list[PendingSlice] = []
            # Mobility batch groups pool across *all* queued broadcasts —
            # every lane shares the drain instant, so one vectorized query
            # per batch key covers lanes of different transmitters.
            groups: dict[object, tuple[list[int], list[object]]] = {}
            scalar_pos: list[int] = []
            lane = 0
            for p in pending:
                start = lane
                tx_iface = p.tx_iface
                for rx_iface in p.candidates:
                    if rx_iface is tx_iface:
                        continue
                    node_id, gain, floor, key, mobility = static[rx_iface]
                    rx_ifaces.append(rx_iface)
                    rx_ids.append(node_id)
                    rx_gains[lane] = gain
                    rx_floors[lane] = floor
                    if key is None:
                        scalar_pos.append(lane)
                    else:
                        group = groups.get(key)
                        if group is None:
                            groups[key] = ([lane], [mobility])
                        else:
                            group[0].append(lane)
                            group[1].append(mobility)
                    lane += 1
                scratch.tx_xs[start:lane] = p.tx_pos.x
                scratch.tx_ys[start:lane] = p.tx_pos.y
                scratch.tx_powers[start:lane] = p.tx_power
                scratch.tx_seqs[start:lane] = p.tx_seq
                slices.append(
                    PendingSlice(p.tx_id, p.tx_pos, p.tx_power, p.tx_seq, start, lane)
                )
            total = lane
            for indices, models in groups.values():
                if len(indices) < 4:
                    # Tiny group: the vectorized query's fixed overhead
                    # loses to a couple of scalar calls (same values
                    # either way).
                    scalar_pos.extend(indices)
                    continue
                group_xs, group_ys = models[0].positions_at_time(models, now)
                lanes = np.array(indices)
                rx_xs[lanes] = group_xs
                rx_ys[lanes] = group_ys
            for i in scalar_pos:
                pos = rx_ifaces[i].position()
                rx_xs[i] = pos.x
                rx_ys[i] = pos.y
            if obs_probes is not None:
                obs_probes.lanes.observe(total)
                obs_probes.coalesced_broadcasts.value += len(pending)
            if spans is not None:
                spans.begin(
                    "multibatch-kernel", cat="medium",
                    lanes=total, broadcasts=len(pending),
                )
            results = multibroadcast_samples(
                self._channel,
                slices,
                rx_ids,
                scratch.tx_xs[:total],
                scratch.tx_ys[:total],
                rx_xs[:total],
                rx_ys[:total],
                rx_gains[:total],
                rx_floors[:total],
                scratch.tx_powers[:total],
                scratch.tx_seqs[:total],
                self._cull_headroom_db,
                now,
            )
            if spans is not None:
                spans.end(kept=sum(len(r.kept) for r in results))
        for k, p in enumerate(pending):
            finishing: list[tuple[NetworkInterface, _Arrival]] = []
            if spans is not None:
                spans.begin(
                    "broadcast", cat="medium", sim_time=now, tx=str(p.tx_id),
                    candidates=len(p.candidates),
                    path="multibatch" if use_multibatch else "scalar",
                )
            if use_multibatch:
                sl = slices[k]
                result = results[k]
                rx_power = result.rx_power_dbm.tolist()
                mean_power = result.mean_rx_power_dbm.tolist()
                distance = result.distance_m.tolist()
                for j, i in enumerate(result.kept.tolist()):
                    sample = LinkSample(
                        rx_power_dbm=rx_power[j],
                        mean_rx_power_dbm=mean_power[j],
                        distance_m=distance[j],
                    )
                    self._admit_arrival(
                        rx_ifaces[sl.start + i],
                        _Arrival(p.frame, p.rate, sample, p.start, p.end),
                        finishing,
                    )
            else:
                self._scalar_lanes(
                    p.tx_iface, p.candidates, p.frame, p.rate, p.tx_pos,
                    p.tx_power, p.tx_id, p.start, p.end, p.tx_seq, finishing,
                )
            if obs_probes is not None:
                obs_probes.on_broadcast(
                    len(p.candidates), len(finishing), use_multibatch
                )
            if spans is not None:
                spans.end(admitted=len(finishing))
            if finishing:
                self._register_finish(p.end, finishing)

    def _register_finish(
        self,
        end: float,
        finishing: list[tuple["NetworkInterface", _Arrival]],
    ) -> None:
        """Queue one broadcast's arrivals for the coalesced frame end.

        URGENT for the same reason as the legacy arm; one event serves
        every broadcast sharing the end time.
        """
        registry = self._finish_registry
        group_list = registry.get(end)
        if group_list is None:
            registry[end] = [finishing]
            self._sim.schedule_at(
                end, self._finish_coalesced, end, priority=Priority.URGENT
            )
        else:
            group_list.append(finishing)

    def _scalar_lanes(
        self,
        tx_iface: "NetworkInterface",
        candidates: list["NetworkInterface"],
        frame: Frame,
        rate: WifiRate,
        tx_pos: "Vec2",
        tx_power: float,
        tx_id: typing.Hashable,
        start: float,
        end: float,
        tx_seq: int,
        finishing: list[tuple["NetworkInterface", _Arrival]],
    ) -> None:
        """The scalar reference pipeline over one broadcast's candidates.

        Shared by the one-at-a-time arm and the coalescer's scalar floor
        (drains holding too few lanes to amortise the NumPy pass), so it
        iterates the candidate list directly and never pays the array
        gather.  A lane between two fixed interfaces is served from the
        pair memo: the same values, with only the keyed fading draw
        left per frame — and not even that when the memoised mean
        already rules the frame out, since a keyed draw nobody takes
        perturbs nothing.
        """
        channel = self._channel
        fast = self._fast_path
        headroom = self._cull_headroom_db
        # Same attach-time snapshot the batch gather reads, so the two
        # paths can never disagree about radio params.
        static = self._rx_static
        lanes = self._lane_memo(tx_iface)
        fixed = self._fixed
        sampled = 0
        memoised = 0
        for rx_iface in candidates:
            if rx_iface is tx_iface:
                continue
            _, rx_gain, threshold, _, _ = static[rx_iface]
            if lanes is not None and rx_iface in fixed:
                lane = lanes.get(rx_iface)
                if lane is None:
                    lane = self._memoise_lane(tx_iface, rx_iface, lanes)
                memoised += 1
                if not lane.reachable:
                    continue  # culled without consuming any stochastic draw
                mean = lane.mean_dbm
                if mean is None:
                    mean = channel.mean_rx_power_dbm(
                        lane.link, tx_pos, lane.rx_pos, tx_power, rx_gain,
                        lane.loss_db, start,
                    )
                if mean < threshold:
                    continue  # far out of range: the radio never syncs
                sample = LinkSample(
                    mean + channel.fade_db(lane.link_hash, tx_seq),
                    mean,
                    lane.distance_m,
                )
            else:
                rx_pos = rx_iface.position()
                budget = channel.link_budget(tx_pos, rx_pos)
                reachable = tx_power + rx_gain - budget[1] + headroom >= threshold
                if fast and not reachable:
                    continue  # culled without consuming any stochastic draw
                sample = channel.sample(
                    tx_id,
                    rx_iface.node_id,
                    tx_pos,
                    rx_pos,
                    tx_power,
                    rx_gain,
                    time=start,
                    tx_seq=tx_seq,
                    budget=budget,
                )
                sampled += 1
                if not reachable or sample.mean_rx_power_dbm < threshold:
                    continue  # far out of range: the radio never syncs
            self._admit_arrival(
                rx_iface, _Arrival(frame, rate, sample, start, end), finishing
            )
        if self._obs is not None:
            self._obs.scalar_floor_calls.value += sampled
            self._obs.static_lanes.value += memoised

    def _finish_coalesced(self, end: float) -> None:
        """Frame end for every broadcast whose transmission ends at *end*.

        A single-group end time takes the legacy per-broadcast path
        unchanged.  Multiple groups evaluate their frame-error curves as
        one vectorized pass per ``(rate, frame size)`` bucket — exact,
        the curve is elementwise-pure — while the Bernoulli draws, loss
        causes, trace rows and deliveries run per arrival in the scalar
        event order (groups in registration order, arrivals within), so
        the channel RNG stream and every observable side effect match
        the one-event-per-broadcast arm bit for bit.
        """
        groups = self._finish_registry.pop(end)
        if len(groups) == 1:
            self._finish_transmission(groups[0])
            return
        channel = self._channel
        cls = type(channel)
        if (
            cls.frame_delivered is not Channel.frame_delivered
            or cls.frames_delivered_batch is not Channel.frames_delivered_batch
        ):
            # Scripted delivery outcomes: evaluate per broadcast through
            # the legacy path, in registration order (event order).
            for finishing in groups:
                self._finish_transmission(finishing)
            return
        obs_probes = self._obs
        if obs_probes is not None:
            obs_probes.frame_end_batch.value += len(groups)
        flat: list[tuple[NetworkInterface, _Arrival]] = []
        bounds: list[int] = [0]
        for finishing in groups:
            flat.extend(finishing)
            bounds.append(len(flat))
        n = len(flat)
        snrs: list[float] = []
        npis: list[float] = []
        causes: list[LossCause | None] = [None] * n
        pending_lanes: list[int] = []
        for i, (rx_iface, arrival) in enumerate(flat):
            npi, snr_db, cause = self._pre_classify(rx_iface, arrival)
            npis.append(npi)
            snrs.append(snr_db)
            causes[i] = cause
            if cause is None:
                pending_lanes.append(i)
        if pending_lanes:
            # FER is pure per (rate, size, SINR): bucket by curve, then
            # draw sequentially in flat (= scalar event) order.
            buckets: dict[tuple, list[int]] = {}
            for j, i in enumerate(pending_lanes):
                arrival = flat[i][1]
                key = (arrival.rate, arrival.frame.size_bytes)
                buckets.setdefault(key, []).append(j)
            fers = np.empty(len(pending_lanes))
            for (rate, size_bytes), members in buckets.items():
                sinr = np.array(
                    [
                        flat[pending_lanes[j]][1].sample.rx_power_dbm
                        - npis[pending_lanes[j]]
                        for j in members
                    ]
                )
                fers[members] = frame_error_rate_batch(rate, sinr, size_bytes)
            outcomes = channel.delivery_draws(fers.tolist())
            for j, i in enumerate(pending_lanes):
                causes[i] = _post_draw_cause(outcomes[j], flat[i][1])
        now = self._sim.now
        trace = self._trace
        ongoing = self._ongoing
        sink = self._delivery_sink
        for g in range(len(groups)):
            delivered: list[tuple[NetworkInterface, Frame, RxInfo]] = []
            for i in range(bounds[g], bounds[g + 1]):
                rx_iface, arrival = flat[i]
                ongoing[rx_iface].remove(arrival)
                cause = causes[i]
                if trace is not None:
                    trace.on_rx(
                        now, rx_iface.node_id, arrival.frame, cause, snrs[i],
                        arrival.sample.rx_power_dbm,
                    )
                if cause is LossCause.DELIVERED:
                    delivered.append((
                        rx_iface,
                        arrival.frame,
                        RxInfo(now, arrival.sample.rx_power_dbm, snrs[i]),
                    ))
            if not delivered:
                continue
            if obs_probes is not None:
                obs_probes.delivery_lanes.observe(len(delivered))
            if sink is not None:
                sink(delivered)
            else:
                for rx_iface, frame, info in delivered:
                    rx_iface.deliver(frame, info)

    def _admit_arrival(
        self,
        rx_iface: "NetworkInterface",
        arrival: _Arrival,
        finishing: list[tuple["NetworkInterface", _Arrival]],
    ) -> None:
        """Register an in-range arrival: interference links + bookkeeping."""
        sample = arrival.sample
        # Mutual interference with everything already on the air here.
        for other in self._ongoing[rx_iface]:
            other.interferers_dbm.append(sample.rx_power_dbm)
            arrival.interferers_dbm.append(other.sample.rx_power_dbm)
        if rx_iface.transmitting:
            arrival.half_duplex = True
        self._ongoing[rx_iface].append(arrival)
        finishing.append((rx_iface, arrival))

    def _receive_batch(
        self,
        tx_iface: "NetworkInterface",
        candidates: list["NetworkInterface"],
        frame: Frame,
        rate: WifiRate,
        tx_pos: "Vec2",
        tx_power: float,
        tx_id: typing.Hashable,
        now: float,
        end: float,
        tx_seq: int,
        finishing: list[tuple["NetworkInterface", _Arrival]],
    ) -> None:
        """One vectorized pass over the candidate set (bit-identical).

        Gathers the candidates into flat arrays — positions unpacked
        once per Vec2, gains and cached thresholds alongside — and hands
        them to :func:`repro.radio.batch.broadcast_samples`; survivors
        come back as aligned arrays and are admitted in candidate order,
        so arrival ordering (and with it interference pairing and event
        ranks) matches the scalar loop exactly.
        """
        static = self._rx_static
        scratch = self._scratch
        scratch.reserve(len(candidates))
        rx_gains = scratch.rx_gains
        rx_floors = scratch.rx_floors
        rx_ifaces: list[NetworkInterface] = []
        rx_ids: list[typing.Hashable] = []
        # Mobility batch groups: candidates whose models share a batch
        # key get their positions from one vectorized query (index list,
        # model list); everyone else queries position_fn per candidate.
        groups: dict[object, tuple[list[int], list[object]]] = {}
        scalar_pos: list[int] = []
        index = 0
        for rx_iface in candidates:
            if rx_iface is tx_iface:
                continue
            rx_ifaces.append(rx_iface)
            node_id, gain, floor, key, mobility = static[rx_iface]
            rx_ids.append(node_id)
            rx_gains[index] = gain
            rx_floors[index] = floor
            if key is None:
                scalar_pos.append(index)
            else:
                group = groups.get(key)
                if group is None:
                    groups[key] = ([index], [mobility])
                else:
                    group[0].append(index)
                    group[1].append(mobility)
            index += 1
        if not index:
            return
        xs = scratch.rx_xs
        ys = scratch.rx_ys
        for indices, models in groups.values():
            if len(indices) < 4:
                # Tiny group: the vectorized query's fixed overhead loses
                # to a couple of scalar calls (same values either way).
                scalar_pos.extend(indices)
                continue
            group_xs, group_ys = models[0].positions_at_time(models, now)
            lanes = np.array(indices)
            xs[lanes] = group_xs
            ys[lanes] = group_ys
        for i in scalar_pos:
            pos = rx_ifaces[i].position()
            xs[i] = pos.x
            ys[i] = pos.y
        obs_probes = self._obs
        if obs_probes is not None:
            obs_probes.lanes.observe(index)
        spans = self._spans
        if spans is not None:
            spans.begin("batch-kernel", cat="medium", lanes=index)
        result = broadcast_samples(
            self._channel, tx_id, rx_ids, tx_pos,
            xs[:index], ys[:index], rx_gains[:index], rx_floors[:index],
            tx_power, self._cull_headroom_db, now, tx_seq,
        )
        if spans is not None:
            spans.end(kept=len(result.kept))
        rx_power = result.rx_power_dbm.tolist()
        mean_power = result.mean_rx_power_dbm.tolist()
        distance = result.distance_m.tolist()
        for j, i in enumerate(result.kept.tolist()):
            sample = LinkSample(
                rx_power_dbm=rx_power[j],
                mean_rx_power_dbm=mean_power[j],
                distance_m=distance[j],
            )
            self._admit_arrival(
                rx_ifaces[i], _Arrival(frame, rate, sample, now, end), finishing
            )

    def _finish_transmission(
        self, finishing: list[tuple["NetworkInterface", _Arrival]]
    ) -> None:
        """Frame end for one broadcast: classify all arrivals, deliver once.

        Both classification paths collect the successful receptions into
        one ``delivered`` list (arrival order) and dispatch at the end —
        through the delivery sink as a single batched call when one is
        installed, through ``iface.deliver`` per receiver otherwise.
        Deferring delivery past classification is exact: channel draws
        are keyed per (link, transmission) and protocol reactions only
        schedule future events, so no classification can observe a
        delivery's side effects either way.
        """
        delivered: list[tuple[NetworkInterface, Frame, RxInfo]] = []
        if self._batch and len(finishing) >= self._batch_min_candidates:
            if self._obs is not None:
                self._obs.frame_end_batch.value += 1
            self._finish_batch(finishing, delivered)
        else:
            if self._obs is not None:
                self._obs.frame_end_scalar.value += 1
            for rx_iface, arrival in finishing:
                self._finish_arrival(rx_iface, arrival, delivered)
        if not delivered:
            return
        if self._obs is not None:
            self._obs.delivery_lanes.observe(len(delivered))
        sink = self._delivery_sink
        if sink is not None:
            sink(delivered)
        else:
            for rx_iface, frame, info in delivered:
                rx_iface.deliver(frame, info)

    def _finish_batch(
        self,
        finishing: list[tuple["NetworkInterface", _Arrival]],
        delivered: list[tuple["NetworkInterface", Frame, RxInfo]],
    ) -> None:
        """Frame-end bookkeeping for a whole broadcast at once.

        All arrivals of one transmission share the frame and rate, so
        the SINR → frame-error-rate curve evaluates as one vectorized
        pass; interference totals, loss causes, Bernoulli draws and
        trace rows still run per arrival in the scalar order, which
        keeps the outcome stream bit-identical to
        :meth:`_finish_arrival`.  Successful receptions are appended to
        *delivered* for the caller to dispatch.
        """
        n = len(finishing)
        snrs: list[float] = []
        npis: list[float] = []
        causes: list[LossCause | None] = [None] * n
        pending: list[int] = []
        for i, (rx_iface, arrival) in enumerate(finishing):
            npi, snr_db, cause = self._pre_classify(rx_iface, arrival)
            npis.append(npi)
            snrs.append(snr_db)
            causes[i] = cause
            if cause is None:
                pending.append(i)
        if pending:
            first = finishing[pending[0]][1]
            outcomes = self._channel.frames_delivered_batch(
                [finishing[i][1].sample for i in pending],
                first.rate,
                first.frame,
                np.array([npis[i] for i in pending]),
                [finishing[i][0].node_id for i in pending],
            )
            for i, ok in zip(pending, outcomes):
                causes[i] = _post_draw_cause(ok, finishing[i][1])
        now = self._sim.now
        trace = self._trace
        for i, (rx_iface, arrival) in enumerate(finishing):
            self._ongoing[rx_iface].remove(arrival)
            cause = causes[i]
            if trace is not None:
                trace.on_rx(
                    now, rx_iface.node_id, arrival.frame, cause, snrs[i],
                    arrival.sample.rx_power_dbm,
                )
            if cause is LossCause.DELIVERED:
                delivered.append((
                    rx_iface,
                    arrival.frame,
                    RxInfo(now, arrival.sample.rx_power_dbm, snrs[i]),
                ))

    def _pre_classify(
        self, rx_iface: "NetworkInterface", arrival: _Arrival
    ) -> tuple[float, float, LossCause | None]:
        """``(noise+interference, snr, cause)`` before the delivery draw.

        The single source of the frame-end semantics — interference
        aggregation and the capture model — shared by the per-arrival
        and batched paths so the two can never drift apart.  A ``None``
        cause means the outcome still depends on the SINR-driven
        frame-error draw.
        """
        noise_floor = rx_iface.config.noise_floor_dbm
        interferers = arrival.interferers_dbm
        if not interferers:
            noise_plus_interference = noise_floor
        elif len(interferers) < 8:
            noise_plus_interference = dbm_sum(noise_floor, *interferers)
        else:
            # Storm-grade interference: the array-shaped conversion
            # wins; exact-equivalent to dbm_sum by construction
            # (pinned in tests/test_units.py).
            noise_plus_interference = dbm_sum_batch([noise_floor] + interferers)
        snr_db = arrival.sample.rx_power_dbm - noise_plus_interference
        if arrival.half_duplex:
            return noise_plus_interference, snr_db, LossCause.HALF_DUPLEX
        if interferers and snr_db < rx_iface.config.capture_threshold_db:
            # Same-code DSSS interference is not suppressed by processing
            # gain: without a capture margin over the interferers the frame
            # is destroyed (classic 802.11 capture model).
            return noise_plus_interference, snr_db, LossCause.INTERFERENCE
        return noise_plus_interference, snr_db, None

    def _finish_arrival(
        self,
        rx_iface: "NetworkInterface",
        arrival: _Arrival,
        delivered: list[tuple["NetworkInterface", Frame, RxInfo]],
    ) -> None:
        self._ongoing[rx_iface].remove(arrival)
        noise_plus_interference, snr_db, cause = self._pre_classify(
            rx_iface, arrival
        )
        if cause is None:
            cause = _post_draw_cause(
                self._channel.frame_delivered(
                    arrival.sample,
                    arrival.rate,
                    arrival.frame,
                    noise_plus_interference,
                    rx_id=rx_iface.node_id,
                ),
                arrival,
            )

        if self._trace is not None:
            self._trace.on_rx(
                self._sim.now, rx_iface.node_id, arrival.frame, cause, snr_db,
                arrival.sample.rx_power_dbm,
            )
        if cause is LossCause.DELIVERED:
            delivered.append((
                rx_iface,
                arrival.frame,
                RxInfo(self._sim.now, arrival.sample.rx_power_dbm, snr_db),
            ))

    # -- carrier sense ----------------------------------------------------------

    def busy(self, iface: "NetworkInterface") -> bool:
        """Whether *iface* senses energy above its carrier-sense threshold.

        Concurrent arrivals add up in the detector: two frames each just
        below the threshold are sensed busy together, so the arrivals'
        mean powers are aggregated with :func:`~repro.units.dbm_sum`
        before the comparison.
        """
        if iface.transmitting:
            return True
        if self._pending and iface in self._pending_rx:
            # Queued same-instant broadcasts may carry energy toward this
            # interface; admit them before reading the detector (only
            # candidate lanes can matter — non-candidates keep coalescing).
            self._drain_pending()
        arrivals = self._ongoing[iface]
        if not arrivals:
            return False
        threshold = iface.config.carrier_sense_threshold_dbm
        if len(arrivals) == 1:
            return arrivals[0].sample.mean_rx_power_dbm >= threshold
        total = dbm_sum(*(arrival.sample.mean_rx_power_dbm for arrival in arrivals))
        return total >= threshold
