"""The cross-broadcast channel kernel: one pass over many transmissions.

:func:`broadcast_samples` (``radio/batch.py``) removed the per-receiver
Python round-trip *within* one broadcast, but every broadcast still paid
the NumPy fixed costs once, and candidate sets below the medium's
``batch_min_candidates`` floor fell back to scalar ``channel.sample``
calls — the dominant cost of protocol-heavy multi-AP rounds, where many
small HELLO/data broadcasts land on the same instant.

:func:`multibroadcast_samples` concatenates the candidate lanes of N
pending same-instant broadcasts into flat arrays (per-lane transmitter
coordinates, powers and ``tx_seq`` counters alongside the receiver
columns) and evaluates them in one keyed pass: one ``hypot``/path-loss
sweep, one reachability cull, one Gudmundson corner-probe set (deduped
across broadcasts), one fading draw.  Keyed counter-based randomness
makes the regrouping exact by construction — each lane's draws are a
pure function of its ``(link, transmission)`` key, independent of which
pass it rides in — and ``tests/radio/test_multibatch_parity.py`` pins
the concatenated pass bitwise-equal to one-at-a-time evaluation.

The result is returned per broadcast (a :class:`BroadcastBatch` each, in
input order, with lane indices local to that broadcast's slice), so the
medium's admission loop is oblivious to how the sampling was grouped.
"""

from __future__ import annotations

import typing

import numpy as np

from repro.radio.batch import _EMPTY, BroadcastBatch, broadcast_samples
from repro.radio.channel import Channel
from repro.radio.keyed import hypot_map
from repro.radio.obstruction import NoObstruction

if typing.TYPE_CHECKING:  # pragma: no cover
    from repro.geom import Vec2


class PendingSlice(typing.NamedTuple):
    """One queued broadcast's transmitter facts and lane range.

    ``start:stop`` index the flat lane arrays handed to
    :func:`multibroadcast_samples`.
    """

    tx_id: typing.Hashable
    tx_pos: "Vec2"
    tx_power_dbm: float
    tx_seq: int
    start: int
    stop: int


def _needs_per_broadcast(channel: Channel) -> bool:
    """Scripted/overridden channel physics cannot ride the flat pass.

    Subclasses overriding any budget or sampling entry point (scripted
    realisations in protocol tests) are honoured by evaluating each
    broadcast through :func:`broadcast_samples`, which carries its own
    per-candidate scalar fallbacks.
    """
    cls = type(channel)
    return (
        cls.link_budget is not Channel.link_budget
        or cls.link_budget_batch is not Channel.link_budget_batch
        or cls.sample is not Channel.sample
        or cls.sample_batch is not Channel.sample_batch
        or cls.sample_multibatch is not Channel.sample_multibatch
    )


def multibroadcast_samples(
    channel: Channel,
    broadcasts: list[PendingSlice],
    rx_ids: list[typing.Hashable],
    tx_xs: np.ndarray,
    tx_ys: np.ndarray,
    rx_xs: np.ndarray,
    rx_ys: np.ndarray,
    rx_gains_db: np.ndarray,
    rx_thresholds_dbm: np.ndarray,
    tx_powers_dbm: np.ndarray,
    tx_seqs: np.ndarray,
    headroom_db: float,
    time: float,
) -> list[BroadcastBatch]:
    """Evaluate N broadcasts' concatenated candidate lanes in one pass.

    Mirrors :func:`broadcast_samples` stage for stage — deterministic
    budget, reachability cull, stochastic realisation for the survivors,
    sensitivity filter — with every per-transmission scalar widened to a
    per-lane array.  All lanes share *time* (the coalescer only queues
    same-instant broadcasts).  Returns one :class:`BroadcastBatch` per
    input broadcast, ``kept`` indices local to its lane slice.
    """
    if _needs_per_broadcast(channel):
        results = []
        for b in broadcasts:
            sl = slice(b.start, b.stop)
            results.append(
                broadcast_samples(
                    channel,
                    b.tx_id,
                    rx_ids[sl],
                    b.tx_pos,
                    rx_xs[sl],
                    rx_ys[sl],
                    rx_gains_db[sl],
                    rx_thresholds_dbm[sl],
                    b.tx_power_dbm,
                    headroom_db,
                    time,
                    b.tx_seq,
                )
            )
        return results

    distances = hypot_map(tx_xs - rx_xs, tx_ys - rx_ys)
    losses = channel.pathloss.loss_db_batch(distances)
    obstruction = channel.obstruction
    if type(obstruction) is not NoObstruction:
        # The obstruction batch API is per-transmitter; slice-add each
        # broadcast's extra loss (NoObstruction would only add zeros).
        for b in broadcasts:
            sl = slice(b.start, b.stop)
            losses[sl] = losses[sl] + obstruction.extra_loss_db_batch(
                b.tx_pos, rx_xs[sl], rx_ys[sl]
            )
    reachable = (
        tx_powers_dbm + rx_gains_db - losses + headroom_db >= rx_thresholds_dbm
    )
    idx = np.flatnonzero(reachable)
    if idx.size == 0:
        return [_EMPTY for _ in broadcasts]
    idx_list = idx.tolist()
    sub_rx_ids = [rx_ids[i] for i in idx_list]
    bounds = np.searchsorted(
        idx, [b.start for b in broadcasts] + [b.stop for b in broadcasts]
    )
    n_broadcasts = len(broadcasts)
    sub_tx_ids: list[typing.Hashable] = []
    for k, b in enumerate(broadcasts):
        sub_tx_ids.extend([b.tx_id] * int(bounds[n_broadcasts + k] - bounds[k]))
    rx_power, mean_power = channel.sample_multibatch(
        sub_tx_ids,
        sub_rx_ids,
        tx_xs[idx],
        tx_ys[idx],
        rx_xs[idx],
        rx_ys[idx],
        tx_powers_dbm[idx],
        rx_gains_db[idx],
        time,
        tx_seqs[idx],
        (distances[idx], losses[idx]),
    )
    keep = mean_power >= rx_thresholds_dbm[idx]
    kept = idx[keep]
    kept_power = rx_power[keep]
    kept_mean = mean_power[keep]
    kept_dist = distances[kept]
    results = []
    splits = np.searchsorted(
        kept, [b.start for b in broadcasts] + [b.stop for b in broadcasts]
    )
    for k, b in enumerate(broadcasts):
        lo = int(splits[k])
        hi = int(splits[n_broadcasts + k])
        if lo == hi:
            results.append(_EMPTY)
            continue
        results.append(
            BroadcastBatch(
                kept[lo:hi] - b.start,
                kept_power[lo:hi],
                kept_mean[lo:hi],
                kept_dist[lo:hi],
            )
        )
    return results
