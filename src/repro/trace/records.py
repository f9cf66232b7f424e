"""Immutable per-frame trace records."""

from __future__ import annotations

from dataclasses import dataclass

from repro.mac.frames import Frame, NodeId
from repro.mac.medium import LossCause
from repro.radio.modulation import WifiRate


@dataclass(frozen=True, slots=True)
class TxRecord:
    """One frame put on the air."""

    time: float
    node: NodeId
    frame: Frame
    rate: WifiRate


@dataclass(frozen=True, slots=True)
class RxRecord:
    """One frame arriving (or failing to arrive) at one receiver.

    ``cause`` is :attr:`~repro.mac.medium.LossCause.DELIVERED` for
    successful receptions; other values classify the loss.  Arrivals far
    below sensitivity generate no record at all (a real sniffer never sees
    them).
    """

    time: float
    node: NodeId
    frame: Frame
    cause: LossCause
    snr_db: float
    rx_power_dbm: float

    @property
    def delivered(self) -> bool:
        """Whether the frame was received correctly."""
        return self.cause is LossCause.DELIVERED
