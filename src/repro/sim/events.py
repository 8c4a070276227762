"""Event types flowing through the simulator."""

from __future__ import annotations

from dataclasses import dataclass

from repro.ir.dependence import Dependence
from repro.ir.operation import Operation


@dataclass(frozen=True)
class SimEvent:
    """Base event: something happens at ``time`` (ticks of the schedule's
    grid) in ``iteration``."""

    time: int
    iteration: int


@dataclass(frozen=True)
class OpIssue(SimEvent):
    """An operation enters its function unit."""

    op: Operation = None  # type: ignore[assignment]
    cluster: int = 0


@dataclass(frozen=True)
class OpComplete(SimEvent):
    """An operation's result becomes readable in its cluster."""

    op: Operation = None  # type: ignore[assignment]
    cluster: int = 0


@dataclass(frozen=True)
class CopyStart(SimEvent):
    """A copy claims a bus and starts transferring a value."""

    dep: Dependence = None  # type: ignore[assignment]


@dataclass(frozen=True)
class CopyArrive(SimEvent):
    """A copied value becomes readable in the consumer's cluster.

    The timestamp already includes the synchronisation-queue penalty into
    the consumer's domain.
    """

    dep: Dependence = None  # type: ignore[assignment]
    cluster: int = 0
