"""The result of modulo scheduling a loop on a heterogeneous machine.

A schedule fixes, for one loop:

* the initiation time ``IT`` (seconds between consecutive iteration
  starts — the machine-wide constant),
* per clock domain, the running ``(frequency, II)`` pair with
  ``II = f * IT``,
* for every operation, its cluster and issue cycle (in that cluster's
  local clock, iteration 0),
* for every inter-cluster value edge, the bus cycle of its copy.

Because every running domain meets the IT exactly, every issue, finish
and copy instant of the schedule falls on one grid: the gcd of the IT and
the running periods (:func:`clock_grid`).  The per-op and per-copy timing
methods return integer ticks of :attr:`Schedule.quantum` ns; ``it`` and
``it_length`` stay exact nanoseconds for serialization and reporting.
:meth:`Schedule.validate` re-derives every legality condition from
scratch, independently of the kernel that built the schedule.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Dict, List, Mapping, NamedTuple, Optional, Tuple

from repro.errors import SimulationError, SchedulingError
from repro.ir.analysis import edge_delay
from repro.ir.ddg import DDG
from repro.ir.dependence import Dependence
from repro.ir.operation import Operation
from repro.machine.clocking import ICN_DOMAIN, cluster_domain
from repro.machine.fu import fu_for
from repro.machine.machine import MachineDescription
from repro.scheduler.mrt import BUS, bus_mrt, cluster_mrt
from repro.units import Frequency, Time, common_quantum


@dataclass(frozen=True)
class DomainAssignment:
    """Running (frequency, II) of one clock domain for one loop.

    ``ii == 0`` means the domain is clock-gated for this loop (it still
    leaks, but executes nothing).
    """

    domain: str
    frequency: Frequency
    ii: int

    def __post_init__(self) -> None:
        if self.ii < 0:
            raise SchedulingError("II must be >= 0")
        if (self.ii == 0) != (self.frequency == 0):
            raise SchedulingError("gated domains must have zero frequency and II")

    @property
    def usable(self) -> bool:
        """True when the domain participates in the loop."""
        return self.ii >= 1

    @property
    def cycle_time(self) -> Time:
        """Running period (ns); undefined for gated domains."""
        if not self.usable:
            raise SchedulingError(f"domain {self.domain} is gated")
        return Fraction(1) / self.frequency


class ClockGrid(NamedTuple):
    """One attempt's common time grid, in integer ticks of ``quantum`` ns."""

    quantum: Fraction
    #: The IT in ticks.
    it: int
    #: Running period of each cluster in ticks (``None`` when gated).
    clusters: Tuple[Optional[int], ...]
    #: Running period of the interconnect in ticks (``None`` when gated).
    icn: Optional[int]


def clock_grid(
    it: Time, assignments: Mapping[str, DomainAssignment], n_clusters: int
) -> ClockGrid:
    """The coarsest grid carrying the IT and every usable cluster and
    interconnect period.  The cache domain stays out: no timing uses it."""
    domains = [assignments[cluster_domain(i)] for i in range(n_clusters)]
    domains.append(assignments[ICN_DOMAIN])
    periods = [a.cycle_time if a.usable else None for a in domains]
    quantum = common_quantum([it] + [p for p in periods if p is not None])
    ticks = [None if p is None else (p / quantum).numerator for p in periods]
    return ClockGrid(
        quantum, (it / quantum).numerator, tuple(ticks[:-1]), ticks[-1]
    )


@dataclass(frozen=True)
class PlacedOp:
    """An operation's slot: cluster and local issue cycle (iteration 0)."""

    op: Operation
    cluster: int
    cycle: int

    def __post_init__(self) -> None:
        if self.cycle < 0:
            raise SchedulingError("issue cycles are non-negative")
        if self.cluster < 0:
            raise SchedulingError("cluster indices are non-negative")


@dataclass(frozen=True)
class PlacedCopy:
    """The bus transfer of one inter-cluster value edge.

    The copy belongs to the *producer's* iteration: it reads the value
    after the producer finishes and delivers it ``latency`` bus cycles
    later to the consumer's cluster.
    """

    dep: Dependence
    bus_cycle: int

    def __post_init__(self) -> None:
        if self.bus_cycle < 0:
            raise SchedulingError("bus cycles are non-negative")


@dataclass(frozen=True)
class ValueLifetime:
    """A register lifetime: [start, end) in local cycles of ``cluster``."""

    cluster: int
    start: int
    end: int

    @property
    def length(self) -> int:
        """Cycles the register is held (at least one)."""
        return max(self.end - self.start, 1)


class Schedule:
    """A complete modulo schedule plus its derived measurements."""

    def __init__(
        self,
        ddg: DDG,
        machine: MachineDescription,
        it: Time,
        assignments: Mapping[str, DomainAssignment],
        placements: Mapping[Operation, PlacedOp],
        copies: Mapping[Dependence, PlacedCopy],
        sync_penalties: bool = True,
    ):
        self.ddg = ddg
        self.machine = machine
        self.it = Fraction(it)
        self.assignments = dict(assignments)
        self.placements = dict(placements)
        self.copies = dict(copies)
        self.sync_penalties = sync_penalties
        grid = clock_grid(self.it, self.assignments, machine.n_clusters)
        #: Length (ns) of one tick of the timing methods below.
        self.quantum: Fraction = grid.quantum
        #: The IT in ticks.
        self.it_ticks: int = grid.it
        self._cluster_ticks = grid.clusters
        self._icn_ticks = grid.icn

    # ------------------------------------------------------------------
    # domain helpers
    # ------------------------------------------------------------------
    def cluster_assignment(self, index: int) -> DomainAssignment:
        """Assignment of cluster ``index``."""
        return self.assignments[cluster_domain(index)]

    @property
    def icn_assignment(self) -> DomainAssignment:
        """Assignment of the interconnect domain."""
        return self.assignments[ICN_DOMAIN]

    def cluster_cycle_time(self, index: int) -> Time:
        """Running period (ns) of cluster ``index``."""
        return self.cluster_assignment(index).cycle_time

    def cluster_period(self, index: int) -> int:
        """Running period of cluster ``index`` in ticks."""
        period = self._cluster_ticks[index]
        if period is None:
            raise SchedulingError(f"domain {cluster_domain(index)} is gated")
        return period

    def _icn_period(self) -> int:
        """Running period of the interconnect in ticks."""
        if self._icn_ticks is None:
            raise SchedulingError(f"domain {ICN_DOMAIN} is gated")
        return self._icn_ticks

    def _sync_penalty(self, from_period: int, to_period: int) -> int:
        """One receiving-domain cycle (ticks) when frequencies differ
        (section 2.1)."""
        if self.sync_penalties and from_period != to_period:
            return to_period
        return 0

    # ------------------------------------------------------------------
    # timing
    # ------------------------------------------------------------------
    def placement(self, op: Operation) -> PlacedOp:
        """Where/when ``op`` is scheduled."""
        return self.placements[op]

    def issue_time(self, op: Operation) -> int:
        """Issue instant of ``op`` (iteration 0, ticks)."""
        placed = self.placements[op]
        return placed.cycle * self.cluster_period(placed.cluster)

    def finish_time(self, op: Operation) -> int:
        """Instant the result of ``op`` is available (iteration 0, ticks)."""
        placed = self.placements[op]
        latency = self.machine.isa.latency(op.opclass)
        return (placed.cycle + latency) * self.cluster_period(placed.cluster)

    def copy_issue_time(self, dep: Dependence) -> int:
        """Instant (ticks) the copy of ``dep`` starts its bus transfer."""
        return self.copies[dep].bus_cycle * self._icn_period()

    def copy_gate_time(self, dep: Dependence) -> int:
        """Earliest instant (ticks) the copy of ``dep`` may start: the
        producer's value plus the synchronisation queue into the bus."""
        producer = self.placements[dep.src]
        src_period = self.cluster_period(producer.cluster)
        produce = (producer.cycle + edge_delay(dep, self.machine.isa)) * src_period
        return produce + self._sync_penalty(src_period, self._icn_period())

    def copy_arrival_time(self, dep: Dependence) -> int:
        """Instant (ticks) the copied value is usable in the consumer's
        cluster.

        Includes the bus transfer and the synchronisation-queue penalty
        into the consumer's domain.
        """
        copy = self.copies[dep]
        icn = self._icn_period()
        arrival = (copy.bus_cycle + self.machine.interconnect.latency) * icn
        consumer = self.cluster_period(self.placements[dep.dst].cluster)
        return arrival + self._sync_penalty(icn, consumer)

    def value_ready_time(self, dep: Dependence) -> int:
        """Earliest instant (ticks) ``dep.dst`` may issue, in iteration-0
        frame.

        For a loop-carried dependence the producer of iteration ``-w``
        supplies the consumer of iteration 0, hence the ``- w * IT``.
        """
        if dep in self.copies:
            ready = self.copy_arrival_time(dep)
        else:
            # The edge's own delay semantics (flow/anti/output/override),
            # in the producer's clock.
            producer = self.placements[dep.src]
            delay = edge_delay(dep, self.machine.isa)
            ready = (producer.cycle + delay) * self.cluster_period(producer.cluster)
        return ready - dep.distance * self.it_ticks

    # ------------------------------------------------------------------
    # aggregate shape
    # ------------------------------------------------------------------
    @property
    def _it_length_ticks(self) -> int:
        """Ticks one whole iteration spans (issue of first to last finish)."""
        latest = 0
        for op in self.placements:
            latest = max(latest, self.finish_time(op))
        for dep in self.copies:
            latest = max(latest, self.copy_arrival_time(dep))
        return latest

    @property
    def it_length(self) -> Fraction:
        """Time (ns) one whole iteration spans."""
        return self._it_length_ticks * self.quantum

    @property
    def stage_count(self) -> int:
        """Number of concurrently executing iterations (SC)."""
        if self.it <= 0:
            raise SchedulingError("IT must be positive")
        return max(1, -(-self._it_length_ticks // self.it_ticks))

    def execution_time(self, iterations: float) -> float:
        """``(N - 1) * IT + it_length`` — total time for N iterations (ns)."""
        if iterations < 1:
            raise ValueError("iterations must be >= 1")
        return (iterations - 1) * float(self.it) + float(self.it_length)

    # ------------------------------------------------------------------
    # event counts (per iteration)
    # ------------------------------------------------------------------
    @property
    def comms_per_iteration(self) -> int:
        """Bus transfers per iteration."""
        return len(self.copies)

    @property
    def mem_accesses_per_iteration(self) -> int:
        """Cache accesses per iteration."""
        return sum(1 for op in self.ddg.operations if op.opclass.is_memory)

    def cluster_energy_units(self) -> Tuple[float, ...]:
        """Per-cluster Table 1 energy units executed per iteration."""
        isa = self.machine.isa
        units = [0.0] * self.machine.n_clusters
        for op, placed in self.placements.items():
            units[placed.cluster] += isa.energy(op.opclass)
        return tuple(units)

    # ------------------------------------------------------------------
    # register lifetimes
    # ------------------------------------------------------------------
    def value_lifetimes(self) -> List[ValueLifetime]:
        """All register lifetimes (producer values and copy results).

        A produced value lives in its cluster's register file from its
        write until its last local read (a consumer in the same cluster,
        adjusted by the edge distance, or the copy that exports it); a
        copy's result lives in the consumer's cluster from its arrival to
        its reader.  Lengths are in local cycles of the owning cluster.
        """
        lifetimes: List[ValueLifetime] = []
        for op, placed in self.placements.items():
            if not op.opclass.writes_register:
                continue
            cluster = placed.cluster
            period = self.cluster_period(cluster)
            ii = self.cluster_assignment(cluster).ii
            start = placed.cycle + self.machine.isa.latency(op.opclass)
            end = start
            consumed = False
            for dep in self.ddg.out_edges(op):
                if not dep.carries_value:
                    continue
                consumed = True
                if dep in self.copies:
                    read_cycle = -(-self.copy_issue_time(dep) // period)
                else:
                    consumer = self.placements[dep.dst]
                    read_cycle = consumer.cycle + dep.distance * ii
                end = max(end, read_cycle)
            if consumed:
                lifetimes.append(ValueLifetime(cluster, start, max(end, start)))
        for dep, copy in self.copies.items():
            consumer = self.placements[dep.dst]
            cluster = consumer.cluster
            period = self.cluster_period(cluster)
            ii = self.cluster_assignment(cluster).ii
            start = -(-self.copy_arrival_time(dep) // period)
            end = consumer.cycle + dep.distance * ii
            lifetimes.append(ValueLifetime(cluster, start, max(end, start)))
        return lifetimes

    def sum_lifetimes(self) -> int:
        """Total register-holding cycles per iteration (all clusters)."""
        return sum(l.length for l in self.value_lifetimes())

    def max_live(self) -> Tuple[int, ...]:
        """Per-cluster MaxLive: registers simultaneously held.

        A lifetime [s, e) repeats every II local cycles (one instance per
        iteration in flight), so slot ``m`` of the modulo frame holds one
        register for every x in [s, e) with ``x % II == m``.
        """
        peaks = [0] * self.machine.n_clusters
        by_cluster: Dict[int, List[ValueLifetime]] = {}
        for lifetime in self.value_lifetimes():
            by_cluster.setdefault(lifetime.cluster, []).append(lifetime)
        for cluster, lifetimes in by_cluster.items():
            assignment = self.cluster_assignment(cluster)
            if not assignment.usable:
                continue
            ii = assignment.ii
            slots = [0] * ii
            for lifetime in lifetimes:
                for x in range(lifetime.start, lifetime.start + lifetime.length):
                    slots[x % ii] += 1
            peaks[cluster] = max(slots)
        return tuple(peaks)

    # ------------------------------------------------------------------
    # validation
    # ------------------------------------------------------------------
    def validate(self) -> None:
        """Re-derive every legality condition; raise on violation."""
        self._validate_assignments()
        self._validate_placements()
        self._validate_resources()
        self._validate_dependences()

    def _validate_assignments(self) -> None:
        for assignment in self.assignments.values():
            if assignment.usable:
                ii_check = assignment.frequency * self.it
                if ii_check != assignment.ii:
                    raise SimulationError(
                        f"domain {assignment.domain}: II {assignment.ii} != "
                        f"f * IT = {ii_check}"
                    )

    def _validate_placements(self) -> None:
        for op in self.ddg.operations:
            if op not in self.placements:
                raise SimulationError(f"operation {op.name} is not placed")
        for op, placed in self.placements.items():
            assignment = self.cluster_assignment(placed.cluster)
            if not assignment.usable:
                raise SimulationError(
                    f"operation {op.name} placed on gated cluster {placed.cluster}"
                )

    def _validate_resources(self) -> None:
        tables = []
        for index in range(self.machine.n_clusters):
            assignment = self.cluster_assignment(index)
            tables.append(
                cluster_mrt(self.machine.cluster(index), assignment.ii)
                if assignment.usable
                else None
            )
        for op, placed in self.placements.items():
            fu = fu_for(op.opclass)
            if fu is None:
                continue
            table = tables[placed.cluster]
            assert table is not None  # placement validation ran first
            try:
                table.reserve(placed.cycle, fu, op)
            except SchedulingError as error:
                raise SimulationError(
                    f"operation {op.name}: {error}"
                ) from error
        if self.copies:
            icn = self.icn_assignment
            if not icn.usable:
                raise SimulationError("copies scheduled on a gated interconnect")
            buses = bus_mrt(self.machine.interconnect.n_buses, icn.ii)
            for dep, copy in self.copies.items():
                try:
                    buses.reserve(copy.bus_cycle, BUS, dep)
                except SchedulingError as error:
                    raise SimulationError(
                        f"copy {dep.src.name}->{dep.dst.name}: {error}"
                    ) from error

    def _validate_dependences(self) -> None:
        for dep in self.ddg.dependences:
            consumer = self.placements[dep.dst]
            producer = self.placements[dep.src]
            crosses = producer.cluster != consumer.cluster
            if dep.carries_value and crosses and dep not in self.copies:
                raise SimulationError(
                    f"value edge {dep.src.name}->{dep.dst.name} crosses "
                    "clusters without a copy"
                )
            if dep in self.copies:
                # Producer -> bus leg.
                if self.copy_issue_time(dep) < self.copy_gate_time(dep):
                    raise SimulationError(
                        f"copy of {dep.src.name}->{dep.dst.name} issues before "
                        "its value reaches the bus"
                    )
            ready = self.value_ready_time(dep)
            if self.issue_time(dep.dst) < ready:
                raise SimulationError(
                    f"dependence {dep.src.name}->{dep.dst.name} violated: "
                    f"consumer issues at {self.issue_time(dep.dst) * self.quantum}"
                    f" ns, value ready at {ready * self.quantum} ns"
                )

    def __repr__(self) -> str:
        return (
            f"Schedule({self.ddg.name!r}, IT={self.it}, "
            f"ops={len(self.placements)}, copies={len(self.copies)}, "
            f"SC={self.stage_count})"
        )
