"""Pseudo-schedules (the PACT'02 estimator the refinement relies on).

A pseudo-schedule is a fast, approximate schedule of a partitioned loop:
a single list-scheduling pass (no backtracking) over the intra-iteration
dependence graph that respects per-cluster modulo resource occupancy and
bus occupancy, and accounts for communication and synchronisation
latencies.  It is *not* a legal schedule — loop-carried conflicts are
summarised by a recurrence-violation term instead of being resolved — but
it tracks the final schedule's iteration length, communication count and
feasibility well enough to *compare partitions*, which is all the
refinement needs.

All times are integer ticks of the attempt's common grid (the context's
``quantum``), like the kernel's, so there are no rounding epsilons; only
the two ns outputs the refinement's float cost model reads
(:attr:`PseudoSchedule.it_length` and
:attr:`PseudoSchedule.recurrence_violation`) are converted, once per
pass.  This is the hottest function in the whole pipeline (thousands of
candidate partitions per loop), so it works entirely on the dense
integer-indexed arrays precomputed by
:class:`~repro.scheduler.context.LoopAnalysis` — no enum hashing, no
object-keyed dict lookups, no per-call latency-table queries.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Tuple

from repro.scheduler.context import SchedulingContext
from repro.scheduler.partition.partition import Partition


@dataclass(frozen=True)
class PseudoSchedule:
    """Summary statistics of one pseudo-scheduling pass."""

    #: Estimated iteration length, in ns.
    it_length: float
    #: Ops that found no free slot within the scan window (each is a
    #: strong signal the partition cannot be scheduled at this IT).
    overflow: int
    #: Inter-cluster communications per iteration.
    comms: int
    #: Total time (ns) by which recurrence circuits exceed their
    #: ``distance * IT`` budget under this partition.
    recurrence_violation: float
    #: Per-cluster Table 1 energy units per iteration.
    cluster_units: Tuple[float, ...]

    @property
    def feasible(self) -> bool:
        """Heuristically schedulable at this IT."""
        return self.overflow == 0 and self.recurrence_violation <= 0.0


def pseudo_schedule(ctx: SchedulingContext, partition: Partition) -> PseudoSchedule:
    """One list-scheduling pass over the partitioned loop."""
    analysis = ctx.analysis
    machine = ctx.machine
    window = ctx.options.pseudo_window
    sync_penalties = ctx.options.sync_penalties

    assign = partition.vector()
    cluster_period = ctx.cluster_periods
    icn_period = ctx.icn_period
    bus_latency = machine.interconnect.latency
    n_buses = machine.interconnect.n_buses
    icn_ii = ctx.icn_ii
    cluster_iis = ctx.cluster_iis
    fu_counts = ctx.cluster_fu_counts
    op_fu_code = analysis.op_fu_code
    op_latency = analysis.op_latency
    op_energy = analysis.op_energy
    pred_edges = analysis.pred_edges

    # Modulo occupancy counters: per cluster, one row array per FU code.
    fu_rows: List[Optional[List[List[int]]]] = []
    for index in range(machine.n_clusters):
        ii = cluster_iis[index]
        fu_rows.append(
            [[0] * ii for _ in fu_counts[index]] if ii >= 1 else None
        )
    bus_rows = [0] * icn_ii if icn_ii >= 1 else None

    n = analysis.n_ops
    issue = [0] * n
    finish = [0] * n
    overflow = 0
    comms = 0

    for position in analysis.topo_indices:
        cluster = assign[position]
        period = cluster_period[cluster]
        if period is None:
            # Op assigned to a gated cluster: unschedulable here.
            overflow += 1
            issue[position] = 0
            finish[position] = 0
            continue
        ready = 0
        for src, delay, carries in pred_edges[position]:
            src_cluster = assign[src]
            src_period = cluster_period[src_cluster]
            if src_period is None:
                continue
            value_at = issue[src] + delay * src_period
            if carries and src_cluster != cluster:
                comms += 1
                if icn_period is None:
                    overflow += 1
                    if value_at > ready:
                        ready = value_at
                    continue
                bus_ready = value_at
                if sync_penalties and src_period != icn_period:
                    bus_ready = value_at + icn_period
                bus_cycle = -(-bus_ready // icn_period)
                placed_bus = False
                if bus_rows is not None:
                    limit = bus_cycle + icn_ii * window
                    while bus_cycle <= limit:
                        row = bus_cycle % icn_ii
                        if bus_rows[row] < n_buses:
                            bus_rows[row] += 1
                            placed_bus = True
                            break
                        bus_cycle += 1
                if not placed_bus:
                    overflow += 1
                value_at = (bus_cycle + bus_latency) * icn_period
                if sync_penalties and icn_period != period:
                    value_at += period
            if value_at > ready:
                ready = value_at

        ii = cluster_iis[cluster]
        cycle = -(-ready // period)
        code = op_fu_code[position]
        if code >= 0:
            rows = fu_rows[cluster][code]
            capacity = fu_counts[cluster][code]
            limit = cycle + ii * window
            placed = False
            while cycle <= limit:
                if rows[cycle % ii] < capacity:
                    rows[cycle % ii] += 1
                    placed = True
                    break
                cycle += 1
            if not placed:
                overflow += 1
        issue[position] = cycle * period
        finish[position] = (cycle + op_latency[position]) * period

    it_length = max(finish, default=0)

    # Loop-carried feasibility: each recurrence circuit must close within
    # distance * IT once per-cluster latencies and copies are counted.
    violation = 0
    for total_distance, hops in analysis.recurrence_hops:
        total = 0
        for src, dst, best_delay, carries in hops:
            src_cluster = assign[src]
            dst_cluster = assign[dst]
            src_period = cluster_period[src_cluster]
            if src_period is None:
                src_period = max(t for t in cluster_period if t is not None)
            total += best_delay * src_period
            if carries and src_cluster != dst_cluster and icn_period is not None:
                dst_period = cluster_period[dst_cluster]
                sync_in = (
                    icn_period if sync_penalties and src_period != icn_period else 0
                )
                out_period = dst_period if dst_period is not None else icn_period
                sync_out = (
                    out_period if sync_penalties and icn_period != out_period else 0
                )
                total += sync_in + bus_latency * icn_period + sync_out
        budget = total_distance * ctx.it_ticks
        if total > budget:
            violation += total - budget

    units = [0.0] * machine.n_clusters
    for position in range(n):
        units[assign[position]] += op_energy[position]

    quantum = ctx.quantum
    return PseudoSchedule(
        it_length=float(it_length * quantum),
        overflow=overflow,
        comms=comms,
        recurrence_violation=float(violation * quantum),
        cluster_units=tuple(units),
    )


def partition_cost(
    ctx: SchedulingContext, partition: Partition
) -> Tuple[float, float]:
    """Lexicographic cost of a partition: (infeasibility, estimated ED^2).

    The first component must be zero for a schedulable partition: it sums
    capacity overload, pseudo-schedule overflow and recurrence violations.
    The second applies the section 3.1 energy model (with the context's
    weights and delta/sigma factors) to the pseudo-schedule and multiplies
    by the estimated squared execution time.
    """
    infeasibility = 0.0
    demand = partition.demand_matrix()
    fu_counts = ctx.cluster_fu_counts
    cluster_iis = ctx.cluster_iis
    for cluster in range(ctx.n_clusters):
        ii = cluster_iis[cluster]
        row = demand[cluster]
        counts = fu_counts[cluster]
        for code, needed in enumerate(row):
            capacity = ii * counts[code]
            if needed > capacity:
                infeasibility += needed - capacity

    ps = pseudo_schedule(ctx, partition)
    it = float(ctx.it)
    infeasibility += ps.overflow
    infeasibility += ps.recurrence_violation / it

    weights = ctx.weights
    time_estimate = (ctx.trip_count - 1) * it + ps.it_length
    dynamic = weights.e_ins_unit * sum(
        delta * units for delta, units in zip(ctx.cluster_deltas, ps.cluster_units)
    )
    dynamic += ctx.icn_delta * weights.e_comm * ps.comms
    static = time_estimate * (
        weights.static_rate_per_cluster * sum(ctx.cluster_sigmas)
        + weights.static_rate_icn * ctx.icn_sigma
    )
    energy = dynamic + static
    return (infeasibility, energy * time_estimate * time_estimate)
