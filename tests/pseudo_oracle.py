"""Reference scorer for the incremental ED^2 refinement.

A plain copy of the straightforward refinement: every candidate move is
materialized with ``Partition.moved()`` and priced by a full
pseudo-scheduling pass from the first topological step.  The tests hold
the incremental scorer and ``ed2_refine`` to it bit for bit, and share
the Hypothesis strategy that draws the cases.
"""

from __future__ import annotations

from fractions import Fraction
from typing import List, Optional, Tuple

from hypothesis import assume
from hypothesis import strategies as st

from repro.ir.builder import DDGBuilder
from repro.ir.dependence import DepKind
from repro.ir.opcodes import COMPUTE_CLASSES
from repro.machine.clocking import ICN_DOMAIN, FrequencyPalette, cluster_domain
from repro.machine.machine import paper_machine
from repro.machine.operating_point import DomainSetting, OperatingPoint
from repro.scheduler.context import PartitionEnergyWeights, SchedulingContext
from repro.scheduler.ii_selection import select_assignments
from repro.scheduler.mii import minimum_initiation_time
from repro.scheduler.options import SchedulerOptions
from repro.scheduler.partition.coarsen import Macro
from repro.scheduler.partition.partition import Partition
from repro.scheduler.schedule import DomainAssignment


def full_pass(ctx: SchedulingContext, partition: Partition):
    """(it_length ns, overflow, comms, violation ns, units) of one pass."""
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

    fu_rows: List[Optional[List[List[int]]]] = []
    for index in range(machine.n_clusters):
        ii = cluster_iis[index]
        fu_rows.append([[0] * ii for _ in fu_counts[index]] if ii >= 1 else None)
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
            overflow += 1
            continue
        ready = 0
        for src, delay, carries in analysis.pred_edges[position]:
            src_cluster = assign[src]
            src_period = cluster_period[src_cluster]
            if src_period is None:
                continue
            value_at = issue[src] + delay * src_period
            if carries and src_cluster != cluster:
                comms += 1
                if icn_period is None:
                    overflow += 1
                    ready = max(ready, value_at)
                    continue
                bus_ready = value_at
                if sync_penalties and src_period != icn_period:
                    bus_ready = value_at + icn_period
                bus_cycle = -(-bus_ready // icn_period)
                placed_bus = False
                if bus_rows is not None:
                    limit = bus_cycle + icn_ii * window
                    while bus_cycle <= limit:
                        if bus_rows[bus_cycle % icn_ii] < n_buses:
                            bus_rows[bus_cycle % icn_ii] += 1
                            placed_bus = True
                            break
                        bus_cycle += 1
                if not placed_bus:
                    overflow += 1
                value_at = (bus_cycle + bus_latency) * icn_period
                if sync_penalties and icn_period != period:
                    value_at += period
            ready = max(ready, value_at)
        ii = cluster_iis[cluster]
        cycle = -(-ready // period)
        code = analysis.op_fu_code[position]
        if code >= 0:
            rows = fu_rows[cluster][code]
            limit = cycle + ii * window
            placed = False
            while cycle <= limit:
                if rows[cycle % ii] < fu_counts[cluster][code]:
                    rows[cycle % ii] += 1
                    placed = True
                    break
                cycle += 1
            if not placed:
                overflow += 1
        issue[position] = cycle * period
        finish[position] = (cycle + analysis.op_latency[position]) * period

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
                sync_in = icn_period if sync_penalties and src_period != icn_period else 0
                out_period = dst_period if dst_period is not None else icn_period
                sync_out = out_period if sync_penalties and icn_period != out_period else 0
                total += sync_in + bus_latency * icn_period + sync_out
        budget = total_distance * ctx.it_ticks
        if total > budget:
            violation += total - budget

    units = [0.0] * machine.n_clusters
    for position in range(n):
        units[assign[position]] += analysis.op_energy[position]
    return (
        float(max(finish, default=0) * ctx.quantum),
        overflow,
        comms,
        float(violation * ctx.quantum),
        tuple(units),
    )


def full_cost(ctx: SchedulingContext, partition: Partition) -> Tuple[float, float]:
    """(infeasibility, ED^2) from a full pass, as the cost model defines it."""
    infeasibility = 0.0
    demand = partition.demand_matrix()
    for cluster in range(ctx.n_clusters):
        ii = ctx.cluster_iis[cluster]
        for code, needed in enumerate(demand[cluster]):
            capacity = ii * ctx.cluster_fu_counts[cluster][code]
            if needed > capacity:
                infeasibility += needed - capacity
    it_length, overflow, comms, violation, units = full_pass(ctx, partition)
    it = float(ctx.it)
    infeasibility += overflow
    infeasibility += violation / it
    weights = ctx.weights
    time_estimate = (ctx.trip_count - 1) * it + it_length
    dynamic = weights.e_ins_unit * sum(
        delta * u for delta, u in zip(ctx.cluster_deltas, units)
    )
    dynamic += ctx.icn_delta * weights.e_comm * comms
    static = time_estimate * (
        weights.static_rate_per_cluster * sum(ctx.cluster_sigmas)
        + weights.static_rate_icn * ctx.icn_sigma
    )
    energy = dynamic + static
    return (infeasibility, energy * time_estimate * time_estimate)


def refine_by_copies(ctx: SchedulingContext, partition: Partition, macros) -> Partition:
    """Best-improvement ED^2 moves, one copy and one full pass per candidate."""
    usable = ctx.usable_clusters()
    current = partition
    current_cost = full_cost(ctx, current)
    for _ in range(ctx.options.refinement_passes):
        moved = False
        for macro in macros:
            source = current.cluster_of(macro.ops[0])
            best_candidate = None
            best_cost = current_cost
            for target in usable:
                if target == source:
                    continue
                candidate = current.moved(macro.ops, target)
                cost = full_cost(ctx, candidate)
                if cost < best_cost:
                    best_cost = cost
                    best_candidate = candidate
            if best_candidate is not None:
                current = best_candidate
                current_cost = best_cost
                moved = True
        if not moved:
            break
    return current


def bits(cost) -> Tuple[str, ...]:
    """A cost's exact bit patterns (``==`` would equate 0.0 and -0.0)."""
    return tuple(value.hex() for value in cost)


# ----------------------------------------------------------------------
# Hypothesis strategies
# ----------------------------------------------------------------------
@st.composite
def loops(draw, max_ops=9):
    """A DAG of flow, memory and anti edges plus loop-carried flow edges."""
    n = draw(st.integers(min_value=2, max_value=max_ops))
    b = DDGBuilder("oracle")
    ops = [
        b.op(f"n{i}", draw(st.sampled_from(COMPUTE_CLASSES))) for i in range(n)
    ]
    for j in range(1, n):
        parents = draw(st.lists(st.integers(0, j - 1), max_size=2, unique=True))
        for i in parents:
            kind = draw(
                st.sampled_from(
                    [DepKind.FLOW, DepKind.FLOW, DepKind.MEMORY, DepKind.ANTI]
                )
            )
            b.dep(ops[i], ops[j], kind=kind)
    for _ in range(draw(st.integers(min_value=0, max_value=3))):
        src = draw(st.integers(0, n - 1))
        dst = draw(st.integers(0, n - 1))
        b.flow(ops[src], ops[dst], distance=draw(st.integers(1, 3)))
    return b.build()


@st.composite
def contexts(draw, gate=None):
    """A scheduling context, sometimes with a gated cluster or bus."""
    ddg = draw(loops())
    fast = draw(st.sampled_from([Fraction(9, 10), Fraction(1)]))
    slow = fast * draw(st.sampled_from([Fraction(1), Fraction(5, 4), Fraction(3, 2)]))
    n_fast = draw(st.integers(1, 3))
    point = OperatingPoint(
        clusters=tuple(
            DomainSetting(fast, 1.1, 0.28)
            if i < n_fast
            else DomainSetting(slow, 0.8, 0.30)
            for i in range(4)
        ),
        icn=DomainSetting(fast, 1.0, 0.30),
        cache=DomainSetting(fast, 1.2, 0.35),
    )
    machine = paper_machine(n_buses=draw(st.integers(1, 2)))
    mit = minimum_initiation_time(ddg, machine, point.speeds)
    it = mit * draw(st.sampled_from([Fraction(1), Fraction(5, 4), Fraction(2)]))
    assignments = select_assignments(it, point, FrequencyPalette.any_frequency())
    assume(assignments is not None)
    gate = draw(st.sampled_from(["none", "cluster", "icn"])) if gate is None else gate
    if gate == "cluster":
        domain = cluster_domain(draw(st.integers(1, 3)))
        assignments[domain] = DomainAssignment(domain, Fraction(0), 0)
    elif gate == "icn":
        assignments[ICN_DOMAIN] = DomainAssignment(ICN_DOMAIN, Fraction(0), 0)
    weights = draw(
        st.sampled_from(
            [
                PartitionEnergyWeights(),
                PartitionEnergyWeights(1.1, 0.7, 0.013, 0.004),
                PartitionEnergyWeights(0.3, 2.5, 0.2, 0.0),
            ]
        )
    )
    options = SchedulerOptions(
        sync_penalties=draw(st.booleans()),
        pseudo_window=draw(st.integers(1, 4)),
    )
    # Below one trip the time estimate can be negative at short lengths,
    # where the ED^2 is not monotone in the length.
    trip_count = draw(st.sampled_from([100.0, 7.0, 1.0, 0.5, 0.0]))
    return SchedulingContext(
        ddg, machine, point, assignments, it, options, trip_count, weights
    )


@st.composite
def partitions(draw, ctx, usable_only=False):
    """A random assignment (onto gated clusters too unless ``usable_only``)."""
    clusters = ctx.usable_clusters() if usable_only else list(range(ctx.n_clusters))
    return Partition(
        ctx.ddg,
        ctx.n_clusters,
        {op: draw(st.sampled_from(clusters)) for op in ctx.ddg.operations},
    )


@st.composite
def moves(draw, ctx):
    """(sorted op positions, target): the first or last op in topological
    order, or any non-empty set of ops."""
    analysis = ctx.analysis
    kind = draw(st.sampled_from(["first", "last", "any"]))
    if kind == "first":
        positions = (analysis.topo_indices[0],)
    elif kind == "last":
        positions = (analysis.topo_indices[-1],)
    else:
        positions = tuple(
            sorted(
                draw(
                    st.lists(
                        st.integers(0, analysis.n_ops - 1),
                        min_size=1,
                        max_size=3,
                        unique=True,
                    )
                )
            )
        )
    return positions, draw(st.integers(0, ctx.n_clusters - 1))


@st.composite
def macro_sets(draw, ctx):
    """The ops grouped into macros, in a random order."""
    ops = list(draw(st.permutations(ctx.ddg.operations)))
    macros = []
    while ops:
        size = draw(st.integers(1, min(3, len(ops))))
        macros.append(Macro(len(macros), tuple(ops[:size])))
        ops = ops[size:]
    return macros
