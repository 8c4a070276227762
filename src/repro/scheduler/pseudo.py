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
the ns outputs the refinement's float cost model reads are converted, as
``(ticks * numerator) / denominator`` (``int / int`` is correctly
rounded, so this equals ``float(ticks * quantum)`` without building a
``Fraction``).

The refinement scores thousands of one-macro moves per loop, so
:class:`MoveScorer` keeps one partition's terms and one *recorded* pass
(issue ticks, every slot reservation in order, and per topological step
the reservation count and the running overflow and iteration length)
and scores a move against them: assignment-only terms by delta, a lower
bound that rejects most moves before any list scheduling, and otherwise
the same pass resumed at the first moved op's step.  There is one
list-scheduling loop (:func:`_run_pass`); a scorer's first recording is
that loop from step 0 with empty state.  Everything works on the dense
integer-indexed arrays of :class:`~repro.scheduler.context.LoopAnalysis`.
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Tuple

from repro.scheduler.context import SchedulingContext
from repro.scheduler.partition.partition import Partition

#: (per-cluster start of its FU rows or None when gated, start of the bus
#: row or None, total length) of the flat occupancy array a pass fills:
#: FU code ``k`` of cluster ``c`` owns ``II_c`` counters from
#: ``start_c + k * II_c``; the bus owns ``II_icn`` counters.
RowLayout = Tuple[List[Optional[int]], Optional[int], int]

#: Per-step checkpoints of a recorded pass: running overflow and
#: iteration length before each step, reservation count before each
#: step, and every reserved row index in order.
PassLog = Tuple[List[int], List[int], List[int], List[int]]


def _row_layout(ctx: SchedulingContext) -> RowLayout:
    starts: List[Optional[int]] = []
    size = 0
    for index, ii in enumerate(ctx.cluster_iis):
        if ii >= 1:
            starts.append(size)
            size += ii * len(ctx.cluster_fu_counts[index])
        else:
            starts.append(None)
    bus_start = size if ctx.icn_ii >= 1 else None
    if bus_start is not None:
        size += ctx.icn_ii
    return starts, bus_start, size


def _run_pass(
    ctx: SchedulingContext,
    layout: RowLayout,
    assign: Sequence[int],
    step: int,
    issue: List[int],
    rows: List[int],
    overflow: int,
    it_length: int,
    log: Optional[PassLog] = None,
) -> Tuple[int, int]:
    """The list-scheduling pass from topological ``step`` to the end.

    ``issue``, ``rows``, ``overflow`` and ``it_length`` are the state
    before ``step`` (issue ticks are only read for earlier steps' ops);
    ``issue`` and ``rows`` are updated in place.  Returns the final
    ``(overflow, it_length)``; ``it_length`` is the latest finish tick.
    """
    analysis = ctx.analysis
    machine = ctx.machine
    window = ctx.options.pseudo_window
    sync_penalties = ctx.options.sync_penalties
    cluster_period = ctx.cluster_periods
    icn_period = ctx.icn_period
    bus_latency = machine.interconnect.latency
    n_buses = machine.interconnect.n_buses
    icn_ii = ctx.icn_ii
    cluster_iis = ctx.cluster_iis
    fu_counts = ctx.cluster_fu_counts
    op_fu_code = analysis.op_fu_code
    op_latency = analysis.op_latency
    pred_edges = analysis.pred_edges
    fu_start, bus_start, _size = layout
    recording = log is not None
    if recording:
        overflow_at, it_length_at, reserved_at, reserved = log

    for position in analysis.topo_indices[step:]:
        if recording:
            overflow_at.append(overflow)
            it_length_at.append(it_length)
            reserved_at.append(len(reserved))
        cluster = assign[position]
        period = cluster_period[cluster]
        if period is None:
            # Op assigned to a gated cluster: unschedulable here.
            overflow += 1
            issue[position] = 0
            continue
        ready = 0
        for src, delay, carries in pred_edges[position]:
            src_cluster = assign[src]
            src_period = cluster_period[src_cluster]
            if src_period is None:
                continue
            value_at = issue[src] + delay * src_period
            if carries and src_cluster != cluster:
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
                if bus_start is not None:
                    limit = bus_cycle + icn_ii * window
                    while bus_cycle <= limit:
                        slot = bus_start + bus_cycle % icn_ii
                        if rows[slot] < n_buses:
                            rows[slot] += 1
                            if recording:
                                reserved.append(slot)
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
            row = fu_start[cluster] + code * ii
            capacity = fu_counts[cluster][code]
            limit = cycle + ii * window
            placed = False
            while cycle <= limit:
                slot = row + cycle % ii
                if rows[slot] < capacity:
                    rows[slot] += 1
                    if recording:
                        reserved.append(slot)
                    placed = True
                    break
                cycle += 1
            if not placed:
                overflow += 1
        issue[position] = cycle * period
        finish = (cycle + op_latency[position]) * period
        if finish > it_length:
            it_length = finish
    return overflow, it_length


def fu_overload(ctx: SchedulingContext, demand: Sequence[Sequence[int]]) -> int:
    """FU slots demanded beyond ``II_c * units``, summed over every
    cluster and FU kind (``demand`` as :meth:`Partition.demand_matrix`)."""
    total = 0
    for row, ii, counts in zip(demand, ctx.cluster_iis, ctx.cluster_fu_counts):
        for needed, count in zip(row, counts):
            if needed > ii * count:
                total += needed - ii * count
    return total


def _comms(ctx: SchedulingContext, assign: Sequence[int]) -> int:
    """Value edges whose ends sit on different clusters, neither gated
    (ops on gated clusters are never scheduled): one bus copy each."""
    live = [period is not None for period in ctx.cluster_periods]
    return sum(
        carries
        and assign[src] != assign[dst]
        and live[assign[src]]
        and live[assign[dst]]
        for dst, edges in enumerate(ctx.analysis.pred_edges)
        for src, _delay, carries in edges
    )


def _circuit_excess(
    ctx: SchedulingContext, circuit: int, assign: Sequence[int]
) -> int:
    """Ticks by which one recurrence circuit exceeds ``distance * IT``
    once per-cluster latencies and copies are counted (zero if it fits)."""
    total_distance, hops = ctx.analysis.recurrence_hops[circuit]
    cluster_period = ctx.cluster_periods
    icn_period = ctx.icn_period
    bus_latency = ctx.machine.interconnect.latency
    sync_penalties = ctx.options.sync_penalties
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
    return max(0, total - total_distance * ctx.it_ticks)


def _units(op_energy: Sequence[float], members: Sequence[int]) -> float:
    """Energy units of one cluster's ops, summed in op-position order
    (float addition is not associative: the order fixes the bits)."""
    total = 0.0
    for position in members:
        total += op_energy[position]
    return total


#: A refinement move: (sorted op positions, target cluster).
Move = Tuple[Tuple[int, ...], int]
Cost = Tuple[float, float]


class MoveScorer:
    """One partition's cost terms and recorded pass, for scoring moves.

    :meth:`score` prices a move without materializing the moved
    partition; :meth:`apply` commits one, after which the terms and the
    recorded pass are brought up to date lazily, resuming the recording
    at the first moved op's step.
    """

    def __init__(self, ctx: SchedulingContext, partition: Partition):
        self.ctx = ctx
        self.partition = partition
        analysis = ctx.analysis
        self._n = analysis.n_ops
        self._layout = _row_layout(ctx)
        self._issue = [0] * self._n
        self._log: PassLog = ([], [], [], [])
        (
            self._overflow_at,
            self._it_length_at,
            self._reserved_at,
            self._reserved,
        ) = self._log
        #: First topological step whose recording is out of date.
        self._stale = 0
        self._cost: Optional[Cost] = None
        #: Topological steps the resumed passes of :meth:`score` ran.
        self.steps_resumed = 0

        # Per op: its topological step, its value-edge successors (one
        # entry per edge) and the recurrence circuits through it.  Kept
        # here rather than on the loop's analysis, which lives as long as
        # the loop does.
        self._topo_step = [0] * self._n
        for step, position in enumerate(analysis.topo_indices):
            self._topo_step[position] = step
        self._value_succs: List[List[int]] = [[] for _ in range(self._n)]
        for dst, edges in enumerate(analysis.pred_edges):
            for src, _delay, carries in edges:
                if carries:
                    self._value_succs[src].append(dst)
        self._op_circuits: List[List[int]] = [[] for _ in range(self._n)]
        for circuit, recurrence in enumerate(analysis.recurrences):
            for op in set(recurrence.operations):
                self._op_circuits[analysis.op_index[op]].append(circuit)

        #: FU slots per cluster and FU code (``II * units``).
        self._capacity = [
            [ii * count for count in counts]
            for ii, counts in zip(ctx.cluster_iis, ctx.cluster_fu_counts)
        ]
        self._live = [period is not None for period in ctx.cluster_periods]
        quantum = ctx.quantum
        self._q_num = quantum.numerator
        self._q_den = quantum.denominator
        self._it = float(ctx.it)
        weights = ctx.weights
        self._base_time = (ctx.trip_count - 1) * self._it
        self._static_rate = (
            weights.static_rate_per_cluster * sum(ctx.cluster_sigmas)
            + weights.static_rate_icn * ctx.icn_sigma
        )
        # The ED^2 at a shorter iteration length is a lower bound only
        # where every factor of the cost expression is non-negative.
        self._ed2_monotone = self._base_time >= 0.0 and self._static_rate >= 0.0

    # ------------------------------------------------------------------
    def _dynamic(self, units: Sequence[float], comms: int) -> float:
        ctx = self.ctx
        weights = ctx.weights
        dynamic = weights.e_ins_unit * sum(
            delta * u for delta, u in zip(ctx.cluster_deltas, units)
        )
        dynamic += ctx.icn_delta * weights.e_comm * comms
        return dynamic

    def _ed2(self, dynamic: float, it_length: int) -> float:
        time_estimate = self._base_time + (
            (it_length * self._q_num) / self._q_den
        )
        energy = dynamic + time_estimate * self._static_rate
        return energy * time_estimate * time_estimate

    def _infeasibility(self, overload: int, overflow: int, violation: int) -> float:
        return (overload + overflow) + (
            (violation * self._q_num) / self._q_den
        ) / self._it

    def _occupancy(self, mark: int) -> List[int]:
        """Occupancy rows holding the first ``mark`` recorded reservations."""
        rows = [0] * self._layout[2]
        for slot in self._reserved[:mark]:
            rows[slot] += 1
        return rows

    def _refresh(self) -> None:
        """Recompute the terms and resume the recording where stale."""
        ctx = self.ctx
        analysis = ctx.analysis
        assign = self.partition.vector()
        demand = self.partition.demand_matrix()
        self._assign = assign
        # A private copy: score() updates it in place and then undoes that.
        self._demand = [list(row) for row in demand]
        self._overload = fu_overload(ctx, demand)
        self._comms = _comms(ctx, assign)
        self._excess = [
            _circuit_excess(ctx, circuit, assign)
            for circuit in range(len(analysis.recurrence_hops))
        ]
        self._violation = sum(self._excess)
        self._members: List[List[int]] = [[] for _ in range(ctx.n_clusters)]
        for position, cluster in enumerate(assign):
            self._members[cluster].append(position)
        self._units = [
            _units(analysis.op_energy, members) for members in self._members
        ]

        step = self._stale
        if step < len(self._overflow_at):
            overflow = self._overflow_at[step]
            it_length = self._it_length_at[step]
            mark = self._reserved_at[step]
            del self._overflow_at[step:], self._it_length_at[step:]
            del self._reserved_at[step:], self._reserved[mark:]
        else:
            overflow, it_length, mark = 0, 0, 0
        self._overflow, self._it_length = _run_pass(
            ctx, self._layout, assign, step, self._issue, self._occupancy(mark),
            overflow, it_length, self._log,
        )
        self._stale = self._n
        self._cost = (
            self._infeasibility(self._overload, self._overflow, self._violation),
            self._ed2(self._dynamic(self._units, self._comms), self._it_length),
        )

    def current_cost(self) -> Cost:
        """The partition's (infeasibility, estimated ED^2)."""
        if self._cost is None:
            self._refresh()
        return self._cost

    def apply(self, positions: Sequence[int], target: int) -> None:
        """Commit a move: the partition becomes the moved copy."""
        assign = self.partition.vector()
        changed = [p for p in positions if assign[p] != target]
        if not changed:
            return
        ops = self.ctx.analysis.ops
        self.partition = self.partition.moved([ops[p] for p in changed], target)
        self._stale = min(self._stale, min(self._topo_step[p] for p in changed))
        self._cost = None

    # ------------------------------------------------------------------
    def score(
        self, positions: Sequence[int], target: int, bound: Optional[Cost] = None
    ) -> Optional[Cost]:
        """The cost of the partition with ``positions`` moved to ``target``,
        or ``None`` when a lower bound already proves it ``>= bound``."""
        if self._cost is None:
            self._refresh()
        assign = self._assign
        changed = [p for p in positions if assign[p] != target]
        if not changed:
            return self._cost
        analysis = self.ctx.analysis
        topo_step = self._topo_step
        op_fu_code = analysis.op_fu_code
        demand = self._demand
        capacity = self._capacity
        moved = list(assign)
        step = self._n
        sources = set()
        overload = self._overload
        # Assignment-only terms by delta (integers, so exactly): FU
        # overload of the two clusters each moved op leaves and joins...
        for position in changed:
            source = assign[position]
            sources.add(source)
            moved[position] = target
            if topo_step[position] < step:
                step = topo_step[position]
            code = op_fu_code[position]
            if code >= 0:
                demand[source][code] -= 1
                have = demand[source][code]
                if have >= capacity[source][code]:
                    overload -= 1
                have = demand[target][code]
                demand[target][code] += 1
                if have >= capacity[target][code]:
                    overload += 1
        for position in changed:  # undo the in-place demand updates
            code = op_fu_code[position]
            if code >= 0:
                demand[assign[position]][code] += 1
                demand[target][code] -= 1
        # ... and the excess of every circuit through a moved op.
        violation = self._violation
        op_circuits = self._op_circuits
        circuits = {c for position in changed for c in op_circuits[position]}
        excess = self._excess
        for circuit in circuits:
            violation += _circuit_excess(self.ctx, circuit, moved) - excess[circuit]

        overflow = self._overflow_at[step]
        it_length = self._it_length_at[step]
        infeasibility_floor = self._infeasibility(overload, overflow, violation)
        if bound is not None and infeasibility_floor > bound[0]:
            return None

        comms = self._comms
        live = self._live
        pred_edges = analysis.pred_edges
        value_succs = self._value_succs
        for position in changed:
            old = assign[position]
            for src, _delay, carries in pred_edges[position]:
                if not carries:
                    continue
                was = assign[src]
                now = moved[src]
                comms += (now != target and live[now] and live[target]) - (
                    was != old and live[was] and live[old]
                )
            for dst in value_succs[position]:
                now = moved[dst]
                if now != assign[dst]:
                    continue  # counted among dst's predecessors
                comms += (now != target and live[now] and live[target]) - (
                    now != old and live[now] and live[old]
                )
        op_energy = analysis.op_energy
        members = self._members
        units = list(self._units)
        for cluster in sources:
            units[cluster] = _units(
                op_energy, [p for p in members[cluster] if moved[p] == cluster]
            )
        units[target] = _units(op_energy, sorted(members[target] + changed))
        dynamic = self._dynamic(units, comms)

        # Overflow and iteration length only grow past the checkpoint.
        if (
            bound is not None
            and infeasibility_floor == bound[0]
            and self._ed2_monotone
            and dynamic >= 0.0
            and self._ed2(dynamic, it_length) >= bound[1]
        ):
            return None

        overflow, it_length = _run_pass(
            self.ctx, self._layout, moved, step, list(self._issue),
            self._occupancy(self._reserved_at[step]), overflow, it_length,
        )
        self.steps_resumed += self._n - step
        return (
            self._infeasibility(overload, overflow, violation),
            self._ed2(dynamic, it_length),
        )


def partition_cost(
    scorer: MoveScorer, move: Optional[Move] = None, bound: Optional[Cost] = None
) -> Optional[Cost]:
    """Lexicographic cost of a partition: (infeasibility, estimated ED^2).

    The first component must be zero for a schedulable partition: it sums
    capacity overload, pseudo-schedule overflow and recurrence violations.
    The second applies the section 3.1 energy model (with the context's
    weights and delta/sigma factors) to the pseudo-schedule and multiplies
    by the estimated squared execution time.

    Prices the scorer's partition, or with a ``move`` that partition with
    the move applied; with a ``bound`` it may instead return ``None``,
    meaning the cost is provably ``>= bound``.
    """
    if move is None:
        return scorer.current_cost()
    return scorer.score(move[0], move[1], bound)
