"""Executing a modulo schedule on the simulated machine.

The executor expands a schedule into issue/complete/copy events for a
window of iterations, runs them through the event engine, and *checks at
runtime* that

* no (cluster, FU type) receives more simultaneous issues than it has
  units, and no instant carries more transfers than there are buses,
* every operand is present in the consumer's cluster (locally produced,
  or delivered by a bus copy through the synchronisation queues) by the
  time the consumer issues,
* cross-iteration dependences are honoured across the software-pipeline
  overlap.

Because a modulo schedule is periodic, simulating ``3 * SC + 8``
iterations covers the fill, several full steady-state repetitions and the
drain; counts and times for larger trip counts follow exactly from the
per-iteration counts and ``(N - 1) * IT + it_length``.  The executor
asserts that identity on the simulated window instead of assuming it.

Event timestamps are the schedule's own integer ticks
(:attr:`~repro.scheduler.schedule.Schedule.quantum` ns each): every
issue, finish and copy instant is an exact multiple of that quantum, so
the event loop — heap ordering, oversubscription keys, readiness
comparisons — runs on machine ints.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, Tuple

from repro.errors import SimulationError
from repro.ir.analysis import edge_delay
from repro.ir.dependence import Dependence
from repro.ir.operation import Operation
from repro.machine.fu import fu_for
from repro.power.energy import EventCounts
from repro.scheduler.schedule import Schedule
from repro.sim.engine import EventEngine
from repro.sim.events import CopyArrive, CopyStart, OpComplete, OpIssue
from repro.units import Time


@dataclass(frozen=True)
class SimulationResult:
    """Outcome of executing one scheduled loop."""

    #: Iterations actually run through the event engine.
    simulated_iterations: int
    #: Iterations the result is extrapolated to (the loop's trip count).
    total_iterations: float
    #: Makespan of the simulated window (ns, exact).
    simulated_makespan: Time
    #: Extrapolated execution time for ``total_iterations`` (ns).
    exec_time_ns: float
    #: Event counts scaled to ``total_iterations``.
    counts: EventCounts
    #: Events processed by the engine.
    events_processed: int


class LoopExecutor:
    """Runs one schedule through the discrete-event engine."""

    #: Hard cap on simulated iterations (safety against huge SC).
    MAX_WINDOW = 512

    def __init__(self, schedule: Schedule):
        self._schedule = schedule

    # ------------------------------------------------------------------
    def run(self, iterations: float) -> SimulationResult:
        """Simulate, verify, extrapolate to ``iterations``."""
        if iterations < 1:
            raise ValueError("iterations must be >= 1")
        schedule = self._schedule
        window = min(
            max(1, int(math.ceil(iterations))),
            3 * schedule.stage_count + 8,
            self.MAX_WINDOW,
        )

        engine = EventEngine()
        machine = schedule.machine
        isa = machine.isa

        quantum = schedule.quantum
        it_q = schedule.it_ticks

        # --- precomputed per-op / per-edge timing (iteration 0) ------
        placements = schedule.placements
        issue_q: Dict[Operation, int] = {}
        finish_q: Dict[Operation, int] = {}
        op_fu = {}
        for op in placements:
            issue_q[op] = schedule.issue_time(op)
            finish_q[op] = schedule.finish_time(op)
            op_fu[op] = fu_for(op.opclass)
        copy_start_q: Dict[Dependence, int] = {}
        copy_arrive_q: Dict[Dependence, int] = {}
        copy_gate_q: Dict[Dependence, int] = {}
        for dep in schedule.copies:
            copy_start_q[dep] = schedule.copy_issue_time(dep)
            copy_arrive_q[dep] = schedule.copy_arrival_time(dep)
            copy_gate_q[dep] = schedule.copy_gate_time(dep)
        dep_index = {dep: i for i, dep in enumerate(schedule.ddg.dependences)}
        #: In-edge readiness checks per op: (distance, copy key or None,
        #: iteration-0 ready time on the grid, producer name).
        ready_checks: Dict[Operation, list] = {}
        for op in placements:
            checks = []
            for dep in schedule.ddg.in_edges(op):
                if dep in schedule.copies:
                    checks.append((dep.distance, dep_index[dep], 0, dep.src.name))
                else:
                    producer = placements[dep.src]
                    ready0 = (
                        producer.cycle + edge_delay(dep, isa)
                    ) * schedule.cluster_period(producer.cluster)
                    checks.append((dep.distance, None, ready0, dep.src.name))
            ready_checks[op] = checks

        # --- runtime state -------------------------------------------
        copy_ready: Dict[Tuple[int, int], int] = {}
        fu_load: Dict[Tuple[int, object, int], int] = {}
        bus_load: Dict[int, int] = {}

        def on_issue(event: OpIssue) -> None:
            op, i, t = event.op, event.iteration, event.time
            fu = op_fu[op]
            if fu is not None:
                key = (event.cluster, fu, t)
                fu_load[key] = fu_load.get(key, 0) + 1
                capacity = machine.cluster(event.cluster).fu_count(fu)
                if fu_load[key] > capacity:
                    raise SimulationError(
                        f"{fu} oversubscribed on cluster {event.cluster} "
                        f"at {t * quantum}"
                    )
            for distance, copy_key, ready0, src_name in ready_checks[op]:
                source_iter = i - distance
                if source_iter < 0:
                    continue  # value comes from before the loop
                if copy_key is not None:
                    ready = copy_ready.get((copy_key, source_iter))
                    what = f"copy {src_name}->{op.name}"
                else:
                    ready = ready0 + source_iter * it_q
                    what = f"value {src_name}->{op.name}"
                if ready is None or ready > t:
                    raise SimulationError(
                        f"iteration {i}: {what} not ready at {t * quantum} "
                        f"(ready {None if ready is None else ready * quantum})"
                    )

        def on_copy_start(event: CopyStart) -> None:
            t = event.time
            bus_load[t] = bus_load.get(t, 0) + 1
            if bus_load[t] > machine.interconnect.n_buses:
                raise SimulationError(
                    f"buses oversubscribed at {t * quantum}"
                )
            dep, i = event.dep, event.iteration
            gate = copy_gate_q[dep] + i * it_q
            if t < gate:
                raise SimulationError(
                    f"copy {dep.src.name}->{dep.dst.name} starts at "
                    f"{t * quantum} before its value clears the sync queue "
                    f"at {gate * quantum}"
                )

        def on_copy_arrive(event: CopyArrive) -> None:
            copy_ready[(dep_index[event.dep], event.iteration)] = event.time

        # OpComplete events still flow through the engine (they define the
        # makespan) but need no handler: readiness is checked against the
        # precomputed grid times, not runtime completion state.
        engine.on(OpIssue, on_issue)
        engine.on(CopyStart, on_copy_start)
        engine.on(CopyArrive, on_copy_arrive)

        # --- event generation ----------------------------------------
        for i in range(window):
            base = i * it_q
            for op, placed in placements.items():
                engine.schedule(
                    OpIssue(
                        time=base + issue_q[op],
                        iteration=i,
                        op=op,
                        cluster=placed.cluster,
                    )
                )
                engine.schedule(
                    OpComplete(
                        time=base + finish_q[op],
                        iteration=i,
                        op=op,
                        cluster=placed.cluster,
                    )
                )
            for dep in schedule.copies:
                engine.schedule(
                    CopyStart(time=base + copy_start_q[dep], iteration=i, dep=dep)
                )
                engine.schedule(
                    CopyArrive(
                        time=base + copy_arrive_q[dep],
                        iteration=i,
                        dep=dep,
                        cluster=placements[dep.dst].cluster,
                    )
                )

        makespan = engine.run() * quantum
        expected = (window - 1) * schedule.it + schedule.it_length
        if makespan != expected:
            raise SimulationError(
                f"simulated makespan {makespan} != periodic model {expected}"
            )

        counts = EventCounts(
            cluster_energy_units=tuple(
                units * iterations for units in schedule.cluster_energy_units()
            ),
            n_comms=schedule.comms_per_iteration * iterations,
            n_mem_accesses=schedule.mem_accesses_per_iteration * iterations,
        )
        return SimulationResult(
            simulated_iterations=window,
            total_iterations=iterations,
            simulated_makespan=makespan,
            exec_time_ns=schedule.execution_time(iterations),
            counts=counts,
            events_processed=engine.processed,
        )
