"""Tests for the discrete-event engine and the loop executor."""

import pytest

from repro.errors import SimulationError
from repro.scheduler import HeterogeneousModuloScheduler, HomogeneousModuloScheduler
from repro.scheduler.schedule import PlacedOp
from repro.sim.engine import EventEngine
from repro.sim.events import CopyArrive, OpComplete, OpIssue, SimEvent
from repro.sim.executor import LoopExecutor
from tests.conftest import build_recurrence_loop, build_resource_loop, build_tiny_loop


class TestEventEngine:
    def test_time_order(self):
        engine = EventEngine()
        seen = []
        engine.on(SimEvent, lambda e: seen.append(e.time))
        engine.schedule(SimEvent(3, 0))
        engine.schedule(SimEvent(1, 0))
        engine.schedule(SimEvent(2, 0))
        engine.run()
        assert seen == [1, 2, 3]

    def test_rank_order_at_same_time(self):
        engine = EventEngine()
        seen = []
        engine.on(OpIssue, lambda e: seen.append("issue"))
        engine.on(OpComplete, lambda e: seen.append("complete"))
        engine.on(CopyArrive, lambda e: seen.append("arrive"))
        engine.schedule(OpIssue(1, 0))
        engine.schedule(CopyArrive(1, 0))
        engine.schedule(OpComplete(1, 0))
        engine.run()
        assert seen.index("complete") < seen.index("issue")
        assert seen.index("arrive") < seen.index("issue")

    def test_past_scheduling_rejected(self):
        engine = EventEngine()
        engine.on(SimEvent, lambda e: None)
        engine.schedule(SimEvent(5, 0))
        engine.run()
        with pytest.raises(ValueError):
            engine.schedule(SimEvent(1, 0))

    def test_processed_counter(self):
        engine = EventEngine()
        engine.on(SimEvent, lambda e: None)
        engine.schedule(SimEvent(1, 0))
        engine.run()
        assert engine.processed == 1


class TestExecutor:
    def test_homogeneous_execution(self, machine):
        schedule = HomogeneousModuloScheduler(machine).schedule(
            build_recurrence_loop()
        )
        result = LoopExecutor(schedule).run(100)
        assert result.total_iterations == 100
        assert result.exec_time_ns == pytest.approx(
            schedule.execution_time(100)
        )

    def test_heterogeneous_execution(self, machine, het_point):
        schedule = HeterogeneousModuloScheduler(machine).schedule(
            build_recurrence_loop(), het_point
        )
        result = LoopExecutor(schedule).run(50)
        assert result.simulated_iterations <= 50
        assert result.events_processed > 0

    def test_counts_scale_linearly(self, machine):
        schedule = HomogeneousModuloScheduler(machine).schedule(build_tiny_loop())
        r10 = LoopExecutor(schedule).run(10)
        r20 = LoopExecutor(schedule).run(20)
        assert r20.counts.total_energy_units == pytest.approx(
            2 * r10.counts.total_energy_units
        )
        assert r20.counts.n_mem_accesses == pytest.approx(
            2 * r10.counts.n_mem_accesses
        )

    def test_window_covers_small_trip_counts(self, machine):
        schedule = HomogeneousModuloScheduler(machine).schedule(build_tiny_loop())
        result = LoopExecutor(schedule).run(2)
        assert result.simulated_iterations == 2

    def test_bad_iterations(self, machine):
        schedule = HomogeneousModuloScheduler(machine).schedule(build_tiny_loop())
        with pytest.raises(ValueError):
            LoopExecutor(schedule).run(0)

    def test_detects_corrupted_placement(self, machine, het_point):
        schedule = HeterogeneousModuloScheduler(machine).schedule(
            build_recurrence_loop(), het_point
        )
        # Pull a consumer one cycle earlier than its producer allows.
        ddg = schedule.ddg
        f2 = ddg.operation("f2")
        placed = schedule.placements[f2]
        schedule.placements[f2] = PlacedOp(f2, placed.cluster, max(placed.cycle - 2, 0))
        with pytest.raises(SimulationError):
            LoopExecutor(schedule).run(10)

    def test_detects_oversubscribed_fu(self, machine):
        schedule = HomogeneousModuloScheduler(machine).schedule(
            build_resource_loop()
        )
        # Move one load onto another load's slot.
        loads = [
            op for op in schedule.ddg.operations if op.name.startswith("ld")
        ]
        first, second = loads[0], loads[1]
        target = schedule.placements[first]
        schedule.placements[second] = PlacedOp(
            second, target.cluster, target.cycle
        )
        with pytest.raises(SimulationError):
            LoopExecutor(schedule).run(10)

    def test_makespan_matches_periodic_model(self, machine, het_point):
        schedule = HeterogeneousModuloScheduler(machine).schedule(
            build_resource_loop(), het_point
        )
        result = LoopExecutor(schedule).run(30)
        expected = (
            result.simulated_iterations - 1
        ) * schedule.it + schedule.it_length
        assert result.simulated_makespan == expected
