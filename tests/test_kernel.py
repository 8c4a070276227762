"""Tests for the iterative modulo-scheduling kernel."""

from fractions import Fraction

import pytest

from repro.errors import SchedulingError
from repro.ir.builder import DDGBuilder
from repro.ir.loop import Loop
from repro.ir.opcodes import OpClass
from repro.machine.clocking import FrequencyPalette
from repro.machine.machine import paper_machine
from repro.scheduler.context import SchedulingContext
from repro.scheduler.ii_selection import select_assignments
from repro.scheduler.kernel import KernelScheduler
from repro.scheduler.mii import minimum_initiation_time
from repro.scheduler.options import SchedulerOptions
from repro.scheduler.partition import Partition, build_partition
from repro.scheduler.schedule import Schedule
from tests.conftest import build_recurrence_loop, build_resource_loop


def context_for(loop, point, it=None, options=None):
    machine = paper_machine()
    options = options if options is not None else SchedulerOptions()
    it = it if it is not None else minimum_initiation_time(
        loop.ddg, machine, point.speeds
    )
    assignments = select_assignments(it, point, options.palette)
    assert assignments is not None
    return SchedulingContext(
        loop.ddg, machine, point, assignments, it, options, loop.trip_count
    )


def run_kernel(loop, point, it=None, partition=None, options=None):
    ctx = context_for(loop, point, it, options)
    partition = partition if partition is not None else build_partition(ctx)
    placements, copies = KernelScheduler(ctx, partition).run()
    schedule = Schedule(
        loop.ddg,
        ctx.machine,
        ctx.it,
        ctx.assignments,
        placements,
        copies,
        sync_penalties=ctx.options.sync_penalties,
    )
    schedule.validate()
    return schedule, partition


class TestBasicScheduling:
    def test_reference_schedule_is_legal(self, reference_point):
        schedule, _ = run_kernel(build_recurrence_loop(), reference_point)
        assert len(schedule.placements) == 8

    def test_heterogeneous_schedule_is_legal(self, het_point):
        schedule, _ = run_kernel(build_recurrence_loop(), het_point)
        assert len(schedule.placements) == 8

    def test_respects_partition(self, reference_point):
        loop = build_recurrence_loop()
        ctx = context_for(loop, reference_point)
        partition = build_partition(ctx)
        schedule, partition = run_kernel(
            loop, reference_point, partition=partition
        )
        for op, placed in schedule.placements.items():
            assert placed.cluster == partition.cluster_of(op)

    def test_copies_only_for_cross_value_edges(self, reference_point):
        loop = build_recurrence_loop()
        ddg = loop.ddg
        mapping = {op: 0 for op in ddg.operations}
        mapping[ddg.operation("s1")] = 1
        partition = Partition(ddg, 4, mapping)
        schedule, _ = run_kernel(loop, reference_point, partition=partition)
        assert schedule.comms_per_iteration == 2  # f3->s1 and m1->s1

    def test_resource_loop_spreads_over_clusters(self, reference_point):
        loop = build_resource_loop()
        schedule, _ = run_kernel(loop, reference_point)
        used = {placed.cluster for placed in schedule.placements.values()}
        # 12 memory ops at II >= 3 need at least three memory ports.
        assert len(used) >= 3


class TestEvictionPath:
    def test_tight_it_still_schedules(self, reference_point):
        # Force the minimum II for the resource loop: eviction machinery
        # must untangle the conflicts.
        loop = build_resource_loop()
        schedule, _ = run_kernel(loop, reference_point)
        iis = {
            schedule.cluster_assignment(i).ii
            for i in range(4)
            if schedule.cluster_assignment(i).usable
        }
        assert iis == {3}

    def test_budget_exhaustion_raises(self, reference_point):
        loop = build_resource_loop()
        options = SchedulerOptions(budget_ratio=1)
        ctx = context_for(loop, reference_point, options=options)
        # An adversarial partition: everything on cluster 0 with II 3 is
        # plainly infeasible (12 memory ops, 3 slots).
        partition = Partition(
            loop.ddg, 4, {op: 0 for op in loop.ddg.operations}
        )
        with pytest.raises(SchedulingError):
            KernelScheduler(ctx, partition).run()


class TestCommunicationTiming:
    def test_sync_penalties_respected(self, het_point):
        loop = build_recurrence_loop()
        schedule, _ = run_kernel(loop, het_point)
        # validate() checks penalty-inclusive arrival times; re-assert on
        # any actual cross-cluster copy here.
        for dep in schedule.copies:
            assert schedule.copy_arrival_time(dep) > schedule.copy_issue_time(dep)

    def test_no_sync_penalties_option(self, het_point):
        loop = build_recurrence_loop()
        options = SchedulerOptions(sync_penalties=False)
        schedule, _ = run_kernel(loop, het_point, options=options)
        schedule.validate()

    def test_two_bus_machine(self, het_point):
        loop = build_resource_loop()
        machine = paper_machine(n_buses=2)
        it = minimum_initiation_time(loop.ddg, machine, het_point.speeds)
        options = SchedulerOptions()
        assignments = select_assignments(it, het_point, options.palette)
        ctx = SchedulingContext(
            loop.ddg, machine, het_point, assignments, it, options
        )
        partition = build_partition(ctx)
        placements, copies = KernelScheduler(ctx, partition).run()
        schedule = Schedule(
            loop.ddg, machine, it, assignments, placements, copies
        )
        schedule.validate()


def test_integer_priority_keys_sort_like_recurrence_ratios():
    """The kernel's keys rank recurrence ratios as dense integers; on
    every loop of the ten corpora they order the ops exactly as keys
    led by the exact (Fraction) ratio would."""
    from repro.scheduler.context import loop_analysis
    from repro.workloads import SPEC2000_PROFILES, build_corpus

    isa = paper_machine().isa
    for spec in SPEC2000_PROFILES.values():
        for loop in build_corpus(spec, scale=0.05).loops:
            analysis = loop_analysis(loop.ddg, isa)
            ratio = {}
            for recurrence in analysis.recurrences:
                for op in recurrence.operations:
                    ratio[op] = max(ratio.get(op, Fraction(0)), recurrence.ratio)
            exact = {
                op: (-ratio.get(op, Fraction(0)), -analysis.heights[op], position)
                for position, op in enumerate(analysis.ops)
            }
            keys = analysis.priority_keys
            assert all(isinstance(keys[op][0], int) for op in analysis.ops)
            assert sorted(analysis.ops, key=keys.__getitem__) == sorted(
                analysis.ops, key=exact.__getitem__
            )
