"""Tests for the partition container and the partitioning driver."""

import types
from fractions import Fraction
from unittest import mock

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.errors import PartitionError
from repro.ir.builder import DDGBuilder
from repro.ir.opcodes import OpClass
from repro.machine.clocking import FrequencyPalette
from repro.machine.fu import FUType
from repro.machine.machine import paper_machine
from repro.scheduler.context import SchedulingContext
from repro.scheduler.ii_selection import select_assignments
from repro.scheduler.options import SchedulerOptions
from repro.scheduler.partition import Partition, build_partition
from repro.scheduler.partition.coarsen import (
    coarsen,
    initial_partition,
    preplace_recurrences,
)
from repro.scheduler.partition.refine import REFINE_COUNTERS, balance, ed2_refine
from tests import pseudo_oracle as oracle
from tests.conftest import build_recurrence_loop


def make_context(loop, point, it=None, options=None):
    machine = paper_machine()
    options = options if options is not None else SchedulerOptions()
    from repro.scheduler.mii import minimum_initiation_time

    it = it if it is not None else minimum_initiation_time(
        loop.ddg, machine, point.speeds
    )
    assignments = select_assignments(it, point, FrequencyPalette.any_frequency())
    assert assignments is not None
    return SchedulingContext(
        loop.ddg, machine, point, assignments, it, options, loop.trip_count
    )


def simple_partition():
    b = DDGBuilder("p")
    ops = [b.op(f"o{i}", OpClass.FADD) for i in range(4)]
    b.flow(ops[0], ops[1]).flow(ops[2], ops[3])
    ddg = b.build()
    mapping = {op: i % 2 for i, op in enumerate(ddg.operations)}
    return ddg, Partition(ddg, 2, mapping)


class TestPartitionContainer:
    def test_cluster_of_and_ops_in(self):
        ddg, partition = simple_partition()
        assert partition.cluster_of(ddg.operation("o0")) == 0
        assert len(partition.ops_in(0)) == 2

    def test_missing_op_rejected(self):
        ddg, _ = simple_partition()
        with pytest.raises(PartitionError):
            Partition(ddg, 2, {})

    def test_bad_cluster_rejected(self):
        ddg, _ = simple_partition()
        mapping = {op: 5 for op in ddg.operations}
        with pytest.raises(PartitionError):
            Partition(ddg, 2, mapping)

    def test_move_and_moved(self):
        ddg, partition = simple_partition()
        op = ddg.operation("o0")
        clone = partition.moved([op], 1)
        assert clone.cluster_of(op) == 1
        assert partition.cluster_of(op) == 0  # original untouched
        partition.move(op, 1)
        assert partition.cluster_of(op) == 1

    def test_cross_value_edges(self):
        ddg, partition = simple_partition()
        # o0 (cluster 0) -> o1 (cluster 1): one crossing edge; same for o2->o3.
        assert partition.n_comms == 2
        partition.move(ddg.operation("o1"), 0)
        assert partition.n_comms == 1

    def test_fu_demand(self):
        ddg, partition = simple_partition()
        assert partition.fu_demand(0)[FUType.FP] == 2

    def test_equality(self):
        ddg, partition = simple_partition()
        assert partition == partition.copy()
        other = partition.moved([ddg.operation("o0")], 1)
        assert partition != other


class TestPreplacement:
    def test_critical_recurrence_pinned_to_fitting_cluster(self, het_point):
        loop = build_recurrence_loop()
        ctx = make_context(loop, het_point)
        pins = preplace_recurrences(ctx)
        # recMII 9; slow clusters (II 6) cannot host it -> pinned to 0.
        recurrence_ops = {"f1", "f2", "f3"}
        assert {op.name for op in pins} >= recurrence_ops
        assert all(
            cluster == 0 for op, cluster in pins.items() if op.name in recurrence_ops
        )

    def test_fitting_recurrences_not_pinned(self, reference_point):
        loop = build_recurrence_loop()
        ctx = make_context(loop, reference_point)
        # Homogeneous reference: II 9 everywhere, recurrence fits anywhere.
        assert preplace_recurrences(ctx) == {}

    def test_prefers_slowest_feasible_cluster(self, reference_point, het_point):
        # Build a point where the recurrence fits on a middle-speed
        # cluster: fast 0.9 ns, middle 1.0 ns, slow 1.8 ns; recurrence
        # delay 9, distance 1 -> needs II >= 9 -> fits at IT = 9 ns on a
        # 1.0 ns cluster (II 9+) but not the 1.8 ns one (II 5).
        from repro.machine.operating_point import DomainSetting, OperatingPoint

        point = OperatingPoint(
            clusters=(
                DomainSetting(Fraction(9, 10), 1.1, 0.28),
                DomainSetting(Fraction(1), 1.0, 0.25),
                DomainSetting(Fraction(9, 5), 0.8, 0.3),
                DomainSetting(Fraction(9, 5), 0.8, 0.3),
            ),
            icn=DomainSetting(Fraction(9, 10), 1.0, 0.3),
            cache=DomainSetting(Fraction(9, 10), 1.2, 0.35),
        )
        loop = build_recurrence_loop()
        ctx = make_context(loop, point, it=Fraction(9))
        pins = preplace_recurrences(ctx)
        pinned_clusters = {c for op, c in pins.items() if op.name in {"f1", "f2", "f3"}}
        assert pinned_clusters == {1}


class TestCoarsening:
    def test_levels_shrink(self, het_point):
        loop = build_recurrence_loop()
        ctx = make_context(loop, het_point)
        result = coarsen(ctx, preplace_recurrences(ctx))
        sizes = [len(level) for level in result.levels]
        assert sizes[0] >= sizes[-1]
        assert all(a >= b for a, b in zip(sizes, sizes[1:]))

    def test_macros_cover_all_ops(self, het_point):
        loop = build_recurrence_loop()
        ctx = make_context(loop, het_point)
        result = coarsen(ctx, preplace_recurrences(ctx))
        for level in result.levels:
            ops = [op for macro in level for op in macro.ops]
            assert len(ops) == len(loop.ddg)
            assert len(set(ops)) == len(ops)

    def test_pinned_recurrence_stays_one_macro(self, het_point):
        loop = build_recurrence_loop()
        ctx = make_context(loop, het_point)
        pins = preplace_recurrences(ctx)
        result = coarsen(ctx, pins)
        finest = result.levels[0]
        rec_macros = [
            m for m in finest if any(op.name in {"f1", "f2", "f3"} for op in m.ops)
        ]
        assert len(rec_macros) == 1
        assert rec_macros[0].pinned == 0

    def test_initial_partition_respects_pins(self, het_point):
        loop = build_recurrence_loop()
        ctx = make_context(loop, het_point)
        pins = preplace_recurrences(ctx)
        partition = initial_partition(ctx, coarsen(ctx, pins))
        for op, cluster in pins.items():
            assert partition.cluster_of(op) == cluster


class TestBalanceRefinement:
    def test_reduces_overload(self, reference_point):
        loop = build_recurrence_loop()
        ctx = make_context(loop, reference_point, it=Fraction(9))
        # All ops on cluster 0 is balanced at II 9 (capacity 9 per FU),
        # so overload starts at 0; force a tight IT instead.
        from repro.scheduler.partition.coarsen import Macro
        from repro.scheduler.pseudo import fu_overload

        everything_on_zero = Partition(
            loop.ddg, 4, {op: 0 for op in loop.ddg.operations}
        )
        ctx_tight = make_context(loop, reference_point, it=Fraction(3))
        macros = [
            Macro(i, (op,)) for i, op in enumerate(loop.ddg.operations)
        ]
        before = fu_overload(ctx_tight, everything_on_zero.demand_matrix())
        refined = balance(ctx_tight, everything_on_zero, macros)
        after = fu_overload(ctx_tight, refined.demand_matrix())
        assert before > 0
        assert after < before


class TestDriver:
    def test_build_partition_covers_all_ops(self, het_point):
        loop = build_recurrence_loop()
        ctx = make_context(loop, het_point)
        partition = build_partition(ctx)
        for op in loop.ddg.operations:
            partition.cluster_of(op)  # raises KeyError if missing

    def test_build_partition_single_cluster(self):
        from repro.machine.cluster import ClusterConfig
        from repro.machine.interconnect import InterconnectConfig
        from repro.machine.machine import MachineDescription
        from repro.machine.operating_point import OperatingPoint
        from repro.scheduler.mii import minimum_initiation_time

        machine = MachineDescription(
            clusters=(ClusterConfig(n_int=4, n_fp=4, n_mem=4, n_regs=64),),
            interconnect=InterconnectConfig(n_buses=0),
        )
        loop = build_recurrence_loop()
        point = OperatingPoint.homogeneous(1, Fraction(1), 1.0, 0.25)
        it = minimum_initiation_time(loop.ddg, machine, point.speeds)
        assignments = select_assignments(
            it, point, FrequencyPalette.any_frequency()
        )
        ctx = SchedulingContext(
            loop.ddg, machine, point, assignments, it, SchedulerOptions()
        )
        partition = build_partition(ctx)
        assert all(partition.cluster_of(op) == 0 for op in loop.ddg.operations)

    def test_unplaceable_recurrence_raises(self, het_point):
        # At IT = 1.35 ns the fast cluster's II is 1 and the slow ones'
        # is 1: the 9-cycle recurrence fits nowhere, which must surface
        # as a PartitionError (the driver reacts by increasing the IT).
        loop = build_recurrence_loop()
        ctx = make_context(loop, het_point, it=Fraction(27, 20))
        with pytest.raises(PartitionError):
            build_partition(ctx)

    def test_no_ops_on_gated_clusters(self, het_point):
        # A recurrence-free loop at an IT that gates the slow clusters:
        # every op must land on a usable cluster.
        from repro.ir.builder import DDGBuilder

        b = DDGBuilder("flat")
        load = b.op("l", OpClass.LOAD)
        add = b.op("f", OpClass.FADD)
        b.flow(load, add)
        from repro.ir.loop import Loop

        loop = Loop(b.build(), trip_count=10)
        ctx = make_context(loop, het_point, it=Fraction(9, 10))
        partition = build_partition(ctx)
        for op in loop.ddg.operations:
            assert ctx.cluster_iis[partition.cluster_of(op)] >= 1


class TestIncrementalRefinement:
    @settings(
        max_examples=60,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow, HealthCheck.filter_too_much],
    )
    @given(st.data())
    def test_ed2_refine_matches_copy_and_full_pass(self, data):
        ctx = data.draw(oracle.contexts())
        partition = data.draw(oracle.partitions(ctx, usable_only=True))
        macros = data.draw(oracle.macro_sets(ctx))
        refined, counts = ed2_refine(ctx, partition, macros)
        assert refined == oracle.refine_by_copies(ctx, partition, macros)
        assert list(counts) == list(REFINE_COUNTERS)

    @pytest.mark.parametrize("point", ["reference_point", "het_point"])
    def test_build_partition_matches_copy_and_full_pass(self, request, point):
        # build_partition (pre-placement, coarsening, balance) with the
        # reference refinement swapped in must land on the same partition.
        from repro.workloads import build_corpus, spec_profile

        point = request.getfixturevalue(point)
        corpus = build_corpus(spec_profile("171.swim"), scale=0.05)
        for loop in corpus.loops[:6]:
            ctx = make_context(loop, point)
            fast = build_partition(ctx)
            with mock.patch(
                "repro.scheduler.partition.refine.ed2_refine",
                lambda ctx, partition, macros: (
                    oracle.refine_by_copies(ctx, partition, macros),
                    {},
                ),
            ):
                assert build_partition(ctx) == fast

    def test_partition_submodules_are_not_shadowed(self):
        import repro.scheduler.partition.coarsen as coarsen_module
        import repro.scheduler.partition.refine as refine_module

        assert isinstance(coarsen_module, types.ModuleType)
        assert isinstance(refine_module, types.ModuleType)

    def test_refine_counters_reach_the_schedule_span(self, het_point):
        from repro.scheduler import HeterogeneousModuloScheduler
        from repro.telemetry import disable_tracing, enable_tracing, span

        enable_tracing()
        try:
            with span("root") as root:
                HeterogeneousModuloScheduler(paper_machine()).schedule(
                    build_recurrence_loop(), het_point
                )
        finally:
            disable_tracing()
        (loop_span,) = [s for s in root.walk() if s.name == "schedule_loop"]
        counters = loop_span.counters
        assert set(REFINE_COUNTERS) <= set(counters)
        assert 0 < counters["refine_candidates"]
        assert counters["refine_pruned_bound"] <= counters["refine_candidates"]
        assert counters["refine_moves"] <= counters["refine_candidates"]
        assert 0 < counters["refine_steps_resumed"] < counters["refine_steps_total"]
