"""Tests for the pseudo-schedule estimator."""

from fractions import Fraction

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.ir.builder import DDGBuilder
from repro.ir.loop import Loop
from repro.ir.opcodes import OpClass
from repro.machine.clocking import FrequencyPalette
from repro.machine.machine import paper_machine
from repro.scheduler.context import SchedulingContext
from repro.scheduler.ii_selection import select_assignments
from repro.scheduler.mii import minimum_initiation_time
from repro.scheduler.options import SchedulerOptions
from repro.scheduler.partition import Partition
from repro.scheduler.pseudo import MoveScorer, partition_cost
from tests import pseudo_oracle as oracle
from tests.conftest import build_recurrence_loop


def make_context(loop, point, it=None):
    machine = paper_machine()
    it = it if it is not None else minimum_initiation_time(
        loop.ddg, machine, point.speeds
    )
    assignments = select_assignments(it, point, FrequencyPalette.any_frequency())
    return SchedulingContext(
        loop.ddg, machine, point, assignments, it, SchedulerOptions(), loop.trip_count
    )


def all_on(ddg, cluster, n_clusters=4):
    return Partition(ddg, n_clusters, {op: cluster for op in ddg.operations})


def recorded_pass(ctx, partition):
    """A scorer that has recorded its partition's full pass; its terms are
    read off the recording (iteration length in ticks, overflow, comms,
    violation in ticks, per-cluster units)."""
    scorer = MoveScorer(ctx, partition)
    scorer.current_cost()
    return scorer


class TestPseudoSchedule:
    def test_feasible_single_cluster(self, reference_point):
        loop = build_recurrence_loop()
        ctx = make_context(loop, reference_point)
        ps = recorded_pass(ctx, all_on(loop.ddg, 0))
        assert ps.current_cost()[0] == 0
        assert ps._comms == 0
        assert ps._it_length > 0

    def test_it_length_close_to_critical_path(self, reference_point):
        loop = build_recurrence_loop()
        ctx = make_context(loop, reference_point)
        ps = recorded_pass(ctx, all_on(loop.ddg, 0))
        # Critical chain: load(2) + 3 FADDs (9) + store(2) = 13 cycles.
        assert ps._it_length * ctx.quantum >= 13

    def test_cross_cluster_counts_comms(self, reference_point):
        loop = build_recurrence_loop()
        ctx = make_context(loop, reference_point)
        ddg = loop.ddg
        mapping = {op: 0 for op in ddg.operations}
        mapping[ddg.operation("s1")] = 1
        ps = recorded_pass(ctx, Partition(ddg, 4, mapping))
        # f3 -> s1 and m1 -> s1 both cross now.
        assert ps._comms == 2

    def test_recurrence_on_slow_cluster_violates(self, het_point):
        loop = build_recurrence_loop()
        ctx = make_context(loop, het_point, it=Fraction(81, 10))
        # The 9-cycle recurrence on a slow (1.35 ns) cluster needs
        # 12.15 ns > IT 8.1 ns.
        ps = recorded_pass(ctx, all_on(loop.ddg, 1))
        assert ps._violation > 0
        assert ps.current_cost()[0] > 0

    def test_recurrence_on_fast_cluster_ok(self, het_point):
        loop = build_recurrence_loop()
        ctx = make_context(loop, het_point, it=Fraction(81, 10))
        ps = recorded_pass(ctx, all_on(loop.ddg, 0))
        assert ps._violation == 0

    def test_overload_reports_overflow(self, reference_point):
        b = DDGBuilder("wide")
        for i in range(12):
            b.op(f"l{i}", OpClass.LOAD)
        iv = b.op("iv", OpClass.IADD)
        b.flow(iv, iv, distance=1)
        loop = Loop(b.build(), trip_count=10)
        ctx = make_context(loop, reference_point, it=Fraction(3))
        # 12 memory ops in one cluster with II 3 and a small window: the
        # single port cannot absorb them.
        ps = recorded_pass(ctx, all_on(loop.ddg, 0))
        assert ps._overflow > 0

    def test_cluster_units_follow_partition(self, reference_point):
        loop = build_recurrence_loop()
        ctx = make_context(loop, reference_point)
        ps = recorded_pass(ctx, all_on(loop.ddg, 2))
        assert ps._units[2] > 0
        assert ps._units[0] == 0


class TestPartitionCost:
    def test_feasible_beats_infeasible(self, het_point):
        loop = build_recurrence_loop()
        ctx = make_context(loop, het_point, it=Fraction(81, 10))
        good = partition_cost(MoveScorer(ctx, all_on(loop.ddg, 0)))
        bad = partition_cost(MoveScorer(ctx, all_on(loop.ddg, 1)))
        assert good < bad

    def test_cost_orders_energy(self, het_point):
        loop = build_recurrence_loop()
        ctx = make_context(loop, het_point, it=Fraction(81, 10))
        ddg = loop.ddg
        on_fast = {op: 0 for op in ddg.operations}
        moved = dict(on_fast)
        # Move the independent side chain to a slow cluster: cheaper.
        for name in ("l2", "m1", "a1"):
            moved[ddg.operation(name)] = 1
        cost_fast = partition_cost(MoveScorer(ctx, Partition(ddg, 4, on_fast)))
        cost_mixed = partition_cost(MoveScorer(ctx, Partition(ddg, 4, moved)))
        assert cost_mixed[0] == 0
        assert cost_mixed[1] < cost_fast[1]


# ----------------------------------------------------------------------
# incremental scoring against the copy-and-full-pass oracle
# ----------------------------------------------------------------------
ORACLE_SETTINGS = settings(
    max_examples=150,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.filter_too_much],
)


def _moved(partition, positions, target):
    ops = partition.ddg.operations
    return partition.moved([ops[p] for p in positions], target)


class TestMoveScorer:
    @ORACLE_SETTINGS
    @given(st.data())
    def test_bounded_scores_match_full_pass(self, data):
        ctx = data.draw(oracle.contexts())
        partition = data.draw(oracle.partitions(ctx))
        scorer = MoveScorer(ctx, partition)
        assert oracle.bits(partition_cost(scorer)) == oracle.bits(
            oracle.full_cost(ctx, partition)
        )
        # A few moves in a row: score each against every kind of bound,
        # then commit it, so later scores run against a resumed recording.
        for _ in range(3):
            positions, target = data.draw(oracle.moves(ctx))
            candidate = _moved(partition, positions, target)
            expected = oracle.full_cost(ctx, candidate)
            base = oracle.full_cost(ctx, partition)
            for bound in (None, base, expected, (expected[0], expected[1] * 1.5)):
                cost = partition_cost(scorer, (positions, target), bound)
                if cost is None:
                    assert bound is not None and expected >= bound
                else:
                    assert oracle.bits(cost) == oracle.bits(expected)
            scorer.apply(positions, target)
            partition = candidate
            assert scorer.partition == partition
            assert oracle.bits(scorer.current_cost()) == oracle.bits(
                oracle.full_cost(ctx, partition)
            )

    @ORACLE_SETTINGS
    @given(st.data())
    def test_recorded_pass_matches_full_pass(self, data):
        ctx = data.draw(oracle.contexts())
        partition = data.draw(oracle.partitions(ctx))
        ps = recorded_pass(ctx, partition)
        it_length, overflow, comms, violation, units = oracle.full_pass(
            ctx, partition
        )
        assert float(ps._it_length * ctx.quantum).hex() == it_length.hex()
        assert (ps._overflow, ps._comms) == (overflow, comms)
        assert float(ps._violation * ctx.quantum).hex() == violation.hex()
        assert [u.hex() for u in ps._units] == [u.hex() for u in units]

    @pytest.mark.parametrize("first", [True, False])
    def test_moves_at_either_end_of_the_order(self, het_point, first):
        loop = build_recurrence_loop()
        ctx = make_context(loop, het_point, it=Fraction(81, 10))
        partition = all_on(loop.ddg, 0)
        scorer = MoveScorer(ctx, partition)
        steps = ctx.analysis.topo_indices
        position = steps[0] if first else steps[-1]
        for target in (1, 2):
            expected = oracle.full_cost(ctx, _moved(partition, (position,), target))
            cost = partition_cost(scorer, ((position,), target))
            assert oracle.bits(cost) == oracle.bits(expected)
        # Resuming at the last step re-runs one step; at the first, all.
        assert scorer.steps_resumed == 2 * (len(steps) if first else 1)

    def test_multi_op_move_updates_every_circuit(self, het_point):
        # l1 sorts first and is on no circuit; f1 carries the recurrence.
        loop = build_recurrence_loop()
        ctx = make_context(loop, het_point, it=Fraction(81, 10))
        partition = all_on(loop.ddg, 0)
        index = ctx.analysis.op_index
        positions = tuple(
            sorted(index[loop.ddg.operation(name)] for name in ("l1", "f1"))
        )
        expected = oracle.full_cost(ctx, _moved(partition, positions, 1))
        assert expected[0] > 0
        cost = partition_cost(MoveScorer(ctx, partition), (positions, 1))
        assert oracle.bits(cost) == oracle.bits(expected)

    def test_no_ed2_floor_below_one_trip(self, reference_point):
        # Loops run at least once, but the cost model takes any trip
        # count.  At zero the time estimate starts at -IT, so a short
        # iteration length gives a larger ED^2 than the real one: the
        # checkpoint's ED^2 is no floor and must not reject the move.
        loop = build_recurrence_loop()
        base = make_context(loop, reference_point)
        ctx = SchedulingContext(
            loop.ddg, base.machine, reference_point, base.assignments, base.it,
            base.options, trip_count=0.0,
        )
        partition = all_on(loop.ddg, 0)
        position = ctx.analysis.topo_indices[0]
        expected = oracle.full_cost(ctx, _moved(partition, (position,), 1))
        bound = (expected[0], expected[1] * 1.01)
        cost = partition_cost(MoveScorer(ctx, partition), ((position,), 1), bound)
        assert cost is not None and oracle.bits(cost) == oracle.bits(expected)

    def test_lower_bound_skips_the_pass(self, het_point):
        loop = build_recurrence_loop()
        ctx = make_context(loop, het_point, it=Fraction(81, 10))
        scorer = MoveScorer(ctx, all_on(loop.ddg, 0))
        best = partition_cost(scorer)
        f1 = ctx.analysis.op_index[loop.ddg.operation("f1")]
        # Splitting the recurrence onto a slow cluster violates it: the
        # infeasibility floor alone rejects the move.
        assert partition_cost(scorer, ((f1,), 1), best) is None
        assert scorer.steps_resumed == 0
