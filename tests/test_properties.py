"""Property-based tests (hypothesis) on core invariants."""

import math
from fractions import Fraction
from itertools import takewhile

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.ir.analysis import (
    alap_times,
    asap_times,
    edge_delay,
    rec_mii,
    rec_mii_lawler,
)
from repro.ir.builder import DDGBuilder
from repro.ir.ddg import DDG
from repro.ir.loop import Loop
from repro.ir.opcodes import COMPUTE_CLASSES
from repro.ir.transforms import unroll
from repro.machine.clocking import FrequencyPalette
from repro.machine.machine import paper_machine
from repro.machine.operating_point import DomainSetting, OperatingPoint
from repro.scheduler import HeterogeneousModuloScheduler
from repro.scheduler.mii import minimum_initiation_time
from repro.sim.executor import LoopExecutor
from repro.units import ascending_multiples, fraction_gcd, is_integral

MACHINE = paper_machine()
ISA = MACHINE.isa

SETTINGS = settings(
    max_examples=25,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)


# ----------------------------------------------------------------------
# strategies
# ----------------------------------------------------------------------
@st.composite
def ddgs(draw, max_ops=10):
    """Random valid DDGs: a DAG of flow edges plus loop-carried edges."""
    n = draw(st.integers(min_value=2, max_value=max_ops))
    classes = draw(
        st.lists(st.sampled_from(COMPUTE_CLASSES), min_size=n, max_size=n)
    )
    b = DDGBuilder("prop")
    ops = [b.op(f"n{i}", oc) for i, oc in enumerate(classes)]
    # Forward edges keep the omega-0 subgraph acyclic.
    for j in range(1, n):
        parents = draw(
            st.lists(
                st.integers(min_value=0, max_value=j - 1),
                min_size=0,
                max_size=2,
                unique=True,
            )
        )
        for i in parents:
            b.flow(ops[i], ops[j])
    n_back = draw(st.integers(min_value=0, max_value=3))
    for _ in range(n_back):
        src = draw(st.integers(min_value=0, max_value=n - 1))
        dst = draw(st.integers(min_value=0, max_value=n - 1))
        distance = draw(st.integers(min_value=1, max_value=3))
        b.flow(ops[src], ops[dst], distance=distance)
    return b.build()


@st.composite
def het_points(draw):
    """Random heterogeneous operating points from the paper's grids."""
    fast = draw(
        st.sampled_from([Fraction(9, 10), Fraction(1), Fraction(11, 10)])
    )
    ratio = draw(
        st.sampled_from([Fraction(1), Fraction(5, 4), Fraction(3, 2)])
    )
    slow = fast * ratio
    fast_setting = DomainSetting(fast, 1.1, 0.28)
    slow_setting = DomainSetting(slow, 0.8, 0.30)
    n_fast = draw(st.integers(min_value=1, max_value=3))
    clusters = tuple(
        fast_setting if i < n_fast else slow_setting for i in range(4)
    )
    return OperatingPoint(
        clusters=clusters,
        icn=DomainSetting(fast, 1.0, 0.30),
        cache=DomainSetting(fast, 1.2, 0.35),
    )


positive_fractions = st.fractions(
    min_value=Fraction(1, 20), max_value=Fraction(20)
)


# ----------------------------------------------------------------------
# IR properties
# ----------------------------------------------------------------------
class TestAnalysisProperties:
    @SETTINGS
    @given(ddgs())
    def test_lawler_matches_enumeration(self, ddg):
        assert rec_mii_lawler(ddg, ISA) == rec_mii(ddg, ISA)

    @SETTINGS
    @given(ddgs())
    def test_asap_below_alap(self, ddg):
        asap = asap_times(ddg, ISA)
        alap = alap_times(ddg, ISA)
        assert all(asap[op] <= alap[op] for op in ddg.operations)

    @SETTINGS
    @given(ddgs(), st.integers(min_value=2, max_value=4))
    def test_unroll_preserves_structure(self, ddg, factor):
        unrolled = unroll(ddg, factor)
        assert len(unrolled) == factor * len(ddg)
        assert len(unrolled.dependences) == factor * len(ddg.dependences)
        original = ddg.class_counts()
        scaled = unrolled.class_counts()
        assert all(scaled[oc] == factor * count for oc, count in original.items())

    @SETTINGS
    @given(ddgs(max_ops=6), st.integers(min_value=2, max_value=3))
    def test_unroll_scales_recmii(self, ddg, factor):
        assert rec_mii(unroll(ddg, factor), ISA) == factor * rec_mii(ddg, ISA)


# ----------------------------------------------------------------------
# arithmetic properties
# ----------------------------------------------------------------------
class TestFractionProperties:
    @SETTINGS
    @given(positive_fractions, positive_fractions)
    def test_gcd_divides_both(self, a, b):
        g = fraction_gcd(a, b)
        assert is_integral(a / g)
        assert is_integral(b / g)

    @SETTINGS
    @given(
        st.lists(positive_fractions, min_size=1, max_size=4),
        st.integers(min_value=0, max_value=6),
        st.one_of(st.just(Fraction(0)), positive_fractions),
        st.booleans(),
    )
    def test_ascending_multiples_match_brute_force(
        self, periods, k, offset, inclusive
    ):
        # Starting on a multiple (offset 0) exercises the inclusive edge.
        start = k * periods[0] + offset
        limit = start + 3 * max(periods)
        expected = sorted(
            {
                k * period
                for period in periods
                for k in range(1, math.ceil(limit / period) + 1)
                if k * period <= limit
                and (k * period >= start if inclusive else k * period > start)
            }
        )
        stream = ascending_multiples(periods, start, inclusive=inclusive)
        assert list(takewhile(lambda value: value <= limit, stream)) == expected


# ----------------------------------------------------------------------
# palette properties
# ----------------------------------------------------------------------
class TestEnergyModelProperties:
    @SETTINGS
    @given(
        st.floats(min_value=0.7, max_value=1.19),
        st.floats(min_value=0.01, max_value=0.1),
    )
    def test_dynamic_energy_monotone_in_vdd(self, vdd, step):
        from repro.machine.operating_point import DomainSetting
        from repro.power.scaling import dynamic_scale

        reference = DomainSetting(Fraction(1), 1.0, 0.25)
        low = DomainSetting(Fraction(1), vdd, 0.2 * vdd)
        high = DomainSetting(Fraction(1), vdd + step, 0.2 * (vdd + step))
        assert dynamic_scale(low, reference) < dynamic_scale(high, reference)

    @SETTINGS
    @given(
        st.floats(min_value=0.15, max_value=0.4),
        st.floats(min_value=0.01, max_value=0.1),
    )
    def test_static_energy_monotone_in_vth(self, vth, step):
        from repro.machine.operating_point import DomainSetting
        from repro.power.scaling import static_scale

        reference = DomainSetting(Fraction(1), 1.0, 0.25)
        leaky = DomainSetting(Fraction(1), 1.0, vth)
        tight = DomainSetting(Fraction(1), 1.0, vth + step)
        assert static_scale(tight, reference) < static_scale(leaky, reference)

    @SETTINGS
    @given(st.floats(min_value=0.3, max_value=1.1))
    def test_fmax_vth_roundtrip_monotone(self, frequency):
        from repro.power.technology import TechnologyModel

        technology = TechnologyModel()
        vth = technology.solve_vth(frequency, 1.2)
        assert technology.fmax(1.2, vth) == pytest.approx(frequency)


class TestPaletteProperties:
    @SETTINGS
    @given(
        st.integers(min_value=1, max_value=16),
        st.fractions(min_value=Fraction(1, 2), max_value=Fraction(2)),
        st.fractions(min_value=Fraction(1), max_value=Fraction(40)),
    )
    def test_select_pair_contract(self, size, top, it):
        palette = FrequencyPalette.uniform(size, top)
        pair = palette.select_pair(it, top)
        if pair is not None:
            frequency, ii = pair
            assert frequency in palette.frequencies
            assert frequency <= top
            assert frequency * it == ii
            assert ii >= 1


# ----------------------------------------------------------------------
# end-to-end scheduling properties
# ----------------------------------------------------------------------
class TestSchedulingProperties:
    @SETTINGS
    @given(ddgs(max_ops=8), het_points())
    def test_schedules_are_legal_and_executable(self, ddg, point):
        loop = Loop(ddg, trip_count=12)
        scheduler = HeterogeneousModuloScheduler(MACHINE)
        schedule = scheduler.schedule(loop, point)
        # Static legality is asserted inside schedule(); re-check the IT
        # bound and dynamic legality here.
        mit = minimum_initiation_time(ddg, MACHINE, point.speeds)
        assert schedule.it >= mit
        result = LoopExecutor(schedule).run(loop.trip_count)
        assert result.exec_time_ns >= float(schedule.it_length)

    @SETTINGS
    @given(ddgs(max_ops=8), het_points())
    def test_tick_timing_matches_exact_nanoseconds(self, ddg, point):
        loop = Loop(ddg, trip_count=12)
        schedule = HeterogeneousModuloScheduler(MACHINE).schedule(loop, point)
        quantum = schedule.quantum
        assert schedule.it_ticks * quantum == schedule.it

        # Reference: every instant in exact Fraction ns, computed from
        # the domains' cycle times (no grid involved).
        def period(cluster):
            return schedule.cluster_assignment(cluster).cycle_time

        icn = schedule.icn_assignment.cycle_time
        latency = MACHINE.interconnect.latency

        def sync(from_ct, to_ct):
            return to_ct if schedule.sync_penalties and from_ct != to_ct else 0

        latest = Fraction(0)
        for op, placed in schedule.placements.items():
            issue = placed.cycle * period(placed.cluster)
            finish = (placed.cycle + ISA.latency(op.opclass)) * period(
                placed.cluster
            )
            assert schedule.issue_time(op) * quantum == issue
            assert schedule.finish_time(op) * quantum == finish
            latest = max(latest, finish)
        for dep, copy in schedule.copies.items():
            producer = schedule.placements[dep.src]
            consumer_ct = period(schedule.placements[dep.dst].cluster)
            gate = (producer.cycle + edge_delay(dep, ISA)) * period(
                producer.cluster
            ) + sync(period(producer.cluster), icn)
            arrival = (copy.bus_cycle + latency) * icn + sync(icn, consumer_ct)
            assert schedule.copy_issue_time(dep) * quantum == copy.bus_cycle * icn
            assert schedule.copy_gate_time(dep) * quantum == gate
            assert schedule.copy_arrival_time(dep) * quantum == arrival
            latest = max(latest, arrival)
        for dep in ddg.dependences:
            if dep in schedule.copies:
                ready = schedule.copy_arrival_time(dep) * quantum
            else:
                producer = schedule.placements[dep.src]
                ready = (producer.cycle + edge_delay(dep, ISA)) * period(
                    producer.cluster
                )
            ready -= dep.distance * schedule.it
            assert schedule.value_ready_time(dep) * quantum == ready
        assert schedule.it_length == latest

        result = LoopExecutor(schedule).run(loop.trip_count)
        window = result.simulated_iterations
        assert result.simulated_makespan == (
            (window - 1) * schedule.it + schedule.it_length
        )

    @SETTINGS
    @given(ddgs(max_ops=8), het_points())
    def test_register_pressure_bounded(self, ddg, point):
        loop = Loop(ddg, trip_count=12)
        schedule = HeterogeneousModuloScheduler(MACHINE).schedule(loop, point)
        for index, peak in enumerate(schedule.max_live()):
            assert peak <= MACHINE.cluster(index).n_regs
