"""Shared state for one scheduling attempt (one loop at one IT).

The partitioner, the pseudo-scheduler and the kernel all need the same
bundle: the DDG and its cached analyses, the machine, the operating
point, the per-domain (frequency, II) assignments and the IT.

Two lifetimes are involved.  :class:`LoopAnalysis` holds everything that
depends only on the loop and the latency table — topological order,
heights, recurrences, priorities, per-operation FU/latency/energy arrays
and per-edge delays — and is computed **once per loop**, shared across
every IT candidate the driver tries (and memoized process-wide).
:class:`SchedulingContext` layers the per-attempt state on top: the
operating point, the (frequency, II) assignments and the IT-derived
cluster parameters.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from typing import Dict, List, Mapping, Optional, Tuple
from weakref import WeakKeyDictionary, ref

from repro.ir.analysis import (
    Recurrence,
    alap_times,
    asap_times,
    edge_delay,
    edge_delay_map,
    find_recurrences,
    operation_heights,
)
from repro.ir.ddg import DDG
from repro.ir.operation import Operation
from repro.machine.fu import FU_CODE, N_FU_KINDS, fu_for
from repro.machine.machine import MachineDescription
from repro.machine.operating_point import OperatingPoint
from repro.scheduler.options import SchedulerOptions
from repro.scheduler.schedule import DomainAssignment
from repro.machine.clocking import ICN_DOMAIN, cluster_domain
from repro.power.scaling import dynamic_scale, static_scale


@dataclass(frozen=True)
class PartitionEnergyWeights:
    """Relative energy weights guiding ED^2-driven refinement.

    When the pipeline has calibrated unit energies it passes them here;
    stand-alone scheduling uses defaults that preserve the paper's
    baseline proportions (communication comparable to an instruction,
    leakage a third of cluster energy).
    """

    e_ins_unit: float = 1.0
    e_comm: float = 1.0
    static_rate_per_cluster: float = 0.0
    static_rate_icn: float = 0.0

    def __post_init__(self) -> None:
        if self.e_ins_unit < 0 or self.e_comm < 0:
            raise ValueError("energy weights must be non-negative")


class LoopAnalysis:
    """Every IT-invariant artifact of one ``(ddg, latency table)`` pair.

    Hoisted out of the per-IT retry loop (section 4's driver tries many
    ITs per loop; only placement actually depends on the IT): topological
    order, operation heights, recurrence enumeration, kernel priorities,
    whole-loop FU demand and dense per-op/per-edge arrays the
    pseudo-scheduler indexes by position instead of hashing objects.
    """

    def __init__(self, ddg: DDG, isa):
        # Weak: instances live as values of a WeakKeyDictionary keyed by
        # the DDG, so a strong back-reference would pin the key forever
        # and no corpus could ever be freed.
        self._ddg_ref = ref(ddg)
        self.isa = isa
        order = ddg.topological_order(intra_iteration_only=True)
        if order is None:
            raise ValueError(f"DDG {ddg.name!r} has a zero-distance cycle")
        self.topo_order: List[Operation] = order
        self.heights: Dict[Operation, int] = operation_heights(ddg, isa)
        self.recurrences: List[Recurrence] = find_recurrences(ddg, isa)
        self.recurrence_ops = {
            op for recurrence in self.recurrences for op in recurrence.operations
        }
        #: Per-edge scheduling delays (shared with the analysis memo).
        self.delay_by_dep = edge_delay_map(ddg, isa)

        ops = ddg.operations
        self.ops: Tuple[Operation, ...] = ops
        self.n_ops = len(ops)
        self.n_deps = ddg.n_dependences
        self.op_index: Dict[Operation, int] = {op: i for i, op in enumerate(ops)}
        #: Dense FU code per op (-1 = occupies no cluster FU).
        self.op_fu_code: List[int] = [FU_CODE[op.opclass] for op in ops]
        self.op_fu = [fu_for(op.opclass) for op in ops]
        self.op_latency: List[int] = [isa.latency(op.opclass) for op in ops]
        self.op_energy: List[float] = [isa.energy(op.opclass) for op in ops]
        #: Whole-loop demand per FU code (ops occupying each kind).
        self.fu_demand_by_code: Tuple[int, ...] = tuple(
            sum(1 for code in self.op_fu_code if code == kind)
            for kind in range(N_FU_KINDS)
        )

        self.topo_indices: List[int] = [self.op_index[op] for op in order]
        #: Per-op intra-iteration in-edges as (src index, delay, carries).
        self.pred_edges: List[List[Tuple[int, int, bool]]] = []
        for op in ops:
            edges = []
            for dep in ddg.in_edges(op):
                if dep.is_loop_carried:
                    continue
                edges.append(
                    (
                        self.op_index[dep.src],
                        self.delay_by_dep[dep],
                        dep.carries_value,
                    )
                )
            self.pred_edges.append(edges)
        #: Per-recurrence hop data: (total distance, ((src, dst, delay,
        #: carries), ...)) with the max-delay parallel edge pre-selected.
        self.recurrence_hops: List[Tuple[int, Tuple[Tuple[int, int, int, bool], ...]]] = []
        for recurrence in self.recurrences:
            hops = []
            size = len(recurrence.operations)
            for position, src in enumerate(recurrence.operations):
                dst = recurrence.operations[(position + 1) % size]
                best_delay: Optional[int] = None
                carries = False
                for dep in ddg.out_edges(src):
                    if dep.dst is not dst:
                        continue
                    delay = self.delay_by_dep[dep]
                    if best_delay is None or delay > best_delay:
                        best_delay = delay
                        carries = dep.carries_value
                hops.append(
                    (
                        self.op_index[src],
                        self.op_index[dst],
                        best_delay if best_delay is not None else 0,
                        carries,
                    )
                )
            self.recurrence_hops.append(
                (recurrence.total_distance, tuple(hops))
            )

    # ------------------------------------------------------------------
    @property
    def ddg(self) -> DDG:
        """The analysed graph (weakly held; raises after collection)."""
        ddg = self._ddg_ref()
        if ddg is None:
            raise ReferenceError("the analysed DDG has been garbage-collected")
        return ddg

    @cached_property
    def priority_keys(self) -> Dict[Operation, Tuple]:
        """Kernel scheduling priority per op (smaller sorts earlier).

        Operations on critical recurrences first (most critical
        recurrence first), then greater height, then DDG order — the
        classic iterative modulo scheduling priority.  IT-invariant, so
        computed once per loop.
        """
        ratio: Dict[Operation, Fraction] = {}
        for recurrence in self.recurrences:
            for op in recurrence.operations:
                if op not in ratio or recurrence.ratio > ratio[op]:
                    ratio[op] = recurrence.ratio
        keys: Dict[Operation, Tuple] = {}
        zero = Fraction(0)
        for position, op in enumerate(self.ops):
            keys[op] = (
                -ratio.get(op, zero),
                -self.heights[op],
                position,
            )
        return keys

    @cached_property
    def asap(self) -> Dict[Operation, int]:
        """Earliest issue cycles over the omega-0 subgraph (memoized)."""
        return asap_times(self.ddg, self.isa)

    @cached_property
    def alap(self) -> Dict[Operation, int]:
        """Latest issue cycles keeping the ASAP makespan (memoized)."""
        return alap_times(self.ddg, self.isa)


#: ddg -> {isa: LoopAnalysis}; weak on the DDG so corpora can be freed.
_LOOP_ANALYSES: "WeakKeyDictionary[DDG, Dict[object, LoopAnalysis]]" = (
    WeakKeyDictionary()
)


def loop_analysis(ddg: DDG, isa) -> LoopAnalysis:
    """The memoized :class:`LoopAnalysis` of ``(ddg, isa)``.

    Stale entries (the graph grew since analysis) are rebuilt; DDGs are
    append-only so count comparison detects every mutation.  (Same weak
    two-key memo shape as ``ir.analysis._edge_data`` — change both in
    tandem.)
    """
    try:
        per_isa = _LOOP_ANALYSES.get(ddg)
    except TypeError:  # pragma: no cover - DDG is always weakref-able
        return LoopAnalysis(ddg, isa)
    if per_isa is None:
        per_isa = {}
        _LOOP_ANALYSES[ddg] = per_isa
    try:
        analysis = per_isa.get(isa)
    except TypeError:  # unhashable duck-typed table: skip the cache
        return LoopAnalysis(ddg, isa)
    if (
        analysis is None
        or analysis.n_ops != len(ddg)
        or analysis.n_deps != ddg.n_dependences
    ):
        analysis = LoopAnalysis(ddg, isa)
        per_isa[isa] = analysis
    return analysis


class SchedulingContext:
    """Everything one scheduling attempt needs, with cached analyses."""

    def __init__(
        self,
        ddg: DDG,
        machine: MachineDescription,
        point: OperatingPoint,
        assignments: Mapping[str, DomainAssignment],
        it: Fraction,
        options: SchedulerOptions,
        trip_count: float = 100.0,
        weights: Optional[PartitionEnergyWeights] = None,
        analysis: Optional[LoopAnalysis] = None,
    ):
        self.ddg = ddg
        self.machine = machine
        self.point = point
        self.assignments = dict(assignments)
        self.it = Fraction(it)
        self.options = options
        self.trip_count = trip_count
        self.weights = weights if weights is not None else PartitionEnergyWeights()

        self.isa = machine.isa
        if (
            analysis is None
            or analysis.ddg is not ddg
            or analysis.isa != self.isa
        ):
            analysis = loop_analysis(ddg, self.isa)
        #: The loop-invariant artifacts shared across IT candidates.
        self.analysis = analysis
        self.topo_order: List[Operation] = analysis.topo_order
        self.heights: Dict[Operation, int] = analysis.heights
        self.recurrences: List[Recurrence] = analysis.recurrences
        self.recurrence_ops = analysis.recurrence_ops
        self._delay_of = analysis.delay_by_dep

        # Per-cluster running cycle times (None when gated).
        self.cluster_cycle_times: List[Optional[Fraction]] = []
        self.cluster_iis: List[int] = []
        for index in range(machine.n_clusters):
            assignment = self.assignments[cluster_domain(index)]
            self.cluster_iis.append(assignment.ii)
            self.cluster_cycle_times.append(
                assignment.cycle_time if assignment.usable else None
            )
        icn = self.assignments[ICN_DOMAIN]
        self.icn_ii: int = icn.ii
        self.icn_cycle_time: Optional[Fraction] = (
            icn.cycle_time if icn.usable else None
        )
        #: Float views used by the pseudo-scheduler's inner loop (one
        #: conversion per attempt instead of one per candidate partition).
        self.it_float: float = float(self.it)
        self.cluster_ct_floats: List[Optional[float]] = [
            float(t) if t is not None else None
            for t in self.cluster_cycle_times
        ]
        self.icn_ct_float: Optional[float] = (
            float(self.icn_cycle_time)
            if self.icn_cycle_time is not None
            else None
        )
        #: FU counts per cluster, indexed by dense FU code.
        self.cluster_fu_counts: Tuple[Tuple[int, ...], ...] = tuple(
            machine.cluster(index).fu_counts_by_code
            for index in range(machine.n_clusters)
        )

        # Energy scaling factors for the refinement metric.
        reference = point.clusters[0]
        # Scale relative to the *fastest* cluster's setting so the metric
        # rewards moving work to cheaper clusters.
        fastest = min(point.clusters, key=lambda s: s.cycle_time)
        self.cluster_deltas: Tuple[float, ...] = tuple(
            dynamic_scale(s, fastest) for s in point.clusters
        )
        self.cluster_sigmas: Tuple[float, ...] = tuple(
            static_scale(s, fastest) for s in point.clusters
        )
        self.icn_delta: float = dynamic_scale(point.icn, fastest)
        self.icn_sigma: float = static_scale(point.icn, fastest)

    # ------------------------------------------------------------------
    @property
    def n_clusters(self) -> int:
        """Cluster count of the machine."""
        return self.machine.n_clusters

    def usable_clusters(self) -> List[int]:
        """Indices of clusters with II >= 1 at this IT."""
        return [i for i, ii in enumerate(self.cluster_iis) if ii >= 1]

    def delay(self, dep) -> int:
        """Edge delay in producer-clock cycles (precomputed lookup)."""
        delay = self._delay_of.get(dep)
        if delay is None:  # edge added after analysis (not seen in practice)
            return edge_delay(dep, self.isa)
        return delay

    def sync_penalty(self, from_ct: Fraction, to_ct: Fraction) -> Fraction:
        """One receiving-domain cycle on a frequency-crossing (or zero)."""
        if self.options.sync_penalties and from_ct != to_ct:
            return Fraction(to_ct)
        return Fraction(0)
