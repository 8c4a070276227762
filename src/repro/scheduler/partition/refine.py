"""Partition refinement (section 4.1.2).

Two heuristics, applied at every level of the macro hierarchy from
coarsest to finest:

1. **Balance** — while some cluster's per-FU demand exceeds
   ``II_c * units``, greedily move the macro whose relocation reduces the
   total overload the most.
2. **ED^2 moves** — propose moving each macro to every other usable
   cluster, score candidates with the pseudo-schedule + section 3.1
   energy model (:func:`repro.scheduler.pseudo.partition_cost`, resumed
   from the first moved op and bounded by the best cost so far), and keep
   the best strictly-improving move; repeat until a pass makes no move.

Moves at a coarse level relocate whole macros; at the finest level
individual operations move, which is where the paper allows recurrences
to be split if profitable.
"""

from __future__ import annotations

from typing import Dict, Sequence, Tuple

from repro.scheduler.context import SchedulingContext
from repro.scheduler.partition.coarsen import CoarseningResult, Macro
from repro.scheduler.partition.partition import Partition
from repro.scheduler.pseudo import MoveScorer, fu_overload, partition_cost
from repro.telemetry import span_count

#: Counters :func:`refine` adds to the enclosing span.
REFINE_COUNTERS = (
    "refine_candidates",
    "refine_pruned_bound",
    "refine_moves",
    "refine_steps_resumed",
    "refine_steps_total",
)


def _macro_cluster(partition: Partition, macro: Macro) -> int:
    """Cluster currently hosting the macro (its first op's cluster)."""
    return partition.cluster_of(macro.ops[0])


def balance(
    ctx: SchedulingContext,
    partition: Partition,
    macros: Sequence[Macro],
) -> Partition:
    """Greedy overload reduction by whole-macro moves."""
    usable = ctx.usable_clusters()
    current = partition
    overload = fu_overload(ctx, current.demand_matrix())
    while overload > 0:
        best: Tuple[int, Macro, int] | None = None  # (overload, macro, dst)
        for macro in macros:
            source = _macro_cluster(current, macro)
            for target in usable:
                if target == source:
                    continue
                candidate = current.moved(macro.ops, target)
                candidate_overload = fu_overload(ctx, candidate.demand_matrix())
                if candidate_overload < overload and (
                    best is None or candidate_overload < best[0]
                ):
                    best = (candidate_overload, macro, target)
        if best is None:
            break
        overload = best[0]
        current = current.moved(best[1].ops, best[2])
    return current


def ed2_refine(
    ctx: SchedulingContext,
    partition: Partition,
    macros: Sequence[Macro],
) -> Tuple[Partition, Dict[str, int]]:
    """Best-improvement ED^2 moves until a pass changes nothing.

    Candidates are priced against one :class:`MoveScorer` of the current
    partition, bounded by the best cost so far; only accepted moves are
    materialized.  Returns the refined partition and the search's
    :data:`REFINE_COUNTERS`.
    """
    usable = ctx.usable_clusters()
    op_index = ctx.analysis.op_index
    moves = [tuple(sorted(op_index[op] for op in macro.ops)) for macro in macros]
    scorer = MoveScorer(ctx, partition)
    current_cost = partition_cost(scorer)
    candidates = pruned = accepted = 0
    for _ in range(ctx.options.refinement_passes):
        moved = False
        for macro, positions in zip(macros, moves):
            source = _macro_cluster(scorer.partition, macro)
            best_target: int | None = None
            best_cost = current_cost
            for target in usable:
                if target == source:
                    continue
                candidates += 1
                cost = partition_cost(scorer, (positions, target), best_cost)
                if cost is None:
                    pruned += 1
                elif cost < best_cost:
                    best_cost = cost
                    best_target = target
            if best_target is not None:
                scorer.apply(positions, best_target)
                current_cost = best_cost
                accepted += 1
                moved = True
        if not moved:
            break
    return scorer.partition, {
        "refine_candidates": candidates,
        "refine_pruned_bound": pruned,
        "refine_moves": accepted,
        "refine_steps_resumed": scorer.steps_resumed,
        "refine_steps_total": candidates * ctx.analysis.n_ops,
    }


def refine(
    ctx: SchedulingContext,
    partition: Partition,
    coarsening: CoarseningResult,
) -> Partition:
    """Walk the hierarchy coarsest -> finest applying both heuristics.

    The ED^2 search's counters are flushed once onto the current span:
    candidates scored, candidates a lower bound rejected before any list
    scheduling, accepted moves, and the topological steps the resumed
    passes ran against the steps full passes would have.
    """
    tally = dict.fromkeys(REFINE_COUNTERS, 0)
    current = partition
    for level in reversed(coarsening.levels):
        current = balance(ctx, current, level)
        if ctx.options.ed2_refinement:
            current, counts = ed2_refine(ctx, current, level)
            for name, count in counts.items():
                tally[name] += count
    for name, count in tally.items():
        span_count(name, count)
    return current
