"""Scheduling order for the kernel.

Operations on critical recurrences go first (most critical recurrence
first), then greater height (longest delay-weighted path to a sink),
then original DDG order for determinism — the classic iterative modulo
scheduling priority adapted to recurrence criticality.

The keys are IT-invariant, so they live on the context's
:class:`~repro.scheduler.context.LoopAnalysis` and are computed once per
loop rather than once per IT candidate.
"""

from __future__ import annotations

from typing import Dict, Tuple

from repro.ir.operation import Operation
from repro.scheduler.context import SchedulingContext


def priority_key(ctx: SchedulingContext) -> Dict[Operation, Tuple]:
    """Sort key per operation: smaller sorts earlier (= schedule first).

    Returns the loop analysis's shared key dict — treat it as read-only.
    """
    return ctx.analysis.priority_keys
