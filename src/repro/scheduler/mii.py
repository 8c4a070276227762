"""Minimum initiation time (MIT) for heterogeneous machines (section 2.2).

On a homogeneous machine the scheduler reasons in cycles (MII); with
per-domain frequencies the shared loop constant is the initiation *time*:

* ``recMIT = recMII * Tcyc(fastest cluster)`` — the longest recurrence can
  always be placed on the fastest cluster,
* ``resMIT`` — the smallest IT giving every FU type enough slots, where a
  cluster running with initiation interval ``II_c = floor(IT / Tcyc_c)``
  contributes ``II_c`` slots per unit,
* ``MIT = max(recMIT, resMIT)``.

:func:`capacity_table` reproduces the Figure 4 table: how many slots each
IT buys on each cluster.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import takewhile
from typing import Dict, List, Tuple

from repro.errors import InfeasibleITError
from repro.ir.analysis import rec_mii
from repro.ir.ddg import DDG
from repro.machine.fu import FUType, fu_for
from repro.machine.machine import MachineDescription
from repro.machine.operating_point import MachineSpeeds
from repro.units import Time, ascending_multiples, ceil_div, floor_div


def ddg_fu_demand(ddg: DDG) -> Dict[FUType, int]:
    """Per-FU-type operation counts of a loop body (copies excluded)."""
    demand: Dict[FUType, int] = {fu: 0 for fu in FUType}
    for op in ddg.operations:
        fu = fu_for(op.opclass)
        if fu is not None:
            demand[fu] += 1
    return demand


def rec_mit(ddg: DDG, isa, speeds: MachineSpeeds) -> Fraction:
    """Recurrence-constrained minimum initiation time (ns)."""
    return rec_mii(ddg, isa) * speeds.fastest_cluster_cycle_time


def _cluster_iis(it: Fraction, speeds: MachineSpeeds) -> List[int]:
    return [floor_div(it, ct) for ct in speeds.cluster_cycle_times]


def _capacity_satisfied(
    it: Fraction,
    machine: MachineDescription,
    speeds: MachineSpeeds,
    demand: Dict[FUType, int],
) -> bool:
    iis = _cluster_iis(it, speeds)
    for fu, needed in demand.items():
        if needed == 0:
            continue
        slots = sum(ii * machine.cluster(i).fu_count(fu) for i, ii in enumerate(iis))
        if slots < needed:
            return False
    return True


def res_mit(
    ddg: DDG, machine: MachineDescription, speeds: MachineSpeeds
) -> Fraction:
    """Resource-constrained minimum initiation time (ns).

    The capacity of each FU type jumps only when some cluster gains a
    cycle, i.e. at multiples of that cluster's period; the smallest
    feasible IT is therefore a multiple of some cluster period and the
    search walks the merged multiples in ascending order.
    """
    demand = ddg_fu_demand(ddg)
    total_demand = sum(demand.values())
    if total_demand == 0:
        return speeds.fastest_cluster_cycle_time

    # Lower bound: even with every cluster contributing slots at its own
    # rate, IT must satisfy sum_c (IT / Tcyc_c) * units >= demand per type.
    lower = speeds.fastest_cluster_cycle_time
    for fu, needed in demand.items():
        if needed == 0:
            continue
        rate = sum(
            Fraction(machine.cluster(i).fu_count(fu), 1) / ct
            for i, ct in enumerate(speeds.cluster_cycle_times)
        )
        if rate == 0:
            raise InfeasibleITError(
                f"loop {ddg.name!r} needs {fu} units but the machine has none"
            )
        lower = max(lower, Fraction(needed) / rate)

    periods = sorted(set(speeds.cluster_cycle_times))
    # Candidates: multiples of each cluster period, merged, from `lower`.
    candidates = sorted(
        {
            k * period
            for period in periods
            for k in range(
                max(1, ceil_div(lower, period)),
                ceil_div(lower, period) + total_demand + 2,
            )
        }
    )
    for candidate in candidates:
        if _capacity_satisfied(candidate, machine, speeds, demand):
            return candidate
    raise InfeasibleITError(  # pragma: no cover - candidates always suffice
        f"no feasible resMIT found for loop {ddg.name!r}"
    )


def minimum_initiation_time(
    ddg: DDG, machine: MachineDescription, speeds: MachineSpeeds
) -> Fraction:
    """``MIT = max(recMIT, resMIT)`` (section 2.2)."""
    return max(rec_mit(ddg, machine.isa, speeds), res_mit(ddg, machine, speeds))


@dataclass(frozen=True)
class CapacityRow:
    """One row of the Figure 4 table."""

    it: Fraction
    cluster_iis: Tuple[int, ...]
    total_slots: int


def capacity_table(
    machine: MachineDescription,
    speeds: MachineSpeeds,
    max_it: Time,
) -> List[CapacityRow]:
    """The Figure 4 capacity table: slots bought by each candidate IT.

    Lists every IT up to ``max_it`` at which some cluster's II jumps,
    with the per-cluster IIs and the machine-wide issue slots
    (``sum_c II_c * issue_width_c``).
    """
    candidates = takewhile(
        lambda it: it <= max_it,
        ascending_multiples(speeds.cluster_cycle_times, Fraction(0)),
    )
    rows: List[CapacityRow] = []
    for it in candidates:
        iis = tuple(_cluster_iis(it, speeds))
        total = sum(
            ii * machine.cluster(i).issue_width for i, ii in enumerate(iis)
        )
        rows.append(CapacityRow(it=it, cluster_iis=iis, total_slots=total))
    return rows
