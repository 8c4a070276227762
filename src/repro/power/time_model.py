"""The section 3.2 execution-time estimate.

For a candidate machine speed assignment, the IT of each profiled loop is
estimated as the smallest initiation time such that

1. ``IT >= recMIT`` (the longest recurrence fits: recMII cycles of the
   fastest cluster),
2. there are enough FU slots for every instruction
   (``sum_c II_c * units_{c,r} >= N_r`` per FU type, with
   ``II_c = floor(IT / Tcyc_c)``),
3. there are enough bus slots for the communications of the homogeneous
   schedule (``n_buses * II_icn >= comms``),
4. there are enough register lifetime slots
   (``sum_c regs_c * II_c >= lifetime cycles``).

``it_length`` is approximated as the homogeneous iteration length times
the arithmetic-mean cluster cycle time (the paper's half-fast/half-slow
assumption), and
``Texec = weight * ((N - 1) * IT + it_length)`` per loop.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import chain
from typing import Dict

from repro.errors import InfeasibleITError
from repro.machine.fu import FUType, fu_for
from repro.machine.machine import MachineDescription
from repro.machine.operating_point import MachineSpeeds
from repro.power.profile import LoopProfile, ProgramProfile
from repro.scheduler.mii import _capacity_satisfied
from repro.units import ascending_multiples, floor_div


@dataclass(frozen=True)
class LoopTimeEstimate:
    """Estimated timing of one loop under one speed assignment."""

    it: Fraction
    it_length_ns: float
    time_per_entry_ns: float
    total_ns: float


def fu_demand(class_counts) -> Dict[FUType, int]:
    """Per-FU-type instruction counts of a loop body."""
    demand: Dict[FUType, int] = {fu: 0 for fu in FUType}
    for opclass, count in class_counts.items():
        fu = fu_for(opclass)
        if fu is not None:
            demand[fu] += count
    return demand


class TimeModel:
    """Section 3.2 estimator bound to one machine description."""

    #: Safety bound on the candidate-IT scan per loop.
    MAX_CANDIDATES = 100_000

    def __init__(self, machine: MachineDescription):
        self._machine = machine

    # ------------------------------------------------------------------
    def rec_mit(self, profile: LoopProfile, speeds: MachineSpeeds) -> Fraction:
        """recMIT: recMII cycles of the fastest cluster (section 2.2)."""
        return profile.rec_mii * speeds.fastest_cluster_cycle_time

    def _capacity_ok(
        self,
        it: Fraction,
        speeds: MachineSpeeds,
        demand: Dict[FUType, int],
        comms: int,
        lifetimes: int,
    ) -> bool:
        machine = self._machine
        if not _capacity_satisfied(it, machine, speeds, demand):
            return False
        if comms > 0:
            ii_icn = floor_div(it, speeds.icn_cycle_time)
            if machine.interconnect.n_buses * ii_icn < comms:
                return False
        if lifetimes > 0:
            iis = [floor_div(it, ct) for ct in speeds.cluster_cycle_times]
            reg_slots = sum(
                ii * machine.cluster(i).n_regs for i, ii in enumerate(iis)
            )
            if reg_slots < lifetimes:
                return False
        return True

    def minimum_initiation_time(
        self, profile: LoopProfile, speeds: MachineSpeeds
    ) -> Fraction:
        """Smallest IT satisfying the four section 3.2 constraints."""
        if speeds.n_clusters != self._machine.n_clusters:
            raise ValueError("speed assignment and machine disagree on clusters")
        demand = fu_demand(profile.class_counts)
        start = self.rec_mit(profile, speeds)
        if start <= 0:
            # No recurrences: the scan starts at the smallest IT giving the
            # fastest cluster a single slot.
            start = speeds.fastest_cluster_cycle_time
        periods = list(speeds.cluster_cycle_times) + [speeds.icn_cycle_time]
        candidates = chain(
            (start,), ascending_multiples(periods, start, inclusive=False)
        )
        for steps, candidate in enumerate(candidates):
            if steps > self.MAX_CANDIDATES:  # pragma: no cover - safety net
                break
            if self._capacity_ok(
                candidate,
                speeds,
                demand,
                profile.comms_per_iteration,
                profile.lifetime_cycles_per_iteration,
            ):
                return candidate
        raise InfeasibleITError(
            f"no feasible IT found for loop {profile.name!r} within "
            f"{self.MAX_CANDIDATES} candidates"
        )

    # ------------------------------------------------------------------
    def loop_estimate(
        self, profile: LoopProfile, speeds: MachineSpeeds
    ) -> LoopTimeEstimate:
        """IT, it_length and total time of one loop (section 3.2)."""
        it = self.minimum_initiation_time(profile, speeds)
        it_length = profile.cycles_per_iteration * float(
            speeds.mean_cluster_cycle_time
        )
        per_entry = (profile.trip_count - 1) * float(it) + it_length
        return LoopTimeEstimate(
            it=it,
            it_length_ns=it_length,
            time_per_entry_ns=per_entry,
            total_ns=per_entry * profile.weight,
        )

    def program_time(
        self, profile: ProgramProfile, speeds: MachineSpeeds
    ) -> float:
        """Estimated execution time (ns) of a whole program."""
        return sum(
            self.loop_estimate(loop, speeds).total_ns for loop in profile.loops
        )
