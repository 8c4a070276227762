"""Heterogeneous configuration selection (section 3.3).

The selector walks the structural design space (how many fast clusters,
how fast, how much slower the slow ones are), estimates execution time
with the section 3.2 model, and then picks per-component supply voltages.

Voltage decomposition: for fixed cycle times, total estimated energy is a
*sum of independent per-component terms* — each component contributes
``delta(Vdd) * dynamic + sigma(Vdd, Vth) * static_rate * T`` and no term
couples two components.  Minimising each component's term over its own
voltage grid therefore yields exactly the global optimum over the full
cross-product grid, at a fraction of the cost.  (A brute-force mode used
in tests verifies the equivalence.)
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Sequence, Tuple

from repro.errors import ConfigurationError
from repro.machine.machine import MachineDescription
from repro.machine.operating_point import DomainSetting, MachineSpeeds, OperatingPoint
from repro.power.calibration import CalibratedUnits
from repro.power.metrics import ed2
from repro.power.profile import ProgramProfile
from repro.power.scaling import dynamic_scale, static_scale
from repro.power.technology import TechnologyModel
from repro.power.time_model import TimeModel
from repro.vfs.candidates import DesignSpaceSpec


def effective_fast_share(profile: ProgramProfile) -> float:
    """Estimated fraction of instruction energy on the fast clusters.

    Per loop, the share is the *critical-recurrence* energy fraction —
    only those instructions must run fast in steady state — blended
    towards 1 by the loop's ramp weight
    ``it_length / ((N - 1) * II + it_length)``: when a loop iterates few
    times, the pipeline fill/drain dominates and most instructions lack
    the slack to sit on slow clusters (the paper's applu observation).
    Loops are combined weighted by their share of execution time.
    """
    total_cycles = profile.total_cycles
    if total_cycles <= 0:
        return 0.5
    accumulated = 0.0
    for loop in profile.loops:
        per_entry = (
            loop.trip_count - 1
        ) * loop.ii_homogeneous + loop.cycles_per_iteration
        ramp_weight = (
            loop.cycles_per_iteration / per_entry if per_entry > 0 else 1.0
        )
        fast = loop.critical_energy_fraction
        fast += (1.0 - fast) * ramp_weight
        accumulated += fast * loop.homogeneous_cycles_total
    return min(max(accumulated / total_cycles, 0.05), 0.95)


@dataclass(frozen=True)
class SelectionResult:
    """A chosen operating point plus the estimates that selected it."""

    point: OperatingPoint
    estimated_time_ns: float
    estimated_energy: float
    estimated_ed2: float
    n_fast: int
    fast_factor: Fraction
    slow_ratio: Fraction


class ConfigurationSelector:
    """Implements the section 3.3 selection heuristics.

    ``distribution`` controls the instruction-distribution assumption
    behind the energy estimate (the paper leaves ``p_Ci`` open):

    * ``"critical"`` (default) — the profiled fraction of instruction
      energy on critical recurrences runs on the fast clusters; the rest
      on the slow ones.  This captures the paper's key intuition that
      only a small subset of instructions is critical.
    * ``"half"`` — half the instructions on fast clusters, half on slow
      ones (the section 3.2 it_length assumption extended to energy).
    """

    def __init__(
        self,
        machine: MachineDescription,
        technology: TechnologyModel,
        spec: Optional[DesignSpaceSpec] = None,
        distribution: str = "critical",
    ):
        if distribution not in ("critical", "half"):
            raise ConfigurationError(
                f"unknown instruction distribution {distribution!r}"
            )
        self._machine = machine
        self._technology = technology
        self._spec = spec if spec is not None else DesignSpaceSpec.paper()
        self._distribution = distribution
        self._time_model = TimeModel(machine)

    @property
    def spec(self) -> DesignSpaceSpec:
        """The design-space grids in use."""
        return self._spec

    # ------------------------------------------------------------------
    def _best_component_voltage(
        self,
        cycle_time: Fraction,
        vdd_grid: Sequence[float],
        dynamic_at_reference: float,
        static_rate: float,
        exec_time_ns: float,
        units: CalibratedUnits,
    ) -> Optional[Tuple[DomainSetting, float]]:
        """Cheapest feasible setting for one component, and its energy."""
        best: Optional[Tuple[DomainSetting, float]] = None
        for vdd in vdd_grid:
            setting = self._technology.domain_setting(cycle_time, vdd)
            if setting is None:
                continue
            energy = (
                dynamic_scale(setting, units.reference) * dynamic_at_reference
                + static_scale(
                    setting, units.reference, self._technology.subthreshold_slope
                )
                * static_rate
                * exec_time_ns
            )
            if best is None or energy < best[1]:
                best = (setting, energy)
        return best

    def _evaluate_structure(
        self,
        profile: ProgramProfile,
        units: CalibratedUnits,
        n_fast: int,
        fast_factor: Fraction,
        slow_ratio: Fraction,
    ) -> Optional[SelectionResult]:
        machine = self._machine
        n_clusters = machine.n_clusters
        if n_fast > n_clusters:
            return None
        reference_ct = units.reference.cycle_time
        fast_ct = fast_factor * reference_ct
        slow_ct = slow_ratio * fast_ct
        n_slow = n_clusters - n_fast

        speeds = MachineSpeeds(
            cluster_cycle_times=tuple(
                fast_ct if i < n_fast else slow_ct for i in range(n_clusters)
            ),
            icn_cycle_time=fast_ct,  # ICN tracks the fastest cluster (section 5)
            cache_cycle_time=fast_ct,  # so does the cache
        )
        exec_time = self._time_model.program_time(profile, speeds)

        # Instruction distribution across fast/slow cluster groups.
        total_units = profile.total_energy_units
        if n_slow == 0 or slow_ratio == 1:
            per_cluster_units = total_units / n_clusters
            fast_units, slow_units = per_cluster_units, per_cluster_units
        else:
            if self._distribution == "critical":
                fast_share = effective_fast_share(profile)
            else:
                fast_share = 0.5
            fast_units = fast_share * total_units / n_fast
            slow_units = (1.0 - fast_share) * total_units / n_slow

        per_cluster_static = units.static_rate_per_cluster

        fast_choice = self._best_component_voltage(
            fast_ct,
            self._spec.cluster_vdd_grid,
            units.e_ins_unit * fast_units,
            per_cluster_static,
            exec_time,
            units,
        )
        if fast_choice is None:
            return None
        energy = n_fast * fast_choice[1]

        if n_slow > 0:
            slow_choice = self._best_component_voltage(
                slow_ct,
                self._spec.cluster_vdd_grid,
                units.e_ins_unit * slow_units,
                per_cluster_static,
                exec_time,
                units,
            )
            if slow_choice is None:
                return None
            energy += n_slow * slow_choice[1]
        else:
            slow_choice = fast_choice

        # A heterogeneous partition communicates more than the homogeneous
        # schedule: splitting critical recurrences from the rest turns the
        # boundary edges into bus traffic.
        if n_slow > 0 and slow_ratio != 1:
            comm_estimate = profile.total_comms_heterogeneous
        else:
            comm_estimate = profile.total_comms
        icn_choice = self._best_component_voltage(
            fast_ct,
            self._spec.icn_vdd_grid,
            units.e_comm * comm_estimate,
            units.static_rate_icn,
            exec_time,
            units,
        )
        cache_choice = self._best_component_voltage(
            fast_ct,
            self._spec.cache_vdd_grid,
            units.e_access * profile.total_mem_accesses,
            units.static_rate_cache,
            exec_time,
            units,
        )
        if icn_choice is None or cache_choice is None:
            return None
        energy += icn_choice[1] + cache_choice[1]

        point = OperatingPoint(
            clusters=tuple(
                fast_choice[0] if i < n_fast else slow_choice[0]
                for i in range(n_clusters)
            ),
            icn=icn_choice[0],
            cache=cache_choice[0],
        )
        return SelectionResult(
            point=point,
            estimated_time_ns=exec_time,
            estimated_energy=energy,
            estimated_ed2=ed2(energy, exec_time),
            n_fast=n_fast,
            fast_factor=fast_factor,
            slow_ratio=slow_ratio,
        )

    # ------------------------------------------------------------------
    def select(
        self, profile: ProgramProfile, units: CalibratedUnits
    ) -> SelectionResult:
        """The operating point with the lowest *estimated* ED^2."""
        best: Optional[SelectionResult] = None
        for n_fast, fast_factor, slow_ratio in self._spec.structures():
            candidate = self._evaluate_structure(
                profile, units, n_fast, fast_factor, slow_ratio
            )
            if candidate is None:
                continue
            if best is None or candidate.estimated_ed2 < best.estimated_ed2:
                best = candidate
        if best is None:
            raise ConfigurationError(
                "no feasible heterogeneous configuration in the design space"
            )
        return best

    def enumerate(
        self, profile: ProgramProfile, units: CalibratedUnits
    ) -> Tuple[SelectionResult, ...]:
        """Every feasible structure with its estimates (for exploration)."""
        results = []
        for n_fast, fast_factor, slow_ratio in self._spec.structures():
            candidate = self._evaluate_structure(
                profile, units, n_fast, fast_factor, slow_ratio
            )
            if candidate is not None:
                results.append(candidate)
        return tuple(sorted(results, key=lambda r: r.estimated_ed2))
