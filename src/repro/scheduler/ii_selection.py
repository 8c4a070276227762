"""Per-domain (frequency, II) selection and the IT candidate stream.

Given an IT, every clock domain needs a running frequency ``f`` from the
supported palette with ``f <= fmax`` (its voltage-determined maximum) and
``II = f * IT`` integral (section 4).  A domain with no such pair is
clock-gated for this loop (II = 0) — it contributes no slots; when that
leaves the machine unable to schedule, the driver increases the IT
("synchronisation problems").
"""

from __future__ import annotations

from fractions import Fraction
from typing import Dict, Iterator, Optional

from repro.machine.clocking import (
    CACHE_DOMAIN,
    ICN_DOMAIN,
    FrequencyPalette,
    cluster_domain,
)
from repro.machine.operating_point import OperatingPoint
from repro.scheduler.schedule import DomainAssignment
from repro.units import Time, as_fraction, ascending_multiples


def select_assignments(
    it: Time,
    point: OperatingPoint,
    palette: FrequencyPalette,
) -> Optional[Dict[str, DomainAssignment]]:
    """(frequency, II) for every domain at this IT, or ``None``.

    Returns ``None`` — a synchronisation failure — when no cluster is
    usable, or when the interconnect cannot synchronise on a
    multi-cluster machine.  Individual clusters (and the cache domain)
    may be gated (II = 0) without failing the whole selection.
    """
    it = as_fraction(it)
    assignments: Dict[str, DomainAssignment] = {}

    def assign(domain: str, fmax) -> DomainAssignment:
        pair = palette.select_pair(it, fmax)
        if pair is None:
            assignment = DomainAssignment(domain=domain, frequency=Fraction(0), ii=0)
        else:
            assignment = DomainAssignment(domain=domain, frequency=pair[0], ii=pair[1])
        assignments[domain] = assignment
        return assignment

    any_cluster_usable = False
    for index, setting in enumerate(point.clusters):
        if assign(cluster_domain(index), setting.fmax).usable:
            any_cluster_usable = True
    icn = assign(ICN_DOMAIN, point.icn.fmax)
    assign(CACHE_DOMAIN, point.cache.fmax)

    if not any_cluster_usable:
        return None
    if len(point.clusters) > 1 and not icn.usable:
        return None
    return assignments


def iter_it_candidates(
    point: OperatingPoint,
    palette: FrequencyPalette,
    start: Time,
) -> Iterator[Fraction]:
    """Ascending IT candidates from ``start``.

    With an unconstrained palette the per-domain IIs jump at multiples of
    the domains' fastest periods, so ``start`` itself (typically the MIT)
    and then those multiples above it are the only ITs worth trying.
    With a finite palette an IT synchronises a domain only when it is a
    multiple of a supported frequency's period, so the candidates are the
    multiples of ``1/f`` over the palette from ``start`` on.
    """
    start = as_fraction(start)
    if palette.is_any:
        yield start
        periods = {s.cycle_time for s in point.clusters}
        periods |= {point.icn.cycle_time, point.cache.cycle_time}
        yield from ascending_multiples(periods, start, inclusive=False)
        return
    if palette.is_per_domain:
        size = palette.per_domain_size
        fmaxes = {s.fmax for s in point.clusters}
        fmaxes |= {point.icn.fmax, point.cache.fmax}
        periods = {
            Fraction(size, k) / fmax for fmax in fmaxes for k in range(1, size + 1)
        }
    else:
        periods = {Fraction(1) / f for f in palette.frequencies}
    yield from ascending_multiples(periods, start)
