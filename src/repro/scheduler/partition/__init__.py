"""Cluster assignment by multilevel graph partitioning (section 4.1)."""

from repro.scheduler.partition.partition import Partition
from repro.scheduler.partition.coarsen import CoarseningResult, preplace_recurrences
from repro.scheduler.partition.driver import build_partition

__all__ = [
    "Partition",
    "CoarseningResult",
    "preplace_recurrences",
    "build_partition",
]
