"""The partition data structure: operation -> cluster.

Refinement proposes thousands of candidate partitions per loop, so the
structure keeps two derived views in sync incrementally instead of
recomputing them per query:

* a dense assignment vector in DDG operation order (what the
  pseudo-scheduler indexes), and
* a per-cluster demand matrix indexed by dense FU code (what capacity
  checks read).

``moved`` copies both and patches only the relocated operations, making
candidate generation O(|moved ops| + |V|) with tiny constants rather than
O(|V| * validation).
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Mapping, Optional, Tuple

from repro.errors import PartitionError
from repro.ir.ddg import DDG
from repro.ir.dependence import Dependence
from repro.ir.operation import Operation
from repro.machine.fu import FU_BY_CODE, FU_CODE, FUType, N_FU_KINDS


class Partition:
    """An assignment of every DDG operation to a cluster index."""

    __slots__ = ("ddg", "n_clusters", "_assignment", "_vector", "_demand")

    def __init__(self, ddg: DDG, n_clusters: int, assignment: Mapping[Operation, int]):
        if n_clusters < 1:
            raise PartitionError("partitions need at least one cluster")
        for op in ddg.operations:
            if op not in assignment:
                raise PartitionError(f"operation {op.name} has no cluster")
            cluster = assignment[op]
            if not 0 <= cluster < n_clusters:
                raise PartitionError(
                    f"operation {op.name} assigned to invalid cluster {cluster}"
                )
        self.ddg = ddg
        self.n_clusters = n_clusters
        self._assignment: Dict[Operation, int] = dict(assignment)
        self._vector: Optional[List[int]] = None
        self._demand: Optional[List[List[int]]] = None

    @classmethod
    def _trusted(
        cls,
        ddg: DDG,
        n_clusters: int,
        assignment: Dict[Operation, int],
        vector: Optional[List[int]],
        demand: Optional[List[List[int]]],
    ) -> "Partition":
        """Internal constructor skipping validation (inputs pre-checked)."""
        partition = cls.__new__(cls)
        partition.ddg = ddg
        partition.n_clusters = n_clusters
        partition._assignment = assignment
        partition._vector = vector
        partition._demand = demand
        return partition

    # ------------------------------------------------------------------
    def cluster_of(self, op: Operation) -> int:
        """Cluster hosting ``op``."""
        return self._assignment[op]

    def vector(self) -> List[int]:
        """Cluster per op, in DDG operation order (shared — read-only)."""
        if self._vector is None:
            assignment = self._assignment
            self._vector = [assignment[op] for op in self.ddg.operations]
        return self._vector

    def ops_in(self, cluster: int) -> Tuple[Operation, ...]:
        """Operations hosted by ``cluster`` (DDG order)."""
        return tuple(
            op for op in self.ddg.operations if self._assignment[op] == cluster
        )

    def move(self, op: Operation, cluster: int) -> None:
        """Reassign one operation in place."""
        if not 0 <= cluster < self.n_clusters:
            raise PartitionError(f"invalid cluster {cluster}")
        previous = self._assignment[op]
        self._assignment[op] = cluster
        if previous == cluster:
            return
        if self._vector is not None:
            self._vector[self.ddg.index_of(op)] = cluster
        if self._demand is not None:
            code = FU_CODE[op.opclass]
            if code >= 0:
                self._demand[previous][code] -= 1
                self._demand[cluster][code] += 1

    def moved(self, ops: Iterable[Operation], cluster: int) -> "Partition":
        """A copy with the given ops reassigned."""
        if not 0 <= cluster < self.n_clusters:
            raise PartitionError(f"invalid cluster {cluster}")
        assignment = dict(self._assignment)
        vector = None if self._vector is None else list(self._vector)
        demand = (
            None
            if self._demand is None
            else [list(row) for row in self._demand]
        )
        index_of = self.ddg.index_of
        for op in ops:
            previous = assignment[op]
            assignment[op] = cluster
            if previous == cluster:
                continue
            if vector is not None:
                vector[index_of(op)] = cluster
            if demand is not None:
                code = FU_CODE[op.opclass]
                if code >= 0:
                    demand[previous][code] -= 1
                    demand[cluster][code] += 1
        return Partition._trusted(
            self.ddg, self.n_clusters, assignment, vector, demand
        )

    def copy(self) -> "Partition":
        """An independent copy."""
        return Partition._trusted(
            self.ddg,
            self.n_clusters,
            dict(self._assignment),
            None if self._vector is None else list(self._vector),
            None if self._demand is None else [list(r) for r in self._demand],
        )

    # ------------------------------------------------------------------
    def demand_matrix(self) -> List[List[int]]:
        """Per-cluster op counts by dense FU code (shared — read-only)."""
        if self._demand is None:
            demand = [[0] * N_FU_KINDS for _ in range(self.n_clusters)]
            assignment = self._assignment
            for op in self.ddg.operations:
                code = FU_CODE[op.opclass]
                if code >= 0:
                    demand[assignment[op]][code] += 1
            self._demand = demand
        return self._demand

    def fu_demand(self, cluster: int) -> Dict[FUType, int]:
        """Per-FU-type demand of one cluster."""
        row = self.demand_matrix()[cluster]
        return {FU_BY_CODE[code]: row[code] for code in range(N_FU_KINDS)}

    def cross_value_edges(self) -> List[Dependence]:
        """Value edges whose endpoints live in different clusters.

        Each needs one copy operation and one bus transfer per iteration.
        """
        return [
            dep
            for dep in self.ddg.dependences
            if dep.carries_value
            and self._assignment[dep.src] != self._assignment[dep.dst]
        ]

    @property
    def n_comms(self) -> int:
        """Communications the partition implies per iteration."""
        return len(self.cross_value_edges())

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Partition):
            return NotImplemented
        return (
            self.ddg is other.ddg
            and self.n_clusters == other.n_clusters
            and self._assignment == other._assignment
        )

    def __repr__(self) -> str:
        sizes = [len(self.ops_in(c)) for c in range(self.n_clusters)]
        return f"Partition({self.ddg.name!r}, sizes={sizes}, comms={self.n_comms})"
