"""Helpers shared by the three workloads: inputs, checks and statistics."""

from __future__ import annotations

import contextlib
import dataclasses
import hashlib
import json
import math
import os
import platform
import resource
import shutil
import statistics
import tempfile
import time
from pathlib import Path
from typing import Callable, Dict, Iterable, Iterator, List, Optional, Sequence, Tuple

ROOT = Path(__file__).resolve().parent.parent
REFERENCES = Path(__file__).resolve().parent / "references.json"
#: Scratch space for result stores and warehouses; emptied after each run.
WORK_DIR = ROOT / ".perfbench_work"


def nproc() -> int:
    """Usable CPUs: the worker-process count of the parallel workloads."""
    try:
        return max(1, len(os.sched_getaffinity(0)))
    except AttributeError:
        return max(1, os.cpu_count() or 1)


def seeded_specs(seed: int) -> List[Tuple[str, object]]:
    """``(paper name, spec)`` for the ten corpora of a workload seed.

    Seed 0 is the paper's corpora.  Any other seed ``s`` replaces each
    ``BenchmarkSpec.seed`` with ``seed + s``, which keeps the Table 2
    class mix and changes the loops.  Such specs are registered under
    ``<paper name>.s<s>`` so campaign jobs and service requests can
    name them; jobs embed registered specs, so worker processes rebuild
    the same corpora.
    """
    from repro.pipeline.registry import register_workload
    from repro.workloads import SPEC2000_PROFILES

    pairs = []
    for name, spec in SPEC2000_PROFILES.items():
        if seed != 0:
            spec = dataclasses.replace(
                spec, name=f"{name}.s{seed}", seed=spec.seed + seed
            )
            register_workload(spec, overwrite=True)
        pairs.append((name, spec))
    return pairs


def build_corpora(seed: int, scale: float):
    """``(paper name, corpus)`` for the ten corpora of a workload seed."""
    from repro.workloads import build_corpus

    return [(name, build_corpus(spec, scale=scale)) for name, spec in seeded_specs(seed)]


#: Seconds :func:`calibration_s` takes on the reference machine.  The
#: gated times and rates are reported at that machine's speed.
REFERENCE_CALIBRATION_S = 0.05


def _calibration_loop() -> float:
    started = time.perf_counter()
    acc = 0
    for i in range(400_000):
        acc = (acc + i * i) % 1000003
    return time.perf_counter() - started


def _calibrate_into(pipe) -> None:
    pipe.send(_calibration_loop())
    pipe.close()


def calibration_s(processes: int = 1) -> float:
    """Seconds for a fixed pure-Python loop: the machine's speed right now.

    With ``processes`` > 1 the loop runs at once in that many forked
    processes and the mean is returned, the speed of the CPUs a worker
    pool runs on.  The loop lives here, not in the program, so that no
    change to the program can move it.
    """
    if processes == 1:
        return _calibration_loop()
    import multiprocessing

    context = multiprocessing.get_context("fork")
    pipes, children = [], []
    for _ in range(processes):
        receiver, sender = context.Pipe(duplex=False)
        child = context.Process(target=_calibrate_into, args=(sender,))
        child.start()
        pipes.append(receiver)
        children.append(child)
    seconds = [pipe.recv() for pipe in pipes]
    for child in children:
        child.join()
    return statistics.mean(seconds)


def timed(work: Callable[[], object], processes: int = 1):
    """Run ``work()`` between two calibrations on ``processes`` CPUs.

    Returns (its result, its seconds, those seconds at the reference
    speed).  The speed of a shared machine's CPUs drifts by a quarter
    within seconds; scaling each piece of work by the calibrations taken
    right around it keeps most of that drift out of the gated metrics.
    """
    before = calibration_s(processes)
    started = time.perf_counter()
    result = work()
    elapsed = time.perf_counter() - started
    after = calibration_s(processes)
    return result, elapsed, elapsed * 2 * REFERENCE_CALIBRATION_S / (before + after)


def timed_corpus_builds(seed: int, scale: float, reps: int = 3):
    """Build the corpora ``reps`` times; returns (corpora, build times,
    build times at the reference speed)."""
    times, reference = [], []
    for _ in range(reps):
        corpora, elapsed, scaled = timed(lambda: build_corpora(seed, scale))
        times.append(elapsed)
        reference.append(scaled)
    return corpora, times, reference


def digest(evaluation: Dict[str, object]) -> str:
    """Short sha256 of an evaluation's canonical JSON form."""
    from repro.pipeline.serialization import canonical_json

    return hashlib.sha256(canonical_json(evaluation).encode()).hexdigest()[:16]


def reference_digests(workload: str, scale: float, seed: int) -> Optional[Dict[str, str]]:
    """Recorded seed-0 digests of ``workload`` at ``scale`` (else None)."""
    if seed != 0 or not REFERENCES.exists():
        return None
    entry = json.loads(REFERENCES.read_text()).get(workload)
    if entry is None or entry.get("scale") != scale:
        return None
    return entry["digests"]


class OutputCheck:
    """Compares each output digest with its reference, counting mismatches."""

    def __init__(self, references: Optional[Dict[str, str]]) -> None:
        self.references = references
        self.digests: Dict[str, str] = {}
        self.mismatches: List[str] = []

    def check(self, key: str, evaluation: Dict[str, object]) -> bool:
        """Record ``key``'s digest; False when it differs from the reference
        or from an earlier output under the same key."""
        value = digest(evaluation)
        previous = self.digests.setdefault(key, value)
        expected = previous if self.references is None else self.references.get(key)
        if value != expected:
            self.mismatches.append(key)
            return False
        return True

    def report(self) -> Dict[str, object]:
        return {
            "checked_against": "seed-0 references" if self.references else "self",
            "mismatches": sorted(set(self.mismatches)),
            "digests": dict(sorted(self.digests.items())),
        }


def fig6_gap(ratios: Dict[str, float]) -> float:
    """Mean |measured ED^2 ratio - Figure 6 value| over ``ratios``'s keys."""
    from repro.reporting.paper import PAPER_FIGURE6_ED2

    gaps = [abs(ratio - PAPER_FIGURE6_ED2[name]) for name, ratio in ratios.items()]
    return sum(gaps) / len(gaps)


def ed2_ratio(evaluation: Dict[str, object]) -> float:
    """Figure 6's ED^2 ratio of a serialized evaluation."""
    from repro.pipeline.serialization import evaluation_ratios

    return evaluation_ratios(evaluation)[0]


def nearest_rank(sorted_samples: Sequence[float], q: float) -> float:
    """Nearest-rank quantile ``q`` in [0, 1] of already sorted samples."""
    rank = max(1, math.ceil(q * len(sorted_samples)))
    return sorted_samples[rank - 1]


def p50_and_tail(samples: Sequence[float]) -> Dict[str, float]:
    """Median and tail of a latency sample.

    The tail is the highest percentile with at least ten samples beyond
    it: with ``n`` samples that is rank ``n - 10``.  Needs ``n >= 11``.
    """
    ordered = sorted(samples)
    n = len(ordered)
    if n < 11:
        raise ValueError(f"a tail needs at least 11 samples, got {n}")
    return {
        "p50": nearest_rank(ordered, 0.5),
        "tail": ordered[n - 11],
        "tail_percentile": 100.0 * (n - 10) / n,
        "samples": n,
    }


def loop_cache_metrics(deltas: Iterable[Dict[str, int]]) -> Dict[str, float]:
    """``pipeline.loop_cache.*`` from per-job loop-cache counter deltas."""
    totals = {"hits": 0, "misses": 0, "disk_hits": 0, "corrupt": 0}
    for delta in deltas:
        for counter in totals:
            totals[counter] += (delta or {}).get(counter, 0)
    lookups = totals["hits"] + totals["disk_hits"] + totals["misses"]
    hits = totals["hits"] + totals["disk_hits"]
    return {
        "pipeline.loop_cache.hit_ratio": hits / lookups if lookups else 0.0,
        "pipeline.loop_cache.misses": totals["misses"],
        "pipeline.loop_cache.corrupt": totals["corrupt"],
    }


def peak_rss_mb() -> float:
    """Peak RSS of this process plus that of its largest reaped child."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + children) / 1024.0


def reap_children(timeout: float = 30.0) -> None:
    """Wait for every child process this run started to exit."""
    import multiprocessing

    for child in multiprocessing.active_children():
        child.join(timeout)
        if child.is_alive():
            child.terminate()
            child.join(timeout)


def environment(seed: int) -> Dict[str, object]:
    """The run record every report carries."""
    from repro.perf import calibration_score

    return {
        "nproc": nproc(),
        "python": platform.python_version(),
        "seed": seed,
        "calibration_s": calibration_score(),
    }


@contextlib.contextmanager
def scratch_dir() -> Iterator[Path]:
    """A fresh directory under the checkout, removed afterwards."""
    WORK_DIR.mkdir(exist_ok=True)
    path = Path(tempfile.mkdtemp(dir=WORK_DIR))
    try:
        yield path
    finally:
        shutil.rmtree(path, ignore_errors=True)
        with contextlib.suppress(OSError):
            WORK_DIR.rmdir()
