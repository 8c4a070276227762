"""Self-checks of the benchmark.

Run from the repository root with ``python3 -m pytest perfbench -q``
(about two minutes on two cores).
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

from perfbench import cold_suite, common, warm_sweep  # noqa: E402

#: A fixed slowdown injected into one wrapped layer.
DELAY_S = 0.002
SCHEDULER_BOUND = 0.25


def _record_cold_suite(hash_seed: str) -> subprocess.Popen:
    env = dict(os.environ, PYTHONHASHSEED=hash_seed)
    return subprocess.Popen(
        [sys.executable, "perfbench/record_references.py", "--only", "cold-suite", "--stdout"],
        cwd=ROOT,
        env=env,
        stdout=subprocess.PIPE,
        text=True,
    )


def test_seed0_digests_do_not_depend_on_the_hash_seed():
    first, second = _record_cold_suite("1"), _record_cold_suite("2")
    outputs = [process.communicate(timeout=300)[0] for process in (first, second)]
    assert first.returncode == second.returncode == 0
    digests = [json.loads(output)["cold-suite"] for output in outputs]
    assert digests[0] == digests[1]
    recorded = json.loads(common.REFERENCES.read_text())["cold-suite"]
    assert digests[0] == recorded


@pytest.fixture
def slow_simulator(monkeypatch):
    """Make every ``LoopExecutor.run`` call ``DELAY_S`` slower."""
    from repro.sim.executor import LoopExecutor

    original = LoopExecutor.run

    def delayed(self, iterations):
        time.sleep(DELAY_S)
        return original(self, iterations)

    def install():
        monkeypatch.setattr(LoopExecutor, "run", delayed)

    return install


def _scheduler_self_s(metrics) -> float:
    return sum(
        value
        for name, value in metrics.items()
        if name.startswith("scheduler.") and name.endswith(".self_s")
    )


def test_injected_simulator_delay_shows_in_its_layer_only(slow_simulator):
    warm = warm_sweep.run(seed=1, seconds=0.0, trace=True, scale=0.02)["metrics"]
    cold = cold_suite.run(seed=1, seconds=0.0, trace=True, scale=0.02)["metrics"]
    slow_simulator()
    slow_warm = warm_sweep.run(seed=1, seconds=0.0, trace=True, scale=0.02)["metrics"]
    slow_cold = cold_suite.run(seed=1, seconds=0.0, trace=True, scale=0.02)["metrics"]
    common.reap_children()

    # The traced inline sweep makes the same simulator calls each time.
    assert slow_warm["sim.run.calls"] == warm["sim.run.calls"] > 0
    added = slow_warm["sim.run.self_s"] - warm["sim.run.self_s"]
    assert added > 0.5 * DELAY_S * warm["sim.run.calls"]
    assert slow_warm["loops_per_s"] < warm["loops_per_s"]
    assert slow_warm["pipeline.loop_cache.misses"] == 0

    assert slow_cold["sim.run.self_s"] > cold["sim.run.self_s"]
    assert slow_cold["scheduler.schedule.calls"] == cold["scheduler.schedule.calls"]
    base = _scheduler_self_s(cold)
    assert abs(_scheduler_self_s(slow_cold) - base) <= SCHEDULER_BOUND * base
