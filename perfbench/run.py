"""Run one benchmark workload and print its metrics as one JSON line.

Usage, from the repository root::

    python3 perfbench/run.py --workload cold-suite --seed 0 --seconds 15 --trace 0

``--trace 0`` prints the end-to-end metrics, ``--trace 1`` the per-layer
metrics of a separate traced pass (see ``perfbench/README.md``).  The
last line of standard output is ``{"correct", "attempted", "failed",
"metrics"}``; the line before it is the full report.
"""

from __future__ import annotations

import argparse
import importlib
import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

WORKLOADS = ("cold-suite", "warm-sweep", "service-mixed")


def _load_catalog():
    """Metric names and units, as declared in BENCHMARK.json."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return (
        {metric["name"]: metric["unit"] for metric in spec["end_to_end"]},
        {metric["name"]: metric["unit"] for metric in spec["per_layer"]},
    )


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=15.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--scale", type=float, default=None, help="corpus scale (default: the workload's)"
    )
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]
    from perfbench import common

    module = importlib.import_module("perfbench." + args.workload.replace("-", "_"))
    options = {} if args.scale is None else {"scale": args.scale}
    try:
        outcome = module.run(args.seed, args.seconds, bool(args.trace), **options)
    finally:
        common.reap_children()
    if not args.trace:
        outcome["metrics"]["peak_rss_mb"] = common.peak_rss_mb()

    end_to_end, per_layer = _load_catalog()
    catalog = per_layer if args.trace else end_to_end
    missing = sorted(set(catalog) - set(outcome["metrics"]))
    if args.trace:
        outcome["metrics"]["error_rate"] = outcome["failed"] / outcome["attempted"]
        # A layer the workload does not reach, or its traced pass cannot
        # see, reads 0 and is named in the report.
        missing.remove("error_rate")
        outcome["report"]["not_measured"] = missing
        for name in missing:
            outcome["metrics"][name] = 0
    elif missing:
        raise RuntimeError(f"{args.workload} did not measure {missing}")
    metrics = {
        name: {"value": outcome["metrics"][name], "unit": unit}
        for name, unit in catalog.items()
    }
    report = dict(
        outcome["report"],
        workload=args.workload,
        trace=bool(args.trace),
        environment=common.environment(args.seed),
        all_metrics=outcome["metrics"],
    )
    print(json.dumps({"report": report}, sort_keys=True))
    print(
        json.dumps(
            {
                "correct": outcome["failed"] == 0,
                "attempted": outcome["attempted"],
                "failed": outcome["failed"],
                "metrics": metrics,
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
