"""Record the seed-0 output digests every workload run is checked against.

Usage, from the repository root::

    python3 perfbench/record_references.py              # rewrite references.json
    python3 perfbench/record_references.py --only cold-suite --stdout

The digests pin the outputs of the commit they were recorded at, so a
run detects any drift from it.  They are not an independent oracle of
correctness: the paper's values (``fig6_gap``) are.  Each workload's
references come from a different path than the workload itself uses
(service outputs, for example, are recorded through ``run_campaign``),
so a mismatch also catches disagreement between paths.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def cold_suite_digests():
    from perfbench import cold_suite, common

    return cold_suite.SCALE, {
        name: common.digest(cold_suite.evaluate_cold(corpus).to_dict())
        for name, corpus in common.build_corpora(0, cold_suite.SCALE)
    }


def _campaign_digests(named_jobs):
    from perfbench import common
    from repro.campaign.executor import run_campaign

    names = {job.key(): key for key, job in named_jobs}
    digests = {}

    def sink(job_key, payload, cached):
        digests[names[job_key]] = common.digest(payload["evaluation"])

    result = run_campaign([job for _, job in named_jobs], n_jobs=common.nproc(), sink=sink)
    if result.failed:
        raise RuntimeError(f"{len(result.failed)} reference job(s) failed")
    return dict(sorted(digests.items()))


def warm_sweep_digests():
    from perfbench import warm_sweep

    jobs = warm_sweep.sweep_jobs(0, warm_sweep.SCALE).values()
    named = [(f"{name}|{job.config_label()}", job) for name, job in jobs]
    return warm_sweep.SCALE, _campaign_digests(named)


def service_mixed_digests():
    from perfbench import common, service_mixed
    from repro.campaign.job import ExperimentJob
    from repro.pipeline import ExperimentOptions

    named = [
        (
            key,
            ExperimentJob(
                benchmark=request["benchmark"],
                scale=request["scale"],
                options=ExperimentOptions(
                    n_buses=request["buses"], simulate=request["simulate"]
                ),
            ),
        )
        for key, request in service_mixed.key_space(
            common.seeded_specs(0), service_mixed.SCALE
        )
    ]
    return service_mixed.SCALE, _campaign_digests(named)


RECORDERS = {
    "cold-suite": cold_suite_digests,
    "warm-sweep": warm_sweep_digests,
    "service-mixed": service_mixed_digests,
}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--only", choices=sorted(RECORDERS), action="append")
    parser.add_argument(
        "--stdout", action="store_true", help="print instead of rewriting the file"
    )
    args = parser.parse_args(argv)
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]
    from perfbench import common

    references = {}
    for workload in args.only or RECORDERS:
        scale, digests = RECORDERS[workload]()
        references[workload] = {"scale": scale, "digests": digests}
    text = json.dumps(references, indent=2, sort_keys=True) + "\n"
    if args.stdout:
        sys.stdout.write(text)
    else:
        common.REFERENCES.write_text(text)
    common.reap_children()
    return 0


if __name__ == "__main__":
    sys.exit(main())
