"""Record the snapshot digests every benchmark unit is checked against.

Run from the repository root, at the commit whose outputs are the
reference (a speed-only change must reproduce them bit for bit)::

    python3 perfbench/record_expected.py [--variants 0 1 ...]

It rewrites ``perfbench/expected.json`` for the chosen variants
(default: all) and keeps the other variants' entries.  Recording all
variants takes several minutes on two CPUs.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

from run import scrub_environment  # noqa: E402

scrub_environment(os.environ)

import stages  # noqa: E402
from repro.analysis.executor import SweepExecutor  # noqa: E402
from repro.analysis.plan import full_plan  # noqa: E402
from repro.system.simulator import simulate  # noqa: E402
from repro.trace.io import read_trace_chunks  # noqa: E402


def record_variant(variant: int, work: Path) -> dict:
    executor = SweepExecutor(workers=stages.POOL_WORKERS)
    outcome = executor.run_plan(full_plan(stages.paper_settings(variant)))
    cold = {
        stages.spec_key(r.spec): stages.snapshot_digest(r.snapshot)
        for r in outcome.results
    }

    stages.setup_warm(variant, work)
    _executor, outcome, built = stages.warm_pass(
        stages.warm_settings(variant), work / "warm-cache"
    )
    warm = {
        "snapshots": {
            stages.spec_key(r.spec): stages.snapshot_digest(r.snapshot)
            for r in outcome.results
        },
        "figures": stages.figures_digest(built),
    }

    stages.setup_hits(variant, work)
    hits = {}
    for policy, size in stages.REPLAY_CONFIGS:
        run = simulate(
            stages.replay_config(policy, size),
            read_trace_chunks(work / "hits.rpt3"),
            engine=stages.replay_engine(),
        )
        hits[stages.replay_key(policy, size)] = stages.snapshot_digest(run.snapshot)
    return {"paper-cold": cold, "paper-warm": warm, "hits-replay": hits}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--variants", type=int, nargs="*",
        default=list(range(stages.VARIANTS)),
    )
    args = parser.parse_args(argv)
    path = stages.EXPECTED_PATH
    data = json.loads(path.read_text()) if path.exists() else {}
    work = Path.cwd() / ".perfbench-work" / "record"
    for variant in args.variants:
        shutil.rmtree(work, ignore_errors=True)
        work.mkdir(parents=True)
        for workload, digests in record_variant(variant, work).items():
            data.setdefault(workload, {})[str(variant)] = digests
        path.write_text(json.dumps(data, indent=1, sort_keys=True) + "\n")
        print(f"recorded variant {variant}", flush=True)
    shutil.rmtree(work, ignore_errors=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
