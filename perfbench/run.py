"""Paper-grid benchmark of the ALLARM reproduction.

Run from the root of a checkout::

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads (why each was chosen: ``perfbench/README.md``):

* ``paper-cold``  -- the 72-spec ``full_plan`` grid on a fresh cache
  directory, pooled over two workers;
* ``paper-warm``  -- passes of a fresh executor over a warm cache, each
  running the grid and building every figure;
* ``hits-replay`` -- one recorded hit-dominated v3 blocked trace,
  replayed under four machine configs.

The run sets its workload up several times, each in a fresh interpreter
(``setup_s`` is the median), then measures in another fresh interpreter
for about ``--seconds`` seconds.  Both times are normalised for host
speed (``hostspeed.py``).  With ``--trace 1`` the measuring
interpreter then runs the workload once more with spans around every
layer call and reports the per-layer metrics instead of the end-to-end
ones.  Every unit's snapshot is checked against its recorded digest.
Lines starting with ``#`` are a human-readable summary; the last line is
the JSON result.  Exits non-zero without a result when the checkout has
no program to measure, a stage fails, or a shape guard trips.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

from hostspeed import Calibration

HERE = Path(__file__).resolve().parent
WORKLOADS = ("paper-cold", "paper-warm", "hits-replay")
#: Set-ups per run; setup_s is their median.
SETUP_REPEATS = 3
#: Calibration bursts right before and right after each set-up.
SETUP_BURSTS = 25
#: A run must end within 180 s; stages are killed past this budget.
DEADLINE_S = 170.0
WORK_DIR = ".perfbench-work"

#: Environment knobs that change what the program does; none may leak
#: into the benchmark or its pool workers.
SCRUBBED_NAMES = ("REPRO_ENGINE", "REPRO_PACKED_DEFER", "REPRO_FAULTS", "REPRO_CACHE_DIR")
SCRUBBED_PREFIXES = ("REPRO_BATCH_", "REPRO_BENCH_")


def scrub_environment(env) -> None:
    """Delete every program knob from the mapping *env*."""
    for name in list(env):
        if name in SCRUBBED_NAMES or name.startswith(SCRUBBED_PREFIXES):
            del env[name]


def exit_on_sigterm(_signum, _frame):
    """Turn SIGTERM into SystemExit, so that ``finally`` blocks kill the
    running stage and remove the work directory."""
    raise SystemExit(128 + signal.SIGTERM)


class StageError(RuntimeError):
    """A set-up or measure stage failed, timed out or printed no result."""


def run_stage(arguments, env, deadline: float):
    """Run ``stages.py`` in a fresh interpreter; return (seconds, result).

    The stage runs in its own session so that it and any process it
    leaves behind are killed together.
    """
    remaining = deadline - time.monotonic()
    if remaining <= 0:
        raise StageError(f"no time left for stage {arguments[:2]}")
    begin = time.perf_counter()
    process = subprocess.Popen(
        [sys.executable, str(HERE / "stages.py"), *arguments],
        stdout=subprocess.PIPE, env=env, text=True, start_new_session=True,
    )
    try:
        out, _ = process.communicate(timeout=remaining)
    except subprocess.TimeoutExpired:
        raise StageError(f"stage {arguments[:2]} ran out of time")
    finally:
        try:
            os.killpg(process.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        process.wait()
    elapsed = time.perf_counter() - begin
    if process.returncode != 0:
        raise StageError(f"stage {arguments[:2]} exited {process.returncode}")
    lines = out.strip().splitlines()
    if not lines:
        raise StageError(f"stage {arguments[:2]} printed no result")
    return elapsed, json.loads(lines[-1])


def run_setup(arguments, env, deadline: float):
    """Run one set-up stage; return (normalised seconds, host seconds,
    result), the set-up's host speed taken from bursts around it."""
    calibration = Calibration()
    for _ in range(SETUP_BURSTS):
        calibration.sample()
    seconds, result = run_stage(arguments, env, deadline)
    for _ in range(SETUP_BURSTS):
        calibration.sample()
    return calibration.normalise(seconds), seconds, result


def git_sha(root: Path):
    """HEAD of the checkout, or ``None`` when it is not a git work tree
    (the environment record then relies on ``code_fingerprint``)."""
    if not (root / ".git").exists():
        return None
    try:
        done = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=root, capture_output=True,
            text=True, timeout=10,
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    return done.stdout.strip() if done.returncode == 0 else None


def setup_layers(setups) -> dict:
    """Median of each per-layer metric the set-ups measured."""
    results = [result for _normalised, _seconds, result in setups]
    return {
        name: statistics.median(result[name] for result in results)
        for name in results[0]
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = Path.cwd()
    manifest = root / "BENCHMARK.json"
    if not (root / "src" / "repro" / "__init__.py").is_file() or not manifest.is_file():
        print(
            "error: run from the root of a checkout holding src/repro and "
            "BENCHMARK.json", file=sys.stderr,
        )
        return 2
    declared = json.loads(manifest.read_text())
    signal.signal(signal.SIGTERM, exit_on_sigterm)
    env = dict(os.environ)
    scrub_environment(env)
    env["PYTHONPATH"] = str(root / "src")
    work = root / WORK_DIR / args.workload
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    common = [args.workload, "--seed", str(args.seed), "--work", str(work)]
    deadline = time.monotonic() + DEADLINE_S
    try:
        setups = [
            run_setup(["setup", *common], env, deadline)
            for _ in range(SETUP_REPEATS)
        ]
        _seconds, measured = run_stage(
            ["measure", *common, "--seconds", str(args.seconds),
             "--trace", str(args.trace)],
            env, deadline,
        )
    except StageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            work.parent.rmdir()
        except OSError:
            pass  # another workload's run is using it

    setup_s = statistics.median(normalised for normalised, _s, _r in setups)
    host_setup_s = statistics.median(seconds for _n, seconds, _r in setups)
    attempted, failed = measured["attempted"], measured["failed"]
    print(
        f"# {args.workload} seed={args.seed}: setup_s={setup_s:.3f} "
        f"wall_s={measured['wall_s']:.3f} "
        f"peak_rss_mb={measured['peak_rss_mb']:.1f} "
        f"error_rate={failed / attempted:.4f} ({failed}/{attempted} units) "
        f"repeats={measured['repeats']}"
    )
    print(
        f"# host seconds: setup {host_setup_s:.3f} wall "
        f"{measured['host_wall_s']:.3f} at host speed "
        f"{measured['host_speed']:.3f} (hostspeed.py)"
    )
    print("# meta " + json.dumps({**measured["meta"], "git_sha": git_sha(root)}))
    for error in measured["errors"]:
        print(f"# failed unit: {error}")

    if args.trace:
        values = {
            **setup_layers(setups),
            **measured["layers"],
            "bench.host_wall_s": measured["host_wall_s"],
            "bench.host_speed": measured["host_speed"],
        }
        wanted = declared["per_layer"]
    else:
        values = {
            "setup_s": setup_s,
            "wall_s": measured["wall_s"],
            "peak_rss_mb": measured["peak_rss_mb"],
        }
        wanted = declared["end_to_end"]
    unknown = set(values) - {metric["name"] for metric in wanted}
    if unknown:
        print(f"error: metrics missing from BENCHMARK.json: {sorted(unknown)}",
              file=sys.stderr)
        return 1
    # A layer the workload never calls reports 0.
    metrics = {
        metric["name"]: {"value": values.get(metric["name"], 0), "unit": metric["unit"]}
        for metric in wanted
    }
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
