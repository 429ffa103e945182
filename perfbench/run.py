"""Run the repository benchmark.

    python3 perfbench/run.py [--workload oneshot|serve|sessions|all]
                             [--seed N] [--seconds S] [--trace 0|1]

Run it from the root of a checkout; it imports the ``repro`` package
from ``src/`` beside this directory and exits with status 2 when that
is missing.  A workload runs as ``SHARDS`` processes in turn, each with
its own ``PYTHONHASHSEED`` drawn from the seed and an equal share of
the run time, and their samples are pooled (perfbench/README.md says
why).  Each workload prints its metrics one per line, then, as the
last line, one JSON object with the keys ``correct``, ``attempted``,
``failed`` and ``metrics``: the end-to-end metrics with ``--trace 0``,
the per-layer metrics of a separate traced loop with ``--trace 1``.
``--workload all`` (the default) runs the three workloads in turn and
prefixes each metric with its workload's name.  The exit status is 1
when any operation failed or differed from the seed-loop reference.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import signal
import subprocess
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")

WORKLOADS = ("oneshot", "serve", "sessions")

#: seeds, predictions and host facts (perfbench/README.md).
LEDGER = os.path.join(HERE, "ledger.json")

#: seconds one run measures (BENCHMARK.json's ``run_seconds``).
DEFAULT_SECONDS = 28

#: shard processes per run, each with its own hash seed.
SHARDS = 2


def shard_timeout(share: float, trace: bool) -> float:
    """Seconds after which a shard is stopped and the run fails.  A
    shard runs one timed loop of ``share`` seconds (two when traced),
    each a little longer until it has ``MIN_OPS`` operations, plus
    set-ups and the output check, which take 2 to 6 s each on the
    2-core reference VM; this allows three times that and 30 s more."""
    loops = 2 if trace else 1
    return 3 * loops * share + 30.0


def _result_line(correct: bool, attempted: int, failed: int,
                 metrics: dict) -> str:
    return json.dumps({
        "correct": correct, "attempted": attempted, "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()}})


def run_shard(name: str, seed: int, seconds: float, trace: bool,
              shard: int, shards: int, scratch: str) -> int:
    """One shard: set up, run the timed loop(s), check every output, and
    print the raw samples as one JSON line for :func:`run_workload`.
    ``scratch`` is a fresh directory the shard may write in."""
    from kcmbench import metrics, workloads
    from kcmbench.oracle import Oracle, check

    runner = {"oneshot": workloads.run_oneshot,
              "serve": workloads.run_serve,
              "sessions": workloads.run_sessions}[name]
    run = runner(seed, seconds, trace, shard, shards, ROOT, scratch)

    # The output check, outside all timing.
    oracle = Oracle()
    failures, attempted = [], 0
    for loop in [run.phase] + ([run.traced] if trace else []):
        attempted += len(loop.observations) + len(loop.errors)
        failures += loop.errors
        failures += [problem for problem in
                     (check(oracle, obs) for obs in loop.observations)
                     if problem is not None]
    workers = workloads.SERVE_WORKERS if name == "serve" else 0
    print(json.dumps({
        "setup_s": run.setup_s,
        "latencies": run.phase.latencies,
        "units": run.phase.units,
        "inferences": run.phase.inferences,
        "elapsed": run.phase.elapsed,
        "rss_mb": run.rss_mb,
        "attempted": attempted,
        "failures": failures,
        "references": len(oracle),
        "layers": (metrics.per_layer(run.phase, run.traced, workers)
                   if trace else None),
    }))
    return 0


def _run_shard_process(name: str, seed: int, seconds: float, trace: bool,
                       shard: int, hash_seed: int, scratch: str) -> dict:
    env = dict(os.environ, PYTHONHASHSEED=str(hash_seed))
    # Its own process group, so that a shard stopped at the timeout
    # takes its service workers with it.
    process = subprocess.Popen(
        [sys.executable, os.path.abspath(__file__), "--workload", name,
         "--seed", str(seed), "--seconds", repr(seconds),
         "--trace", str(int(trace)), "--shard", str(shard),
         "--scratch", scratch],
        cwd=ROOT, env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        text=True, start_new_session=True)
    try:
        stdout, stderr = process.communicate(
            timeout=shard_timeout(seconds, trace))
    except subprocess.TimeoutExpired:
        os.killpg(process.pid, signal.SIGKILL)
        stdout, stderr = process.communicate()
    lines = stdout.strip().splitlines()
    if process.returncode != 0 or not lines:
        sys.stderr.write(stderr)
        raise RuntimeError(f"{name} shard {shard} exited with status "
                           f"{process.returncode}")
    return json.loads(lines[-1])


def run_workload(name: str, seed: int, seconds: float,
                 trace: bool) -> tuple:
    """Run the shards in turn, print the workload's report; returns
    (correct, attempted, failed, metrics of the result line)."""
    from kcmbench import inputs, metrics

    shards = []
    scratch = tempfile.mkdtemp(prefix=".perfbench-", dir=ROOT)
    try:
        for shard, hash_seed in enumerate(inputs.hash_seeds(seed, SHARDS)):
            shards.append(_run_shard_process(
                name, seed, seconds / SHARDS, trace, shard, hash_seed,
                os.path.join(scratch, f"shard{shard}")))
    finally:
        shutil.rmtree(scratch, ignore_errors=True)

    e2e = metrics.pooled_end_to_end(shards)
    layers = metrics.mean_layers(shards) if trace else {}
    failures = [problem for shard in shards for problem in shard["failures"]]
    attempted = sum(shard["attempted"] for shard in shards)
    ops = sum(len(shard["latencies"]) for shard in shards)
    print(f"# workload {name}  seed {seed}  seconds {seconds:g}  "
          f"shards {len(shards)}  nproc {os.cpu_count()}  "
          f"python {platform.python_version()}")
    print(f"# {ops} operations timed, "
          f"{sum(shard['references'] for shard in shards)} seed-loop "
          f"references, failed_frac "
          f"{len(failures) / attempted if attempted else 1.0:.6g}")
    for metric, (value, unit) in {**e2e, **layers}.items():
        print(f"{name}.{metric} = {value:.6g} {unit}")
    for problem in failures[:20]:
        print(f"# FAILED {problem}")
    correct = not failures and attempted > 0
    return correct, attempted, len(failures), (layers if trace else e2e)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", default="all",
                        choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=None)
    parser.add_argument("--seconds", type=float, default=DEFAULT_SECONDS)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--shard", type=int, default=None,
                        help=argparse.SUPPRESS)
    parser.add_argument("--scratch", default=None, help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "repro", "__init__.py")):
        print(f"perfbench: no repro package under {SRC}; run this from "
              f"the root of a checkout of the repository", file=sys.stderr)
        return 2
    with open(LEDGER) as handle:
        ledger = json.load(handle)
    seed = ledger["default_seed"] if args.seed is None else args.seed
    trace = bool(args.trace)
    sys.path.insert(0, SRC)
    if args.shard is not None:
        os.makedirs(args.scratch)
        return run_shard(args.workload, seed, args.seconds, trace,
                         args.shard, SHARDS, args.scratch)
    if args.workload != "all":
        correct, attempted, failed, metrics = run_workload(
            args.workload, seed, args.seconds, trace)
    else:
        correct, attempted, failed, metrics = True, 0, 0, {}
        for name in WORKLOADS:
            ok, tried, bad, found = run_workload(name, seed, args.seconds,
                                                 trace)
            correct, attempted, failed = (correct and ok, attempted + tried,
                                          failed + bad)
            metrics.update({f"{name}.{metric}": entry
                            for metric, entry in found.items()})
    print(_result_line(correct, attempted, failed, metrics))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
