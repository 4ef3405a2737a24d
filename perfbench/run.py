#!/usr/bin/env python3
"""Build and run the end-to-end profiling benchmark.

Usage, from the root of the repository:

    python3 perfbench/run.py --workload chatty --seed 1 --seconds 20 --trace 0

Builds the `perfbench` package (release) into `$CARGO_TARGET_DIR`, or
`.bench_build` when that is unset, runs it, checks that it printed
exactly the metrics BENCHMARK.json lists for the mode, and prints its
result as the last line of standard output. With `--trace 1` the span
dump goes to `perfbench/out/spans-<workload>-<seed>.json`.

Exits non-zero, without a result line, if the build, the run or the
metric check fails.
"""

import argparse
import json
import os
import signal
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
# Each run must end within 180 s; leave room for the build check.
RUN_TIMEOUT_S = 170


def fail(msg):
    print(f"perfbench/run.py: {msg}", file=sys.stderr)
    sys.exit(1)


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=float)
    ap.add_argument("--trace", required=True, choices=["0", "1"])
    args = ap.parse_args()

    try:
        with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
            spec = json.load(f)
    except (OSError, ValueError) as e:
        fail(f"cannot read BENCHMARK.json: {e}")
    if args.workload not in [w["name"] for w in spec["workloads"]]:
        fail(f"unknown workload {args.workload}")
    expected = spec["per_layer" if args.trace == "1" else "end_to_end"]

    env = dict(os.environ)
    target = os.path.abspath(env.get("CARGO_TARGET_DIR") or os.path.join(ROOT, ".bench_build"))
    env["CARGO_TARGET_DIR"] = target
    build = subprocess.run(
        [
            "cargo", "build", "--release", "--offline", "--quiet",
            "--manifest-path", os.path.join(HERE, "Cargo.toml"),
        ],
        env=env,
        stdout=sys.stderr,
    )
    if build.returncode != 0:
        fail(f"build failed with exit code {build.returncode}")

    cmd = [
        os.path.join(target, "release", "perfbench"),
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--seconds", str(args.seconds),
        "--trace", args.trace,
    ]
    if args.trace == "1":
        out_dir = os.path.join(HERE, "out")
        os.makedirs(out_dir, exist_ok=True)
        cmd += ["--spans", os.path.join(out_dir, f"spans-{args.workload}-{args.seed}.json")]
    # Own process group, so stopping it also stops the set-up probes the
    # benchmark starts: on timeout, and when this script is terminated.
    run = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True, start_new_session=True)

    def stop(signum=None, _frame=None):
        os.killpg(run.pid, signal.SIGKILL)
        run.communicate()
        if signum is not None:
            fail(f"terminated by signal {signum}")

    signal.signal(signal.SIGTERM, stop)
    signal.signal(signal.SIGINT, stop)
    try:
        stdout, _ = run.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        stop()
        fail(f"run exceeded {RUN_TIMEOUT_S} s")
    if run.returncode != 0:
        fail(f"run failed with exit code {run.returncode}")

    lines = stdout.strip().splitlines()
    if not lines:
        fail("run printed no result")
    result = json.loads(lines[-1])
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    want = {m["name"]: m["unit"] for m in expected}
    if got != want:
        fail(f"metrics {sorted(got.items())} differ from BENCHMARK.json {sorted(want.items())}")
    print(json.dumps(result))


if __name__ == "__main__":
    main()
