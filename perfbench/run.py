#!/usr/bin/env python3
"""Build and run the repository benchmark from the root of a checkout.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Builds perfbench/icbbench.exe with dune (inside the checkout, dune cache
off), runs it, checks that its result line names exactly the metrics
perfbench/metrics.json lists for the chosen mode, and passes the line
through as the last line of standard output.  Any failure exits non-zero
without printing a result.
"""

import json
import os
import signal
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
EXE = os.path.join(ROOT, "_build", "default", "perfbench", "icbbench.exe")
BUILD_TIMEOUT_S = 840
RUN_TIMEOUT_S = 170


def fail(msg):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(2)


def trace_mode(args):
    for flag, value in zip(args, args[1:]):
        if flag == "--trace" and value in ("0", "1"):
            return value == "1"
    fail("missing --trace 0|1")


def check_result(line, spec, traced):
    try:
        result = json.loads(line)
    except ValueError:
        fail("the benchmark's last line is not JSON: " + line)
    if not isinstance(result, dict) or sorted(result) != [
        "attempted", "correct", "failed", "metrics"
    ]:
        fail("unexpected result keys: " + line)
    expected = {m["name"]: m["unit"] for m in spec["per_layer" if traced else "end_to_end"]}
    got = {k: v.get("unit") for k, v in result["metrics"].items()}
    if got != expected:
        fail("metrics differ from perfbench/metrics.json: %s" % sorted(set(got) ^ set(expected)))
    if result["attempted"] < 1:
        fail("no search attempted")


def main():
    args = sys.argv[1:]
    traced = trace_mode(args)
    if not (os.path.isfile(os.path.join(ROOT, "dune-project"))
            and os.path.isdir(os.path.join(ROOT, "lib"))):
        fail("no dune project with lib/ at %s: run from the root of a full checkout" % ROOT)
    with open(os.path.join(HERE, "metrics.json")) as f:
        spec = json.load(f)
    try:
        build = subprocess.run(
            ["dune", "build", "--root", ROOT, "--cache=disabled", "./perfbench/icbbench.exe"],
            stdout=sys.stderr, stderr=sys.stderr, timeout=BUILD_TIMEOUT_S)
    except (OSError, subprocess.TimeoutExpired) as e:
        fail("build failed: %s" % e)
    if build.returncode != 0:
        fail("build failed")
    # The benchmark forks one process per measured search; a session of
    # its own lets a timeout stop all of them.
    try:
        run = subprocess.Popen([EXE] + args, cwd=ROOT, stdout=subprocess.PIPE,
                               stderr=sys.stderr, text=True, start_new_session=True)
    except OSError as e:
        fail("cannot start the benchmark: %s" % e)
    try:
        out, _ = run.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(run.pid, signal.SIGKILL)
        run.communicate()
        fail("benchmark timed out after %d s" % RUN_TIMEOUT_S)
    lines = out.strip().splitlines()
    if run.returncode != 0 or not lines:
        fail("benchmark exited with code %d" % run.returncode)
    check_result(lines[-1], spec, traced)
    print("\n".join(lines), flush=True)


if __name__ == "__main__":
    main()
