#!/usr/bin/env python3
"""Build the repository and run one benchmark workload.

    python3 perfbench/run.py --workload W --seed N --seconds S --trace 0|1

Run from the root of a checkout. Builds dvrun and the benchmark harness
with dune, runs the harness with a scratch directory inside the checkout,
and prints the harness's JSON result as the last line of standard output.
Exits non-zero, without a result, if the build fails, the checkout is not
a full source tree, or the harness fails or runs out of time.
"""

import argparse
import json
import os
import shutil
import signal
import subprocess
import sys

WORKLOADS = ("rr-compute", "rr-sync", "cli")
BUILD_TIMEOUT_S = 840
RUN_TIMEOUT_S = 170
HARNESS = os.path.join("_build", "default", "perfbench", "bench.exe")
DVRUN = os.path.join("_build", "default", "bin", "dvrun.exe")
SCRATCH_ROOT = ".perfbench"


def fail(msg, code=2):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(code)


def run_group(cmd, timeout, **kw):
    """Run cmd in its own process group; kill the whole group on timeout."""
    proc = subprocess.Popen(cmd, start_new_session=True, **kw)
    try:
        out, _ = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        fail(f"{cmd[0]} timed out after {timeout} s", 1)
    except BaseException:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise
    return proc.returncode, out


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=int)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if args.seconds < 1:
        fail("--seconds must be at least 1")

    for need in ("dune-project", "lib", "bin", "perfbench/dune"):
        if not os.path.exists(need):
            fail(f"{need} not found: run from the root of a full checkout")
    if shutil.which("dune") is None:
        fail("dune not found on PATH")

    env = dict(os.environ, DUNE_CACHE="disabled")
    code, _ = run_group(
        ["dune", "build", "--root", ".", "--display", "quiet",
         "./bin/dvrun.exe", "./perfbench/bench.exe"],
        BUILD_TIMEOUT_S, stdout=sys.stderr, env=env)
    if code != 0:
        fail(f"build failed (exit {code})", 1)

    # The timed runs stay on one CPU: every workload is one thread at a time
    # (the harness waits while a dvrun child runs), and the box-speed kernel
    # then samples the CPU the work runs on. The traced run keeps every CPU
    # for the farm probes' shards.
    pin = None
    if args.trace == 0:
        cpu = max(os.sched_getaffinity(0))
        pin = lambda: os.sched_setaffinity(0, {cpu})

    scratch = os.path.join(SCRATCH_ROOT, f"run-{os.getpid()}")
    os.makedirs(scratch, exist_ok=True)
    # Temporary files of the harness and of every process it starts stay
    # inside the checkout.
    env["TMPDIR"] = os.path.abspath(scratch)
    try:
        code, out = run_group(
            [HARNESS, "--workload", args.workload, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace),
             "--dir", scratch, "--dvrun", DVRUN],
            RUN_TIMEOUT_S, stdout=subprocess.PIPE, env=env, text=True,
            preexec_fn=pin)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    lines = out.strip().splitlines()
    if code != 0 or not lines:
        fail(f"harness failed (exit {code})", 1)
    result = json.loads(lines[-1])
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        fail("harness printed a malformed result", 1)
    for line in lines[:-1]:
        print(line)
    print(json.dumps(result))


if __name__ == "__main__":
    main()
