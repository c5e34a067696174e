#!/usr/bin/env python3
"""Build and run the live-TCP NetSolve benchmark.

    python3 perfbench/run.py --workload small_ddot --seed 1 --seconds 15 --trace 0

Builds `ns-agent` and `ns-server` from this checkout and the benchmark
package beside this file (release profile, offline), then runs the
untraced generator (`--trace 0`), or the untraced generator followed by
the traced one (`--trace 1`), whose `trace.overhead_pct` compares its
`client.call_us` with the untraced `call_p50_ms`. A generator starts the
daemons, drives them and prints a context line and, last, the JSON result
line; this script prints the final result line last. Build output goes to $CARGO_TARGET_DIR, by default
`.bench_build/` at the root of the checkout; per-run records and spans
go to `.bench_out/`.

Every process a generator starts is in the generator's process group,
which is killed and waited for on every exit path.
"""

import argparse
import hashlib
import json
import os
import signal
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("small_ddot", "medium_dgesv", "bulk_dgtsv")
# The generators must finish well inside the 180 s a run may take.
RUN_TIMEOUT_S = 170
BUILD_TIMEOUT_S = 850


def fail(msg):
    print(f"run.py: {msg}", file=sys.stderr)
    sys.exit(2)


def parse_args():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", required=True, type=int)
    p.add_argument("--seconds", required=True, type=int)
    p.add_argument("--trace", required=True, type=int, choices=(0, 1))
    return p.parse_args()


def source_id():
    """The commit if this is a git checkout, else a hash of the sources."""
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                             text=True, timeout=10)
        if out.returncode == 0:
            return out.stdout.strip()
    except (OSError, subprocess.TimeoutExpired):
        pass
    digest = hashlib.sha1()
    for top in ("Cargo.toml", "Cargo.lock", "src", "crates", "shims", "perfbench"):
        path = os.path.join(ROOT, top)
        files = [path] if os.path.isfile(path) else sorted(
            os.path.join(d, f) for d, _, fs in os.walk(path) for f in fs)
        for f in files:
            if f.endswith((".rs", ".toml", ".lock", ".py")):
                digest.update(os.path.relpath(f, ROOT).encode())
                with open(f, "rb") as fh:
                    digest.update(fh.read())
    return "tree-" + digest.hexdigest()[:16]


def build(target_dir):
    env = dict(os.environ, CARGO_TARGET_DIR=target_dir)
    steps = [
        ["cargo", "build", "--release", "--offline", "--bin", "ns-agent", "--bin", "ns-server"],
        ["cargo", "build", "--release", "--offline", "--manifest-path",
         os.path.join(HERE, "Cargo.toml")],
    ]
    for cmd in steps:
        # Cargo's progress goes to stderr; stdout stays for the result.
        done = subprocess.run(cmd, cwd=ROOT, env=env, stdout=sys.stderr, timeout=BUILD_TIMEOUT_S)
        if done.returncode != 0:
            fail(f"build failed: {' '.join(cmd)}")


def reap_group(proc):
    """Kill every process left in the generator's group and wait until
    the group is empty. The generator leads the group, so its pid is the
    group id."""
    try:
        os.killpg(proc.pid, signal.SIGKILL)
    except ProcessLookupError:
        return
    deadline = time.monotonic() + 10
    while time.monotonic() < deadline:
        proc.poll()  # reaps the generator itself once it is dead
        try:
            os.killpg(proc.pid, 0)
        except ProcessLookupError:
            return
        time.sleep(0.01)


def run_generator(cmd, deadline, echo):
    """Run one generator in its own process group, copy its standard
    output to `echo`, and return its exit code and output lines."""
    proc = subprocess.Popen(cmd, cwd=ROOT, start_new_session=True, stdout=subprocess.PIPE,
                            text=True)

    def on_signal(signum, _frame):
        reap_group(proc)
        sys.exit(128 + signum)

    signal.signal(signal.SIGTERM, on_signal)
    signal.signal(signal.SIGINT, on_signal)
    out = ""
    try:
        out, _ = proc.communicate(timeout=max(0.0, deadline - time.monotonic()))
        code = proc.returncode
    except subprocess.TimeoutExpired:
        print(f"run.py: generators exceeded {RUN_TIMEOUT_S} s", file=sys.stderr)
        code = 1
    finally:
        reap_group(proc)
        proc.communicate()
    print(out, end="", file=echo, flush=True)
    return code, out.splitlines()


def result_of(lines):
    """The JSON result line a generator printed last."""
    return json.loads(lines[-1])


def main():
    args = parse_args()
    for needed in ("Cargo.toml", "Cargo.lock", "src/bin/ns-agent.rs", "src/bin/ns-server.rs",
                   "crates"):
        if not os.path.exists(os.path.join(ROOT, needed)):
            fail(f"{needed} is missing: run from a full checkout of the repository")
    target = os.path.abspath(os.environ.get("CARGO_TARGET_DIR") or os.path.join(ROOT, ".bench_build"))
    build(target)
    release = os.path.join(target, "release")
    common = [
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--seconds", str(args.seconds),
        "--agent-bin", os.path.join(release, "ns-agent"),
        "--server-bin", os.path.join(release, "ns-server"),
        "--out-dir", os.path.join(ROOT, ".bench_out"),
        "--commit", source_id(),
    ]
    deadline = time.monotonic() + RUN_TIMEOUT_S
    # The untraced run's output is the result with --trace 0 and only a
    # reference with --trace 1, where it goes to stderr.
    code, lines = run_generator([os.path.join(release, "perfbench")] + common, deadline,
                                sys.stderr if args.trace else sys.stdout)
    if code != 0 or not args.trace:
        sys.exit(code)
    untraced = result_of(lines)
    code, lines = run_generator([os.path.join(release, "perfbench-traced")] + common, deadline,
                                sys.stderr)
    if code != 0:
        sys.exit(code)
    traced = result_of(lines)
    call_us = traced["metrics"]["client.call_us"]["value"]
    untraced_us = untraced["metrics"]["call_p50_ms"]["value"] * 1e3
    traced["metrics"]["trace.overhead_pct"] = {
        "value": (call_us / untraced_us - 1.0) * 100.0, "unit": "%"}
    traced["correct"] = traced["correct"] and untraced["correct"]
    traced["attempted"] += untraced["attempted"]
    traced["failed"] += untraced["failed"]
    print(json.dumps(traced))


if __name__ == "__main__":
    main()
