#!/usr/bin/env python3
"""Builds and runs the repository's benchmark.

    python3 perfbench/run.py --workload W --seed N --seconds S --trace 0|1

Run from the repository root. It builds the release `connectit-serve`
binary from the repository's workspace and the `perfbench` crate, then runs
one workload. The benchmark's last stdout line is its JSON result; build
output goes to stderr. Build artifacts and per-run scratch files (WAL
directories, span dumps) live under `$CARGO_TARGET_DIR` (default
`.bench_build`).
"""

import os
import signal
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
# Generous per-run cap; a run is designed to end well inside it.
RUN_TIMEOUT_S = 175


def main():
    if not os.path.isdir(os.path.join(ROOT, "crates", "server")):
        print("perfbench: the repository's crates are missing; run from a full checkout",
              file=sys.stderr)
        return 2
    target = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    target = os.path.join(ROOT, target)
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    builds = [
        ["cargo", "build", "--release", "--offline", "--quiet",
         "-p", "cc-server", "--bin", "connectit-serve"],
        ["cargo", "build", "--release", "--offline", "--quiet",
         "--manifest-path", os.path.join("perfbench", "Cargo.toml")],
    ]
    for cmd in builds:
        code = subprocess.run(cmd, cwd=ROOT, env=env, stdout=sys.stderr).returncode
        if code != 0:
            print(f"perfbench: build failed: {' '.join(cmd)}", file=sys.stderr)
            return code
    rustc = subprocess.run(["rustc", "-V"], cwd=ROOT, env=env, capture_output=True,
                           text=True).stdout.strip()
    work = os.path.join(target, "perfbench-work")
    cmd = [os.path.join(target, "release", "perfbench"), *sys.argv[1:],
           "--serve", os.path.join(target, "release", "connectit-serve"),
           "--work-dir", work, "--rustc", rustc]
    # The static kernel runs on a pool of 2 threads; the server children
    # drop this variable and size their own pools.
    run_env = dict(env, CC_NUM_THREADS="2")
    # Own process group, so a timeout also stops the server children.
    proc = subprocess.Popen(cmd, cwd=ROOT, env=run_env, start_new_session=True)
    try:
        return proc.wait(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        print(f"perfbench: run exceeded {RUN_TIMEOUT_S}s", file=sys.stderr)
        return 124
    finally:
        if proc.poll() is None:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.wait()


if __name__ == "__main__":
    sys.exit(main())
