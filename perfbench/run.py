#!/usr/bin/env python3
"""Builds `specan` and the benchmark from source, then runs one workload.

    python3 perfbench/run.py --workload <cold_panel|edit_loop|warm_service> \\
        --seed N --seconds S --trace <0|1> [--spans FILE]

Run it from the root of a checkout.  Both binaries build into
`$CARGO_TARGET_DIR` (default `.bench_build`); cargo's output goes to
stderr, so the last line of stdout is the benchmark's JSON result.  The
arguments are passed on to the `perfbench` binary (see `src/main.rs`).
"""

import os
import signal
import subprocess
import sys

# What the benchmark needs from the checkout besides its own directory.
NEEDED = ("Cargo.toml", "Cargo.lock", "src/bin/specan.rs", "crates", "examples/programs")

# A run ends within this many seconds or is stopped, with its children.
RUN_TIMEOUT_S = 170


def main():
    missing = [path for path in NEEDED if not os.path.exists(path)]
    if missing:
        print(f"run.py: not the root of a checkout (missing {', '.join(missing)})", file=sys.stderr)
        return 2
    env = dict(os.environ)
    env.setdefault("CARGO_TARGET_DIR", ".bench_build")
    release = os.path.join(os.path.abspath(env["CARGO_TARGET_DIR"]), "release")
    builds = (
        ["cargo", "build", "--release", "--offline", "--quiet", "--bin", "specan"],
        ["cargo", "build", "--release", "--offline", "--quiet",
         "--manifest-path", os.path.join("perfbench", "Cargo.toml")],
    )
    for build in builds:
        status = subprocess.run(build, env=env, stdout=sys.stderr).returncode
        if status != 0:
            print(f"run.py: `{' '.join(build)}` failed", file=sys.stderr)
            return 2
    command = [os.path.join(release, "perfbench"), *sys.argv[1:],
               "--specan", os.path.join(release, "specan")]
    # Its own process group, so a run that overstays is stopped together
    # with any `specan` it started.
    bench = subprocess.Popen(command, start_new_session=True)
    try:
        return bench.wait(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(bench.pid, signal.SIGKILL)
        bench.wait()
        print(f"run.py: the run took over {RUN_TIMEOUT_S} s and was stopped", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
