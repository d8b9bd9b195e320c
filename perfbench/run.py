#!/usr/bin/env python3
"""Build the checker benchmark from source and run one workload.

Run from the repository root:

    python3 perfbench/run.py --workload campaign --seed 1 --seconds 30 --trace 0

The crate beside this file is built in release mode (into
$CARGO_TARGET_DIR, default .bench_build/) and run with RUST_BACKTRACE=0
pinned, so panics the checker isolates print no backtraces whatever the
caller's environment says. Build output goes to standard error; the
benchmark's standard output is passed through, and its last line is the
result JSON. Exit status is the benchmark's, or 2 when it cannot be
built or run.
"""

import os
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
# A first build compiles the whole workspace; a run is sized to stay
# well under the per-run limit.
BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 170


def fail(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(2)


def run(cmd, timeout, **kw):
    """Run a child to completion; kill and reap it on timeout."""
    proc = subprocess.Popen(cmd, **kw)
    try:
        proc.wait(timeout=timeout)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        fail(f"{cmd[0]} exceeded {timeout} s")
    except BaseException:
        proc.kill()
        proc.wait()
        raise
    return proc.returncode


def main():
    target = Path(os.environ.get("CARGO_TARGET_DIR", ROOT / ".bench_build"))
    if not target.is_absolute():
        target = Path.cwd() / target
    env = dict(os.environ, CARGO_TARGET_DIR=str(target))
    build = [
        "cargo", "build", "--release", "--offline", "--quiet",
        "--manifest-path", str(HERE / "Cargo.toml"),
    ]
    if run(build, BUILD_TIMEOUT_S, env=env, stdout=sys.stderr) != 0:
        fail("build failed (the benchmark builds against the repository's crates/)")
    binary = target / "release" / "perfbench"
    if not binary.is_file():
        fail(f"no binary at {binary}")
    env["RUST_BACKTRACE"] = "0"
    sys.stdout.flush()
    sys.exit(run([str(binary), *sys.argv[1:]], RUN_TIMEOUT_S, env=env, cwd=ROOT))


if __name__ == "__main__":
    main()
