#!/usr/bin/env python3
"""Build and run the dpbfl round benchmark.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the repository root. Builds the `perfbench` package (release,
offline) into `$CARGO_TARGET_DIR` (default `.bench_build`), then runs it with
the same arguments. Build output goes to standard error; standard output is
the benchmark's, ending with its one-line JSON result. Exits non-zero,
without a result, when the build or the run fails.
"""

import hashlib
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
RUN_TIMEOUT_S = 170
# Inputs of the build, hashed into the result stamp (the checkout the
# benchmark runs in need not be a git repository).
SOURCES = ["Cargo.toml", "Cargo.lock", "rust-toolchain.toml", "crates", "vendor", "perfbench"]
SKIP_DIRS = {"target", ".bench_build"}


def source_sha256():
    digest = hashlib.sha256()
    for entry in SOURCES:
        path = ROOT / entry
        files = [path] if path.is_file() else sorted(path.rglob("*"))
        for f in files:
            rel = f.relative_to(ROOT)
            if f.is_file() and not SKIP_DIRS.intersection(rel.parts):
                digest.update(str(rel).encode() + b"\0" + f.read_bytes())
    return digest.hexdigest()


def command_output(argv):
    try:
        out = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True, check=True)
        return out.stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        return "unknown"


def main():
    env = dict(os.environ)
    env.setdefault("CARGO_TARGET_DIR", ".bench_build")
    build = subprocess.run(
        ["cargo", "build", "--release", "--offline", "--manifest-path", "perfbench/Cargo.toml"],
        cwd=ROOT,
        env=env,
        stdout=sys.stderr,
    )
    if build.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return 1
    env["PERFBENCH_RUSTC"] = command_output(["rustc", "--version"])
    has_git = (ROOT / ".git").exists()
    env["PERFBENCH_GIT_SHA"] = command_output(["git", "rev-parse", "HEAD"]) if has_git else "unknown"
    env["PERFBENCH_SOURCE_SHA256"] = source_sha256()
    binary = ROOT / env["CARGO_TARGET_DIR"] / "release" / "dpbfl-perfbench"
    try:
        run = subprocess.run([str(binary), *sys.argv[1:]], cwd=ROOT, env=env, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print(f"perfbench: run exceeded {RUN_TIMEOUT_S} s", file=sys.stderr)
        return 3
    return run.returncode


if __name__ == "__main__":
    sys.exit(main())
