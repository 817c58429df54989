#!/usr/bin/env python3
"""Build and run the ccs benchmark.

Usage (from the repository root):

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Builds `perfbench` (release, offline) into `$CARGO_TARGET_DIR`
(default `.bench_build` under the current directory), stamps the host's
rustc version, git revision and a digest of the built sources into the
environment, runs the binary with the same arguments and exits with its
exit code. Cargo output goes to stderr; stdout carries only the
benchmark's JSON lines, the result object last.
"""

import hashlib
import os
import subprocess
import sys

ROOT = os.getcwd()
MANIFEST = os.path.join("perfbench", "Cargo.toml")
# What the benchmark binary is built from: hashed into the host stamp so
# runs of an exported (non-git) checkout still name their sources.
SOURCE_DIRS = ("src", "crates", "vendor", "perfbench/src")
SOURCE_FILES = ("Cargo.toml", "Cargo.lock", "perfbench/Cargo.toml")


def source_digest():
    h = hashlib.sha256()
    paths = [p for p in SOURCE_FILES if os.path.isfile(p)]
    for d in SOURCE_DIRS:
        for dirpath, dirnames, filenames in os.walk(d):
            dirnames[:] = sorted(n for n in dirnames if n != "target")
            paths.extend(os.path.join(dirpath, f) for f in filenames)
    for p in sorted(paths):
        h.update(p.encode())
        h.update(b"\0")
        with open(p, "rb") as f:
            h.update(f.read())
    return h.hexdigest()[:16]


def command_output(argv):
    try:
        r = subprocess.run(argv, capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return r.stdout.strip() if r.returncode == 0 and r.stdout.strip() else "unknown"


def git_rev():
    # Only this directory's own repository counts, never an enclosing one.
    if not os.path.exists(os.path.join(ROOT, ".git")):
        return "none"
    return command_output(["git", "-C", ROOT, "rev-parse", "HEAD"])


def main():
    if not os.path.isfile(MANIFEST):
        print("perfbench: run from the repository root", file=sys.stderr)
        return 2
    env = dict(os.environ)
    env.setdefault("CARGO_TARGET_DIR", os.path.join(ROOT, ".bench_build"))
    target = env["CARGO_TARGET_DIR"]
    if not os.path.isabs(target):
        target = os.path.join(ROOT, target)
    build = subprocess.run(
        ["cargo", "build", "--release", "--offline", "--quiet", "--manifest-path", MANIFEST],
        stdout=sys.stderr,
        env=env,
    )
    if build.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return build.returncode or 1
    env["PERFBENCH_RUSTC"] = command_output(["rustc", "--version"])
    env["PERFBENCH_GIT_REV"] = git_rev()
    env["PERFBENCH_SOURCE_DIGEST"] = source_digest()
    binary = os.path.join(target, "release", "perfbench")
    return subprocess.run([binary] + sys.argv[1:], env=env).returncode


if __name__ == "__main__":
    sys.exit(main())
