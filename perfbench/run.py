#!/usr/bin/env python3
"""Build the perfbench binary from source and run one benchmark workload.

Usage, from the root of the repository:

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>
    python3 perfbench/run.py --self-test

The binary is built with cargo (offline, release profile) into
$CARGO_TARGET_DIR, or .bench_build at the repository root when that is unset.
Every argument but --self-test goes to the binary unchanged; the binary
parses and checks them. The workload runs in a process of its own; its
standard output is passed through, so the last line printed is the result
object. The self-test checks that a run on the default seed matches its
pinned digests and that the same run with every redistribution skew raised
by 0.01 is caught as incorrect.
"""

import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def build():
    """Builds the benchmark and returns the path of its binary."""
    target = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    cmd = [
        "cargo", "build", "--release", "--offline", "--quiet",
        "--manifest-path", os.path.join(HERE, "Cargo.toml"),
    ]
    # Cargo's progress goes to stderr; stdout stays for the result line.
    done = subprocess.run(cmd, cwd=ROOT, env=env, stdout=sys.stderr)
    if done.returncode != 0:
        sys.exit(f"perfbench: build failed with exit code {done.returncode}")
    return os.path.join(ROOT, target, "release", "perfbench")


def run(binary, args, capture=False):
    """Runs the benchmark binary from the repository root and waits for it."""
    return subprocess.run(
        [binary, *args], cwd=ROOT, text=True,
        stdout=subprocess.PIPE if capture else None, timeout=170,
    )


def self_test(binary):
    """A clean default-seed run passes; a perturbed one must fail."""
    base = ["--workload", "closed-skew", "--seed", "1", "--seconds", "1", "--trace", "0"]
    for extra, want in (([], True), (["--skew-delta", "0.01"], False)):
        done = run(binary, base + extra, capture=True)
        if done.returncode != 0:
            sys.exit(f"perfbench self-test: run {extra} exited {done.returncode}")
        result = json.loads(done.stdout.strip().splitlines()[-1])
        if result["correct"] is not want:
            sys.exit(f"perfbench self-test: run {extra} reported correct={result['correct']}")
        if not want and result["failed"] != result["attempted"]:
            sys.exit(f"perfbench self-test: run {extra} failed only "
                     f"{result['failed']} of {result['attempted']} calls")
        print(f"perfbench self-test: run {extra or 'unperturbed'} correct={result['correct']} as expected")
    print("perfbench self-test: ok")


def main():
    args = sys.argv[1:]
    binary = build()
    if args == ["--self-test"]:
        self_test(binary)
        return
    sys.exit(run(binary, args).returncode)


if __name__ == "__main__":
    main()
