#!/usr/bin/env python3
"""Build and run one workload of the repository benchmark.

Run from the root of a checkout of the repository:

    python3 perfbench/run.py --workload train --seed 1 --seconds 10 --trace 0

It builds the benchmark and the `adapt_pnc` binary from source with dune,
then runs the workload (see perfbench/README.md). The last line of
standard output is one JSON object with the keys correct, attempted,
failed and metrics. The exit code is non-zero when the build fails, when
any output check fails, or when the checkout holds no repository.
"""

import argparse
import hashlib
import os
import subprocess
import sys

WORKLOADS = ["train", "mc-eval", "stream", "serve"]
BENCH_EXE = "_build/default/perfbench/main.exe"
SERVER_EXE = "_build/default/bin/adapt_pnc.exe"
RUN_TIMEOUT_S = 170


def source_digest():
    """SHA-256 over the sources the benchmark builds, so a result names
    the code it measured even where the checkout is not a git repository."""
    h = hashlib.sha256()
    files = ["dune-project"]
    for top in ["lib", "bin", "perfbench"]:
        for d, dirs, names in os.walk(top):
            dirs[:] = sorted(x for x in dirs if x != "out")
            files += [os.path.join(d, n) for n in sorted(names)]
    for f in files:
        h.update(f.encode())
        with open(f, "rb") as fh:
            h.update(fh.read())
    return h.hexdigest()[:16]


def commit():
    try:
        out = subprocess.run(["git", "rev-parse", "--short=12", "HEAD"],
                             capture_output=True, text=True, timeout=10)
        return out.stdout.strip() if out.returncode == 0 else "none"
    except (OSError, subprocess.SubprocessError):
        return "none"


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", required=True, type=int)
    p.add_argument("--seconds", required=True, type=float)
    p.add_argument("--trace", required=True, type=int, choices=[0, 1])
    a = p.parse_args()

    if not (os.path.isfile("dune-project") and os.path.isdir("lib")
            and os.path.isdir("bin")):
        print("perfbench: no repository here; run from the root of a checkout",
              file=sys.stderr)
        return 2

    # Keep dune's build cache inside the checkout's _build.
    env = dict(os.environ, DUNE_CACHE="disabled")
    build = subprocess.run(
        ["dune", "build", "--root", ".", "./perfbench/main.exe", "./" + SERVER_EXE[len("_build/default/"):]],
        stdout=sys.stderr, env=env)
    if build.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return build.returncode or 1

    cmd = [BENCH_EXE, "--workload", a.workload, "--seed", str(a.seed),
           "--seconds", repr(a.seconds), "--trace", str(a.trace),
           "--server", SERVER_EXE, "--commit", commit(),
           "--source", source_digest()]
    proc = subprocess.Popen(cmd)
    try:
        return proc.wait(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        print("perfbench: run timed out", file=sys.stderr)
        return 124


if __name__ == "__main__":
    sys.exit(main())
