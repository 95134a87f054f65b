#!/usr/bin/env python3
"""Build and run the repository benchmark.

Run from the root of a checkout:

    python3 perfbench/run.py --workload alexnet_maeri --seed 1 --seconds 20 --trace 0

The script builds cmd/bifrost-serve and the perfbench binary into
.bench_build/bin with a Go build cache kept under .bench_build, times that
build, and hands every argument on to that binary, which measures the
workload and prints one JSON result as the last line of standard output.
Nothing is read or written outside the checkout.
"""

import ctypes
import os
import signal
import subprocess
import sys
import time

ROOT = os.getcwd()
BUILD = os.path.join(ROOT, ".bench_build")
BIN = os.path.join(BUILD, "bin")


def go_env():
    # Build caches and temporary files stay inside the checkout.
    tmp = os.path.join(BUILD, "gotmp")
    os.makedirs(tmp, exist_ok=True)
    env = dict(os.environ)
    env.update({
        "GOCACHE": os.path.join(BUILD, "gocache"),
        "GOMODCACHE": os.path.join(BUILD, "gomodcache"),
        "GOPATH": os.path.join(BUILD, "gopath"),
        "GOTMPDIR": tmp,
        "TMPDIR": tmp,
        "GOTOOLCHAIN": "local",
        "GOFLAGS": "",
        "GOWORK": "off",
        "GOPROXY": "off",
        "CGO_ENABLED": "0",
    })
    return env


def build(env):
    """Builds both binaries; returns the wall seconds it took."""
    start = time.perf_counter()
    steps = [
        (["go", "build", "-o", os.path.join(BIN, "bifrost-serve"), "./cmd/bifrost-serve"], ROOT),
        (["go", "build", "-o", os.path.join(BIN, "perfbench"), "."], os.path.join(ROOT, "perfbench")),
    ]
    for cmd, cwd in steps:
        res = subprocess.run(cmd, cwd=cwd, env=env, stdout=sys.stderr, stderr=sys.stderr)
        if res.returncode != 0:
            print("perfbench: build failed: " + " ".join(cmd), file=sys.stderr)
            return None
    return time.perf_counter() - start


def die_with_parent():
    # PR_SET_PDEATHSIG = 1: the benchmark binary is killed if this script dies, and it
    # in turn kills its own children the same way.
    try:
        ctypes.CDLL("libc.so.6", use_errno=True).prctl(1, signal.SIGKILL)
    except OSError:
        pass


def main():
    if not os.path.isfile(os.path.join(ROOT, "go.mod")) or not os.path.isdir(os.path.join(ROOT, "cmd", "bifrost-serve")):
        print("perfbench: run from the repository root (go.mod and cmd/bifrost-serve not found)", file=sys.stderr)
        return 2
    os.makedirs(BIN, exist_ok=True)
    env = go_env()
    build_s = build(env)
    if build_s is None:
        return 1
    cmd = [os.path.join(BIN, "perfbench"), "-root", ROOT,
           "-serve-bin", os.path.join(BIN, "bifrost-serve"),
           "-build-s", repr(build_s)] + sys.argv[1:]
    proc = subprocess.Popen(cmd, cwd=ROOT, env=env, preexec_fn=die_with_parent)

    def forward(signum, _frame):
        proc.send_signal(signum)

    signal.signal(signal.SIGINT, forward)
    signal.signal(signal.SIGTERM, forward)
    return proc.wait()


if __name__ == "__main__":
    sys.exit(main())
