#!/usr/bin/env python3
"""Benchmark entry point.

    python3 perfbench/run.py --workload W --seed N --seconds S --trace 0|1

Builds the repository's `perfbench/hpfqbench.exe` in dune's release
profile into `.bench_build/` (dune's shared cache off, so nothing is
written outside the checkout), then runs one workload: mix_replay,
saturated_deep or flow_churn. The executable prints what it measured and,
as its last stdout line, one JSON object with `correct`, `attempted`,
`failed` and `metrics`; this script passes it through and exits non-zero
if the build, the run or an output check fails.

    python3 perfbench/run.py selftest         corrupt each check's input
    python3 perfbench/run.py fault            repro of the hook-abort fault
"""

import json
import os
import signal
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BUILD_DIR = ".bench_build"
EXE = os.path.join(BUILD_DIR, "default", "perfbench", "hpfqbench.exe")
DATA_DIR = os.path.join(BUILD_DIR, "perfbench-data")
WORKLOADS = ("mix_replay", "saturated_deep", "flow_churn")
BUILD_TIMEOUT = 840
RUN_TIMEOUT = 170


def die(msg):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(1)


def call(cmd, timeout, capture):
    """Run cmd in its own process group; kill the group on timeout."""
    proc = subprocess.Popen(
        cmd,
        cwd=ROOT,
        stdout=subprocess.PIPE if capture else sys.stderr,
        start_new_session=True,
    )
    try:
        out, _ = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        die("%s timed out after %d s" % (cmd[0], timeout))
    return proc.returncode, out


def build():
    for need in ("dune-project", "lib", os.path.join("perfbench", "dune")):
        if not os.path.exists(os.path.join(ROOT, need)):
            die("no %s here: run from a checkout of the repository" % need)
    cmd = [
        "dune", "build", "--root", ".", "--profile", "release",
        "--build-dir", BUILD_DIR, "--cache", "disabled",
        "./perfbench/hpfqbench.exe",
    ]
    try:
        code, _ = call(cmd, BUILD_TIMEOUT, capture=False)
    except FileNotFoundError:
        die("dune not found")
    if code != 0:
        die("build failed")


def parse_args(argv):
    opts = {}
    it = iter(argv)
    for key in it:
        if not key.startswith("--"):
            die("unexpected argument " + key)
        opts[key[2:]] = next(it, None)
    for need in ("workload", "seed", "seconds", "trace"):
        if opts.get(need) is None:
            die("missing --" + need)
    if opts["workload"] not in WORKLOADS:
        die("unknown workload %s (one of %s)" % (opts["workload"], ", ".join(WORKLOADS)))
    if opts["trace"] not in ("0", "1"):
        die("--trace is 0 or 1")
    return opts


def main(argv):
    if argv[:1] in (["selftest"], ["fault"]):
        build()
        code, _ = call([EXE] + argv, RUN_TIMEOUT, capture=False)
        sys.exit(code)
    opts = parse_args(argv)
    build()
    cmd = [
        EXE, "run",
        "--workload", opts["workload"],
        "--seed", str(int(opts["seed"])),
        "--seconds", str(int(opts["seconds"])),
        "--trace", opts["trace"],
        "--data-dir", DATA_DIR,
    ]
    code, out = call(cmd, RUN_TIMEOUT, capture=True)
    text = out.decode()
    lines = text.rstrip("\n").split("\n")
    if code != 0:
        sys.stderr.write(text)
        die("run failed with code %d" % code)
    try:
        result = json.loads(lines[-1])
    except (ValueError, IndexError):
        sys.stderr.write(text)
        die("no result line")
    if not result.get("correct"):
        sys.stderr.write(text)
        die("output checks failed")
    sys.stdout.write(text)
    sys.stdout.flush()


if __name__ == "__main__":
    main(sys.argv[1:])
