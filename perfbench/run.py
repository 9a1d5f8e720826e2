#!/usr/bin/env python3
"""Build and run the campaign benchmark (see perfbench/README.md).

    python3 perfbench/run.py --workload fig4_serial --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --selftest

Builds perfbench/ (a CMake package that compiles ../src) into
$CARGO_TARGET_DIR/perfbench, default .bench_build/perfbench under the
checkout root, then runs the benchmark binary. Build output goes to stderr,
so the last line of stdout is the benchmark's JSON result. Stores and other
scratch files live in a temporary directory inside the build directory,
removed when the run ends.

setup_s is measured here, across processes: from starting the binary to its
"# setup done" line, just before the first timed pass. With --trace 0 the
binary is started SETUP_LAUNCHES times in all (every extra launch stops after
set-up) and the median is added to the binary's JSON result.
"""

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import threading
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_TIMEOUT_S = 850
SETUP_LAUNCHES = 5
SETUP_DONE = "# setup done"


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    if not os.path.isabs(base):
        base = os.path.join(ROOT, base)
    return os.path.join(base, "perfbench")


def build(bdir, target):
    """Configure (first time) and build `target`; True on success."""
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.exists(os.path.join(bdir, "Makefile")):
        steps.append(["cmake", "-S", HERE, "-B", bdir, "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", bdir, "-j", jobs, "--target", target])
    for cmd in steps:
        done = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                              timeout=BUILD_TIMEOUT_S, check=False)
        if done.returncode != 0:
            print(f"perfbench: build step failed: {' '.join(cmd)}", file=sys.stderr)
            return False
    return True


def launch(cmd, env, timeout):
    """Run `cmd` to the end; return (exit code, stdout lines, seconds from
    start to its set-up line or None). Killed and reaped on timeout or when
    we are stopped."""
    start = time.monotonic()
    proc = subprocess.Popen(cmd, env=env, stdout=subprocess.PIPE, text=True)
    watchdog = threading.Timer(timeout, proc.kill)
    watchdog.start()
    setup_s = None
    lines = []
    try:
        for line in proc.stdout:
            if setup_s is None and line.startswith(SETUP_DONE):
                setup_s = time.monotonic() - start
            lines.append(line.rstrip("\n"))
        code = proc.wait()
    finally:
        watchdog.cancel()
        if proc.poll() is None:
            proc.kill()
        proc.wait()
        proc.stdout.close()
    if time.monotonic() - start >= timeout:
        print("perfbench: run timed out", file=sys.stderr)
        return 1, lines, setup_s
    return code, lines, setup_s


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--selftest", action="store_true",
                        help="build and run the benchmark's own tests")
    args = parser.parse_args()
    if not args.selftest and args.workload is None:
        parser.error("--workload is required")
    if args.seed < 0 or args.seconds < 1:
        parser.error("--seed must be >= 0 and --seconds >= 1")

    # A caller may stop us with SIGTERM: unwind so the child is killed and
    # reaped and the scratch directory removed.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))

    bdir = build_dir()
    target = "perfbench_tests" if args.selftest else "perfbench"
    if not build(bdir, target):
        return 1
    tmp_root = os.path.join(bdir, "tmp")
    os.makedirs(tmp_root, exist_ok=True)
    tmp = tempfile.mkdtemp(prefix="run-", dir=tmp_root)
    env = dict(os.environ, MKOS_BENCH_DIR=tmp, TMPDIR=tmp)
    try:
        if args.selftest:
            return subprocess.run([os.path.join(bdir, "perfbench_tests")], env=env,
                                  check=False).returncode
        cmd = [os.path.join(bdir, "perfbench"),
               "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace),
               "--tmp-dir", tmp]
        setups = []
        if not args.trace:
            for _ in range(SETUP_LAUNCHES - 1):
                code, lines, setup_s = launch(cmd + ["--setup-only"], env, 120)
                if code != 0 or setup_s is None:
                    print("\n".join(lines))
                    return code or 1
                setups.append(setup_s)
        spans = os.path.join(bdir, f"spans-{args.workload}.jsonl")
        code, lines, setup_s = launch(cmd + ["--spans-out", spans], env,
                                      4 * args.seconds + 60)
        if code != 0 or not lines:
            print("\n".join(lines))
            return code or 1
        result = json.loads(lines[-1])
        if not args.trace:
            if setup_s is None:
                print("perfbench: no set-up line in the output", file=sys.stderr)
                return 1
            setups.append(setup_s)
            result["metrics"]["setup_s"] = {"value": statistics.median(setups), "unit": "s"}
            lines.insert(-1, f"metric {'setup_s':<28} {statistics.median(setups):14.6g} "
                             f"{'s':<12} n={len(setups)}")
        print("\n".join(lines[:-1]))
        print(json.dumps(result))
        return 0
    finally:
        shutil.rmtree(tmp, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
