#!/usr/bin/env python3
"""Served-path benchmark runner (see README.md beside this file).

Builds dfkyd and the perfload client from this checkout with CMake, runs
one workload against a real dfkyd, and prints perfload's JSON result as
the last line of standard output:

    python3 perfbench/run.py --workload encrypt_read --seed 1 \
        --seconds 10 --trace 0

The build tree is $CARGO_TARGET_DIR/perfbench (default .bench_build),
scratch stores live under .bench_run/ and are removed after the run, and
a traced run leaves its spans in .bench_run/traces/.
"""
import argparse
import json
import os
import shutil
import signal
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
WORKLOADS = ("encrypt_read", "mutate_ack", "broadcast_feed")
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}
RUN_TIMEOUT_S = 170


def log(msg):
    print(f"perfbench: {msg}", file=sys.stderr, flush=True)


def stop_group(pgid):
    """SIGKILLs whatever is left of a process group and waits until it
    is gone (10 s at most)."""
    deadline = time.monotonic() + 10
    while time.monotonic() < deadline:
        try:
            os.killpg(pgid, signal.SIGKILL)
        except ProcessLookupError:
            return
        time.sleep(0.05)


def build():
    """Configures (once) and builds dfkyd + perfload; returns the tree."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        log("no dfky sources in this checkout (src/CMakeLists.txt is missing)")
        sys.exit(2)
    target = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    tree = os.path.join(ROOT, target, "perfbench")
    if not os.path.isfile(os.path.join(tree, "CMakeCache.txt")):
        cmd = ["cmake", "-S", os.path.join(ROOT, "perfbench"), "-B", tree,
               "-DCMAKE_BUILD_TYPE=RelWithDebInfo"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        subprocess.run(cmd, stdout=sys.stderr, check=True)
    subprocess.run(["cmake", "--build", tree, "-j", str(os.cpu_count() or 1),
                    "--target", "dfkyd", "perfload"],
                   stdout=sys.stderr, check=True)
    return tree


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    try:
        tree = build()
    except (subprocess.CalledProcessError, OSError) as e:
        log(f"build failed: {e}")
        return 2

    run_dir = os.path.join(ROOT, ".bench_run")
    work = os.path.join(run_dir, f"{args.workload}-{os.getpid()}")
    spans = os.path.join(run_dir, "traces",
                         f"{args.workload}-seed{args.seed}.jsonl")
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(os.path.dirname(spans), exist_ok=True)
    cmd = [os.path.join(tree, "perfload"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--dfkyd", os.path.join(tree, "dfkyd"),
           "--work-dir", work, "--spans", spans]
    # perfload and the dfkyd it forks share a new process group, so a
    # timeout can stop both.
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True,
                            start_new_session=True)
    try:
        out, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log(f"perfload did not finish in {RUN_TIMEOUT_S} s")
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        return 3
    finally:
        stop_group(proc.pid)
        shutil.rmtree(work, ignore_errors=True)

    lines = out.splitlines()
    if not lines:
        log(f"perfload printed nothing (exit {proc.returncode})")
        return proc.returncode or 1
    try:
        result = json.loads(lines[-1])
    except json.JSONDecodeError:
        result = None
    if not isinstance(result, dict) or set(result) != RESULT_KEYS:
        for line in lines:
            print(line, file=sys.stderr)
        log(f"perfload printed no result line (exit {proc.returncode})")
        return proc.returncode or 1
    for line in lines:
        print(line)
    return proc.returncode


if __name__ == "__main__":
    sys.exit(main())
