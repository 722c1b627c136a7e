#!/usr/bin/env python3
"""Repository benchmark: builds the runner from source, then measures one
workload.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout. The build goes to the directory
named by $CARGO_TARGET_DIR (default .bench_build). Standard output ends
with one JSON object: {"correct", "attempted", "failed", "metrics"}; the
lines before it are the host stamp, one row per measured cell or request
class, and a summary with the error rate. Exits non-zero, without a
result line, when the build or the run fails. See perfbench/README.md.
"""

import argparse
import hashlib
import json
import os
import platform
import signal
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
WORKLOADS = ("lattice", "typed", "heap", "serve")
RUN_TIMEOUT_S = 170


def log(msg):
    print(f"perfbench: {msg}", file=sys.stderr, flush=True)


def build(build_dir):
    """Configures (once) and builds the runner and griftd; False on error."""
    if not os.path.exists(os.path.join(build_dir, "Makefile")):
        configure = ["cmake", "-S", os.path.join(ROOT, "perfbench"),
                     "-B", build_dir, "-DCMAKE_BUILD_TYPE=Release"]
        if subprocess.run(configure, stdout=sys.stderr, cwd=ROOT).returncode:
            return False
    jobs = str(min(4, os.cpu_count() or 1))
    cmd = ["cmake", "--build", build_dir, "--target", "perfbench_runner",
           "griftd", "-j", jobs]
    return subprocess.run(cmd, stdout=sys.stderr, cwd=ROOT).returncode == 0


def cpu_model():
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def commit():
    """The git commit when the checkout is a repository, else None."""
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def source_digest():
    """SHA-256 over the sources the benchmark builds, so results from
    checkouts that are not git repositories still name their code."""
    h = hashlib.sha256()
    for top in ("CMakeLists.txt", "src", "tools", "perfbench"):
        path = os.path.join(ROOT, top)
        files = [path] if os.path.isfile(path) else sorted(
            os.path.join(d, f) for d, _, fs in os.walk(path) for f in fs)
        for name in files:
            h.update(os.path.relpath(name, ROOT).encode())
            with open(name, "rb") as f:
                h.update(f.read())
    return h.hexdigest()


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=float)
    ap.add_argument("--trace", required=True, choices=("0", "1"))
    args = ap.parse_args()

    build_dir = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    build_dir = os.path.relpath(os.path.join(ROOT, build_dir), ROOT)
    if not build(build_dir):
        log("build failed")
        return 1
    runner = os.path.join(build_dir, "perfbench_runner")
    griftd = os.path.join(build_dir, "grift", "tools", "griftd")
    # Relative, so griftd's Unix socket path stays short.
    workdir = os.path.join(build_dir, "run")
    os.makedirs(os.path.join(ROOT, workdir), exist_ok=True)

    cmd = [runner, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", args.trace,
           "--programs", os.path.join("perfbench", "programs"),
           "--griftd", griftd, "--workdir", workdir]
    # Own process group: a timed-out runner is killed with its griftd.
    proc = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True,
                            start_new_session=True)
    try:
        out, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
        timed_out = False
    except subprocess.TimeoutExpired:
        timed_out = True
    # Nothing the run started may outlive it, e.g. a griftd left behind by
    # a runner that failed.
    try:
        os.killpg(proc.pid, signal.SIGKILL)
    except ProcessLookupError:
        pass
    if timed_out:
        proc.communicate()
        log(f"run exceeded {RUN_TIMEOUT_S} s")
        return 1
    lines = out.splitlines()
    if proc.returncode != 0 or not lines:
        log(f"runner exited with {proc.returncode}")
        return 1
    try:
        result = json.loads(lines[-1])
    except ValueError:
        result = None
    if not isinstance(result, dict) or set(result) != {
            "correct", "attempted", "failed", "metrics"}:
        log("runner printed no result line")
        return 1

    host = {"cpu_model": cpu_model(), "cores": os.cpu_count(),
            "build_type": None, "compiler": None, "commit": commit(),
            "source_sha256": source_digest(), "workload": args.workload,
            "seed": args.seed, "seconds": args.seconds,
            "trace": int(args.trace)}
    for line in lines[:-1]:
        if line.startswith('{"summary"'):
            summary = json.loads(line)["summary"]
            host["build_type"] = summary.get("build_type")
            host["compiler"] = summary.get("compiler")
    print(json.dumps({"host": host}))
    for line in lines:
        print(line)
    return 0


if __name__ == "__main__":
    sys.exit(main())
