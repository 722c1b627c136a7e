#!/usr/bin/env python3
"""Paired A/B runs of the repository benchmark (perfbench) for two revisions.

    python3 tools/perf_ab.py --base REV --head REV --workload lattice \\
        --pairs 10 [--seconds 60] [--seeds 1-10] [--cores 1,2] \\
        [--expect-counter-change FIELD ...] [--workdir DIR]

Each revision is checked out with `git worktree` under --workdir and built
by its own perfbench/run.py build() (perfbench's CMake package, Release).
Pair i runs both sides at once with the same seed, each pinned to one of
the two --cores, and the cores are swapped every pair. The tool refuses to
report (exit 1) when a run fails or when a pair's counter_digest differs;
with --expect-counter-change, a batch workload's digest may differ when
the rows differ in some of the named counter fields and in no other. The
report gives, for every end-to-end metric of BENCHMARK.json, each side's
median [q1-q3], the ratio of the medians, the pairs the head won, and
whether the gap between the medians is larger than the base's
interquartile range, for the host-scaled metrics and for their raw values
(perfbench/README.md, "Host-speed normalisation"). It also prints
host_ref_ms and the address of perfbench::referenceLoopMs of each side,
and warns when the addresses differ: a moved reference loop can read
slower by itself, and then only the raw figures count. Every run's output
is kept under --workdir/runs.
"""

import argparse
import json
import os
import re
import statistics
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
WORKLOADS = ("lattice", "typed", "heap", "serve")
# perfbench/runner/Common.h: scale = (ReferenceNominalMs / host.ref_ms) ^
# HostElasticity, applied to set-up, run and compile times.
REFERENCE_NOMINAL_MS = 2.0
HOST_ELASTICITY = 2.0
# The deterministic counter fields of a batch workload's rows.
ROW_COUNTERS = ("steps", "casts", "compositions", "longest_chain", "proxies",
                "ic_hits", "ic_misses", "alloc_bytes", "minor_gcs",
                "major_gcs", "promoted_bytes", "remembered_set_peak",
                "coercion_nodes")
ROW_KEY = ("program", "config", "precision", "mode", "input")
# Symbols whose placement the report shows; the instruction count of the
# VM's dispatch loop tells a code change from a layout artefact.
REFERENCE_LOOP = "perfbench::referenceLoopMs()"
VM_EXECUTE = "grift::VM::execute()"


def log(msg):
    print(f"perf_ab: {msg}", file=sys.stderr, flush=True)


def git(*args, cwd=ROOT):
    return subprocess.run(["git", *args], cwd=cwd, check=True,
                          capture_output=True, text=True).stdout.strip()


def is_scaled(metric):
    return metric in ("setup_s", "compile_ms_geomean") or \
        metric.startswith("run_ms_geomean.")


def parse_seeds(text):
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


class Side:
    """One revision: its worktree, its build and its runs."""

    def __init__(self, name, rev, workdir):
        self.name = name
        self.sha = git("rev-parse", "--verify", rev + "^{commit}")
        self.tree = os.path.join(workdir, self.sha[:12])
        self.build = os.path.join(self.tree, ".bench_build")
        self.runner = os.path.join(self.build, "perfbench_runner")
        self.runs = []  # parsed outputs, one per pair

    def checkout(self):
        if os.path.isdir(self.tree):
            if git("rev-parse", "HEAD", cwd=self.tree) == self.sha:
                return
            raise SystemExit(f"perf_ab: {self.tree} holds another commit")
        git("worktree", "add", "--detach", self.tree, self.sha)

    def compile(self):
        """Builds the runner and griftd with the revision's own
        perfbench/run.py build(), logging to <worktree>.build.log."""
        code = "import sys, run; sys.exit(not run.build('.bench_build'))"
        with open(self.tree + ".build.log", "w") as out:
            if subprocess.run([sys.executable, "-c", code],
                              cwd=os.path.join(self.tree, "perfbench"),
                              stdout=out, stderr=subprocess.STDOUT).returncode:
                raise SystemExit(f"perf_ab: {self.name} build failed; "
                                 f"see {self.tree}.build.log")

    def symbol(self, demangled):
        """(address, size) of the demangled symbol in the runner, or None."""
        out = subprocess.run(["nm", "-C", "-S", self.runner], check=True,
                             capture_output=True, text=True).stdout
        for line in out.splitlines():
            parts = line.split(None, 3)
            if len(parts) == 4 and parts[3] == demangled:
                return int(parts[0], 16), int(parts[1], 16)
        return None

    def instructions(self, demangled):
        sym = self.symbol(demangled)
        if not sym:
            return None
        start, size = sym
        out = subprocess.run(
            ["objdump", "-d", "--no-show-raw-insn",
             f"--start-address={start:#x}", f"--stop-address={start + size:#x}",
             self.runner], check=True, capture_output=True, text=True).stdout
        return sum(1 for line in out.splitlines()
                   if re.match(r"\s+[0-9a-f]+:\s", line))


def launch(side, core, workload, seed, seconds, out_path):
    """Starts one benchmark run pinned to the core, with its standard
    output in out_path and its standard error in out_path.err."""
    env = {k: v for k, v in os.environ.items() if k != "CARGO_TARGET_DIR"}
    cmd = ["taskset", "-c", str(core), sys.executable, "perfbench/run.py",
           "--workload", workload, "--seed", str(seed), "--seconds",
           str(seconds), "--trace", "0"]
    with open(out_path, "w") as out, open(out_path + ".err", "w") as err:
        return subprocess.Popen(cmd, cwd=side.tree, env=env, stdout=out,
                                stderr=err)


def parse_run(text):
    run = {"rows": []}
    for line in text.splitlines():
        record = json.loads(line)
        if "row" in record:
            run["rows"].append(record["row"])
        elif "summary" in record:
            run["summary"] = record["summary"]
        elif "metrics" in record:
            run["result"] = record
    return run


def counter_rows(run):
    return {tuple(row.get(k) for k in ROW_KEY): row for row in run["rows"]}


def digest_difference(base, head, allowed):
    """None when the rows of the two runs differ in some allowed counter
    field and in no other, else why the digests may not differ. The digest
    also covers counters no row prints (max_ret_casts, alloc_objects,
    nodes_compiled, nodes_run), so rows that match in every printed field leave the
    difference unexplained."""
    if not any("casts" in row for row in base["rows"]):
        return "this workload's rows carry no counters to compare"
    b, h = counter_rows(base), counter_rows(head)
    if b.keys() != h.keys():
        return "the two runs measured different cells"
    moved = False
    for key, row in b.items():
        for field in ROW_COUNTERS:
            if row.get(field) != h[key].get(field):
                if field not in allowed:
                    return f"{field} differs in cell {key}"
                moved = True
    if not moved:
        return "the rows agree in every printed counter, so a counter " \
            "they do not print moved"
    return None


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def fmt(x):
    return f"{x:.4g}"


def metric_value(run, name, raw):
    """The run's reported value of the metric, or with raw its value
    before host-speed scaling."""
    value = run["result"]["metrics"][name]["value"]
    if raw:
        ref = run["summary"]["host_ref_ms"]
        value /= (REFERENCE_NOMINAL_MS / ref) ** HOST_ELASTICITY
    return value


def report_table(title, metrics, base_runs, head_runs, raw):
    print(f"\n{title}")
    print(f"  {'metric':<34} {'base median [q1-q3]':<26} "
          f"{'head median [q1-q3]':<26} {'ratio':>7} {'won':>6}  gap>IQR")
    for name, better in metrics:
        if raw and not is_scaled(name):
            continue
        b = [metric_value(r, name, raw) for r in base_runs]
        h = [metric_value(r, name, raw) for r in head_runs]
        bq1, bmed, bq3 = quartiles(b)
        hq1, hmed, hq3 = quartiles(h)
        sign = -1 if better == "lower" else 1
        won = sum(1 for x, y in zip(b, h) if sign * (y - x) > 0)
        ratio = f"{hmed / bmed:.3f}x" if bmed else "-"
        gap = "yes" if abs(hmed - bmed) > bq3 - bq1 else "no"
        print(f"  {name:<34} "
              f"{fmt(bmed) + ' [' + fmt(bq1) + '-' + fmt(bq3) + ']':<26} "
              f"{fmt(hmed) + ' [' + fmt(hq1) + '-' + fmt(hq3) + ']':<26} "
              f"{ratio:>7} {f'{won}/{len(b)}':>6}  {gap}")


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--base", required=True, help="the parent revision")
    ap.add_argument("--head", required=True, help="the changed revision")
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--pairs", required=True, type=int)
    ap.add_argument("--seconds", type=float, default=60)
    ap.add_argument("--seeds", default=None,
                    help="seeds as a list of N and N-M ranges, used in turn "
                    "(default: 1 to --pairs)")
    ap.add_argument("--cores", default="1,2",
                    help="the two cores the sides are pinned to")
    ap.add_argument("--expect-counter-change", nargs="+", default=[],
                    metavar="FIELD", choices=ROW_COUNTERS,
                    help="row counter fields the change may move")
    ap.add_argument("--workdir", default=os.path.join(ROOT, ".perf_ab"),
                    help="worktrees, builds and run outputs")
    args = ap.parse_args()
    cores = args.cores.split(",")
    if len(cores) != 2 or args.pairs < 1:
        ap.error("--cores takes two cores and --pairs at least 1")
    seeds = parse_seeds(args.seeds) if args.seeds else \
        list(range(1, args.pairs + 1))
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        metrics = [(m["name"], m["better"])
                   for m in json.load(f)["end_to_end"]]

    workdir = os.path.abspath(args.workdir)
    runs_dir = os.path.join(workdir, "runs")
    os.makedirs(runs_dir, exist_ok=True)
    sides = [Side("base", args.base, workdir), Side("head", args.head, workdir)]
    for side in sides:
        log(f"building {side.name} {side.sha[:12]} in {side.tree}")
        side.checkout()
        side.compile()

    print(f"perf_ab: {args.workload}, {args.pairs} pairs of {args.seconds:g} s,"
          f" seeds {','.join(map(str, seeds))}, cores {cores[0]}/{cores[1]}"
          " swapped every pair")
    for side in sides:
        print(f"  {side.name} {side.sha}")
    refused = False
    for i in range(args.pairs):
        seed = seeds[i % len(seeds)]
        placed = sides if i % 2 == 0 else sides[::-1]
        paths = [os.path.join(runs_dir, f"{args.workload}-pair{i + 1}-seed"
                              f"{seed}-{side.name}.jsonl") for side in placed]
        procs = [launch(side, core, args.workload, seed, args.seconds, path)
                 for side, core, path in zip(placed, cores, paths)]
        for side, core, proc, path in zip(placed, cores, procs, paths):
            if proc.wait() != 0:
                raise SystemExit(f"perf_ab: {side.name} run of pair {i + 1} "
                                 f"failed on core {core}; see {path}.err")
            with open(path) as f:
                side.runs.append(parse_run(f.read()))
        base, head = sides[0].runs[-1], sides[1].runs[-1]
        digests = [r["summary"]["counter_digest"] for r in (base, head)]
        status = "digest equal"
        if digests[0] != digests[1]:
            why = digest_difference(base, head, args.expect_counter_change) \
                if args.expect_counter_change else "no --expect-counter-change"
            status = f"DIGEST {digests[0]} != {digests[1]}" + \
                (f" ({why})" if why else " (only expected fields moved)")
            refused = refused or why is not None
        print(f"pair {i + 1:>2} seed {seed}: base on core "
              f"{cores[placed.index(sides[0])]}, host_ref_ms "
              f"{fmt(base['summary']['host_ref_ms'])} base / "
              f"{fmt(head['summary']['host_ref_ms'])} head, failed "
              f"{base['result']['failed']}/{base['result']['attempted']} base "
              f"{head['result']['failed']}/{head['result']['attempted']} head,"
              f" {status}", flush=True)
    if refused:
        print("perf_ab: counters differ; no report")
        return 1

    report_table("scaled (as the benchmark reports them)", metrics,
                 sides[0].runs, sides[1].runs, raw=False)
    report_table("raw (scaled value / (2.0 / host_ref_ms)^2)", metrics,
                 sides[0].runs, sides[1].runs, raw=True)

    print("\nhost and layout")
    for side in sides:
        q1, med, q3 = quartiles([r["summary"]["host_ref_ms"]
                                 for r in side.runs])
        loop = side.symbol(REFERENCE_LOOP)
        insns = side.instructions(VM_EXECUTE)
        print(f"  {side.name}: host_ref_ms {fmt(med)} [{fmt(q1)}-{fmt(q3)}], "
              f"{REFERENCE_LOOP} at {hex(loop[0]) if loop else '?'}, "
              f"{VM_EXECUTE} {insns if insns is not None else '?'} "
              "instructions")
    loops = [side.symbol(REFERENCE_LOOP) for side in sides]
    if not all(loops) or loops[0][0] != loops[1][0]:
        print("  WARNING: the reference loop is at another address in the two "
              "builds; only the raw figures count")
    return 0


if __name__ == "__main__":
    sys.exit(main())
