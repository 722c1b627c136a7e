#!/usr/bin/env python3
"""Compare benchjson documents (schema grift-bench-v1), or summarize one.

Usage: bench_compare.py BASELINE.json [CURRENT.json] [--tolerance 0.5]
                        [--slo NAME:FIELD<=VALUE ...]

With two files, exit status is non-zero when

  * a benchmark's median_ns regressed by more than the tolerance
    (default 50% — generous because CI machines are noisy; the point is
    to catch the order-of-magnitude regressions that dropping an inline
    cache or un-threading the dispatch loop would cause),
  * a deterministic counter (casts, longest_chain, compositions,
    cache_hits, cache_misses, alloc_bytes, alloc_objects, alloc_by_class,
    collections) changed at all — counters do not depend on machine
    speed, so any drift means the cast semantics or the allocation
    behaviour changed and the baseline must be regenerated deliberately,
  * the CURRENT file violates a paper shape invariant (see below), or
  * an --slo gate fails (see below).

GC pause times (gc_pause_total_ns / gc_pause_max_ns) and the griftload
service-level fields (p50_ns, p99_ns, p999_ns, shed_total, shed_rate_pct,
quota_rejects, watchdog_kills, deadline_expired, slow_client_drops,
requests, ok, rejected, bad_requests, lost) are run-dependent: they are
reported alongside the medians but never fail a baseline comparison.
Counters absent from one side (older baselines) are skipped rather than
treated as drift.

With one file, the figure numbers the paper quotes are derived from its
rows and printed — the Figure 4 rows, the Figure 7/19-20 "coercions are
Ax to Bx faster than type-based casts" ranges, the Figure 8 slowdown
CDFs against fig8/<b>/dynamic, Figure 9's vs-static ratios, and the
Section 5 ablations — then the shape invariants and any --slo gates are
applied to the same rows.

SLO gates (--slo, repeatable) enforce absolute bounds on the CURRENT
rows instead of relative drift. The spec is NAME:FIELD OP VALUE where
OP is <= or >= and NAME is a substring match against the row name:

    bench_compare.py --tolerance 0.5 base.json cur.json \
        --slo 'load/soak:p999_ns<=2000000000' \
        --slo 'load/soak:shed_rate_pct<=25' \
        --slo 'load/soak:ok>=100'

A gate may also bound a field *relative to the baseline's value for the
same row*: NAME:FIELD<=K*BASELINE multiplies the baseline row's FIELD
by K to get the bound. This is how CI phrases "the generational
collector's worst pause must stay within 10x of the old baseline's"
without hard-coding machine-dependent nanosecond values:

    bench_compare.py base.json cur.json \
        --slo 'gc/ray/gen:gc_pause_max_ns<=10*BASELINE'

Relative gates need a baseline row carrying the field, so they are
rejected in single-file mode. In single-file mode the gates apply to
the one file's rows:

    bench_compare.py soak.json --slo 'load/soak:lost<=0'

A gate whose NAME matches no row is an error — a silently-skipped SLO
is worse than no SLO.

Shape invariants checked on CURRENT (paper Section 4.2 / Figure 4):

  * every coercions and coercion-passing row: longest proxy chain at
    most 1 — space efficiency means composition keeps chains flat;
  * fig4/evenodd coercions: longest chain exactly 1, and inline-cache
    hit rate >= 90% — the per-site caches are doing their job on the
    monomorphic hot path;
  * fig4/evenodd/20000 type-based: longest chain is Theta(n) (>= 1000)
    — the baseline semantics really does build the bad chains;
  * fig4/quicksort*/<n> type-based: longest chain >= n — one reference
    proxy per recursive call.

Speedups and peak-heap changes are reported but never fail the run.
"""

import argparse
import json
import math
import re
import sys

COUNTERS = ("casts", "longest_chain", "max_ret_casts", "compositions",
            "cache_hits", "cache_misses", "alloc_bytes", "alloc_objects",
            "alloc_by_class", "collections", "gc_minor_pauses",
            "gc_promoted_bytes", "remembered_set_peak")

# Run-dependent observability: reported, never enforced by the baseline
# diff (use --slo for absolute bounds on these).
REPORTED = ("gc_pause_total_ns", "gc_pause_max_ns",
            "gc_minor_pause_max_ns", "gc_pause_ratio_pct",
            "p50_ns", "p99_ns", "p999_ns",
            "shed_total", "shed_rate_pct", "quota_rejects",
            "watchdog_kills", "deadline_expired", "slow_client_drops",
            "requests", "ok", "failed", "rejected", "bad_requests",
            "lost", "wall_ns",
            "cold_compile_ns", "warm_load_ns", "warm_over_cold_pct",
            "store_hits", "store_misses", "store_corrupt", "store_evicted")

SLO_RE = re.compile(r"^(?P<name>[^:]+):(?P<field>[A-Za-z0-9_]+)"
                    r"(?P<op><=|>=)(?P<value>-?[0-9.]+)"
                    r"(?P<rel>\*BASELINE)?$")


def load(path):
    with open(path) as f:
        doc = json.load(f)
    if doc.get("schema") != "grift-bench-v1":
        sys.exit(f"{path}: unexpected schema {doc.get('schema')!r}")
    return {(r["name"], r["mode"]): r for r in doc["results"]}


def parse_slo(spec):
    m = SLO_RE.match(spec)
    if not m:
        sys.exit(f"bad --slo spec {spec!r}; expected NAME:FIELD<=VALUE, "
                 "NAME:FIELD>=VALUE, or NAME:FIELD<=K*BASELINE")
    return (m["name"], m["field"], m["op"], float(m["value"]),
            m["rel"] is not None)


def check_slos(current, slos, baseline=None):
    """Bounds on CURRENT rows; substring match on the name. Relative
    gates (K*BASELINE) scale the baseline row's value of the same field
    to get the bound."""
    errors = []
    for name_pat, field, op, factor, relative in slos:
        matched = False
        for (name, mode), row in sorted(current.items()):
            if name_pat not in name:
                continue
            matched = True
            if field not in row:
                errors.append(f"{name} [{mode}]: SLO field {field!r} "
                              "missing from the row")
                continue
            val = row[field]
            if relative:
                ref = (baseline or {}).get((name, mode), {}).get(field)
                if (not isinstance(ref, (int, float))
                        or isinstance(ref, bool) or math.isnan(ref)):
                    errors.append(
                        f"{name} [{mode}]: relative SLO on {field!r} "
                        f"needs a finite baseline value (got {ref!r})")
                    continue
                bound = factor * ref
            else:
                bound = factor
            # A gate over a null/NaN/non-numeric field must fail, not
            # silently pass: `None <= bound` raising (or NaN comparing
            # false both ways) means the harness stopped producing the
            # number the SLO exists to watch. bool is excluded — JSON
            # true/false in a gated field is a schema bug, not a metric.
            if (not isinstance(val, (int, float)) or isinstance(val, bool)
                    or math.isnan(val)):
                errors.append(f"{name} [{mode}]: SLO field {field!r} is "
                              f"not a finite number (got {val!r})")
                continue
            ok = val <= bound if op == "<=" else val >= bound
            verdict = "ok" if ok else "VIOLATED"
            print(f"SLO {name} [{mode}]: {field}={val} {op} {bound:g}  "
                  f"{verdict}")
            if not ok:
                errors.append(f"{name} [{mode}]: SLO {field}={val} "
                              f"violates {field}{op}{bound:g}")
        if not matched:
            errors.append(f"--slo {name_pat!r}: no row name contains "
                          f"{name_pat!r} (gate never applied)")
    return errors


def check_shapes(current):
    """Paper shape invariants on the CURRENT results."""
    errors = []
    for (name, mode), row in sorted(current.items()):
        chain = row.get("longest_chain")
        if chain is None:
            continue
        if mode in ("coercions", "coercion-passing") and chain > 1:
            errors.append(
                f"{name} [{mode}]: longest_chain = {chain}, expected <= 1 "
                "(coercions must keep proxy chains flat)")
        if name.startswith("fig4/evenodd") and mode == "coercions":
            if chain != 1:
                errors.append(
                    f"{name} [{mode}]: longest_chain = {chain}"
                    ", expected 1 (coercions must keep proxy chains flat)")
            probes = row["cache_hits"] + row["cache_misses"]
            if probes:
                rate = row["cache_hits"] / probes
                if rate < 0.9:
                    errors.append(
                        f"{name} [{mode}]: inline-cache hit rate "
                        f"{rate:.2%} < 90%")
        if name.startswith("fig4/quicksort") and mode == "type-based":
            n = int(name.rsplit("/", 1)[1])
            if chain < n:
                errors.append(
                    f"{name} [{mode}]: longest_chain = {chain}, expected "
                    f">= n = {n} (a reference proxy per recursive call)")
    tb = current.get(("fig4/evenodd/20000", "type-based"))
    if tb is not None and tb["longest_chain"] < 1000:
        errors.append(
            f"fig4/evenodd/20000 [type-based]: longest_chain = "
            f"{tb['longest_chain']}, expected Theta(n) chain (>= 1000)")
    return errors


def ms(row):
    return row["median_ns"] / 1e6


def by_name(rows, prefix):
    """{name: {mode: row}} for the rows whose name starts with prefix, in
    document order (the driver's suite order)."""
    out = {}
    for (name, mode), row in rows.items():
        if name.startswith(prefix):
            out.setdefault(name, {})[mode] = row
    return out


def groups(rows, prefix):
    """{benchmark: {leaf: {mode: row}}} for rows named prefix<b>/<leaf>."""
    out = {}
    for name, modes in by_name(rows, prefix).items():
        bench, _, leaf = name[len(prefix):].partition("/")
        out.setdefault(bench, {})[leaf] = modes
    return out


def print_rows(rows, prefix, title, fields):
    table = by_name(rows, prefix)
    if table:
        print(f"\n== {title} ({prefix})")
    for name, modes in table.items():
        for mode, r in modes.items():
            extra = " ".join(f"{f}={json.dumps(r[f])}" for f in fields
                             if f in r)
            print(f"  {name:28s} {mode:16s} {ms(r):10.3f} ms  {extra}")


def print_sweeps(rows, prefix, title):
    """Figures 7 and 19-20: reference rows, then the Section 4.2 claim
    "coercions are Ax to Bx faster than type-based casts" over the
    sampled configurations (rows carrying a precision)."""
    table = groups(rows, prefix)
    if table:
        print(f"\n== {title} ({prefix})")
    for bench, leaves in table.items():
        refs = [f"{leaf} {mode} {ms(r):.3f} ms"
                for leaf in ("static", "dynamic")
                for mode, r in leaves.get(leaf, {}).items()]
        if refs:
            print(f"  {bench}: " + ", ".join(refs))
        ratios, chains = [], {"coercions": 0, "type-based": 0}
        for leaf, modes in leaves.items():
            co, tb = modes.get("coercions"), modes.get("type-based")
            if not co or not tb or "precision" not in co:
                continue
            print(f"    {leaf:10s} {co['precision']:7.1%} typed  "
                  f"coercions {ms(co):9.3f} ms chain {co['longest_chain']:5d}"
                  f"  type-based {ms(tb):9.3f} ms "
                  f"chain {tb['longest_chain']:5d}")
            if co["median_ns"] > 0:
                ratios.append(tb["median_ns"] / co["median_ns"])
            for mode in chains:
                chains[mode] = max(chains[mode], modes[mode]["longest_chain"])
        if ratios:
            print(f"  {bench} summary: coercions are {min(ratios):.2f}x to "
                  f"{max(ratios):.2f}x faster than type-based casts "
                  f"({len(ratios)} configurations; longest chain "
                  f"{chains['coercions']} vs {chains['type-based']})")


def print_lattice(rows):
    """Figure 8: per benchmark, granularity and mode, how many sampled
    configurations run within each slowdown of fig8/<b>/dynamic under
    coercions (the figure's cumulative distribution), and the worst."""
    table = groups(rows, "fig8/")
    if table:
        print("\n== Figure 8: slowdown vs fig8/<b>/dynamic [coercions] "
              "(fig8/)")
    for bench, leaves in table.items():
        base = leaves.get("dynamic", {}).get("coercions")
        if not base or base["median_ns"] <= 0:
            continue
        print(f"  {bench} (baseline {ms(base):.3f} ms)")
        for gran in ("coarse", "fine"):
            for mode in ("coercions", "type-based"):
                slow = sorted(m[mode]["median_ns"] / base["median_ns"]
                              for leaf, m in leaves.items()
                              if leaf.rstrip("0123456789") == gran
                              and mode in m)
                if not slow:
                    continue
                cdf = "  ".join(f"<={t}x:{sum(x <= t for x in slow):3d}"
                                for t in (1, 2, 3, 5, 10, 20, 100))
                print(f"    {gran:6s} {mode:10s} n={len(slow):<3d} {cdf}  "
                      f"worst {slow[-1]:.2f}x")


def print_vs_static(rows, prefix, title, static_prefix):
    """Figure 9 and the monotonic ablation: each mode's speedup over
    Static Grift on the typed program, static time / mode time."""
    table = by_name(rows, prefix)
    if table:
        print(f"\n== {title} ({prefix})")
    spans = {}
    for name, modes in table.items():
        bench = name[len(prefix):]
        static = rows.get((static_prefix + bench, "static"))
        cells = []
        for mode, r in modes.items():
            cell = f"{mode} {ms(r):.3f} ms"
            if static and mode != "static" and r["median_ns"] > 0:
                vs = static["median_ns"] / r["median_ns"]
                spans.setdefault(mode, []).append(vs)
                cell += f" ({vs:.2f}x)"
            cells.append(cell)
        print(f"  {bench:14s} " + ", ".join(cells))
    for mode, vs in spans.items():
        print(f"  {mode} vs static: {min(vs):.2f}x to {max(vs):.2f}x")


def print_optimizer(rows):
    """Section 5: the runtime casts the core-IR optimizer removes from
    erased programs, and its speedup, plain time / optimized time."""
    table = groups(rows, "ablation/optimizer/")
    if table:
        print("\n== Section 5: core-IR optimizer on erased programs "
              "(ablation/optimizer/)")
    spans = []
    for bench, leaves in table.items():
        plain = leaves.get("plain", {}).get("coercions")
        opt = leaves.get("optimized", {}).get("coercions")
        if not plain or not opt or opt["median_ns"] <= 0:
            continue
        vs = plain["median_ns"] / opt["median_ns"]
        spans.append(vs)
        removed = plain["casts"] - opt["casts"]
        print(f"  {bench:14s} casts {plain['casts']} -> {opt['casts']} "
              f"(-{removed / max(plain['casts'], 1):.1%})  "
              f"{ms(plain):.3f} -> {ms(opt):.3f} ms ({vs:.2f}x)")
    if spans:
        print(f"  optimized vs plain: {min(spans):.2f}x to {max(spans):.2f}x")


def summarize(rows):
    """The figure numbers EXPERIMENTS.md quotes, from one document."""
    print_rows(rows, "fig4/", "Figure 4: runtime, casts and chain vs n",
               ("casts", "longest_chain", "max_ret_casts"))
    print_sweeps(rows, "fig7/", "Figure 7: partially typed configurations")
    print_sweeps(rows, "fig19/",
                 "Figures 19-20: partially typed configurations")
    print_lattice(rows)
    print_vs_static(rows, "fig9a/", "Figure 9a: typed programs", "fig9a/")
    print_vs_static(rows, "fig9b/", "Figure 9b: erased programs", "fig9a/")
    print_vs_static(rows, "ablation/monotonic/",
                    "Section 5: monotonic references on typed programs",
                    "ablation/monotonic/")
    print_optimizer(rows)
    print_rows(rows, "micro/", "Microbenchmarks",
               ("casts", "longest_chain", "peak_heap"))
    print_rows(rows, "gc/", "GC pauses",
               ("gc_pause_max_ns", "gc_minor_pauses", "gc_pause_ratio_pct"))
    print_rows(rows, "store/", "Program store: warm load vs cold compile",
               ("cold_compile_ns", "warm_load_ns", "warm_over_cold_pct"))


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("baseline")
    ap.add_argument("current", nargs="?",
                    help="omit to summarize BASELINE and apply the shape "
                         "invariants and --slo gates to it alone")
    ap.add_argument("--tolerance", type=float, default=0.5,
                    help="allowed fractional median_ns regression "
                         "(default 0.5 = 50%%)")
    ap.add_argument("--slo", action="append", default=[],
                    metavar="NAME:FIELD<=VALUE",
                    help="absolute bound on a CURRENT row field; "
                         "NAME is a substring of the row name; "
                         "repeatable")
    args = ap.parse_args()

    slos = [parse_slo(s) for s in args.slo]

    errors = []
    base = None
    if args.current is None:
        if any(s[4] for s in slos):
            ap.error("relative (K*BASELINE) SLOs need a baseline and a "
                     "current file")
        cur = load(args.baseline)
        summarize(cur)
    else:
        base = load(args.baseline)
        cur = load(args.current)
        for key in sorted(base):
            name, mode = key
            tag = f"{name} [{mode}]"
            if key not in cur:
                errors.append(f"{tag}: missing from {args.current}")
                continue
            b, c = base[key], cur[key]
            for counter in COUNTERS:
                if counter not in b or counter not in c:
                    continue  # older schema on one side: not drift
                if b[counter] != c[counter]:
                    errors.append(f"{tag}: {counter} changed "
                                  f"{b[counter]} -> {c[counter]} "
                                  "(deterministic counter; regenerate the "
                                  "baseline if this is intentional)")
            for field in REPORTED:
                if field in b and field in c and b[field] != c[field]:
                    print(f"{tag}: {field} {b[field]} -> {c[field]} "
                          "(run-dependent; informational only)")
            ratio = c["median_ns"] / b["median_ns"] if b["median_ns"] else 1.0
            note = ""
            if ratio > 1.0 + args.tolerance:
                errors.append(
                    f"{tag}: median {b['median_ns']/1e6:.3f} ms -> "
                    f"{c['median_ns']/1e6:.3f} ms "
                    f"({ratio:.2f}x, tolerance {1 + args.tolerance:.2f}x)")
                note = "  REGRESSION"
            print(f"{tag:46s} {b['median_ns']/1e6:9.3f} -> "
                  f"{c['median_ns']/1e6:9.3f} ms  ({ratio:5.2f}x){note}")
        for key in sorted(cur):
            if key not in base:
                print(f"{key[0]} [{key[1]}]: new benchmark (no baseline)")

    errors += check_shapes(cur)
    errors += check_slos(cur, slos, base)

    if errors:
        print(f"\n{len(errors)} problem(s):", file=sys.stderr)
        for e in errors:
            print(f"  * {e}", file=sys.stderr)
        return 1
    print("\nOK: within tolerance, counters stable, gates hold.")
    return 0


if __name__ == "__main__":
    sys.exit(main())
