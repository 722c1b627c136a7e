//===----------------------------------------------------------------------===//
///
/// \file
/// perfbench_runner — the measuring half of the repository benchmark
/// (perfbench/run.py builds it and invokes it).
///
///   perfbench_runner --workload NAME --seed N --seconds S --trace 0|1
///                    --programs DIR --griftd PATH --workdir DIR
///
/// Prints one `{"row": ...}` line per cell (or per request class), a
/// `{"summary": ...}` line with the error rate and the host's reference
/// loop time (Common.h), and as its last line the
/// result object: {"correct", "attempted", "failed", "metrics"}. The
/// metrics are the end-to-end set of BENCHMARK.json, or with --trace 1
/// the per-layer set.
///
//===----------------------------------------------------------------------===//
#include "Common.h"

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <utility>

using namespace perfbench;

namespace {

/// The end-to-end metrics, in BENCHMARK.json order.
const std::pair<const char *, const char *> EndToEnd[] = {
    {"setup_s", "s"},
    {"run_ms_geomean.static", "ms"},
    {"run_ms_geomean.coercions", "ms"},
    {"run_ms_geomean.type-based", "ms"},
    {"run_ms_geomean.monotonic", "ms"},
    {"run_ms_geomean.coercion-passing", "ms"},
    {"slowdown_max.coercions", "x"},
    {"compile_ms_geomean", "ms"},
    {"peak_rss_mb", "MiB"},
};

/// The per-layer metrics of the traced run, grouped by layer. A metric a
/// workload does not reach reads 0. The first three are the service-level
/// figures the end-to-end set leaves out because their run-to-run spread
/// on a shared 4-core host exceeds any bound the benchmark may set.
const std::pair<const char *, const char *> PerLayer[] = {
    {"latency_p50_ms", "ms"},
    {"latency_p99_ms", "ms"},
    {"throughput_rps", "1/s"},
    {"frontend.parse_ms", "ms"},
    {"frontend.check_ms", "ms"},
    {"frontend.kb_per_s", "KiB/s"},
    {"vm.codegen_ms", "ms"},
    {"vm.code_size", "count"},
    {"vm.cast_sites", "count"},
    {"coercions.nodes", "count"},
    {"vm.run_ms", "ms"},
    {"vm.steps", "count"},
    {"vm.ns_per_step", "ns"},
    {"casts.applied", "count"},
    {"casts.compositions", "count"},
    {"casts.longest_chain", "count"},
    {"casts.max_ret_casts", "count"},
    {"casts.proxies", "count"},
    {"casts.ic_hits", "count"},
    {"casts.ic_misses", "count"},
    {"casts.ic_hit_rate", "fraction"},
    {"heap.alloc_mb", "MiB"},
    {"heap.alloc_objects", "count"},
    {"heap.minor_gcs", "count"},
    {"heap.major_gcs", "count"},
    {"heap.gc_pause_ms", "ms"},
    {"heap.gc_pause_max_ms", "ms"},
    {"heap.gc_share", "fraction"},
    {"heap.promoted_mb", "MiB"},
    {"heap.survival_rate", "fraction"},
    {"heap.remembered_set_peak", "count"},
    {"heap.peak_mb", "MiB"},
    {"store.put_ms", "ms"},
    {"store.load_ms", "ms"},
    {"store.image_kb", "KiB"},
    {"store.hit_rate", "fraction"},
    {"store.corrupt", "count"},
    {"service.latency_ms.hot", "ms"},
    {"service.latency_ms.warm", "ms"},
    {"service.latency_ms.fresh", "ms"},
    {"service.run_ms", "ms"},
    {"service.overhead_ms", "ms"},
    {"service.cache_hit_rate", "fraction"},
    {"service.shed", "count"},
    {"service.peak_queue_depth", "count"},
    {"service.peak_inflight", "count"},
    {"client.lateness_ms_max", "ms"},
    {"lattice.slowdown_max_sampled.coercions", "x"},
    {"counters.unstable_cells", "count"},
    {"self_ms.compile", "ms"},
    {"self_ms.parse", "ms"},
    {"self_ms.check", "ms"},
    {"self_ms.codegen", "ms"},
    {"self_ms.adopt", "ms"},
    {"self_ms.run", "ms"},
    {"self_ms.store.put", "ms"},
    {"self_ms.store.load", "ms"},
    {"self_ms.request", "ms"},
    {"trace.overhead_pct", "%"},
    {"host.ref_ms", "ms"},
};

[[noreturn]] void usage() {
  std::fprintf(stderr,
               "usage: perfbench_runner --workload NAME --seed N --seconds S "
               "--trace 0|1 --programs DIR --griftd PATH --workdir DIR\n");
  std::exit(2);
}

} // namespace

int main(int Argc, char **Argv) {
  Options Opts;
  for (int I = 1; I < Argc; ++I) {
    std::string Arg = Argv[I];
    auto Next = [&]() -> std::string {
      if (I + 1 >= Argc)
        usage();
      return Argv[++I];
    };
    if (Arg == "--workload")
      Opts.Workload = Next();
    else if (Arg == "--seed")
      Opts.Seed = std::strtoull(Next().c_str(), nullptr, 10);
    else if (Arg == "--seconds")
      Opts.Seconds = std::strtod(Next().c_str(), nullptr);
    else if (Arg == "--trace")
      Opts.Trace = Next() == "1";
    else if (Arg == "--programs")
      Opts.ProgramsDir = Next();
    else if (Arg == "--griftd")
      Opts.Griftd = Next();
    else if (Arg == "--workdir")
      Opts.WorkDir = Next();
    else
      usage();
  }
  if (Opts.Workload.empty() || Opts.WorkDir.empty() || Opts.Seconds <= 0)
    usage();

  Outcome Out = Opts.Workload == "serve" ? runServeWorkload(Opts)
                                         : runBatchWorkload(Opts);
  if (Out.Attempted == 0)
    Out.Attempted = 1, Out.Failed = 1; // nothing ran: never a pass

  std::printf("{\"summary\": {\"workload\": %s, \"seed\": %llu, "
              "\"build_type\": %s, \"compiler\": %s, \"counter_digest\": "
              "\"%016llx\", \"error_rate\": {\"value\": %s, \"unit\": "
              "\"fraction\"}, \"host_ref_ms\": %s}}\n",
              jsonString(Opts.Workload).c_str(),
              static_cast<unsigned long long>(Opts.Seed),
              jsonString(PERFBENCH_BUILD_TYPE).c_str(),
              jsonString(PERFBENCH_COMPILER).c_str(),
              static_cast<unsigned long long>(Out.CounterDigest),
              jsonNumber(static_cast<double>(Out.Failed) /
                         static_cast<double>(Out.Attempted))
                  .c_str(),
              jsonNumber(Out.Metrics.get("host.ref_ms")).c_str());

  Report Selected;
  if (Opts.Trace)
    for (const auto &[Name, Unit] : PerLayer)
      Selected.add(Name, Out.Metrics.get(Name), Unit);
  else
    for (const auto &[Name, Unit] : EndToEnd)
      Selected.add(Name, Out.Metrics.get(Name), Unit);

  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": %s}\n",
              Out.Failed == 0 ? "true" : "false",
              static_cast<unsigned long long>(Out.Attempted),
              static_cast<unsigned long long>(Out.Failed),
              Selected.json().c_str());
  std::fflush(stdout);
  return 0;
}
