//===----------------------------------------------------------------------===//
///
/// \file
/// griftd — job executor over the hardened execution service, in two
/// front ends sharing one job schema (service/Protocol.h):
///
/// Batch:   griftd [options] (manifest.jsonl | -)
///
/// Reads one JSON job object per input line, streams the jobs across an
/// EnginePool, and emits one structured JSON result line per job in
/// manifest order. Hostile input is a per-job outcome, never a crash: a
/// malformed, oversized, or unknown-keyed line yields a "bad-request"
/// record and the batch keeps going.
///
/// Serve:   griftd --serve [--socket=PATH | --port=N] [options]
///
/// Runs the multi-tenant server (service/Server.h): length-prefixed
/// frames over a Unix or loopback TCP socket, per-tenant quotas, global
/// admission control, deadline propagation, and drain-on-SIGTERM. On
/// startup one JSON line announcing the bound address is printed to
/// stdout; on drain the final stats object follows, and the exit status
/// is 0.
///
/// Shared options:
///   --threads=N              worker threads (default: hardware)
///   --no-cache               disable the per-engine compile cache
///   --gc-torture=N           FaultInjector: force GC every Nth alloc
///   --gc-minor-torture=N     FaultInjector: force a minor (nursery)
///                            GC every Nth alloc and every Nth cast
///   --fail-alloc=N           FaultInjector: fail every Nth alloc
///   --cache-dir=DIR          persistent compiled-program store (warm
///                            starts; store_* counters in stats)
///   --cache-max-bytes=N      store eviction cap (default 256 MiB)
///   --file-short-write=N     store faults: truncate the Nth entry write
///   --file-fail-fsync=N      store faults: fail the Nth fsync
///   --file-flip-bit=N        store faults: flip one bit of the Nth read
///   --file-flip-bit-index=N  which bit the flip targets (default 0)
///
/// Batch options:
///   --summary                append outcome-class counts after results
///   --summary-only           print only the summary (golden-file tests)
///   --max-line-bytes=N       per-line input bound (default 1 MiB)
///
/// Serve options:
///   --socket=PATH            Unix listener (precedence over --port)
///   --port=N                 loopback TCP listener (0 = ephemeral)
///   --queue-depth=N          ExecService queue bound (default 64)
///   --max-connections=N      concurrent connections (default 64)
///   --max-inflight=N         global admitted-request bound (default 256)
///   --max-inflight-bytes=N   global admitted-payload bound (default 64 MiB)
///   --max-request-bytes=N    per-request payload bound (default 1 MiB)
///   --write-timeout-ms=N     slow-client write bound (default 5000)
///   --default-deadline-ms=N  deadline for requests without one (30000)
///   --max-deadline-ms=N      ceiling on requested deadlines (300000)
///   --tenant-rps=F           per-tenant request rate (0 = unlimited)
///   --tenant-burst=F         request bucket depth (default 8)
///   --tenant-fuel-per-sec=F  per-tenant fuel budget (0 = unlimited)
///   --tenant-max-inflight=N  per-tenant concurrent requests
///
/// Batch exit status is the worst outcome across jobs: 0 all ok, 1
/// program error (blame/trap/compile error/bad request), 3 resource
/// exhaustion or an overload shed, 4 a run cancelled at its deadline_ms.
///
//===----------------------------------------------------------------------===//
#include "service/Protocol.h"
#include "service/Server.h"

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <deque>
#include <fstream>
#include <iostream>
#include <map>
#include <string>

#include <csignal>
#include <unistd.h>

using namespace grift;
using namespace grift::service;
using namespace grift::service::protocol;

namespace {

/// The one-word outcome class used for the summary and the exit status.
std::string outcomeClass(const JobResult &R) {
  switch (R.Status) {
  case JobStatus::Done:
    return "ok";
  case JobStatus::CompileError:
    return "compile-error";
  case JobStatus::Rejected:
    return "rejected";
  case JobStatus::Failed:
    return errorKindName(R.Kind);
  }
  return "?";
}

int severity(const JobResult &R) {
  if (R.Status == JobStatus::Done)
    return 0;
  if (R.Status == JobStatus::CompileError)
    return 1;
  if (R.Status == JobStatus::Rejected)
    return 3;
  if (R.Kind == ErrorKind::Cancelled)
    return 4;
  return R.Kind == ErrorKind::Blame || R.Kind == ErrorKind::Trap ? 1 : 3;
}

void printUsage() {
  std::fprintf(stderr,
               "usage: griftd [options] (manifest.jsonl | -)\n"
               "       griftd --serve [--socket=PATH | --port=N] [options]\n"
               "run 'griftd --help' for the full option list\n");
}

void printHelp() {
  std::fprintf(
      stderr,
      "griftd — batch and server front ends over the execution service\n"
      "  batch: griftd [options] (manifest.jsonl | -)\n"
      "  serve: griftd --serve [--socket=PATH | --port=N] [options]\n"
      "shared: --threads=N --no-cache --gc-torture=N\n"
      "        --gc-minor-torture=N --fail-alloc=N\n"
      "        --cache-dir=DIR --cache-max-bytes=N (persistent compiled-\n"
      "        program store; store_* counters appear in stats)\n"
      "        --file-short-write=N --file-fail-fsync=N --file-flip-bit=N\n"
      "        --file-flip-bit-index=N (store fault injection, Nth op)\n"
      "batch:  --summary --summary-only --max-line-bytes=N\n"
      "serve:  --queue-depth=N --max-connections=N --max-inflight=N\n"
      "        --max-inflight-bytes=N --max-request-bytes=N\n"
      "        --write-timeout-ms=N --default-deadline-ms=N "
      "--max-deadline-ms=N\n"
      "        --tenant-rps=F --tenant-burst=F --tenant-fuel-per-sec=F\n"
      "        --tenant-max-inflight=N\n");
}

bool parseUint(const std::string &Arg, const char *Prefix, uint64_t &Out) {
  size_t Len = std::strlen(Prefix);
  if (Arg.compare(0, Len, Prefix) != 0)
    return false;
  char *End = nullptr;
  Out = std::strtoull(Arg.c_str() + Len, &End, 10);
  return End != Arg.c_str() + Len && *End == '\0';
}

bool parseDouble(const std::string &Arg, const char *Prefix, double &Out) {
  size_t Len = std::strlen(Prefix);
  if (Arg.compare(0, Len, Prefix) != 0)
    return false;
  char *End = nullptr;
  Out = std::strtod(Arg.c_str() + Len, &End);
  return End != Arg.c_str() + Len && *End == '\0';
}

//===----------------------------------------------------------------------===//
// Serve mode: SIGTERM/SIGINT drain via self-pipe.
//===----------------------------------------------------------------------===//

int SignalPipe[2] = {-1, -1};

void onTermSignal(int) {
  char B = 1;
  [[maybe_unused]] ssize_t N = ::write(SignalPipe[1], &B, 1);
}

int runServe(ServerConfig Config) {
  if (::pipe(SignalPipe) != 0) {
    std::perror("griftd: pipe");
    return 2;
  }
  struct sigaction SA{};
  SA.sa_handler = onTermSignal;
  ::sigaction(SIGTERM, &SA, nullptr);
  ::sigaction(SIGINT, &SA, nullptr);

  Server Srv(Config);
  std::string Error;
  if (!Srv.start(Error)) {
    std::fprintf(stderr, "griftd: %s\n", Error.c_str());
    return 2;
  }
  if (!Config.UnixSocketPath.empty())
    std::printf("{\"status\":\"serving\",\"socket\":\"%s\"}\n",
                Config.UnixSocketPath.c_str());
  else
    std::printf("{\"status\":\"serving\",\"port\":%u}\n",
                static_cast<unsigned>(Srv.tcpPort()));
  std::fflush(stdout);

  // Park until SIGTERM/SIGINT; the self-pipe makes the wait signal-safe.
  char B;
  while (::read(SignalPipe[0], &B, 1) < 0 && errno == EINTR)
    ;

  Srv.beginDrain();
  Srv.waitDrained();
  std::printf("%s\n", Srv.renderStats().c_str());
  return 0;
}

//===----------------------------------------------------------------------===//
// Batch mode: streaming manifest execution with hostile-input hardening.
//===----------------------------------------------------------------------===//

int runBatch(ServiceConfig Config, const std::string &ManifestPath,
             bool Summary, bool SummaryOnly, size_t MaxLineBytes) {
  std::ifstream FileIn;
  std::istream *In = &std::cin;
  if (ManifestPath != "-") {
    FileIn.open(ManifestPath);
    if (!FileIn) {
      std::fprintf(stderr, "griftd: cannot open '%s'\n", ManifestPath.c_str());
      return 2;
    }
    In = &FileIn;
  }

  // One output slot per manifest line, in manifest order: either a
  // pending future or a pre-rendered bad-request record. Slots drain
  // from the front whenever the window fills, so arbitrarily long
  // manifests stream in bounded memory.
  struct Slot {
    std::future<JobResult> F;
    bool HasJob = false;
    std::string BadLine; ///< rendered record when !HasJob
  };
  std::deque<Slot> Window;
  constexpr size_t MaxWindow = 4096;

  std::map<std::string, uint64_t> Counts;
  int Worst = 0;

  auto drainOne = [&] {
    Slot S = std::move(Window.front());
    Window.pop_front();
    if (!S.HasJob) {
      ++Counts["bad-request"];
      Worst = std::max(Worst, 1);
      if (!SummaryOnly)
        std::printf("%s\n", S.BadLine.c_str());
      return;
    }
    JobResult R = S.F.get();
    ++Counts[outcomeClass(R)];
    Worst = std::max(Worst, severity(R));
    if (!SummaryOnly)
      std::printf("%s\n", renderResult(R).c_str());
  };

  ExecService Service(Config);
  std::string Line;
  size_t LineNo = 0;
  while (std::getline(*In, Line)) {
    ++LineNo;
    if (Line.empty() || Line[0] == '#')
      continue;
    Slot S;
    std::string DefaultId = "job-" + std::to_string(LineNo);
    if (MaxLineBytes && Line.size() > MaxLineBytes) {
      // Report the bound without echoing the oversized payload back.
      S.BadLine = renderBadRequest(
          DefaultId,
          "line exceeds max_line_bytes (" + std::to_string(Line.size()) +
              " > " + std::to_string(MaxLineBytes) + ")",
          "too-large");
    } else {
      Request Req;
      Req.Spec.Id = DefaultId;
      std::string Error;
      std::string Reason;
      if (!parseRequest(Line, Req, Error, &Reason))
        S.BadLine = renderBadRequest(DefaultId, Error, Reason);
      else if (Req.StatsRequest)
        S.BadLine = renderBadRequest(DefaultId, "\"stats\" is not a batch job",
                                     "stats-in-batch");
      else {
        S.HasJob = true;
        S.F = Service.submit(std::move(Req.Spec));
      }
    }
    Window.push_back(std::move(S));
    while (Window.size() >= MaxWindow)
      drainOne();
  }
  while (!Window.empty())
    drainOne();

  if (Summary) {
    // Lexicographically sorted "class: count" lines — the deterministic
    // shape the CI smoke test diffs against its golden file.
    for (const auto &[Class, N] : Counts)
      std::printf("%s: %llu\n", Class.c_str(),
                  static_cast<unsigned long long>(N));
    if (!Config.CacheDir.empty()) {
      // Only with --cache-dir, so cache-less goldens are untouched.
      ServiceStats S = Service.stats();
      std::printf("store: hits=%llu misses=%llu corrupt=%llu evicted=%llu\n",
                  static_cast<unsigned long long>(S.StoreHits),
                  static_cast<unsigned long long>(S.StoreMisses),
                  static_cast<unsigned long long>(S.StoreCorrupt),
                  static_cast<unsigned long long>(S.StoreEvicted));
    }
  }
  return Worst;
}

} // namespace

int main(int Argc, char **Argv) {
  ServerConfig Server;
  ServiceConfig &Exec = Server.Exec;
  bool Serve = false;
  bool Summary = false;
  bool SummaryOnly = false;
  size_t MaxLineBytes = 1u << 20;
  bool QueueDepthSet = false;
  std::string ManifestPath;
  uint64_t Tmp = 0;
  double TmpD = 0;

  for (int I = 1; I < Argc; ++I) {
    std::string Arg = Argv[I];
    if (parseUint(Arg, "--threads=", Tmp)) {
      Exec.Threads = static_cast<unsigned>(Tmp);
    } else if (parseUint(Arg, "--gc-torture=", Tmp)) {
      Exec.GCTorturePeriod = Tmp;
    } else if (parseUint(Arg, "--gc-minor-torture=", Tmp)) {
      Exec.MinorGCTorturePeriod = Tmp;
    } else if (parseUint(Arg, "--fail-alloc=", Tmp)) {
      Exec.FailAllocPeriod = Tmp;
    } else if (Arg.rfind("--cache-dir=", 0) == 0) {
      Exec.CacheDir = Arg.substr(12);
    } else if (parseUint(Arg, "--cache-max-bytes=", Tmp)) {
      Exec.CacheMaxBytes = Tmp;
    } else if (parseUint(Arg, "--file-short-write=", Tmp)) {
      Exec.FileShortWriteAt = Tmp;
    } else if (parseUint(Arg, "--file-fail-fsync=", Tmp)) {
      Exec.FileFailFsyncAt = Tmp;
    } else if (parseUint(Arg, "--file-flip-bit=", Tmp)) {
      Exec.FileFlipReadBitAt = Tmp;
    } else if (parseUint(Arg, "--file-flip-bit-index=", Tmp)) {
      Exec.FileFlipReadBitIndex = Tmp;
    } else if (Arg == "--no-cache") {
      Exec.CompileCache = false;
    } else if (Arg == "--serve") {
      Serve = true;
    } else if (Arg.rfind("--socket=", 0) == 0) {
      Server.UnixSocketPath = Arg.substr(9);
    } else if (parseUint(Arg, "--port=", Tmp)) {
      Server.TcpPort = static_cast<uint16_t>(Tmp);
    } else if (parseUint(Arg, "--queue-depth=", Tmp)) {
      Exec.MaxQueueDepth = static_cast<size_t>(Tmp);
      QueueDepthSet = true;
    } else if (parseUint(Arg, "--max-connections=", Tmp)) {
      Server.MaxConnections = static_cast<unsigned>(Tmp);
    } else if (parseUint(Arg, "--max-inflight=", Tmp)) {
      Server.Admission.MaxInflight = static_cast<uint32_t>(Tmp);
    } else if (parseUint(Arg, "--max-inflight-bytes=", Tmp)) {
      Server.Admission.MaxInflightBytes = static_cast<size_t>(Tmp);
    } else if (parseUint(Arg, "--max-request-bytes=", Tmp)) {
      Server.MaxRequestBytes = static_cast<size_t>(Tmp);
    } else if (parseUint(Arg, "--write-timeout-ms=", Tmp)) {
      Server.WriteTimeoutNanos = static_cast<int64_t>(Tmp) * 1000000;
    } else if (parseUint(Arg, "--default-deadline-ms=", Tmp)) {
      Server.DefaultDeadlineNanos = static_cast<int64_t>(Tmp) * 1000000;
    } else if (parseUint(Arg, "--max-deadline-ms=", Tmp)) {
      Server.MaxDeadlineNanos = static_cast<int64_t>(Tmp) * 1000000;
    } else if (parseDouble(Arg, "--tenant-rps=", TmpD)) {
      Server.Quota.RequestsPerSec = TmpD;
    } else if (parseDouble(Arg, "--tenant-burst=", TmpD)) {
      Server.Quota.BurstRequests = TmpD;
    } else if (parseDouble(Arg, "--tenant-fuel-per-sec=", TmpD)) {
      Server.Quota.FuelPerSec = TmpD;
    } else if (parseUint(Arg, "--tenant-max-inflight=", Tmp)) {
      Server.Quota.MaxInflight = static_cast<uint32_t>(Tmp);
    } else if (parseUint(Arg, "--max-line-bytes=", Tmp)) {
      MaxLineBytes = static_cast<size_t>(Tmp);
    } else if (Arg == "--summary") {
      Summary = true;
    } else if (Arg == "--summary-only") {
      Summary = SummaryOnly = true;
    } else if (Arg == "--help" || Arg == "-h") {
      printHelp();
      return 0;
    } else if (Arg.size() > 1 && Arg[0] == '-' && Arg != "-") {
      std::fprintf(stderr, "griftd: unknown option '%s'\n", Arg.c_str());
      printUsage();
      return 2;
    } else {
      ManifestPath = Arg;
    }
  }

  if (Serve) {
    // A server must never queue unboundedly; apply the default bound
    // only here so batch mode keeps enqueueing whole manifests.
    if (!QueueDepthSet)
      Exec.MaxQueueDepth = 64;
    return runServe(std::move(Server));
  }
  if (ManifestPath.empty()) {
    printUsage();
    return 2;
  }
  return runBatch(Exec, ManifestPath, Summary, SummaryOnly, MaxLineBytes);
}
