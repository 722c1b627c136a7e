//===----------------------------------------------------------------------===//
///
/// \file
/// griftload — SLO-enforcing load generator for griftd --serve.
///
///   griftload [--griftd=PATH | --socket=PATH] [options]
///
/// Drives a griftd server over its Unix socket with a deterministic mix
/// of requests across several tenants: quick bench/fuzz programs (the
/// latency workload), wedged programs under a deadline (the deadline
/// workload), oversized and malformed frames (the hostile workload).
/// Per-request latencies are aggregated into p50/p99/p999 and emitted as
/// a grift-bench-v1 JSON document alongside the server's own shed and
/// quota counters, so tools/bench_compare.py can gate them as SLOs.
///
/// With --griftd=PATH the server is spawned, driven, SIGTERMed, and
/// required to drain and exit 0 — the overload acceptance contract in
/// one command. With --socket=PATH an already-running server is used.
///
/// Options:
///   --griftd=PATH        spawn this griftd binary with --serve
///   --socket=PATH        connect to an existing server socket
///   --server-arg=ARG     extra argument for the spawned griftd
///                        (repeatable; e.g. --server-arg=--tenant-rps=50)
///   --conns=N            concurrent client connections (default 8)
///   --requests=N         total requests (default 400)
///   --tenants=N          tenant pool size (default 4)
///   --deadline-ms=N      per-request deadline (default 2000)
///   --wedged-pct=N       percent of requests that diverge (default 10)
///   --hostile-pct=N      percent of malformed requests (default 5)
///   --seed=N             workload RNG seed (default 1)
///   --name=STR           benchmark row name (default "load/default")
///   --out=FILE           write the benchjson document here (else stdout)
///   --max-shed-rate=F    fail (exit 1) when sheds/requests exceeds F
///   --min-ok=N           fail when fewer than N requests came back ok
///
/// Exit: 0 on success, 1 on SLO violation or a server that crashed or
/// failed to drain, 2 on usage errors.
///
//===----------------------------------------------------------------------===//
#include "bench_programs/Benchmarks.h"
#include "fuzz/FuzzGen.h"
#include "grift/Grift.h"
#include "service/Protocol.h"
#include "support/Json.h"

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <memory>
#include <mutex>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include <csignal>
#include <sys/socket.h>
#include <sys/un.h>
#include <sys/wait.h>
#include <unistd.h>

using namespace grift;
using namespace grift::service::protocol;

namespace {

const char *DivergentLoop = "(letrec ([loop (lambda () (loop))]) (loop))";

bool parseUint(const std::string &Arg, const char *Prefix, uint64_t &Out) {
  size_t Len = std::strlen(Prefix);
  if (Arg.compare(0, Len, Prefix) != 0)
    return false;
  char *End = nullptr;
  Out = std::strtoull(Arg.c_str() + Len, &End, 10);
  return End != Arg.c_str() + Len && *End == '\0';
}

//===----------------------------------------------------------------------===//
// Client connection (Unix socket, blocking, 60 s read bound).
//===----------------------------------------------------------------------===//

class Conn {
public:
  explicit Conn(const std::string &Path) {
    Fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
    if (Fd < 0)
      return;
    sockaddr_un Addr{};
    Addr.sun_family = AF_UNIX;
    std::strncpy(Addr.sun_path, Path.c_str(), sizeof Addr.sun_path - 1);
    if (::connect(Fd, reinterpret_cast<sockaddr *>(&Addr), sizeof Addr) != 0) {
      ::close(Fd);
      Fd = -1;
      return;
    }
    timeval TV{60, 0};
    ::setsockopt(Fd, SOL_SOCKET, SO_RCVTIMEO, &TV, sizeof TV);
  }
  ~Conn() {
    if (Fd >= 0)
      ::close(Fd);
  }
  bool ok() const { return Fd >= 0; }

  bool sendFrame(const std::string &Payload) {
    std::string F = frame(Payload);
    size_t Sent = 0;
    while (Sent < F.size()) {
      ssize_t N = ::send(Fd, F.data() + Sent, F.size() - Sent, MSG_NOSIGNAL);
      if (N <= 0)
        return false;
      Sent += static_cast<size_t>(N);
    }
    return true;
  }

  /// One response frame; empty on error/EOF.
  std::string recvFrame() {
    std::string Header;
    char C;
    while (Header.size() < 24) {
      if (::recv(Fd, &C, 1, 0) != 1)
        return "";
      if (C == '\n')
        break;
      if (C < '0' || C > '9')
        return "";
      Header.push_back(C);
    }
    if (Header.empty())
      return "";
    size_t Len = std::stoull(Header);
    std::string Payload(Len, '\0');
    size_t Got = 0;
    while (Got < Len) {
      ssize_t N = ::recv(Fd, Payload.data() + Got, Len - Got, 0);
      if (N <= 0)
        return "";
      Got += static_cast<size_t>(N);
    }
    return Payload;
  }

private:
  int Fd = -1;
};

//===----------------------------------------------------------------------===//
// Workload
//===----------------------------------------------------------------------===//

struct QuickJob {
  std::string Source;
  std::string Input;
};

struct Workload {
  std::vector<QuickJob> Quick; ///< fast programs (latency rows)
  unsigned WedgedPct = 10;
  unsigned HostilePct = 5;
};

/// Deterministic program pool: quick arithmetic and cast-heavy snippets
/// set the latency floor, fuzz-generated structural programs exercise
/// the compiler under load, and two real suite benchmarks (small
/// inputs) add compile+run weight.
Workload buildWorkload(uint64_t Seed) {
  Workload W;
  W.Quick = {
      {"(+ 40 2)", ""},
      {"(* 6 7)", ""},
      {"(ann (ann 42 Dyn) Int)", ""},
      {"(repeat (i 0 2000) (acc : Int 0) (+ acc (ann (ann i Dyn) Int)))", ""},
      {"(vector-ref (make-vector 64 7) 63)", ""},
      {getBenchmark("tak").Source, "10 5 1"},
      {getBenchmark("quicksort").Source, "32"},
  };
  Grift G;
  RNG Gen(Seed);
  fuzz::GenOptions Opts;
  Opts.Structural = true;
  for (int I = 0; I != 8; ++I) {
    fuzz::ProgramGen P(G.types(), Gen, Opts);
    W.Quick.push_back({P.program(), ""});
  }
  return W;
}

struct Tally {
  std::mutex M;
  std::vector<int64_t> LatencyNanos; ///< completed request round trips
  uint64_t Sent = 0, Ok = 0, Failed = 0, Rejected = 0, BadRequest = 0,
           Lost = 0;
};

bool contains(const std::string &H, const std::string &N) {
  return H.find(N) != std::string::npos;
}

void worker(const std::string &Socket, const Workload &W, uint64_t Seed,
            unsigned Requests, unsigned Tenants, unsigned DeadlineMs,
            Tally &T) {
  RNG Gen(Seed);
  std::unique_ptr<Conn> C;
  auto reconnect = [&] {
    C = std::make_unique<Conn>(Socket);
    return C->ok();
  };
  for (unsigned I = 0; I != Requests; ++I) {
    if ((!C || !C->ok()) && !reconnect()) {
      std::lock_guard<std::mutex> Lock(T.M);
      T.Lost += Requests - I;
      return;
    }
    std::string Tenant = "tenant-" + std::to_string(Gen.below(Tenants));
    uint64_t Roll = Gen.below(100);
    std::string Payload;
    bool Hostile = false;
    if (Roll < W.HostilePct) {
      // Malformed JSON: must come back as a structured bad-request on
      // the same connection.
      Payload = "{\"id\": oops not json";
      Hostile = true;
    } else if (Roll < W.HostilePct + W.WedgedPct) {
      Payload = std::string("{\"tenant\":\"") + Tenant +
                "\",\"source\":\"" + DivergentLoop +
                "\",\"deadline_ms\":" +
                std::to_string(std::max(50u, DeadlineMs / 4)) + "}";
    } else {
      const QuickJob &Q = W.Quick[Gen.below(W.Quick.size())];
      Payload = std::string("{\"tenant\":\"") + Tenant +
                "\",\"source\":\"" + json::escape(Q.Source) + "\"";
      if (!Q.Input.empty())
        Payload += ",\"input\":\"" + json::escape(Q.Input) + "\"";
      Payload += ",\"deadline_ms\":" + std::to_string(DeadlineMs) + "}";
    }
    auto Start = std::chrono::steady_clock::now();
    if (!C->sendFrame(Payload)) {
      C.reset();
      std::lock_guard<std::mutex> Lock(T.M);
      T.Sent++;
      T.Lost++;
      continue;
    }
    std::string R = C->recvFrame();
    auto Nanos = std::chrono::duration_cast<std::chrono::nanoseconds>(
                     std::chrono::steady_clock::now() - Start)
                     .count();
    std::lock_guard<std::mutex> Lock(T.M);
    T.Sent++;
    if (R.empty()) {
      T.Lost++;
      C.reset();
      continue;
    }
    if (!Hostile)
      T.LatencyNanos.push_back(Nanos);
    if (contains(R, "\"status\":\"ok\""))
      T.Ok++;
    else if (contains(R, "\"status\":\"rejected\""))
      T.Rejected++;
    else if (contains(R, "\"status\":\"bad-request\""))
      T.BadRequest++;
    else
      T.Failed++;
  }
}

int64_t percentile(std::vector<int64_t> &Sorted, double Q) {
  if (Sorted.empty())
    return 0;
  size_t Idx = static_cast<size_t>(Q * static_cast<double>(Sorted.size()));
  return Sorted[std::min(Idx, Sorted.size() - 1)];
}

/// Pulls "\"key\":<uint>" out of the server's stats object.
uint64_t statOf(const std::string &Stats, const std::string &Key) {
  size_t P = Stats.find("\"" + Key + "\":");
  if (P == std::string::npos)
    return 0;
  return std::strtoull(Stats.c_str() + P + Key.size() + 3, nullptr, 10);
}

} // namespace

int main(int Argc, char **Argv) {
  std::string GriftdPath, SocketPath, OutPath, Name = "load/default";
  std::vector<std::string> ServerArgs;
  unsigned Conns = 8, Requests = 400, Tenants = 4, DeadlineMs = 2000;
  unsigned WedgedPct = 10, HostilePct = 5;
  uint64_t Seed = 1;
  double MaxShedRate = -1;
  uint64_t MinOk = 0;
  uint64_t Tmp = 0;

  for (int I = 1; I < Argc; ++I) {
    std::string Arg = Argv[I];
    if (Arg.rfind("--griftd=", 0) == 0)
      GriftdPath = Arg.substr(9);
    else if (Arg.rfind("--socket=", 0) == 0)
      SocketPath = Arg.substr(9);
    else if (Arg.rfind("--server-arg=", 0) == 0)
      ServerArgs.push_back(Arg.substr(13));
    else if (Arg.rfind("--out=", 0) == 0)
      OutPath = Arg.substr(6);
    else if (Arg.rfind("--name=", 0) == 0)
      Name = Arg.substr(7);
    else if (parseUint(Arg, "--conns=", Tmp))
      Conns = static_cast<unsigned>(Tmp);
    else if (parseUint(Arg, "--requests=", Tmp))
      Requests = static_cast<unsigned>(Tmp);
    else if (parseUint(Arg, "--tenants=", Tmp))
      Tenants = std::max(1u, static_cast<unsigned>(Tmp));
    else if (parseUint(Arg, "--deadline-ms=", Tmp))
      DeadlineMs = static_cast<unsigned>(Tmp);
    else if (parseUint(Arg, "--wedged-pct=", Tmp))
      WedgedPct = static_cast<unsigned>(Tmp);
    else if (parseUint(Arg, "--hostile-pct=", Tmp))
      HostilePct = static_cast<unsigned>(Tmp);
    else if (parseUint(Arg, "--seed=", Tmp))
      Seed = Tmp;
    else if (parseUint(Arg, "--min-ok=", Tmp))
      MinOk = Tmp;
    else if (Arg.rfind("--max-shed-rate=", 0) == 0)
      MaxShedRate = std::strtod(Arg.c_str() + 16, nullptr);
    else {
      std::fprintf(stderr, "griftload: unknown option '%s'\n", Arg.c_str());
      return 2;
    }
  }
  if (GriftdPath.empty() == SocketPath.empty()) {
    std::fprintf(stderr,
                 "griftload: exactly one of --griftd= or --socket= needed\n");
    return 2;
  }

  // Spawn griftd --serve when asked, and wait for its ready line.
  pid_t Child = -1;
  int ChildOut = -1;
  if (!GriftdPath.empty()) {
    SocketPath =
        "/tmp/griftload-" + std::to_string(::getpid()) + ".sock";
    int Out[2];
    if (::pipe(Out) != 0) {
      std::perror("griftload: pipe");
      return 2;
    }
    Child = ::fork();
    if (Child < 0) {
      std::perror("griftload: fork");
      return 2;
    }
    if (Child == 0) {
      ::dup2(Out[1], STDOUT_FILENO);
      ::close(Out[0]);
      ::close(Out[1]);
      std::vector<std::string> Args = {GriftdPath, "--serve",
                                       "--socket=" + SocketPath};
      Args.insert(Args.end(), ServerArgs.begin(), ServerArgs.end());
      std::vector<char *> Argp;
      for (std::string &A : Args)
        Argp.push_back(A.data());
      Argp.push_back(nullptr);
      ::execv(GriftdPath.c_str(), Argp.data());
      std::perror("griftload: execv");
      _exit(127);
    }
    ::close(Out[1]);
    // Block until the "serving" line appears (or the child dies).
    std::string Ready;
    char C;
    while (::read(Out[0], &C, 1) == 1 && C != '\n')
      Ready.push_back(C);
    if (Ready.find("\"serving\"") == std::string::npos) {
      std::fprintf(stderr, "griftload: server failed to start: %s\n",
                   Ready.c_str());
      ::kill(Child, SIGKILL);
      return 1;
    }
    // Keep the pipe open: the server prints its final stats on drain,
    // and a closed stdout would turn that into a SIGPIPE death.
    ChildOut = Out[0];
  }

  Workload W = buildWorkload(Seed);
  W.WedgedPct = WedgedPct;
  W.HostilePct = HostilePct;

  Tally T;
  auto LoadStart = std::chrono::steady_clock::now();
  {
    std::vector<std::thread> Threads;
    unsigned PerConn = std::max(1u, Requests / std::max(1u, Conns));
    for (unsigned I = 0; I != Conns; ++I)
      Threads.emplace_back([&, I] {
        worker(SocketPath, W, Seed * 1000003 + I, PerConn, Tenants,
               DeadlineMs, T);
      });
    for (std::thread &Th : Threads)
      Th.join();
  }
  auto LoadNanos = std::chrono::duration_cast<std::chrono::nanoseconds>(
                       std::chrono::steady_clock::now() - LoadStart)
                       .count();

  // Pull the server's own counters before shutting it down.
  std::string Stats;
  {
    Conn C(SocketPath);
    if (C.ok() && C.sendFrame("{\"stats\": true}"))
      Stats = C.recvFrame();
  }

  // SIGTERM the spawned server: it must drain and exit 0.
  bool DrainOk = true;
  if (Child > 0) {
    ::kill(Child, SIGTERM);
    // Drain the server's final stats line so its exit is not wedged on
    // a full pipe.
    char Buf[4096];
    std::string FinalStats;
    ssize_t N;
    while ((N = ::read(ChildOut, Buf, sizeof Buf)) > 0)
      FinalStats.append(Buf, static_cast<size_t>(N));
    ::close(ChildOut);
    int Status = 0;
    if (::waitpid(Child, &Status, 0) != Child || !WIFEXITED(Status) ||
        WEXITSTATUS(Status) != 0) {
      std::fprintf(stderr,
                   "griftload: server did not drain cleanly (status %d)\n",
                   Status);
      DrainOk = false;
    }
    if (Stats.empty())
      Stats = FinalStats; // fall back to the drain-time snapshot
  }

  std::sort(T.LatencyNanos.begin(), T.LatencyNanos.end());
  int64_t P50 = percentile(T.LatencyNanos, 0.50);
  int64_t P99 = percentile(T.LatencyNanos, 0.99);
  int64_t P999 = percentile(T.LatencyNanos, 0.999);
  uint64_t ShedTotal = statOf(Stats, "shed_total") + T.Rejected;
  double ShedRate =
      T.Sent ? static_cast<double>(T.Rejected) / static_cast<double>(T.Sent)
             : 0;

  std::ostringstream Json;
  Json << "{\n  \"schema\": \"grift-bench-v1\",\n  \"repeats\": 1,\n"
       << "  \"results\": [\n"
       << "    {\"name\": \"" << Name << "\", \"mode\": \"coercions\""
       << ", \"median_ns\": " << P50 << ", \"p50_ns\": " << P50
       << ", \"p99_ns\": " << P99 << ", \"p999_ns\": " << P999
       << ", \"requests\": " << T.Sent << ", \"ok\": " << T.Ok
       << ", \"failed\": " << T.Failed << ", \"rejected\": " << T.Rejected
       << ", \"bad_requests\": " << T.BadRequest << ", \"lost\": " << T.Lost
       << ", \"shed_total\": " << ShedTotal
       << ", \"shed_rate_pct\": " << static_cast<uint64_t>(ShedRate * 100)
       << ", \"quota_rejects\": " << statOf(Stats, "quota_rejects")
       << ", \"watchdog_kills\": " << statOf(Stats, "watchdog_kills")
       << ", \"deadline_expired\": " << statOf(Stats, "deadline_expired")
       << ", \"slow_client_drops\": " << statOf(Stats, "slow_client_drops")
       << ", \"store_hits\": " << statOf(Stats, "store_hits")
       << ", \"store_misses\": " << statOf(Stats, "store_misses")
       << ", \"store_corrupt\": " << statOf(Stats, "store_corrupt")
       << ", \"store_evicted\": " << statOf(Stats, "store_evicted")
       << ", \"wall_ns\": " << LoadNanos << "}\n  ]\n}\n";

  if (OutPath.empty()) {
    std::fputs(Json.str().c_str(), stdout);
  } else {
    std::ofstream OutF(OutPath);
    OutF << Json.str();
  }
  std::fprintf(stderr,
               "griftload: %llu sent, %llu ok, %llu failed, %llu rejected, "
               "%llu bad, %llu lost | p50 %.2f ms p99 %.2f ms p999 %.2f ms "
               "| shed rate %.1f%%\n",
               (unsigned long long)T.Sent, (unsigned long long)T.Ok,
               (unsigned long long)T.Failed, (unsigned long long)T.Rejected,
               (unsigned long long)T.BadRequest, (unsigned long long)T.Lost,
               P50 / 1e6, P99 / 1e6, P999 / 1e6, ShedRate * 100);

  bool SloOk = true;
  if (!DrainOk)
    SloOk = false;
  if (T.Lost > 0) {
    std::fprintf(stderr, "griftload: FAIL: %llu requests got no response\n",
                 (unsigned long long)T.Lost);
    SloOk = false;
  }
  if (MaxShedRate >= 0 && ShedRate > MaxShedRate) {
    std::fprintf(stderr, "griftload: FAIL: shed rate %.2f > %.2f\n", ShedRate,
                 MaxShedRate);
    SloOk = false;
  }
  if (T.Ok < MinOk) {
    std::fprintf(stderr, "griftload: FAIL: only %llu ok < min-ok %llu\n",
                 (unsigned long long)T.Ok, (unsigned long long)MinOk);
    SloOk = false;
  }
  return SloOk ? 0 : 1;
}
