//===----------------------------------------------------------------------===//
///
/// \file
/// The `serve` workload: griftd --serve driven over its Unix socket by
/// one client process with four connections.
///
/// Set-up (timed, nine times, median reported) starts a server on a
/// fresh store directory, publishes the `warm` programs through it,
/// restarts it so those programs are store reads, and touches the `hot`
/// set so it sits in the slot compile caches. The measured server then
/// sees an open-loop phase at a fixed offered rate, a closed-loop
/// saturation phase, and a phase of fresh programs, with three classes:
///
///   hot   — a small repeated set (slot compile-cache hits);
///   warm  — programs published by the earlier server lifetime, each
///           requested once (store reads), mixed into both loops;
///   fresh — lattice configurations never seen (cold compile + store
///           write), each requested once in the last phase.
///
/// Every response's result is compared with refinterp's result on the
/// fully typed program at the same input. The traced run also replays a
/// sample of the request programs in-process through Grift::parse,
/// Grift::check, compileProgram, Store::put, Store::load, Grift::adopt
/// and Executable::run to split their cost by layer.
///
//===----------------------------------------------------------------------===//
#include "Common.h"

#include "bench_programs/Benchmarks.h"
#include "grift/Grift.h"
#include "lattice/Lattice.h"
#include "store/Store.h"

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <limits>
#include <map>
#include <optional>
#include <set>
#include <thread>

#include <csignal>
#include <fcntl.h>
#include <poll.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <sys/wait.h>
#include <unistd.h>

using namespace grift;
using namespace perfbench;

namespace {

constexpr unsigned ServerThreads = 2;
constexpr unsigned Connections = 4;
/// Offered load of the open-loop phase: about a quarter of what two
/// worker threads complete in the closed-loop phase on a 4-core host.
/// Nearer saturation, queueing turns the host's run-to-run speed changes
/// into much larger latency changes.
constexpr double OfferedRps = 200;
/// Share of the measured time spent in the open loop.
constexpr double OpenShare = 0.8;
/// The closed loop that follows sends a fixed number of requests, this
/// many per open-loop request, so the mix and the store size it sees do
/// not depend on how fast it ran (about 3 s at saturation for a 50 s run).
constexpr double ClosedPerOpen = 0.4;
/// Warm programs (each requested once, mixed into the open and closed
/// loops; the rest of the loops is hot) and fresh programs, whatever the
/// run length. Fresh requests run in a phase of their own: each one
/// writes the store, and the fsync of that write (2.5 ms median, 20 ms
/// p99 on the 4-core test host) stalls a worker, which moved the loops'
/// latency percentiles and throughput by 2x between runs. Publishing the
/// warm programs is set-up time, and its fsyncs made set-up time swing by
/// half with four times as many. The counts also keep the distinct
/// programs below the point where the server's coercion-epoch resets,
/// which land at seed-dependent points, would decide its peak RSS.
constexpr size_t NumWarm = 56, NumFresh = 56;
/// Interval of the in-process compile passes during the open loop (one
/// pass over the hot set takes about 15 ms).
constexpr int64_t CompilePassNs = 250'000'000;
/// Fresh programs replayed in-process by the traced run.
constexpr size_t ReplayFresh = 24;
constexpr int SetupRepeats = 9;

enum RequestClass : uint8_t { Hot, Warm, Fresh, NumClasses };
enum Phase : uint8_t { OpenLoop, ClosedLoop, Cold };
const char *const ClassNames[NumClasses] = {"hot", "warm", "fresh"};

/// Suite programs served, at sizes where one run takes about a ms.
struct KernelSpec {
  const char *Name;
  const char *Input;
};
constexpr KernelSpec Kernels[] = {
    {"sieve", "60"},   {"n-body", "150"},     {"tak", "14 10 4"},
    {"ray", "10"},     {"quicksort", "64"},   {"blackscholes", "1000"},
    {"matmult", "12"}, {"matmult-float", "12"}, {"fft", "256"},
};

/// A suite program whose last printed value becomes the program result,
/// so a griftd response (which carries the result, not the printed
/// output) can be checked.
struct Kernel {
  std::string Name;
  std::string Source;
  std::string Input;
  std::string Expected; ///< refinterp's result on the typed program
};

/// One servable program: a configuration of a kernel in one mode.
struct Cell {
  uint32_t Kernel = 0;
  std::string Source;
  CastMode Mode = CastMode::Coercions;
};

struct Pools {
  std::vector<Cell> Hot, Warm, Fresh;
};

/// One request of the measured sequence and what came back.
struct Sample {
  RequestClass Class = Hot;
  const Cell *C = nullptr;
  Phase When = OpenLoop;
  int64_t Due = 0;      ///< scheduled send time (open loop)
  int64_t Sent = 0, Done = 0;
  bool OK = false;
  bool CacheHit = false;
  double WallMs = 0;
  /// Server-reported steps and casts applied; they must repeat exactly.
  uint64_t Fuel = 0, Casts = 0;
};

std::string resultSource(std::string Source, const std::string &Name) {
  size_t At = Source.rfind("(print-");
  size_t Space = At == std::string::npos ? At : Source.find(' ', At);
  if (Space == std::string::npos)
    fatal("kernel " + Name + " prints no result");
  Source.replace(At, Space - At, "(begin");
  return Source;
}

std::vector<Kernel> loadKernels() {
  std::vector<Kernel> Out;
  for (const KernelSpec &K : Kernels) {
    Kernel P;
    P.Name = K.Name;
    P.Source = resultSource(getBenchmark(K.Name).Source, K.Name);
    P.Input = K.Input;
    P.Expected = reference(P.Name, P.Source, P.Input).Result;
    Out.push_back(std::move(P));
  }
  return Out;
}

/// Modes of the partially typed requests. Type-based casts run only on
/// fully typed programs here: their catastrophic configurations (100x
/// and more, the lattice workload's subject) would make the p99 a
/// property of one sampled configuration instead of the service.
const std::vector<CastMode> PartialModes = {
    CastMode::Coercions, CastMode::Monotonic, CastMode::CoercionPassing};
/// Fixed sampler seed of the program corpus.
constexpr uint64_t CorpusSeed = 0x51C7;

/// Builds the hot set and the warm and fresh pools. The programs come
/// from fixed sampler seeds, so every run serves the same corpus; the run
/// seed decides which corpus programs are warm and which fresh, and (in
/// the caller) the order and mix of the requests. Each distinct
/// configuration lands in one pool only, so warm and fresh programs never
/// repeat.
Pools buildPools(const std::vector<Kernel> &Ks, uint64_t Seed, size_t NumWarm,
                 size_t NumFresh) {
  Pools P;
  Grift G;
  const size_t Need = NumWarm + NumFresh;
  const size_t PerKernel = Need / (Ks.size() * PartialModes.size()) + 1;
  std::vector<std::vector<std::string>> Configs(Ks.size());
  for (uint32_t K = 0; K != Ks.size(); ++K) {
    std::string Errors;
    std::optional<Program> Ast = G.parse(Ks[K].Source, Errors);
    if (!Ast)
      fatal("cannot parse " + Ks[K].Name + ": " + Errors);
    // Hot: the typed program in every mode, and one mid-lattice
    // configuration in the partial modes.
    for (CastMode M : AllCastModes)
      P.Hot.push_back({K, Ks[K].Source, M});
    std::vector<Configuration> Mid =
        sampleFineGrained(*Ast, G.types(), 1, 1, CorpusSeed + K);
    std::string MidSource = Mid.empty() ? Ks[K].Source : Mid[0].Prog.str();
    for (CastMode M : PartialModes)
      P.Hot.push_back({K, MidSource, M});
    std::set<std::string> Seen = {Ks[K].Source, MidSource};
    unsigned PerBin = static_cast<unsigned>(PerKernel / 8 + 2);
    for (const Configuration &C :
         sampleFineGrained(*Ast, G.types(), 8, PerBin,
                           CorpusSeed * 7919 + fnv1a(Ks[K].Name))) {
      std::string Src = C.Prog.str();
      if (Seen.insert(Src).second)
        Configs[K].push_back(std::move(Src));
    }
  }
  // The corpus: configurations taken round-robin across kernels, each in
  // every partial mode, until there is one per warm or fresh request.
  std::vector<Cell> Corpus;
  for (size_t I = 0; Corpus.size() < Need; ++I) {
    size_t Before = Corpus.size();
    for (uint32_t K = 0; K != Ks.size(); ++K)
      if (I < Configs[K].size())
        for (CastMode M : PartialModes)
          Corpus.push_back({K, Configs[K][I], M});
    if (Corpus.size() == Before)
      fatal("the lattice sampler ran out of distinct configurations");
  }
  Corpus.resize(Need);
  Rng R(Seed ^ 0x5E4BE5EEDull);
  R.shuffle(Corpus);
  P.Warm.assign(Corpus.begin(), Corpus.begin() + NumWarm);
  P.Fresh.assign(Corpus.begin() + NumWarm, Corpus.end());
  return P;
}

//===----------------------------------------------------------------------===//
// griftd process and socket protocol
//===----------------------------------------------------------------------===//

std::string jsonField(const std::string &Json, const std::string &Key) {
  std::string Needle = "\"" + Key + "\":";
  size_t At = Json.find(Needle);
  if (At == std::string::npos)
    return "";
  At += Needle.size();
  if (At < Json.size() && Json[At] == '"') {
    std::string Out;
    for (size_t I = At + 1; I < Json.size() && Json[I] != '"'; ++I) {
      if (Json[I] == '\\' && I + 1 < Json.size())
        ++I;
      Out += Json[I];
    }
    return Out;
  }
  size_t End = Json.find_first_of(",}", At);
  return Json.substr(At, End == std::string::npos ? End : End - At);
}

double jsonNumberField(const std::string &Json, const std::string &Key) {
  return std::strtod(jsonField(Json, Key).c_str(), nullptr);
}

class Connection {
public:
  explicit Connection(const std::string &Path) {
    Fd = ::socket(AF_UNIX, SOCK_STREAM | SOCK_CLOEXEC, 0);
    sockaddr_un Addr{};
    Addr.sun_family = AF_UNIX;
    if (Fd < 0 || Path.size() >= sizeof(Addr.sun_path)) {
      close();
      return;
    }
    std::memcpy(Addr.sun_path, Path.c_str(), Path.size() + 1);
    if (::connect(Fd, reinterpret_cast<sockaddr *>(&Addr), sizeof(Addr)) != 0)
      close();
    timeval TV{30, 0}; // a lost response fails the request, not the run
    if (Fd >= 0)
      ::setsockopt(Fd, SOL_SOCKET, SO_RCVTIMEO, &TV, sizeof(TV));
  }
  Connection(const Connection &) = delete;
  Connection &operator=(const Connection &) = delete;
  ~Connection() { close(); }

  bool ok() const { return Fd >= 0; }

  /// Sends one request frame and reads one response frame.
  bool call(const std::string &Payload, std::string &Response) {
    std::string Frame = std::to_string(Payload.size()) + "\n" + Payload;
    for (size_t Off = 0; Off < Frame.size();) {
      ssize_t N = ::send(Fd, Frame.data() + Off, Frame.size() - Off,
                         MSG_NOSIGNAL);
      if (N <= 0)
        return false;
      Off += static_cast<size_t>(N);
    }
    std::string Header;
    char Ch;
    while (true) {
      if (!readExact(&Ch, 1))
        return false;
      if (Ch == '\n')
        break;
      Header += Ch;
      if (Header.size() > 20)
        return false;
    }
    size_t Len = std::strtoull(Header.c_str(), nullptr, 10);
    Response.assign(Len, '\0');
    return readExact(Response.data(), Len);
  }

private:
  bool readExact(char *Buf, size_t Len) {
    while (Len) {
      ssize_t N = ::recv(Fd, Buf, Len, 0);
      if (N <= 0) {
        if (N < 0 && errno == EINTR)
          continue;
        return false;
      }
      Buf += N;
      Len -= static_cast<size_t>(N);
    }
    return true;
  }
  void close() {
    if (Fd >= 0)
      ::close(Fd);
    Fd = -1;
  }
  int Fd = -1;
};

/// One griftd --serve process; stopped (SIGTERM, drained, reaped) by
/// stop() or the destructor.
class ServerProcess {
public:
  ServerProcess(const std::string &Griftd, const std::string &Socket,
                const std::string &CacheDir)
      : Socket(Socket) {
    int Pipe[2];
    if (::pipe2(Pipe, O_CLOEXEC) != 0)
      return;
    std::vector<std::string> Args = {
        Griftd, "--serve", "--threads=" + std::to_string(ServerThreads),
        "--socket=" + Socket, "--cache-dir=" + CacheDir};
    std::vector<char *> Argv;
    for (std::string &A : Args)
      Argv.push_back(A.data());
    Argv.push_back(nullptr);
    Pid = ::fork();
    if (Pid == 0) {
      ::dup2(Pipe[1], STDOUT_FILENO);
      ::execv(Argv[0], Argv.data());
      ::_exit(127);
    }
    ::close(Pipe[1]);
    Out = Pipe[0];
    if (Pid < 0)
      return;
    // Ready once it prints its "serving" line.
    std::string Line;
    Ready = readLine(Line, 20000) && Line.find("\"serving\"") !=
                                         std::string::npos;
  }
  ServerProcess(const ServerProcess &) = delete;
  ServerProcess &operator=(const ServerProcess &) = delete;
  ~ServerProcess() { stop(); }

  bool ready() const { return Ready; }
  const std::string &socket() const { return Socket; }

  /// Peak resident set (VmHWM) of the server, MiB.
  double peakRssMb() const {
    std::ifstream In("/proc/" + std::to_string(Pid) + "/status");
    std::string Line;
    while (std::getline(In, Line))
      if (Line.rfind("VmHWM:", 0) == 0)
        return std::strtod(Line.c_str() + 6, nullptr) / 1024.0;
    return 0;
  }

  /// Drains and reaps the server; returns its final stats line. A
  /// server that has not exited 5 s after closing its output is killed.
  std::string stop() {
    std::string Stats;
    if (Pid > 0) {
      ::kill(Pid, SIGTERM);
      std::string Line;
      while (readLine(Line, 30000))
        if (Line.find("\"stats\"") != std::string::npos)
          Stats = Line;
      int Status = 0;
      for (int Tries = 0; ::waitpid(Pid, &Status, WNOHANG) == 0; ++Tries) {
        if (Tries == 500)
          ::kill(Pid, SIGKILL);
        std::this_thread::sleep_for(std::chrono::milliseconds(10));
      }
      Pid = -1;
    }
    if (Out >= 0)
      ::close(Out);
    Out = -1;
    return Stats;
  }

private:
  bool readLine(std::string &Line, int TimeoutMs) {
    Line.clear();
    while (true) {
      size_t NL = Buf.find('\n');
      if (NL != std::string::npos) {
        Line = Buf.substr(0, NL);
        Buf.erase(0, NL + 1);
        return true;
      }
      pollfd P{Out, POLLIN, 0};
      if (::poll(&P, 1, TimeoutMs) <= 0)
        return false;
      char Chunk[4096];
      ssize_t N = ::read(Out, Chunk, sizeof(Chunk));
      if (N <= 0)
        return false;
      Buf.append(Chunk, static_cast<size_t>(N));
    }
  }

  std::string Socket;
  pid_t Pid = -1;
  int Out = -1;
  bool Ready = false;
  std::string Buf;
};

/// A publish request compiles the program (and so writes it to the
/// store) but stops its run after the first dispatch batch.
std::string requestJson(const std::string &Id, const Cell &C, const Kernel &K,
                        bool Publish) {
  return "{\"id\":" + jsonString(Id) + ",\"tenant\":\"bench\",\"source\":" +
         jsonString(C.Source) + ",\"mode\":" +
         jsonString(castModeName(C.Mode)) + ",\"input\":" +
         jsonString(K.Input) + (Publish ? ",\"max_steps\":1}" : "}");
}

/// Sends one request and fills the outcome fields of \p S.
void issue(Connection &Conn, Sample &S, uint64_t Index,
           const std::vector<Kernel> &Ks, bool Publish = false,
           bool Quiet = false) {
  const Kernel &K = Ks[S.C->Kernel];
  std::string Payload =
      requestJson("r" + std::to_string(Index), *S.C, K, Publish);
  std::string Response;
  S.Sent = nowNs();
  bool Got = Conn.ok() && Conn.call(Payload, Response);
  S.Done = nowNs();
  if (Publish)
    S.OK = Got && jsonField(Response, "error_kind") == "fuel-exhausted";
  else
    S.OK = Got && jsonField(Response, "status") == "ok" &&
           jsonField(Response, "result") == K.Expected;
  S.CacheHit = jsonField(Response, "cache_hit") == "true";
  S.WallMs = jsonNumberField(Response, "wall_ms");
  S.Fuel = std::strtoull(jsonField(Response, "fuel").c_str(), nullptr, 10);
  S.Casts = std::strtoull(jsonField(Response, "casts").c_str(), nullptr, 10);
  if (!S.OK && !Quiet)
    std::fprintf(stderr, "perfbench: request %s (%s, %s) failed: %s\n",
                 ("r" + std::to_string(Index)).c_str(), K.Name.c_str(),
                 castModeName(S.C->Mode),
                 Got ? Response.c_str() : "no response");
}

/// Sends \p Cells over Connections connections, closed loop; returns the
/// number of requests that failed.
uint64_t sendAll(const std::string &Socket,
                 const std::vector<const Cell *> &Cells,
                 const std::vector<Kernel> &Ks, bool Publish) {
  std::atomic<size_t> Next{0};
  std::atomic<uint64_t> Failed{0};
  std::vector<std::thread> Threads;
  for (unsigned T = 0; T != Connections; ++T)
    Threads.emplace_back([&] {
      Connection Conn(Socket);
      for (size_t I; (I = Next.fetch_add(1)) < Cells.size();) {
        Sample S;
        S.C = Cells[I];
        issue(Conn, S, I, Ks, Publish);
        Failed += !S.OK;
      }
    });
  for (std::thread &T : Threads)
    T.join();
  return Failed;
}

/// One in-process replay of a request program through the calls the
/// server makes: compile, Store::put, Store::load into a second engine,
/// Grift::adopt, Executable::run. Returns false on any failure.
bool replay(const Cell &C, const Kernel &K, store::Store &Store, uint32_t Id,
            Tracer &T, CellLayers &L, double &TotalMs) {
  Timed Replay(T, "replay", Id);
  {
    Grift G;
    std::string Errors;
    Timed Compile(T, "compile", Id);
    std::optional<VMProgram> Prog =
        compilePhases(G, C.Source, C.Mode, T, Id, L, Errors);
    Compile.stop();
    if (!Prog)
      return false;
    uint64_t Key = store::Store::key(C.Source, C.Mode, false);
    Timed Put(T, "store.put", Id);
    bool Stored = Store.put(Key, *Prog);
    double PutMs = Put.stop();
    if (!Stored)
      return false;
    if (T.enabled())
      L.StorePutMs.push_back(PutMs);
  }
  Grift G; // a fresh engine, as after a server restart
  VMProgram Loaded;
  size_t NodesLoaded = 0;
  {
    Timed Load(T, "store.load", Id);
    bool Hit = Store.load(store::Store::key(C.Source, C.Mode, false),
                          G.types(), G.coercions(), Loaded);
    double LoadMs = Load.stop();
    if (!Hit)
      return false;
    if (T.enabled())
      L.StoreLoadMs.push_back(LoadMs);
  }
  std::optional<Executable> Exe;
  {
    Timed Adopt(T, "adopt", Id);
    Exe.emplace(G.adopt(std::move(Loaded)));
    NodesLoaded = G.coercions().allocatedNodes();
  }
  RunResult R;
  double RunMs = 0;
  {
    Timed Run(T, "run", Id);
    R = Exe->run(K.Input);
    RunMs = Run.stop();
  }
  recordRun(L, Exe->program(), R, RunMs, NodesLoaded,
            G.coercions().allocatedNodes(), T.enabled());
  TotalMs += Replay.stop();
  return R.OK && R.ResultText == K.Expected;
}

/// Mean size of the store images in \p Dir, KiB.
double meanImageKb(const std::string &Dir) {
  double Bytes = 0, Count = 0;
  std::error_code EC;
  for (const auto &E : std::filesystem::directory_iterator(Dir, EC))
    if (E.path().extension() == ".img") {
      Bytes += static_cast<double>(E.file_size(EC));
      ++Count;
    }
  return Count ? Bytes / Count / 1024.0 : 0;
}

} // namespace

Outcome perfbench::runServeWorkload(const Options &Opts) {
  if (Opts.Griftd.empty())
    fatal("serve needs --griftd");
  Outcome Out;
  std::vector<Kernel> Ks = loadKernels();

  const size_t OpenN =
      static_cast<size_t>(OfferedRps * Opts.Seconds * OpenShare);
  const size_t ClosedN = static_cast<size_t>(ClosedPerOpen * OpenN);
  const size_t Mixed = OpenN + ClosedN;

  // Set-up: sample the programs, start a server on a fresh store, publish
  // the warm set through it, restart, and touch the hot set.
  std::string Base = Opts.WorkDir + "/serve-" + std::to_string(::getpid());
  std::filesystem::remove_all(Base);
  std::filesystem::create_directories(Base);
  const std::string Socket = Base + "/griftd.sock";
  std::vector<double> SetupS, SetupRefMs;
  Pools P;
  std::unique_ptr<ServerProcess> Server;
  for (int Rep = 0; Rep != SetupRepeats; ++Rep) {
    Server.reset();
    std::string Dir = Base + "/store" + std::to_string(Rep);
    std::filesystem::create_directories(Dir);
    SetupRefMs.push_back(referenceLoopMs());
    int64_t T0 = nowNs();
    P = buildPools(Ks, Opts.Seed, NumWarm, NumFresh);
    {
      ServerProcess First(Opts.Griftd, Socket, Dir);
      if (!First.ready())
        fatal("griftd did not start");
      std::vector<const Cell *> Publish;
      for (const Cell &C : P.Warm)
        Publish.push_back(&C);
      Out.Attempted += Publish.size();
      Out.Failed += sendAll(Socket, Publish, Ks, /*Publish=*/true);
    }
    Server = std::make_unique<ServerProcess>(Opts.Griftd, Socket, Dir);
    if (!Server->ready())
      fatal("griftd did not restart");
    std::vector<const Cell *> Touch;
    for (int Round = 0; Round != 2; ++Round)
      for (const Cell &C : P.Hot)
        Touch.push_back(&C);
    Out.Attempted += Touch.size();
    Out.Failed += sendAll(Socket, Touch, Ks, /*Publish=*/false);
    SetupS.push_back(static_cast<double>(nowNs() - T0) / 1e9);
  }

  // A mismatch must be counted: one hot request against a wrong result.
  {
    std::vector<Kernel> Wrong = Ks;
    Wrong[P.Hot.front().Kernel].Expected += "planted";
    Connection Conn(Socket);
    Sample S;
    S.C = &P.Hot.front();
    issue(Conn, S, 0, Wrong, /*Publish=*/false, /*Quiet=*/true);
    if (S.OK) {
      std::fprintf(stderr, "perfbench: a planted wrong reference was not "
                           "reported as a mismatch\n");
      ++Out.Attempted;
      ++Out.Failed;
    }
  }

  // The request sequence: the open and closed loops send a seeded
  // shuffle of hot requests and a fixed number of warm ones, each warm
  // program once; then every fresh program is sent once.
  Rng R(Opts.Seed);
  std::vector<Sample> Samples(Mixed);
  for (size_t I = 0; I != std::min(NumWarm, Mixed); ++I)
    Samples[I].Class = Warm;
  R.shuffle(Samples);
  size_t NextWarm = 0;
  for (Sample &S : Samples)
    S.C = S.Class == Hot ? &P.Hot[R.below(P.Hot.size())] : &P.Warm[NextWarm++];
  for (const Cell &C : P.Fresh) {
    Samples.emplace_back();
    Samples.back().Class = Fresh;
    Samples.back().C = &C;
  }

  // Open loop at OfferedRps, each request timed from its due time; then
  // the closed loop and the fresh phase, where each connection sends its
  // next request as soon as the previous response arrives.
  std::atomic<size_t> Next{0};
  const int64_t Start = nowNs() + 20'000'000;
  const int64_t Interval = static_cast<int64_t>(1e9 / OfferedRps);
  auto Drive = [&](Phase When, size_t End) {
    std::vector<std::thread> Threads;
    for (unsigned T = 0; T != Connections; ++T)
      Threads.emplace_back([&] {
        Connection Conn(Socket);
        for (size_t I; (I = Next.fetch_add(1)) < End;) {
          Sample &S = Samples[I];
          S.When = When;
          S.Due = When == OpenLoop
                      ? Start + static_cast<int64_t>(I) * Interval
                      : nowNs();
          int64_t Wait = S.Due - nowNs();
          if (Wait > 0)
            std::this_thread::sleep_for(std::chrono::nanoseconds(Wait));
          issue(Conn, S, I, Ks);
        }
      });
    for (std::thread &T : Threads)
      T.join();
    Next = End;
  };

  // Compile time of the hot programs, in-process through the same entry
  // points the server uses (what a fresh request pays before it runs).
  // One pass over the set every CompilePassNs through the open loop, so
  // the passes sample the host across the whole phase, as the server's
  // run times do; a one-second burst after the server stopped measured
  // only the host's speed in that second (IQR/median 0.41 over ten runs).
  // Each pass also times the reference loop (Common.h) for the host's
  // speed through the phase.
  std::vector<std::vector<double>> CompileReps(P.Hot.size());
  std::vector<double> RefMs;
  std::atomic<bool> OpenDone{false};
  uint64_t CompileAttempted = 0, CompileFailed = 0;
  std::thread Compiler([&] {
    for (int Pass = 0; Pass < 5 || !OpenDone; ++Pass) {
      const int64_t PassEnd = nowNs() + CompilePassNs;
      RefMs.push_back(referenceLoopMs());
      for (size_t I = 0; I != P.Hot.size(); ++I) {
        Grift G;
        std::string Errors;
        Tracer Off(false);
        CellLayers Unused;
        double Ms = 0;
        bool Compiled = compileTimed(G, P.Hot[I].Source, P.Hot[I].Mode, Off,
                                     0, Unused, Errors, Ms)
                            .has_value();
        CompileReps[I].push_back(Ms);
        ++CompileAttempted;
        CompileFailed += !Compiled;
      }
      while (!OpenDone && nowNs() < PassEnd)
        std::this_thread::sleep_for(std::chrono::milliseconds(10));
    }
  });
  Drive(OpenLoop, OpenN);
  OpenDone = true;
  Compiler.join();
  Out.Attempted += CompileAttempted;
  Out.Failed += CompileFailed;
  std::vector<double> CompileMs;
  for (const std::vector<double> &Reps : CompileReps)
    CompileMs.push_back(median(Reps));

  const int64_t ClosedStart = nowNs();
  Drive(ClosedLoop, Mixed);
  const int64_t ClosedEnd = nowNs();
  Drive(Cold, Samples.size());

  double PeakRss = Server->peakRssMb();
  std::string Stats = Server->stop();
  Server.reset();

  // Traced run: replay the hot set and the first fresh programs
  // in-process, alternating untraced and traced passes.
  Tracer T(Opts.Trace);
  std::vector<CellLayers> Layers;
  double ReplayMs[2] = {0, 0};
  if (Opts.Trace) {
    std::vector<const Cell *> Replay;
    for (const Cell &C : P.Hot)
      Replay.push_back(&C);
    for (size_t I = 0; I != std::min<size_t>(ReplayFresh, P.Fresh.size()); ++I)
      Replay.push_back(&P.Fresh[I]);
    Layers.resize(Replay.size());
    store::StoreConfig SC;
    SC.Dir = Base + "/replay";
    std::filesystem::create_directories(SC.Dir);
    store::Store ReplayStore(SC);
    Tracer Off(false);
    for (int Pass = 0; Pass != 4; ++Pass) {
      bool Traced = Pass % 2 == 1;
      for (size_t I = 0; I != Replay.size(); ++I) {
        ++Out.Attempted;
        if (!replay(*Replay[I], Ks[Replay[I]->Kernel], ReplayStore,
                    static_cast<uint32_t>(I), Traced ? T : Off, Layers[I],
                    ReplayMs[Traced])) {
          ++Out.Failed;
          std::fprintf(stderr, "perfbench: replay of %s (%s) failed\n",
                       Ks[Replay[I]->Kernel].Name.c_str(),
                       castModeName(Replay[I]->Mode));
        }
      }
    }
    Out.Metrics.add("store.image_kb", meanImageKb(SC.Dir), "KiB");
    Out.Metrics.add("store.corrupt",
                    static_cast<double>(ReplayStore.stats().Corrupt) +
                        jsonNumberField(Stats, "store_corrupt"),
                    "count");
  }

  // Counters: every correct response for one program must report the same
  // server-side steps and casts; the traced replay compares every pass
  // with the first. The digest covers the hot, warm and fresh programs
  // in pool order, so traced and untraced runs print the same one.
  std::map<const Cell *, std::pair<uint64_t, uint64_t>> FirstCounters;
  std::set<const Cell *> UnstableCells;
  for (const Sample &S : Samples) {
    if (!S.OK)
      continue;
    auto Seen = FirstCounters.emplace(S.C, std::make_pair(S.Fuel, S.Casts));
    if (Seen.first->second != std::make_pair(S.Fuel, S.Casts))
      UnstableCells.insert(S.C);
  }
  uint64_t Unstable = UnstableCells.size();
  for (const std::vector<Cell> *Pool : {&P.Hot, &P.Warm, &P.Fresh})
    for (const Cell &C : *Pool) {
      auto It = FirstCounters.find(&C);
      if (It != FirstCounters.end())
        Out.CounterDigest = fnv1a(std::to_string(Out.CounterDigest) + " " +
                                  std::to_string(It->second.first) + " " +
                                  std::to_string(It->second.second));
    }
  for (const CellLayers &L : Layers)
    Unstable += L.Unstable;
  if (Unstable)
    std::fprintf(stderr, "perfbench: %llu program(s) with counters that "
                         "differ across responses or replays\n",
                 (unsigned long long)Unstable);

  // Results.
  uint64_t OkClosed = 0;
  std::vector<double> Latency, ByClass[NumClasses], Overhead, ServerRun;
  std::map<const Cell *, std::vector<double>> HotWall;
  double Lateness = 0;
  uint64_t CacheHits = 0;
  for (size_t I = 0; I != Samples.size(); ++I) {
    const Sample &S = Samples[I];
    ++Out.Attempted;
    Out.Failed += !S.OK;
    double Ms = static_cast<double>(S.Done - S.Due) / 1e6;
    if (S.When == OpenLoop) {
      // A failed request misses any latency limit.
      Latency.push_back(S.OK ? Ms : std::numeric_limits<double>::infinity());
      ByClass[S.Class].push_back(Ms);
      Lateness = std::max(Lateness, static_cast<double>(S.Sent - S.Due) / 1e6);
    } else if (S.When == ClosedLoop) {
      OkClosed += S.OK;
    } else {
      ByClass[Fresh].push_back(Ms);
    }
    if (T.enabled()) {
      T.close(T.open("request", static_cast<uint32_t>(I), S.Sent), S.Done);
    }
    if (!S.OK)
      continue;
    Overhead.push_back(static_cast<double>(S.Done - S.Sent) / 1e6 - S.WallMs);
    ServerRun.push_back(S.WallMs);
    if (S.Class == Hot)
      HotWall[S.C].push_back(S.WallMs);
    CacheHits += S.CacheHit;
  }

  for (int C = 0; C != NumClasses; ++C)
    std::printf("{\"row\": {\"workload\": \"serve\", \"class\": \"%s\", "
                "\"requests\": %zu, \"latency_p50_ms\": %s, "
                "\"latency_p99_ms\": %s}}\n",
                ClassNames[C], ByClass[C].size(),
                jsonNumber(median(ByClass[C])).c_str(),
                jsonNumber(quantile(ByClass[C], 0.99)).c_str());
  // Server-side run time per hot program (the fixed set every seed
  // serves): the run_ms_geomean and slowdown figures of this workload.
  std::map<CastMode, std::vector<double>> ByMode;
  std::map<uint32_t, double> StaticMs;
  for (const auto &[C, Walls] : HotWall) {
    double Ms = median(Walls);
    ByMode[C->Mode].push_back(Ms);
    if (C->Mode == CastMode::Static)
      StaticMs[C->Kernel] = Ms;
    std::printf("{\"row\": {\"workload\": \"serve\", \"class\": \"hot\", "
                "\"program\": %s, \"config\": %s, \"mode\": %s, "
                "\"responses\": %zu, \"server_run_ms\": %s}}\n",
                jsonString(Ks[C->Kernel].Name).c_str(),
                C->Source == Ks[C->Kernel].Source ? "\"typed\"" : "\"mid\"",
                jsonString(castModeName(C->Mode)).c_str(), Walls.size(),
                jsonNumber(Ms).c_str());
  }
  double Slowdown = 0;
  for (const auto &[C, Walls] : HotWall)
    if (C->Mode == CastMode::Coercions && StaticMs.count(C->Kernel))
      Slowdown = std::max(Slowdown, median(Walls) /
                                        StaticMs[C->Kernel]);

  // End-to-end times at the reference host speed (Common.h).
  const double Scale = hostScale(RefMs);
  Report &M = Out.Metrics;
  M.add("setup_s", median(SetupS) * hostScale(SetupRefMs), "s");
  for (CastMode Mode : AllCastModes)
    M.add(std::string("run_ms_geomean.") + castModeName(Mode),
          geomean(ByMode[Mode]) * Scale, "ms");
  M.add("slowdown_max.coercions", Slowdown, "x");
  M.add("compile_ms_geomean", geomean(CompileMs) * Scale, "ms");
  M.add("latency_p50_ms", median(Latency), "ms");
  M.add("latency_p99_ms", quantile(Latency, 0.99), "ms");
  M.add("throughput_rps",
        static_cast<double>(OkClosed) /
            (static_cast<double>(ClosedEnd - ClosedStart) / 1e9),
        "1/s");
  M.add("peak_rss_mb", PeakRss, "MiB");
  M.add("host.ref_ms", median(RefMs), "ms");

  for (int C = 0; C != NumClasses; ++C)
    M.add(std::string("service.latency_ms.") + ClassNames[C],
          median(ByClass[C]), "ms");
  M.add("service.run_ms", median(ServerRun), "ms");
  M.add("service.overhead_ms", median(Overhead), "ms");
  M.add("service.cache_hit_rate",
        ServerRun.empty() ? 0
                          : static_cast<double>(CacheHits) /
                                static_cast<double>(ServerRun.size()),
        "fraction");
  M.add("service.shed", jsonNumberField(Stats, "shed_total"), "count");
  M.add("service.peak_queue_depth", jsonNumberField(Stats, "peak_queue_depth"),
        "count");
  M.add("service.peak_inflight", jsonNumberField(Stats, "peak_inflight"),
        "count");
  M.add("client.lateness_ms_max", Lateness, "ms");
  M.add("counters.unstable_cells", static_cast<double>(Unstable), "count");
  double StoreHits = jsonNumberField(Stats, "store_hits");
  double StoreMisses = jsonNumberField(Stats, "store_misses");
  M.add("store.hit_rate",
        StoreHits + StoreMisses > 0 ? StoreHits / (StoreHits + StoreMisses)
                                    : 0,
        "fraction");

  if (Opts.Trace) {
    std::vector<const CellLayers *> LayerPtrs;
    std::vector<double> Puts, Loads;
    for (const CellLayers &L : Layers) {
      LayerPtrs.push_back(&L);
      Puts.push_back(median(L.StorePutMs));
      Loads.push_back(median(L.StoreLoadMs));
    }
    addLayerMetrics(LayerPtrs, M);
    M.add("store.put_ms", median(Puts), "ms");
    M.add("store.load_ms", median(Loads), "ms");
    for (const auto &[Name, Ms] : T.selfMs())
      M.add("self_ms." + Name, Ms, "ms");
    M.add("trace.overhead_pct",
          ReplayMs[0] > 0 ? (ReplayMs[1] / ReplayMs[0] - 1) * 100 : 0, "%");
    std::string Path = Opts.WorkDir + "/trace-serve-" +
                       std::to_string(Opts.Seed) + ".jsonl";
    if (!T.write(Path))
      std::fprintf(stderr, "perfbench: cannot write %s\n", Path.c_str());
  }

  std::error_code EC;
  std::filesystem::remove_all(Base, EC);
  return Out;
}
