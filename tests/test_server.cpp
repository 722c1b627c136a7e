//===----------------------------------------------------------------------===//
///
/// \file
/// The multi-tenant server stack: admission control, per-tenant quotas,
/// the frame protocol, deadline propagation, drain-based shutdown — and
/// the overload acceptance scenario from the roadmap: at 2x saturation
/// the server sheds with structured Overloaded responses in bounded
/// time, and a drain finishes every in-flight request before exit.
///
//===----------------------------------------------------------------------===//
#include "service/Server.h"

#include <gtest/gtest.h>

#include <chrono>
#include <cstring>
#include <thread>
#include <vector>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

using namespace grift;
using namespace grift::service;
using namespace grift::service::protocol;

namespace {

const char *DivergentLoop = "(letrec ([loop (lambda () (loop))]) (loop))";

/// Blocking frame client against a loopback TCP server. Reads carry a
/// generous timeout so a server bug fails the test instead of hanging it.
class Client {
public:
  explicit Client(uint16_t Port) {
    Fd = ::socket(AF_INET, SOCK_STREAM, 0);
    sockaddr_in Addr{};
    Addr.sin_family = AF_INET;
    Addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    Addr.sin_port = htons(Port);
    if (::connect(Fd, reinterpret_cast<sockaddr *>(&Addr), sizeof Addr) != 0) {
      ::close(Fd);
      Fd = -1;
      return;
    }
    timeval TV{30, 0};
    ::setsockopt(Fd, SOL_SOCKET, SO_RCVTIMEO, &TV, sizeof TV);
  }
  ~Client() {
    if (Fd >= 0)
      ::close(Fd);
  }
  Client(Client &&O) : Fd(O.Fd) { O.Fd = -1; }
  Client(const Client &) = delete;

  bool ok() const { return Fd >= 0; }

  bool send(const std::string &Payload) {
    std::string F = frame(Payload);
    return ::send(Fd, F.data(), F.size(), MSG_NOSIGNAL) ==
           static_cast<ssize_t>(F.size());
  }

  /// Sends raw bytes, bypassing framing (hostile-input tests).
  bool sendRaw(const std::string &Bytes) {
    return ::send(Fd, Bytes.data(), Bytes.size(), MSG_NOSIGNAL) ==
           static_cast<ssize_t>(Bytes.size());
  }

  /// Reads one frame; empty string on EOF/timeout/garbage.
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

  /// send + recv in one step.
  std::string roundTrip(const std::string &Payload) {
    if (!send(Payload))
      return "";
    return recvFrame();
  }

private:
  int Fd = -1;
};

bool contains(const std::string &Haystack, const std::string &Needle) {
  return Haystack.find(Needle) != std::string::npos;
}

ServerConfig smallServer(unsigned Threads = 2) {
  ServerConfig C;
  C.TcpPort = 0; // ephemeral
  C.Exec.Threads = Threads;
  C.Exec.MaxQueueDepth = 4;
  return C;
}

} // namespace

//===----------------------------------------------------------------------===//
// Admission (unit)
//===----------------------------------------------------------------------===//

TEST(ServerAdmission, BoundsInflightRequestsAndBytes) {
  Admission A({.MaxInflight = 2, .MaxInflightBytes = 100});
  EXPECT_EQ(A.admit(40), Admission::Verdict::Admitted);
  EXPECT_EQ(A.admit(40), Admission::Verdict::Admitted);
  EXPECT_EQ(A.admit(1), Admission::Verdict::TooManyInflight);
  A.release(40);
  EXPECT_EQ(A.admit(70), Admission::Verdict::TooManyBytes);
  EXPECT_EQ(A.admit(60), Admission::Verdict::Admitted);

  Admission::Snapshot S = A.snapshot();
  EXPECT_EQ(S.Admitted, 3u);
  EXPECT_EQ(S.Sheds, 2u);
  EXPECT_EQ(S.ShedsInflight, 1u);
  EXPECT_EQ(S.ShedsBytes, 1u);
  EXPECT_EQ(S.Inflight, 2u);
  EXPECT_EQ(S.InflightBytes, 100u);
  EXPECT_EQ(S.PeakInflight, 2u);
  EXPECT_EQ(S.PeakInflightBytes, 100u);
}

TEST(ServerAdmission, TicketReleasesOnScopeExit) {
  Admission A({.MaxInflight = 1, .MaxInflightBytes = 0});
  {
    AdmissionTicket T(A, 10);
    ASSERT_TRUE(T.admitted());
    AdmissionTicket Blocked(A, 10);
    EXPECT_FALSE(Blocked.admitted());
    EXPECT_EQ(Blocked.verdict(), Admission::Verdict::TooManyInflight);
  }
  EXPECT_EQ(A.snapshot().Inflight, 0u);
  EXPECT_TRUE(AdmissionTicket(A, 10).admitted());
}

//===----------------------------------------------------------------------===//
// Tenant quotas (unit, injected clock)
//===----------------------------------------------------------------------===//

TEST(ServerQuota, RequestRateBucketRefillsDeterministically) {
  TenantQuotaConfig C;
  C.RequestsPerSec = 10;
  C.BurstRequests = 2;
  TenantQuota Q(C);
  auto T0 = TenantQuota::Clock::now();

  // Fresh tenant: the full burst, then refusal.
  EXPECT_EQ(Q.admit("a", 0, T0), TenantQuota::Verdict::Admitted);
  EXPECT_EQ(Q.admit("a", 0, T0), TenantQuota::Verdict::Admitted);
  EXPECT_EQ(Q.admit("a", 0, T0), TenantQuota::Verdict::RateLimited);
  // Tenants are independent.
  EXPECT_EQ(Q.admit("b", 0, T0), TenantQuota::Verdict::Admitted);
  // 100 ms at 10 rps = exactly one token back.
  auto T1 = T0 + std::chrono::milliseconds(100);
  EXPECT_EQ(Q.admit("a", 0, T1), TenantQuota::Verdict::Admitted);
  EXPECT_EQ(Q.admit("a", 0, T1), TenantQuota::Verdict::RateLimited);
  // Refill never exceeds the burst depth.
  auto T2 = T1 + std::chrono::hours(1);
  EXPECT_EQ(Q.admit("a", 0, T2), TenantQuota::Verdict::Admitted);
  EXPECT_EQ(Q.admit("a", 0, T2), TenantQuota::Verdict::Admitted);
  EXPECT_EQ(Q.admit("a", 0, T2), TenantQuota::Verdict::RateLimited);

  TenantQuota::Snapshot S = Q.snapshot();
  EXPECT_EQ(S.RateRejects, 3u);
  EXPECT_EQ(S.Tenants, 2u);
}

TEST(ServerQuota, FuelDebtIsPostChargedAndPaysBackOverTime) {
  TenantQuotaConfig C;
  C.FuelPerSec = 1000;
  C.FuelBurst = 1000;
  TenantQuota Q(C);
  auto T0 = TenantQuota::Clock::now();

  ASSERT_EQ(Q.admit("hot", 0, T0), TenantQuota::Verdict::Admitted);
  // The run burned 3x the bucket: the tenant goes into debt...
  Q.complete("hot", 0, 3000);
  EXPECT_EQ(Q.admit("hot", 0, T0), TenantQuota::Verdict::FuelExhausted);
  // ...and stays refused until the refill clears the debt (-2000 fuel
  // at 1000/s = 2 s to break even, plus a margin to go positive).
  auto T1 = T0 + std::chrono::milliseconds(1500);
  EXPECT_EQ(Q.admit("hot", 0, T1), TenantQuota::Verdict::FuelExhausted);
  auto T2 = T0 + std::chrono::milliseconds(2100);
  EXPECT_EQ(Q.admit("hot", 0, T2), TenantQuota::Verdict::Admitted);
  // Other tenants were never affected by "hot"'s debt.
  EXPECT_EQ(Q.admit("cold", 0, T0), TenantQuota::Verdict::Admitted);
  EXPECT_EQ(Q.snapshot().FuelRejects, 2u);
}

TEST(ServerQuota, PerTenantInflightCaps) {
  TenantQuotaConfig C;
  C.MaxInflight = 1;
  C.MaxInflightBytes = 100;
  TenantQuota Q(C);
  auto T0 = TenantQuota::Clock::now();
  ASSERT_EQ(Q.admit("t", 10, T0), TenantQuota::Verdict::Admitted);
  EXPECT_EQ(Q.admit("t", 10, T0), TenantQuota::Verdict::TooManyInflight);
  Q.complete("t", 10, 0);
  EXPECT_EQ(Q.admit("t", 200, T0), TenantQuota::Verdict::TooManyBytes);
  EXPECT_EQ(Q.admit("t", 90, T0), TenantQuota::Verdict::Admitted);
  EXPECT_STREQ(tenantVerdictName(TenantQuota::Verdict::RateLimited),
               "quota:rate");
}

//===----------------------------------------------------------------------===//
// Protocol (unit)
//===----------------------------------------------------------------------===//

TEST(ServerProtocol, ParsesJobAndStatsRequests) {
  Request Req;
  std::string Error;
  ASSERT_TRUE(parseRequest("{\"id\":\"j\",\"tenant\":\"acme\","
                           "\"source\":\"(+ 1 2)\",\"deadline_ms\":250}",
                           Req, Error))
      << Error;
  EXPECT_EQ(Req.Spec.Id, "j");
  EXPECT_EQ(Req.Spec.Tenant, "acme");
  EXPECT_EQ(Req.Spec.DeadlineNanos, 250 * 1000000ll);

  Request Stats;
  ASSERT_TRUE(parseRequest("{\"stats\": true}", Stats, Error)) << Error;
  EXPECT_TRUE(Stats.StatsRequest);
}

TEST(ServerProtocol, ParsesEveryRegisteredMode) {
  // The protocol accepts exactly the registered backend names — a mode
  // added to the registry (e.g. coercion-passing) is reachable over the
  // wire with no protocol change.
  for (CastMode Mode : AllCastModes) {
    Request Req;
    std::string Error;
    std::string Json = std::string("{\"source\":\"(+ 1 1)\",\"mode\":\"") +
                       castModeName(Mode) + "\"}";
    ASSERT_TRUE(parseRequest(Json, Req, Error)) << Json << ": " << Error;
    EXPECT_EQ(Req.Spec.Mode, Mode);
  }
}

TEST(ServerProtocol, RejectsHostileRequestsWithReasons) {
  Request Req;
  std::string Error;
  std::string Reason;
  EXPECT_FALSE(parseRequest("{\"source\":\"x\",\"mode\":\"bogus\"}", Req,
                            Error, &Reason));
  EXPECT_TRUE(contains(Error, "mode"));
  EXPECT_EQ(Reason, "unknown-mode");
  // Near-miss spellings of a real mode stay fail-closed: no trimming,
  // no case folding, no prefix matching.
  for (const char *Garbled :
       {"coercion-passing ", " coercion-passing", "Coercion-Passing",
        "coercion_passing", "coercionpassing", "coercion-pass"}) {
    Reason.clear();
    EXPECT_FALSE(parseRequest(std::string("{\"source\":\"x\",\"mode\":\"") +
                                  Garbled + "\"}",
                              Req, Error, &Reason))
        << Garbled;
    EXPECT_EQ(Reason, "unknown-mode") << Garbled;
  }
  EXPECT_FALSE(parseRequest("{\"id\":\"x\"}", Req, Error, &Reason));
  EXPECT_TRUE(contains(Error, "source"));
  EXPECT_EQ(Reason, "missing-source");
  EXPECT_FALSE(parseRequest("{\"surprise\": 1, \"source\": \"x\"}", Req,
                            Error, &Reason));
  EXPECT_TRUE(contains(Error, "surprise"));
  EXPECT_EQ(Reason, "unknown-key");
  EXPECT_FALSE(parseRequest("not json at all", Req, Error, &Reason));
  EXPECT_EQ(Reason, "malformed-json");
  // The bad-request record carries the reason as its own member.
  EXPECT_TRUE(contains(renderBadRequest("j1", "unknown mode 'bogus'",
                                        "unknown-mode"),
                       "\"reason\":\"unknown-mode\""));
}

TEST(ServerProtocol, FrameRoundTrip) {
  EXPECT_EQ(frame("abc"), "3\nabc");
  EXPECT_EQ(frame(""), "0\n");
  JobResult R = makeReject("j9", ErrorKind::Overloaded, "overloaded: queue");
  std::string Line = renderResult(R, "overloaded:queue");
  EXPECT_TRUE(contains(Line, "\"status\":\"rejected\""));
  EXPECT_TRUE(contains(Line, "\"error_kind\":\"overloaded\""));
  EXPECT_TRUE(contains(Line, "\"reason\":\"overloaded:queue\""));
}

//===----------------------------------------------------------------------===//
// Server end-to-end
//===----------------------------------------------------------------------===//

TEST(Server, ServesJobsOverTcpAndReportsStats) {
  ServerConfig Config = smallServer();
  Server Srv(Config);
  std::string Error;
  ASSERT_TRUE(Srv.start(Error)) << Error;
  ASSERT_NE(Srv.tcpPort(), 0);

  Client C(Srv.tcpPort());
  ASSERT_TRUE(C.ok());
  std::string R1 =
      C.roundTrip("{\"id\":\"a\",\"source\":\"(+ 40 2)\"}");
  EXPECT_TRUE(contains(R1, "\"id\":\"a\"")) << R1;
  EXPECT_TRUE(contains(R1, "\"status\":\"ok\"")) << R1;
  EXPECT_TRUE(contains(R1, "\"result\":\"42\"")) << R1;

  // Same connection serves many requests; a blame error is a result,
  // not a connection event.
  std::string R2 = C.roundTrip(
      "{\"id\":\"b\",\"source\":\"(ann (ann #t Dyn) Int)\"}");
  EXPECT_TRUE(contains(R2, "\"status\":\"failed\"")) << R2;
  EXPECT_TRUE(contains(R2, "\"error_kind\":\"blame\"")) << R2;

  std::string Stats = C.roundTrip("{\"stats\": true}");
  EXPECT_TRUE(contains(Stats, "\"status\":\"stats\"")) << Stats;
  EXPECT_TRUE(contains(Stats, "\"requests\":3")) << Stats;

  Srv.beginDrain();
  Srv.waitDrained();
  EXPECT_EQ(Srv.stats().Responses, 3u);
}

TEST(Server, MalformedJsonKeepsConnectionOversizedFrameCloses) {
  ServerConfig Config = smallServer();
  Config.MaxRequestBytes = 256;
  Server Srv(Config);
  std::string Error;
  ASSERT_TRUE(Srv.start(Error)) << Error;

  Client C(Srv.tcpPort());
  ASSERT_TRUE(C.ok());
  // Malformed JSON: structured bad-request, connection stays up.
  std::string R1 = C.roundTrip("this is not json");
  EXPECT_TRUE(contains(R1, "\"status\":\"bad-request\"")) << R1;
  // Unknown keys and nested values: same.
  std::string R2 = C.roundTrip("{\"source\":\"x\",\"extra\":[1,2]}");
  EXPECT_TRUE(contains(R2, "\"status\":\"bad-request\"")) << R2;
  // The connection still serves real work after the garbage.
  std::string R3 = C.roundTrip("{\"id\":\"ok\",\"source\":\"(* 6 7)\"}");
  EXPECT_TRUE(contains(R3, "\"result\":\"42\"")) << R3;

  // An oversized frame is refused from its header and the connection is
  // closed (stream position would be unknowable).
  ASSERT_TRUE(C.send(std::string(4096, 'x')));
  std::string R4 = C.recvFrame();
  EXPECT_TRUE(contains(R4, "max_request_bytes")) << R4;
  EXPECT_EQ(C.recvFrame(), "");

  // A hostile header (non-digits) also closes, after a structured error.
  Client C2(Srv.tcpPort());
  ASSERT_TRUE(C2.ok());
  ASSERT_TRUE(C2.sendRaw("deadbeef\n"));
  std::string R5 = C2.recvFrame();
  EXPECT_TRUE(contains(R5, "malformed")) << R5;
  EXPECT_EQ(C2.recvFrame(), "");

  Srv.beginDrain();
  Srv.waitDrained();
  EXPECT_GE(Srv.stats().BadRequests, 4u);
}

TEST(Server, DeadlinePropagationKillsWedgedRequest) {
  ServerConfig Config = smallServer();
  Server Srv(Config);
  std::string Error;
  ASSERT_TRUE(Srv.start(Error)) << Error;

  Client C(Srv.tcpPort());
  ASSERT_TRUE(C.ok());
  auto Start = std::chrono::steady_clock::now();
  std::string R = C.roundTrip(std::string("{\"id\":\"w\",\"source\":\"") +
                              DivergentLoop + "\",\"deadline_ms\":300}");
  auto Elapsed = std::chrono::steady_clock::now() - Start;
  EXPECT_TRUE(contains(R, "\"status\":\"failed\"")) << R;
  // The deadline clamps the in-band wall budget; no watchdog races it.
  EXPECT_TRUE(contains(R, "\"error_kind\":\"timeout\"")) << R;
  EXPECT_LT(Elapsed, std::chrono::seconds(10));

  Srv.beginDrain();
  Srv.waitDrained();
}

TEST(Server, TenantQuotaShedsOverSocketWithReason) {
  ServerConfig Config = smallServer();
  Config.Quota.RequestsPerSec = 0.001; // effectively: the burst, then done
  Config.Quota.BurstRequests = 2;
  Server Srv(Config);
  std::string Error;
  ASSERT_TRUE(Srv.start(Error)) << Error;

  Client C(Srv.tcpPort());
  ASSERT_TRUE(C.ok());
  for (int I = 0; I != 2; ++I) {
    std::string R = C.roundTrip(
        "{\"tenant\":\"acme\",\"source\":\"(+ 1 1)\"}");
    EXPECT_TRUE(contains(R, "\"status\":\"ok\"")) << R;
  }
  std::string Shed =
      C.roundTrip("{\"tenant\":\"acme\",\"source\":\"(+ 1 1)\"}");
  EXPECT_TRUE(contains(Shed, "\"status\":\"rejected\"")) << Shed;
  EXPECT_TRUE(contains(Shed, "\"error_kind\":\"overloaded\"")) << Shed;
  EXPECT_TRUE(contains(Shed, "\"reason\":\"quota:rate\"")) << Shed;
  // A different tenant on the same connection is unaffected.
  std::string Other =
      C.roundTrip("{\"tenant\":\"umbrella\",\"source\":\"(+ 2 2)\"}");
  EXPECT_TRUE(contains(Other, "\"status\":\"ok\"")) << Other;

  Srv.beginDrain();
  Srv.waitDrained();
  EXPECT_GE(Srv.stats().Quota.RateRejects, 1u);
}

/// A run's verdict depends only on its own (source, mode, input,
/// limits): one tenant's fuel-exhausted runs of a program must not
/// change what another tenant's unlimited run of it returns.
TEST(Server, OneTenantsFailuresNeverChangeAnothersResult) {
  ServerConfig Config = smallServer();
  Server Srv(Config);
  std::string Error;
  ASSERT_TRUE(Srv.start(Error)) << Error;

  const std::string Source = "(repeat (i 0 2000) (acc : Int 0) (+ acc i))";
  Client C(Srv.tcpPort());
  ASSERT_TRUE(C.ok());
  for (int I = 0; I != 3; ++I) {
    std::string R = C.roundTrip("{\"tenant\":\"a\",\"source\":\"" + Source +
                                "\",\"max_steps\":1}");
    EXPECT_TRUE(contains(R, "\"error_kind\":\"fuel-exhausted\"")) << R;
  }
  std::string R =
      C.roundTrip("{\"tenant\":\"b\",\"source\":\"" + Source + "\"}");
  EXPECT_TRUE(contains(R, "\"status\":\"ok\"")) << R;
  EXPECT_TRUE(contains(R, "\"result\":\"1999000\"")) << R;

  Srv.beginDrain();
  Srv.waitDrained();
}

/// The overload acceptance scenario: with the worker pool saturated at
/// 2x (every worker wedged on a watchdog-bounded job, the queue full,
/// admission at its limit), further requests are shed with structured
/// Overloaded responses within a bounded time — and a drain then
/// finishes every in-flight job and delivers every response.
TEST(Server, OverloadAtTwiceSaturationShedsStructurallyAndDrainsClean) {
  ServerConfig Config = smallServer(/*Threads=*/2);
  Config.Exec.MaxQueueDepth = 2;
  Config.Admission.MaxInflight = 4; // threads + queue
  Server Srv(Config);
  std::string Error;
  ASSERT_TRUE(Srv.start(Error)) << Error;

  // 2x saturation: 8 concurrent wedged requests against 4 slots.
  constexpr int N = 8;
  std::vector<std::thread> Threads;
  std::vector<std::string> Responses(N);
  auto Start = std::chrono::steady_clock::now();
  for (int I = 0; I != N; ++I)
    Threads.emplace_back([&, I] {
      Client C(Srv.tcpPort());
      if (!C.ok())
        return;
      Responses[I] = C.roundTrip(
          std::string("{\"id\":\"ov-") + std::to_string(I) +
          "\",\"source\":\"" + DivergentLoop + "\",\"deadline_ms\":600}");
    });
  for (std::thread &T : Threads)
    T.join();
  auto Elapsed = std::chrono::steady_clock::now() - Start;

  int Ran = 0, Shed = 0;
  for (const std::string &R : Responses) {
    ASSERT_FALSE(R.empty()) << "a client got no response under overload";
    if (contains(R, "\"status\":\"rejected\"")) {
      ++Shed;
      EXPECT_TRUE(contains(R, "\"error_kind\":\"overloaded\"")) << R;
      EXPECT_TRUE(contains(R, "\"reason\":\"overloaded:")) << R;
    } else {
      ++Ran;
      EXPECT_TRUE(contains(R, "\"error_kind\":\"timeout\"")) << R;
    }
  }
  // At least the beyond-capacity half was shed; every shed was fast
  // (the slowest admitted job holds a slot for ~600 ms + margin).
  EXPECT_GE(Shed, N / 2) << "overload did not shed";
  EXPECT_GE(Ran, 1) << "everything was shed; nothing admitted";
  EXPECT_LT(Elapsed, std::chrono::seconds(30));

  // Drain with the pool still warm: in-flight work finishes, stats add
  // up, and the listener refuses new connections afterwards.
  Srv.beginDrain();
  Srv.waitDrained();
  ServerStats S = Srv.stats();
  EXPECT_EQ(S.Requests, static_cast<uint64_t>(N));
  EXPECT_EQ(S.Responses, static_cast<uint64_t>(N));
  EXPECT_GE(S.shedTotal(), static_cast<uint64_t>(Shed));
  EXPECT_EQ(S.SlowClientDrops, 0u);
}

TEST(Server, DrainFinishesInflightWorkBeforeExit) {
  ServerConfig Config = smallServer();
  Server Srv(Config);
  std::string Error;
  ASSERT_TRUE(Srv.start(Error)) << Error;

  Client C(Srv.tcpPort());
  ASSERT_TRUE(C.ok());
  // A request that takes ~400 ms (wedged + watchdog): start it, then
  // immediately drain. The response must still arrive, complete.
  ASSERT_TRUE(C.send(std::string("{\"id\":\"inflight\",\"source\":\"") +
                     DivergentLoop + "\",\"deadline_ms\":400}"));
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  Srv.beginDrain();
  std::string R = C.recvFrame();
  EXPECT_TRUE(contains(R, "\"id\":\"inflight\"")) << R;
  EXPECT_TRUE(contains(R, "\"status\":\"failed\"")) << R;
  Srv.waitDrained();
  EXPECT_EQ(Srv.stats().Responses, 1u);

  // After the drain the listener is gone.
  Client C2(Srv.tcpPort());
  EXPECT_TRUE(!C2.ok() || C2.roundTrip("{\"stats\":true}") == "");
}

TEST(Server, UnixSocketModeWorks) {
  ServerConfig Config = smallServer();
  Config.UnixSocketPath = "/tmp/griftd-test-" + std::to_string(::getpid()) +
                          ".sock";
  Server Srv(Config);
  std::string Error;
  ASSERT_TRUE(Srv.start(Error)) << Error;

  int Fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
  ASSERT_GE(Fd, 0);
  sockaddr_un Addr{};
  Addr.sun_family = AF_UNIX;
  std::strncpy(Addr.sun_path, Config.UnixSocketPath.c_str(),
               sizeof Addr.sun_path - 1);
  ASSERT_EQ(::connect(Fd, reinterpret_cast<sockaddr *>(&Addr), sizeof Addr),
            0);
  std::string F = frame("{\"id\":\"u\",\"source\":\"(+ 1 1)\"}");
  ASSERT_EQ(::send(Fd, F.data(), F.size(), MSG_NOSIGNAL),
            static_cast<ssize_t>(F.size()));
  char Buf[4096];
  ssize_t N = ::recv(Fd, Buf, sizeof Buf, 0);
  ASSERT_GT(N, 0);
  EXPECT_TRUE(contains(std::string(Buf, static_cast<size_t>(N)),
                       "\"result\":\"2\""));
  ::close(Fd);

  Srv.beginDrain();
  Srv.waitDrained();
  // The socket path was unlinked on shutdown.
  EXPECT_NE(::access(Config.UnixSocketPath.c_str(), F_OK), 0);
}
