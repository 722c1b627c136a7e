#include "service/Server.h"

#include <cerrno>
#include <chrono>
#include <cstring>
#include <sstream>

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <poll.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

using namespace grift;
using namespace grift::service;
using namespace grift::service::protocol;

namespace {

void setRecvTimeout(int Fd, int64_t Nanos) {
  timeval TV;
  TV.tv_sec = Nanos / 1'000'000'000;
  TV.tv_usec = (Nanos % 1'000'000'000) / 1000;
  ::setsockopt(Fd, SOL_SOCKET, SO_RCVTIMEO, &TV, sizeof TV);
}

void setSendTimeout(int Fd, int64_t Nanos) {
  timeval TV;
  TV.tv_sec = Nanos / 1'000'000'000;
  TV.tv_usec = (Nanos % 1'000'000'000) / 1000;
  ::setsockopt(Fd, SOL_SOCKET, SO_SNDTIMEO, &TV, sizeof TV);
}

/// The read-slice between drain-flag polls: short enough that SIGTERM
/// drains promptly, long enough that an idle connection costs ~4 wakeups
/// a second.
constexpr int64_t ReadSliceNanos = 250'000'000;

} // namespace

Server::Server(ServerConfig C)
    : Config(C), Exec(C.Exec), Adm(C.Admission), Quota(C.Quota) {}

Server::~Server() {
  if (Started.load()) {
    beginDrain();
    waitDrained();
  }
  if (WakeR >= 0)
    ::close(WakeR);
  if (WakeW >= 0)
    ::close(WakeW);
}

bool Server::start(std::string &Error) {
  int Pipe[2];
  if (::pipe(Pipe) != 0) {
    Error = std::string("pipe: ") + std::strerror(errno);
    return false;
  }
  WakeR = Pipe[0];
  WakeW = Pipe[1];

  if (!Config.UnixSocketPath.empty()) {
    sockaddr_un Addr{};
    Addr.sun_family = AF_UNIX;
    if (Config.UnixSocketPath.size() >= sizeof Addr.sun_path) {
      Error = "socket path too long: " + Config.UnixSocketPath;
      return false;
    }
    std::strncpy(Addr.sun_path, Config.UnixSocketPath.c_str(),
                 sizeof Addr.sun_path - 1);
    ListenFd = ::socket(AF_UNIX, SOCK_STREAM, 0);
    if (ListenFd < 0) {
      Error = std::string("socket: ") + std::strerror(errno);
      return false;
    }
    ::unlink(Config.UnixSocketPath.c_str());
    if (::bind(ListenFd, reinterpret_cast<sockaddr *>(&Addr), sizeof Addr) !=
        0) {
      Error = "bind " + Config.UnixSocketPath + ": " + std::strerror(errno);
      ::close(ListenFd);
      ListenFd = -1;
      return false;
    }
  } else {
    ListenFd = ::socket(AF_INET, SOCK_STREAM, 0);
    if (ListenFd < 0) {
      Error = std::string("socket: ") + std::strerror(errno);
      return false;
    }
    int One = 1;
    ::setsockopt(ListenFd, SOL_SOCKET, SO_REUSEADDR, &One, sizeof One);
    sockaddr_in Addr{};
    Addr.sin_family = AF_INET;
    Addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    Addr.sin_port = htons(Config.TcpPort);
    if (::bind(ListenFd, reinterpret_cast<sockaddr *>(&Addr), sizeof Addr) !=
        0) {
      Error = "bind 127.0.0.1:" + std::to_string(Config.TcpPort) + ": " +
              std::strerror(errno);
      ::close(ListenFd);
      ListenFd = -1;
      return false;
    }
    sockaddr_in Bound{};
    socklen_t Len = sizeof Bound;
    ::getsockname(ListenFd, reinterpret_cast<sockaddr *>(&Bound), &Len);
    BoundPort = ntohs(Bound.sin_port);
  }

  if (::listen(ListenFd, 128) != 0) {
    Error = std::string("listen: ") + std::strerror(errno);
    ::close(ListenFd);
    ListenFd = -1;
    return false;
  }

  Started.store(true);
  Acceptor = std::thread([this] { acceptLoop(); });
  return true;
}

void Server::beginDrain() {
  bool Expected = false;
  if (!Drain.compare_exchange_strong(Expected, true))
    return;
  if (WakeW >= 0) {
    char B = 1;
    [[maybe_unused]] ssize_t N = ::write(WakeW, &B, 1);
  }
}

void Server::waitDrained() {
  if (Acceptor.joinable())
    Acceptor.join();
  reapFinished(/*JoinAll=*/true);
  if (!Config.UnixSocketPath.empty())
    ::unlink(Config.UnixSocketPath.c_str());
}

void Server::reapFinished(bool JoinAll) {
  std::list<Conn> ToJoin;
  {
    std::lock_guard<std::mutex> Lock(ConnM);
    for (auto It = Conns.begin(); It != Conns.end();) {
      if (JoinAll || It->Done->load(std::memory_order_acquire)) {
        ToJoin.splice(ToJoin.end(), Conns, It++);
      } else {
        ++It;
      }
    }
  }
  for (Conn &C : ToJoin)
    if (C.T.joinable())
      C.T.join();
}

void Server::acceptLoop() {
  for (;;) {
    pollfd PFDs[2] = {{ListenFd, POLLIN, 0}, {WakeR, POLLIN, 0}};
    int N = ::poll(PFDs, 2, 1000);
    if (Drain.load(std::memory_order_relaxed))
      break;
    if (N <= 0)
      continue;
    if (!(PFDs[0].revents & POLLIN))
      continue;
    int Fd = ::accept(ListenFd, nullptr, nullptr);
    if (Fd < 0)
      continue;
    reapFinished(/*JoinAll=*/false);
    size_t Open;
    {
      std::lock_guard<std::mutex> Lock(ConnM);
      Open = Conns.size();
    }
    setSendTimeout(Fd, Config.WriteTimeoutNanos);
    if (Config.MaxConnections && Open >= Config.MaxConnections) {
      // Refuse with a structured frame, not a silent close: the client
      // learns it was shed, not that the server died.
      Refused.fetch_add(1, std::memory_order_relaxed);
      JobResult R = makeReject("", ErrorKind::Overloaded,
                               "overloaded: connection limit reached");
      writeFrame(Fd, renderResult(R, "overloaded:connections"));
      ::close(Fd);
      continue;
    }
    Accepted.fetch_add(1, std::memory_order_relaxed);
    setRecvTimeout(Fd, ReadSliceNanos);
    auto Done = std::make_shared<std::atomic<bool>>(false);
    std::thread T([this, Fd, Done] {
      handleConnection(Fd);
      Done->store(true, std::memory_order_release);
    });
    std::lock_guard<std::mutex> Lock(ConnM);
    Conns.push_back(Conn{std::move(T), std::move(Done)});
  }
  ::close(ListenFd);
  ListenFd = -1;
}

bool Server::respond(int Fd, const std::string &Payload) {
  if (!writeFrame(Fd, Payload)) {
    SlowDrops.fetch_add(1, std::memory_order_relaxed);
    return false;
  }
  ResponseCount.fetch_add(1, std::memory_order_relaxed);
  return true;
}

void Server::handleConnection(int Fd) {
  FrameReader Reader(Fd, Config.MaxRequestBytes);
  std::string Payload;
  for (;;) {
    ReadStatus St = Reader.read(Payload);
    if (St == ReadStatus::Timeout) {
      if (Drain.load(std::memory_order_relaxed))
        break; // idle at drain: close; in-flight requests already finished
      continue;
    }
    if (St == ReadStatus::Closed)
      break;
    if (St == ReadStatus::TooLarge) {
      // The header told us the client wants more than we will buffer;
      // refusing without reading the body is the point of the length
      // prefix. The stream position is unknowable now, so close.
      BadRequests.fetch_add(1, std::memory_order_relaxed);
      respond(Fd, renderBadRequest(
                      "",
                      "request exceeds max_request_bytes (" +
                          std::to_string(Config.MaxRequestBytes) + ")",
                      "too-large"));
      break;
    }
    if (St == ReadStatus::Malformed) {
      BadRequests.fetch_add(1, std::memory_order_relaxed);
      respond(Fd,
              renderBadRequest("", "malformed frame header",
                               "malformed-frame"));
      break;
    }
    serveRequest(Fd, Payload);
    if (Drain.load(std::memory_order_relaxed))
      break; // response flushed; now close
  }
  ::close(Fd);
}

void Server::serveRequest(int Fd, const std::string &Payload) {
  RequestCount.fetch_add(1, std::memory_order_relaxed);

  Request Req;
  std::string ParseError;
  std::string ParseReason;
  if (!parseRequest(Payload, Req, ParseError, &ParseReason)) {
    // Malformed JSON or schema: a per-request error response, and the
    // connection keeps serving — one bad line never kills a stream.
    BadRequests.fetch_add(1, std::memory_order_relaxed);
    respond(Fd, renderBadRequest(Req.Spec.Id, ParseError, ParseReason));
    return;
  }
  if (Req.StatsRequest) {
    respond(Fd, renderStats());
    return;
  }

  const size_t Bytes = Payload.size();
  const std::string Tenant = Req.Spec.Tenant;

  // Layer 3: per-tenant quotas.
  if (Quota.enabled()) {
    TenantQuota::Verdict V =
        Quota.admit(Tenant, Bytes, TenantQuota::Clock::now());
    if (V != TenantQuota::Verdict::Admitted) {
      JobResult R = makeReject(Req.Spec.Id, ErrorKind::Overloaded,
                               std::string("tenant quota exceeded (") +
                                   tenantVerdictName(V) + ")");
      respond(Fd, renderResult(R, tenantVerdictName(V)));
      return;
    }
  }

  // Layer 4: global admission. Released when the request completes.
  AdmissionTicket Ticket(Adm, Bytes);
  if (!Ticket.admitted()) {
    if (Quota.enabled())
      Quota.complete(Tenant, Bytes, 0);
    const char *Reason =
        Ticket.verdict() == Admission::Verdict::TooManyBytes
            ? "overloaded:bytes"
            : "overloaded:inflight";
    JobResult R = makeReject(Req.Spec.Id, ErrorKind::Overloaded,
                             std::string("overloaded: ") +
                                 (Ticket.verdict() ==
                                          Admission::Verdict::TooManyBytes
                                      ? "inflight byte budget exhausted"
                                      : "too many requests in flight"));
    respond(Fd, renderResult(R, Reason));
    return;
  }

  // Layer 5: deadline propagation. The absolute deadline covers queue
  // wait + the run; the wall budget is clamped to it inside ExecService.
  int64_t DeadlineNanos = Req.Spec.DeadlineNanos;
  if (DeadlineNanos <= 0)
    DeadlineNanos = Config.DefaultDeadlineNanos;
  if (Config.MaxDeadlineNanos > 0 && DeadlineNanos > Config.MaxDeadlineNanos)
    DeadlineNanos = Config.MaxDeadlineNanos;
  Req.Spec.DeadlineNanos = DeadlineNanos;
  if (DeadlineNanos > 0)
    Req.Spec.QueueDeadline = std::chrono::steady_clock::now() +
                             std::chrono::nanoseconds(DeadlineNanos);

  JobResult R = Exec.run(std::move(Req.Spec));
  if (Quota.enabled())
    Quota.complete(Tenant, Bytes, R.FuelUsed);

  respond(Fd, renderResult(R, R.Status == JobStatus::Rejected
                                  ? "overloaded:queue"
                                  : ""));
}

ServerStats Server::stats() const {
  ServerStats S;
  S.ConnectionsAccepted = Accepted.load(std::memory_order_relaxed);
  S.ConnectionsRefused = Refused.load(std::memory_order_relaxed);
  S.Requests = RequestCount.load(std::memory_order_relaxed);
  S.Responses = ResponseCount.load(std::memory_order_relaxed);
  S.BadRequests = BadRequests.load(std::memory_order_relaxed);
  S.SlowClientDrops = SlowDrops.load(std::memory_order_relaxed);
  S.Adm = Adm.snapshot();
  S.Quota = Quota.snapshot();
  S.Exec = Exec.stats();
  return S;
}

std::string Server::renderStats() const {
  ServerStats S = stats();
  std::ostringstream Out;
  Out << "{\"status\":\"stats\""
      << ",\"connections_accepted\":" << S.ConnectionsAccepted
      << ",\"connections_refused\":" << S.ConnectionsRefused
      << ",\"requests\":" << S.Requests << ",\"responses\":" << S.Responses
      << ",\"bad_requests\":" << S.BadRequests
      << ",\"slow_client_drops\":" << S.SlowClientDrops
      << ",\"shed_total\":" << S.shedTotal()
      << ",\"quota_rejects\":" << S.Quota.Rejects
      << ",\"quota_rate_rejects\":" << S.Quota.RateRejects
      << ",\"quota_fuel_rejects\":" << S.Quota.FuelRejects
      << ",\"watchdog_kills\":" << S.Exec.WatchdogKills
      << ",\"deadline_expired\":" << S.Exec.DeadlineExpired
      << ",\"jobs_submitted\":" << S.Exec.JobsSubmitted
      << ",\"jobs_completed\":" << S.Exec.JobsCompleted
      << ",\"cache_hits\":" << S.Exec.CacheHits
      << ",\"cache_misses\":" << S.Exec.CacheMisses
      << ",\"epoch_resets\":" << S.Exec.EpochResets
      << ",\"store_hits\":" << S.Exec.StoreHits
      << ",\"store_misses\":" << S.Exec.StoreMisses
      << ",\"store_corrupt\":" << S.Exec.StoreCorrupt
      << ",\"store_evicted\":" << S.Exec.StoreEvicted
      << ",\"peak_queue_depth\":" << S.Exec.PeakQueueDepth
      << ",\"peak_inflight\":" << S.Adm.PeakInflight
      << ",\"peak_inflight_bytes\":" << S.Adm.PeakInflightBytes
      << ",\"tenants\":" << S.Quota.Tenants << "}";
  return Out.str();
}
