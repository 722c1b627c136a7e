//===----------------------------------------------------------------------===//
///
/// \file
/// The long-running multi-tenant griftd server. Listens on a Unix or
/// loopback TCP socket, speaks the length-prefixed frame protocol
/// (service/Protocol.h), and pushes every request through the layered
/// robustness pipeline before an engine ever sees it:
///
///   1. connection cap — accepts beyond MaxConnections are answered
///      with an Overloaded frame and closed;
///   2. frame length check — oversized requests are refused from the
///      header alone, before the payload is buffered;
///   3. per-tenant quotas (service/TenantQuota.h) — request-rate token
///      bucket, post-charged fuel budget, per-tenant inflight caps;
///   4. global admission (service/Admission.h) — inflight request and
///      byte budgets, so no mix of tenants can OOM the process;
///   5. deadline propagation — every request gets an absolute deadline
///      (its deadline_ms or the server default) that clamps queue wait
///      and the in-band wall budget together;
///   6. the hardened ExecService underneath (queue bound, engine pool).
///
/// Load shedding is always a structured response (ErrorKind::Overloaded
/// plus a "reason"), never silence, and never an unbounded queue.
///
/// Shutdown is drain-based: beginDrain() (the SIGTERM path) stops
/// accepting, lets in-flight requests finish and their responses flush,
/// then waitDrained() joins everything. Slow clients cannot stall the
/// drain: writes carry SO_SNDTIMEO and idle reads time out in 250 ms
/// slices between drain-flag polls.
///
//===----------------------------------------------------------------------===//
#ifndef GRIFT_SERVICE_SERVER_H
#define GRIFT_SERVICE_SERVER_H

#include "service/Admission.h"
#include "service/ExecService.h"
#include "service/Protocol.h"
#include "service/TenantQuota.h"

#include <atomic>
#include <cstdint>
#include <list>
#include <memory>
#include <mutex>
#include <string>
#include <thread>

namespace grift::service {

struct ServerConfig {
  /// Unix-domain listener path. Takes precedence over TCP when set; the
  /// path is unlinked on bind and again on shutdown.
  std::string UnixSocketPath;
  /// Loopback TCP listener (127.0.0.1). Used when UnixSocketPath is
  /// empty; port 0 binds an ephemeral port (see Server::tcpPort()).
  uint16_t TcpPort = 0;
  /// Concurrent connections; accepts beyond this are refused with an
  /// Overloaded frame.
  unsigned MaxConnections = 64;
  /// Per-request payload ceiling, enforced from the frame header.
  size_t MaxRequestBytes = 1u << 20; // 1 MiB
  /// Slow-client write timeout (SO_SNDTIMEO): a response the client
  /// will not read within this bound drops the connection.
  int64_t WriteTimeoutNanos = 5'000'000'000;
  /// Deadline applied to requests that carry none; 0 = requests without
  /// deadline_ms run undeadlined (not recommended).
  int64_t DefaultDeadlineNanos = 30'000'000'000;
  /// Ceiling on client-requested deadlines; 0 = no ceiling.
  int64_t MaxDeadlineNanos = 300'000'000'000;
  AdmissionConfig Admission;
  TenantQuotaConfig Quota;
  ServiceConfig Exec;
};

/// Monotonic server counters + snapshots of every layer underneath.
struct ServerStats {
  uint64_t ConnectionsAccepted = 0;
  uint64_t ConnectionsRefused = 0; ///< connection cap
  uint64_t Requests = 0;           ///< complete frames parsed as requests
  uint64_t Responses = 0;          ///< response frames fully written
  uint64_t BadRequests = 0;        ///< malformed frame/JSON/schema
  uint64_t SlowClientDrops = 0;    ///< connections dropped on write timeout
  Admission::Snapshot Adm;
  TenantQuota::Snapshot Quota;
  ServiceStats Exec;

  /// Total shed responses: global admission + queue-bound sheds.
  uint64_t shedTotal() const { return Adm.Sheds + Exec.JobsShed; }
};

class Server {
public:
  explicit Server(ServerConfig Config);
  ~Server(); ///< drains if still running

  Server(const Server &) = delete;
  Server &operator=(const Server &) = delete;

  /// Binds the listener and starts the accept thread. False + \p Error
  /// when the socket cannot be set up (nothing is left running).
  bool start(std::string &Error);

  /// The bound TCP port (after start(), TCP mode). 0 in Unix mode.
  uint16_t tcpPort() const { return BoundPort; }

  /// Initiates drain: stop accepting, finish in-flight requests, flush
  /// their responses, close connections. Returns immediately; safe to
  /// call more than once and from any thread (the SIGTERM handler path
  /// defers to the main thread via a self-pipe — see griftd).
  void beginDrain();

  /// Blocks until the accept thread and every connection have exited.
  void waitDrained();

  bool draining() const { return Drain.load(std::memory_order_relaxed); }

  ServerStats stats() const;

  /// The flat JSON object served for {"stats": true} requests.
  std::string renderStats() const;

private:
  struct Conn {
    std::thread T;
    std::shared_ptr<std::atomic<bool>> Done;
  };

  void acceptLoop();
  void handleConnection(int Fd);
  void serveRequest(int Fd, const std::string &Payload);
  bool respond(int Fd, const std::string &Payload);
  void reapFinished(bool JoinAll);

  ServerConfig Config;
  ExecService Exec;
  Admission Adm;
  TenantQuota Quota;

  int ListenFd = -1;
  int WakeR = -1, WakeW = -1; ///< self-pipe: beginDrain -> accept poll
  uint16_t BoundPort = 0;
  std::atomic<bool> Drain{false};
  std::atomic<bool> Started{false};

  std::atomic<uint64_t> Accepted{0}, Refused{0}, RequestCount{0},
      ResponseCount{0}, BadRequests{0}, SlowDrops{0};

  std::mutex ConnM;
  std::list<Conn> Conns;
  std::thread Acceptor;
};

} // namespace grift::service

#endif // GRIFT_SERVICE_SERVER_H
