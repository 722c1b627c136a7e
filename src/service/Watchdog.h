//===----------------------------------------------------------------------===//
///
/// \file
/// Deadline watchdog: one background thread that preemptively cancels
/// runs which outlive their deadline. A worker registers its run's
/// cancel token with watch() just before entering the engine and
/// unwatch()es on the way out; if the deadline passes first, the
/// watchdog stores the token and the engine unwinds with
/// ErrorKind::Cancelled at its next cancellation point (the VM's
/// dispatch-batch boundary / the refinterp's per-eval check).
///
/// The thread sleeps until the *earliest* registered deadline, so kill
/// latency is bounded by the engine's check cadence (microseconds), not
/// by a polling period. The token is polled at the same batch boundary
/// as RunLimits::MaxWallNanos (VM::checkBudgets), so the watchdog covers
/// nothing the wall budget misses; what it adds is a distinct verdict,
/// Cancelled, for a kill decided outside the run.
///
//===----------------------------------------------------------------------===//
#ifndef GRIFT_SERVICE_WATCHDOG_H
#define GRIFT_SERVICE_WATCHDOG_H

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <map>
#include <mutex>
#include <thread>

namespace grift::service {

class Watchdog {
public:
  using Clock = std::chrono::steady_clock;

  Watchdog();
  ~Watchdog();
  Watchdog(const Watchdog &) = delete;
  Watchdog &operator=(const Watchdog &) = delete;

  /// Arms \p Token to be stored true at \p Deadline. \p Token must stay
  /// valid until unwatch() returns. Returns a handle for unwatch().
  uint64_t watch(std::atomic<bool> &Token, Clock::time_point Deadline);

  /// Disarms a watch. Safe to call after the deadline fired (the kill is
  /// already recorded; the token stays true for the caller to observe).
  void unwatch(uint64_t Handle);

  /// Runs killed because their deadline passed.
  uint64_t kills() const { return Kills.load(std::memory_order_relaxed); }

private:
  struct Armed {
    std::atomic<bool> *Token;
    Clock::time_point Deadline;
  };

  void loop();

  std::mutex M;
  std::condition_variable CV;
  std::map<uint64_t, Armed> Active; ///< handle -> armed watch
  uint64_t NextHandle = 1;
  bool Stop = false;
  std::atomic<uint64_t> Kills{0};
  std::thread Thread; ///< last member: started after state is ready
};

} // namespace grift::service

#endif // GRIFT_SERVICE_WATCHDOG_H
