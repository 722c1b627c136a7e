#include "service/Protocol.h"

#include "runtime/Mode.h"
#include "support/Json.h"

#include <cerrno>
#include <map>
#include <sstream>

#include <sys/socket.h>
#include <sys/types.h>

using namespace grift;
using namespace grift::service;
using namespace grift::service::protocol;

bool grift::service::protocol::parseRequest(const std::string &Json,
                                            Request &Out, std::string &Error,
                                            std::string *Reason) {
  auto failWith = [&](const char *Class) {
    if (Reason)
      *Reason = Class;
    return false;
  };
  json::LineParser P(Json);
  std::map<std::string, json::Value> Obj;
  if (!P.parse(Obj)) {
    Error = P.Error;
    return failWith("malformed-json");
  }
  for (const auto &[Key, V] : Obj) {
    if (Key == "id")
      Out.Spec.Id = V.S;
    else if (Key == "tenant")
      Out.Spec.Tenant = V.S;
    else if (Key == "source")
      Out.Spec.Source = V.S;
    else if (Key == "input")
      Out.Spec.Input = V.S;
    else if (Key == "mode") {
      // The one shared mode parser (runtime/Mode.h): griftc, the socket
      // protocol, and the batch manifest accept exactly the same names,
      // and a backend registered there is automatically reachable here.
      if (!castModeFromName(V.S, Out.Spec.Mode)) {
        Error = "unknown mode '" + V.S + "'";
        return failWith("unknown-mode");
      }
    } else if (Key == "optimize")
      Out.Spec.Optimize = V.B;
    else if (Key == "max_steps")
      Out.Spec.Limits.MaxSteps = static_cast<uint64_t>(V.N);
    else if (Key == "max_heap")
      Out.Spec.Limits.MaxHeapBytes = static_cast<size_t>(V.N);
    else if (Key == "max_depth")
      Out.Spec.Limits.MaxFrames = static_cast<uint32_t>(V.N);
    else if (Key == "max_wall_ms")
      Out.Spec.Limits.MaxWallNanos = static_cast<int64_t>(V.N * 1e6);
    else if (Key == "deadline_ms")
      Out.Spec.DeadlineNanos = static_cast<int64_t>(V.N * 1e6);
    else if (Key == "stats")
      Out.StatsRequest = V.K == json::Value::Bool ? V.B : true;
    else {
      Error = "unknown key '" + Key + "'";
      return failWith("unknown-key");
    }
  }
  if (!Out.StatsRequest && Out.Spec.Source.empty()) {
    Error = "missing \"source\"";
    return failWith("missing-source");
  }
  return true;
}

std::string grift::service::protocol::renderResult(const JobResult &R,
                                                   const std::string &Reason) {
  std::ostringstream Out;
  Out << "{\"id\":\"" << json::escape(R.Id) << "\",\"status\":\""
      << jobStatusName(R.Status) << '"';
  if (R.Status == JobStatus::Done)
    Out << ",\"result\":\"" << json::escape(R.ResultText) << '"';
  if (R.Status == JobStatus::Failed || R.Status == JobStatus::Rejected)
    Out << ",\"error_kind\":\"" << errorKindName(R.Kind) << '"';
  if (R.Status != JobStatus::Done)
    Out << ",\"error\":\"" << json::escape(R.ErrorMessage) << '"';
  if (!Reason.empty())
    Out << ",\"reason\":\"" << json::escape(Reason) << '"';
  Out << ",\"cache_hit\":" << (R.CompileCacheHit ? "true" : "false")
      << ",\"wall_ms\":" << R.WallNanos / 1e6 << ",\"fuel\":" << R.FuelUsed
      << ",\"peak_heap\":" << R.PeakHeapBytes << ",\"casts\":"
      << R.Stats.CastsApplied << "}";
  return Out.str();
}

std::string
grift::service::protocol::renderBadRequest(const std::string &Id,
                                           const std::string &Error,
                                           const std::string &Reason) {
  std::string Out = "{\"id\":\"" + json::escape(Id) +
                    "\",\"status\":\"bad-request\",\"error\":\"" +
                    json::escape(Error) + "\"";
  if (!Reason.empty())
    Out += ",\"reason\":\"" + json::escape(Reason) + "\"";
  Out += "}";
  return Out;
}

JobResult grift::service::protocol::makeReject(std::string Id, ErrorKind Kind,
                                               std::string Message) {
  JobResult R;
  R.Id = std::move(Id);
  R.Status = JobStatus::Rejected;
  R.Kind = Kind;
  R.ErrorMessage = std::move(Message);
  return R;
}

std::string grift::service::protocol::frame(std::string_view Payload) {
  std::string Out = std::to_string(Payload.size());
  Out += '\n';
  Out += Payload;
  return Out;
}

bool FrameReader::fill() {
  TimedOut = false;
  char Chunk[16384];
  ssize_t N = ::recv(Fd, Chunk, sizeof Chunk, 0);
  if (N > 0) {
    Buf.append(Chunk, static_cast<size_t>(N));
    return true;
  }
  if (N < 0 && (errno == EAGAIN || errno == EWOULDBLOCK || errno == EINTR)) {
    TimedOut = true;
    return false;
  }
  Eof = true; // orderly close or hard error: either way, stop serving
  return false;
}

ReadStatus FrameReader::read(std::string &Payload) {
  for (;;) {
    // Compact consumed bytes occasionally so a long-lived connection's
    // buffer does not grow with its request count.
    if (Off > 0 && Off == Buf.size()) {
      Buf.clear();
      Off = 0;
    } else if (Off > (1u << 16)) {
      Buf.erase(0, Off);
      Off = 0;
    }
    // Header: "<decimal>\n", at most 20 digits.
    size_t NL = Buf.find('\n', Off);
    if (NL == std::string::npos) {
      if (Buf.size() - Off > 20)
        return ReadStatus::Malformed;
      if (!fill())
        return Eof ? ReadStatus::Closed : ReadStatus::Timeout;
      continue;
    }
    if (NL == Off)
      return ReadStatus::Malformed;
    uint64_t Len = 0;
    for (size_t I = Off; I != NL; ++I) {
      char C = Buf[I];
      if (C < '0' || C > '9')
        return ReadStatus::Malformed;
      Len = Len * 10 + static_cast<uint64_t>(C - '0');
      if (Len > (1ull << 32))
        return ReadStatus::TooLarge;
    }
    if (MaxBytes && Len > MaxBytes)
      return ReadStatus::TooLarge;
    while (Buf.size() - NL - 1 < Len) {
      if (!fill())
        return Eof ? ReadStatus::Closed : ReadStatus::Timeout;
    }
    Payload.assign(Buf, NL + 1, Len);
    Off = NL + 1 + Len;
    return ReadStatus::Frame;
  }
}

bool grift::service::protocol::writeFrame(int Fd, std::string_view Payload) {
  std::string Framed = frame(Payload);
  size_t Sent = 0;
  while (Sent < Framed.size()) {
    ssize_t N = ::send(Fd, Framed.data() + Sent, Framed.size() - Sent,
                       MSG_NOSIGNAL);
    if (N > 0) {
      Sent += static_cast<size_t>(N);
      continue;
    }
    if (N < 0 && errno == EINTR)
      continue;
    // EAGAIN here means SO_SNDTIMEO expired: the client is too slow to
    // take its own response. Dropping it is the contract — one wedged
    // reader must not park a connection thread forever.
    return false;
  }
  return true;
}
