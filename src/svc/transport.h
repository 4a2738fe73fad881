// Transport abstraction for the concurrent query-serving subsystem: the same
// SpServer code runs over an in-process loopback (deterministic unit tests)
// and over real TCP sockets (length-prefixed frames), because the server only
// ever sees opaque request frames and a respond callback.
//
// Threading contract: the transport invokes the handler from its own threads
// (one per connection for TCP, the calling client thread for loopback); the
// handler may invoke `respond` inline or later from any thread, exactly once
// per request. After Stop() returns, late responds become no-ops.
//
// Failure contract: every blocking client operation is bounded by a deadline,
// and transport-level failures are tagged as *timeout* or *connection* errors
// (see the taxonomy below) so retry policies can tell transient faults from
// permanent ones without parsing prose.
#pragma once

#include <chrono>
#include <functional>
#include <memory>
#include <mutex>
#include <string>

#include "common/bytes.h"
#include "common/status.h"

namespace dcert::svc {

/// Deadline applied when a caller does not pass one explicitly.
inline constexpr std::chrono::milliseconds kDefaultCallDeadline{30000};

// --- Transport error taxonomy -------------------------------------------
// Status carries only a message, so transports tag the two *transient*
// failure classes with fixed prefixes. Everything else (malformed request,
// server-reported error) is permanent: retrying cannot help.

inline constexpr const char kTimeoutErrorPrefix[] = "transport timeout";
inline constexpr const char kConnectionErrorPrefix[] = "transport connection";

/// The operation did not complete within its deadline (slow/stalled peer).
inline Status TimeoutError(const std::string& detail) {
  return Status::Error(std::string(kTimeoutErrorPrefix) + ": " + detail);
}

/// The connection is unusable (peer gone, refused, or stream desynced).
inline Status ConnectionError(const std::string& detail) {
  return Status::Error(std::string(kConnectionErrorPrefix) + ": " + detail);
}

inline bool IsTimeoutError(const Status& s) {
  return s.message().rfind(kTimeoutErrorPrefix, 0) == 0;
}

inline bool IsConnectionError(const Status& s) {
  return s.message().rfind(kConnectionErrorPrefix, 0) == 0;
}

/// Transient transport failures worth retrying (possibly on a fresh
/// connection); permanent failures — protocol violations, server-side
/// errors — are excluded on purpose.
inline bool IsTransientTransportError(const Status& s) {
  return IsTimeoutError(s) || IsConnectionError(s);
}

/// Delivers the reply frame for one request. Callable from any thread, at
/// most once.
using Respond = std::function<void(Bytes reply)>;

/// Invoked by the transport for each inbound request frame.
using FrameHandler = std::function<void(Bytes request, Respond respond)>;

/// Server side of a transport: accepts request frames and routes them to the
/// registered handler.
class ServerTransport {
 public:
  virtual ~ServerTransport() = default;
  /// Starts serving; `handler` may be invoked concurrently from multiple
  /// transport threads.
  virtual Status Start(FrameHandler handler) = 0;
  /// Stops accepting requests. Safe to call twice. The server is expected to
  /// have drained in-flight work before calling this (SpServer::Shutdown
  /// does), so replies are delivered before connections close.
  virtual void Stop() = 0;
};

/// One logical client connection: blocking request/response round trips.
/// A connection serves one outstanding call at a time; use one connection
/// per client thread.
class ClientTransport {
 public:
  virtual ~ClientTransport() = default;
  /// Round trip bounded by `deadline`. On a timeout the frame stream may be
  /// desynced (a late reply would be misattributed), so implementations mark
  /// the connection broken and subsequent calls fail fast with a connection
  /// error — callers reconnect rather than reuse.
  virtual Result<Bytes> Call(ByteView request,
                             std::chrono::milliseconds deadline) = 0;
  Result<Bytes> Call(ByteView request) {
    return Call(request, kDefaultCallDeadline);
  }
};

/// Dials a fresh connection; retrying clients use this to reconnect after a
/// broken stream and tests/benches wrap it to inject connect-time faults.
using Connector = std::function<Result<std::unique_ptr<ClientTransport>>()>;

/// In-process transport: client Calls invoke the server handler directly on
/// the calling thread and block on a future for the reply. Concurrency comes
/// from the callers — N client threads mean N concurrent handler invocations,
/// exactly like N TCP connections. The call deadline bounds only the wait
/// for a handler that responds asynchronously: SpServer and FleetRouter
/// respond before returning, so such a call lasts as long as the handler.
class LoopbackTransport final : public ServerTransport {
 public:
  Status Start(FrameHandler handler) override;
  void Stop() override;

  /// Opens a client connection bound to this transport. The connection stays
  /// valid after Stop (calls then fail with an error status).
  std::unique_ptr<ClientTransport> Connect();

 private:
  struct Core {
    std::mutex mu;
    FrameHandler handler;
    bool running = false;
  };
  std::shared_ptr<Core> core_ = std::make_shared<Core>();
};

}  // namespace dcert::svc
