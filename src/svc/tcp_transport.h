// Real-socket implementation of the svc transport: length-prefixed frames
// (u32 little-endian length, then the payload) over TCP on 127.0.0.1. The
// server runs one accept thread plus one reader thread per connection;
// a handler may respond from any thread (SpServer and FleetRouter respond on
// the reader thread), so each connection serializes writes with a mutex.
//
// One syscall per frame in each direction: a frame goes out as one sendmsg
// of the prefix and the payload (looping only on a partial write), and comes
// in through a FrameReader, a buffer the connection owns, so one recv
// normally returns a whole frame. The server's reader serves pipelined
// frames in order; the client has a single call outstanding, so bytes read
// along with its reply frame, past its end, are a protocol violation that
// breaks the connection. Read buffers grow with the bytes that have actually
// arrived, never with what a length prefix claims (see FrameReader).
//
// Connection lifecycle: a reader that hits EOF/error closes its fd and
// removes its registry entry itself; the accept loop reaps finished reader
// threads before each accept, so connection churn leaves fd and thread
// counts flat without waiting for Stop(). Accepts beyond `max_connections`
// are closed immediately, and transient accept failures (EMFILE, ENFILE,
// ECONNABORTED, ENOBUFS) back off briefly instead of killing the server.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "svc/transport.h"

namespace dcert::svc {

/// Hard cap on a single frame; anything larger is a protocol violation (our
/// proofs are tens of KB) and closes the connection. Enforced on both the
/// read side and the send side (an oversized payload is refused before any
/// byte hits the wire, so it cannot silently truncate to size mod 2^32).
inline constexpr std::uint32_t kMaxFrameBytes = 64u << 20;

/// Reads length-prefixed frames from a socket through a buffer it owns, so
/// one recv normally yields a whole frame, or several pipelined ones.
/// Allocation is bounded by the bytes received, not by what a prefix claims:
/// the buffer starts at kInitialBytes and doubles only when it is full of
/// one unfinished frame, never past that frame's size. Once drained it is
/// released if a large frame grew it past kRetainBytes. A peer that claims
/// kMaxFrameBytes and then stalls after 1 KiB pins kInitialBytes.
class FrameReader {
 public:
  static constexpr std::size_t kInitialBytes = 4u << 10;
  static constexpr std::size_t kRetainBytes = 64u << 10;

  enum class ReadResult { kFrame, kTimeout, kClosed, kOversized };

  /// Reads the next frame into `frame`, from the buffer if it already holds
  /// one. Without a deadline `fd` is a blocking socket; with one it is
  /// non-blocking and every wait polls first, until the deadline (kTimeout).
  /// kClosed is EOF or an I/O error; kOversized a prefix above
  /// kMaxFrameBytes. The stream is unusable after anything but kFrame.
  ReadResult Read(int fd, Bytes& frame,
                  std::optional<std::chrono::steady_clock::time_point>
                      deadline = std::nullopt);

  /// Bytes received beyond the frames returned so far.
  std::size_t Buffered() const { return end_ - begin_; }
  std::size_t Capacity() const { return capacity_; }

 private:
  /// Makes room after end_ for an unfinished frame of `need` bytes.
  void MakeRoom(std::size_t need);

  std::unique_ptr<std::uint8_t[]> buf_;  // not zero-filled
  std::size_t capacity_ = 0;
  std::size_t begin_ = 0;  // first unreturned byte
  std::size_t end_ = 0;    // one past the last received byte
};

struct TcpServerConfig {
  /// 0 binds an ephemeral port (read it back via Port()).
  std::uint16_t port = 0;
  /// Concurrent-connection cap: accepts beyond it are closed immediately
  /// (accepting first clears the kernel backlog slot).
  std::size_t max_connections = 256;
  /// SO_SNDTIMEO on accepted sockets: bounds how long a reply write to a
  /// stuck client can pin the responding thread (and SpServer's permit). A
  /// timed-out write poisons the connection so its reader reaps it.
  int write_timeout_ms = 10000;
};

struct TcpServerStats {
  std::uint64_t accepted = 0;
  std::uint64_t rejected_over_cap = 0;
  std::uint64_t accept_transient_errors = 0;  // survived, not fatal
  std::size_t open_connections = 0;
};

class TcpServerTransport final : public ServerTransport {
 public:
  explicit TcpServerTransport(std::uint16_t port)
      : TcpServerTransport(TcpServerConfig{port}) {}
  explicit TcpServerTransport(TcpServerConfig config) : config_(config) {}
  ~TcpServerTransport() override;

  Status Start(FrameHandler handler) override;
  void Stop() override;

  /// The bound port; valid after a successful Start.
  std::uint16_t Port() const { return port_; }

  TcpServerStats Stats() const;

 private:
  struct Conn {
    std::uint64_t id = 0;
    int fd = -1;
    std::mutex write_mu;
    bool open = true;        // guarded by write_mu; false => no more writes
    bool fd_closed = false;  // guarded by write_mu; the reader closes once
  };
  struct Entry {
    std::shared_ptr<Conn> conn;
    std::thread reader;
  };

  void AcceptLoop();
  void ReaderLoop(std::shared_ptr<Conn> conn);

  TcpServerConfig config_;
  std::uint16_t port_ = 0;
  int listen_fd_ = -1;
  FrameHandler handler_;
  std::thread accept_thread_;
  mutable std::mutex conns_mu_;
  std::unordered_map<std::uint64_t, Entry> conns_;
  std::vector<std::thread> finished_;  // exited readers awaiting join
  std::uint64_t next_conn_id_ = 1;
  std::atomic<bool> stopping_{false};
  bool started_ = false;
  std::atomic<std::uint64_t> accepted_{0};
  std::atomic<std::uint64_t> rejected_over_cap_{0};
  std::atomic<std::uint64_t> accept_transient_errors_{0};
};

class TcpClientTransport final : public ClientTransport {
 public:
  static Result<std::unique_ptr<ClientTransport>> Connect(
      const std::string& host, std::uint16_t port,
      std::chrono::milliseconds connect_timeout =
          std::chrono::milliseconds(5000));
  ~TcpClientTransport() override;

  using ClientTransport::Call;
  Result<Bytes> Call(ByteView request,
                     std::chrono::milliseconds deadline) override;

 private:
  explicit TcpClientTransport(int fd) : fd_(fd) {}
  int fd_;
  FrameReader reader_;
  // After a timeout, an I/O error or bytes beyond the reply frame the frame
  // stream may be desynced (a late reply to request N would answer request
  // N+1), so the connection refuses further calls with a connection error
  // and the caller redials.
  bool broken_ = false;
};

}  // namespace dcert::svc
