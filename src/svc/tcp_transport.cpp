#include "svc/tcp_transport.h"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <sys/uio.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstring>

#include "obs/metrics.h"

namespace dcert::svc {

namespace {

using Clock = std::chrono::steady_clock;

/// Process-wide wire-level counters across every TCP transport (server and
/// client sides share them; frame counts include the 4-byte length prefix in
/// the byte totals).
struct NetMetrics {
  std::shared_ptr<obs::Counter> frames_in;
  std::shared_ptr<obs::Counter> frames_out;
  std::shared_ptr<obs::Counter> bytes_in;
  std::shared_ptr<obs::Counter> bytes_out;
  std::shared_ptr<obs::Counter> accepted;
  std::shared_ptr<obs::Counter> rejected_over_cap;
  std::shared_ptr<obs::Counter> dials;

  static NetMetrics& Get() {
    auto& reg = obs::MetricsRegistry::Global();
    static NetMetrics* m = new NetMetrics{
        reg.GetCounter("net.tcp.frames_in"),
        reg.GetCounter("net.tcp.frames_out"),
        reg.GetCounter("net.tcp.bytes_in"),
        reg.GetCounter("net.tcp.bytes_out"),
        reg.GetCounter("net.tcp.accepted"),
        reg.GetCounter("net.tcp.rejected_over_cap"),
        reg.GetCounter("net.tcp.dials")};
    return *m;
  }
};

enum class IoResult { kOk, kTimeout, kError };

/// Waits until `fd` is ready for `events` or the deadline passes.
IoResult PollFor(int fd, short events, Clock::time_point deadline) {
  for (;;) {
    const auto now = Clock::now();
    if (now >= deadline) return IoResult::kTimeout;
    auto ms = std::chrono::duration_cast<std::chrono::milliseconds>(deadline -
                                                                    now)
                  .count();
    if (ms > 60000) ms = 60000;
    pollfd p{};
    p.fd = fd;
    p.events = events;
    const int rc = ::poll(&p, 1, static_cast<int>(ms) + 1);
    if (rc > 0) return IoResult::kOk;  // ready (or error/hup: I/O reports it)
    if (rc == 0) continue;             // slice expired; re-check the deadline
    if (errno == EINTR) continue;
    return IoResult::kError;
  }
}

/// Sends one frame, the length prefix and the payload in one sendmsg,
/// looping only on a partial write. With a deadline the socket is
/// non-blocking and a full send buffer polls until the deadline; without one
/// the socket blocks (bounded by the server's SO_SNDTIMEO) and any failure
/// is final.
IoResult WriteFrame(int fd, ByteView payload,
                    std::optional<Clock::time_point> deadline) {
  // Refuse oversized payloads before any byte hits the wire: the u32 length
  // prefix would otherwise silently truncate sizes past 2^32, and the peer
  // enforces kMaxFrameBytes on read anyway.
  if (payload.size() > kMaxFrameBytes) return IoResult::kError;
  const auto n = static_cast<std::uint32_t>(payload.size());
  std::uint8_t len[4] = {static_cast<std::uint8_t>(n),
                         static_cast<std::uint8_t>(n >> 8),
                         static_cast<std::uint8_t>(n >> 16),
                         static_cast<std::uint8_t>(n >> 24)};
  iovec iov[2] = {{len, 4},
                  {const_cast<std::uint8_t*>(payload.data()), payload.size()}};
  msghdr msg{};
  msg.msg_iov = iov;
  msg.msg_iovlen = payload.empty() ? 1 : 2;
  const int flags = MSG_NOSIGNAL | (deadline ? MSG_DONTWAIT : 0);
  std::size_t left = 4 + payload.size();
  while (left > 0) {
    const ssize_t w = ::sendmsg(fd, &msg, flags);
    if (w > 0) {
      left -= static_cast<std::size_t>(w);
      // Skip what went out: whole iovecs, then into the partial one.
      auto sent = static_cast<std::size_t>(w);
      while (sent > 0 && sent >= msg.msg_iov->iov_len) {
        sent -= msg.msg_iov->iov_len;
        ++msg.msg_iov;
        --msg.msg_iovlen;
      }
      if (sent > 0) {
        msg.msg_iov->iov_base =
            static_cast<std::uint8_t*>(msg.msg_iov->iov_base) + sent;
        msg.msg_iov->iov_len -= sent;
      }
      continue;
    }
    if (w < 0 && errno == EINTR) continue;
    if (w < 0 && deadline && (errno == EAGAIN || errno == EWOULDBLOCK)) {
      if (IoResult r = PollFor(fd, POLLOUT, *deadline); r != IoResult::kOk) {
        return r;
      }
      continue;
    }
    return IoResult::kError;  // peer gone, fd closed, or SO_SNDTIMEO expired
  }
  auto& nm = NetMetrics::Get();
  nm.frames_out->Add(1);
  nm.bytes_out->Add(4 + payload.size());
  return IoResult::kOk;
}

}  // namespace

FrameReader::ReadResult FrameReader::Read(
    int fd, Bytes& frame, std::optional<Clock::time_point> deadline) {
  for (;;) {
    std::size_t need = 4;
    if (Buffered() >= 4) {
      const std::uint8_t* p = buf_.get() + begin_;
      const std::uint32_t n = static_cast<std::uint32_t>(p[0]) |
                              (static_cast<std::uint32_t>(p[1]) << 8) |
                              (static_cast<std::uint32_t>(p[2]) << 16) |
                              (static_cast<std::uint32_t>(p[3]) << 24);
      if (n > kMaxFrameBytes) return ReadResult::kOversized;
      need = 4 + std::size_t{n};
      if (Buffered() >= need) {
        frame.assign(p + 4, p + need);
        begin_ += need;
        if (begin_ == end_) {
          begin_ = end_ = 0;
          if (capacity_ > kRetainBytes) {
            buf_.reset();
            capacity_ = 0;
          }
        }
        auto& nm = NetMetrics::Get();
        nm.frames_in->Add(1);
        nm.bytes_in->Add(need);
        return ReadResult::kFrame;
      }
    }
    MakeRoom(need);
    if (deadline) {
      if (IoResult r = PollFor(fd, POLLIN, *deadline); r != IoResult::kOk) {
        return r == IoResult::kTimeout ? ReadResult::kTimeout
                                       : ReadResult::kClosed;
      }
    }
    const ssize_t r = ::recv(fd, buf_.get() + end_, capacity_ - end_,
                             deadline ? MSG_DONTWAIT : 0);
    if (r > 0) {
      end_ += static_cast<std::size_t>(r);
      continue;
    }
    if (r < 0 && (errno == EINTR ||
                  (deadline && (errno == EAGAIN || errno == EWOULDBLOCK)))) {
      continue;
    }
    return ReadResult::kClosed;  // EOF or error
  }
}

void FrameReader::MakeRoom(std::size_t need) {
  if (end_ < capacity_) return;
  const std::size_t have = Buffered();
  if (begin_ > 0) {
    std::memmove(buf_.get(), buf_.get() + begin_, have);
    begin_ = 0;
    end_ = have;
    return;
  }
  // Full of one unfinished frame: double, but never past the frame's size,
  // so memory follows the bytes that arrived rather than the prefix's claim.
  const std::size_t capacity =
      std::max(kInitialBytes, std::min(need, 2 * capacity_));
  std::unique_ptr<std::uint8_t[]> grown(new std::uint8_t[capacity]);
  if (have > 0) std::memcpy(grown.get(), buf_.get(), have);
  buf_ = std::move(grown);
  capacity_ = capacity;
}

TcpServerTransport::~TcpServerTransport() { Stop(); }

Status TcpServerTransport::Start(FrameHandler handler) {
  if (started_) return Status::Error("tcp server: already started");
  listen_fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
  if (listen_fd_ < 0) {
    return Status::Error(std::string("tcp server: socket: ") +
                         std::strerror(errno));
  }
  int one = 1;
  ::setsockopt(listen_fd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(config_.port);
  if (::bind(listen_fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) <
      0) {
    ::close(listen_fd_);
    listen_fd_ = -1;
    return Status::Error(std::string("tcp server: bind: ") +
                         std::strerror(errno));
  }
  if (::listen(listen_fd_, 64) < 0) {
    ::close(listen_fd_);
    listen_fd_ = -1;
    return Status::Error(std::string("tcp server: listen: ") +
                         std::strerror(errno));
  }
  socklen_t addr_len = sizeof(addr);
  if (::getsockname(listen_fd_, reinterpret_cast<sockaddr*>(&addr),
                    &addr_len) == 0) {
    port_ = ntohs(addr.sin_port);
  }
  handler_ = std::move(handler);
  stopping_.store(false);
  accept_thread_ = std::thread([this] { AcceptLoop(); });
  started_ = true;
  return Status::Ok();
}

void TcpServerTransport::AcceptLoop() {
  while (!stopping_.load()) {
    // Reap readers that exited since the last accept so a connection-churn
    // workload cannot accumulate joinable-but-dead threads.
    std::vector<std::thread> done;
    {
      std::lock_guard<std::mutex> lk(conns_mu_);
      done.swap(finished_);
    }
    for (auto& t : done) {
      if (t.joinable()) t.join();
    }

    int fd = ::accept(listen_fd_, nullptr, nullptr);
    if (fd < 0) {
      if (stopping_.load()) return;
      if (errno == EINTR || errno == ECONNABORTED) continue;
      if (errno == EMFILE || errno == ENFILE || errno == ENOBUFS ||
          errno == ENOMEM) {
        // Resource exhaustion is transient (readers release fds as clients
        // disconnect): back off briefly instead of killing the server.
        accept_transient_errors_.fetch_add(1, std::memory_order_relaxed);
        std::this_thread::sleep_for(std::chrono::milliseconds(10));
        continue;
      }
      return;  // listen socket closed by Stop, or a fatal error
    }
    int one = 1;
    ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
    if (config_.write_timeout_ms > 0) {
      timeval tv{};
      tv.tv_sec = config_.write_timeout_ms / 1000;
      tv.tv_usec = (config_.write_timeout_ms % 1000) * 1000;
      ::setsockopt(fd, SOL_SOCKET, SO_SNDTIMEO, &tv, sizeof(tv));
    }
    std::lock_guard<std::mutex> lk(conns_mu_);
    if (stopping_.load()) {
      ::close(fd);
      return;
    }
    if (conns_.size() >= config_.max_connections) {
      rejected_over_cap_.fetch_add(1, std::memory_order_relaxed);
      NetMetrics::Get().rejected_over_cap->Add(1);
      ::close(fd);
      continue;
    }
    auto conn = std::make_shared<Conn>();
    conn->id = next_conn_id_++;
    conn->fd = fd;
    Entry entry;
    entry.conn = conn;
    entry.reader = std::thread([this, conn] { ReaderLoop(conn); });
    conns_.emplace(conn->id, std::move(entry));
    accepted_.fetch_add(1, std::memory_order_relaxed);
    NetMetrics::Get().accepted->Add(1);
  }
}

void TcpServerTransport::ReaderLoop(std::shared_ptr<Conn> conn) {
  FrameReader reader;
  Bytes frame;
  while (reader.Read(conn->fd, frame) == FrameReader::ReadResult::kFrame) {
    // The respond closure shares ownership of the connection so replies
    // written after the reader exits (or after Stop) stay memory-safe; the
    // open flag under write_mu makes them silent no-ops instead.
    Respond respond = [conn](Bytes reply) {
      std::lock_guard<std::mutex> lk(conn->write_mu);
      if (!conn->open) return;
      if (WriteFrame(conn->fd, reply, std::nullopt) != IoResult::kOk) {
        // Peer gone or SO_SNDTIMEO expired: poison the connection so the
        // blocked reader wakes up and reaps it.
        conn->open = false;
        ::shutdown(conn->fd, SHUT_RDWR);
      }
    };
    handler_(std::move(frame), std::move(respond));
    frame = Bytes();
  }
  // Client EOF, error, or Stop: release the fd here (the reader is the sole
  // closer, after it has stopped reading) and drop our registry entry so
  // churn leaves fd and thread counts flat.
  {
    std::lock_guard<std::mutex> lk(conn->write_mu);
    conn->open = false;
    if (!conn->fd_closed) {
      ::close(conn->fd);
      conn->fd_closed = true;
    }
  }
  std::lock_guard<std::mutex> lk(conns_mu_);
  auto it = conns_.find(conn->id);
  if (it != conns_.end()) {
    // Still registered: move our own thread handle to the finished list for
    // the accept loop (or Stop) to join. If Stop already took the map, it
    // owns the handle and will join us directly.
    finished_.push_back(std::move(it->second.reader));
    conns_.erase(it);
  }
}

void TcpServerTransport::Stop() {
  if (!started_) return;
  stopping_.store(true);
  ::shutdown(listen_fd_, SHUT_RDWR);
  ::close(listen_fd_);
  if (accept_thread_.joinable()) accept_thread_.join();
  std::unordered_map<std::uint64_t, Entry> conns;
  std::vector<std::thread> finished;
  {
    std::lock_guard<std::mutex> lk(conns_mu_);
    conns.swap(conns_);
    finished.swap(finished_);
  }
  for (auto& [id, entry] : conns) {
    std::lock_guard<std::mutex> lk(entry.conn->write_mu);
    entry.conn->open = false;
    // shutdown (not close) unblocks the reader, which closes the fd itself.
    if (!entry.conn->fd_closed) ::shutdown(entry.conn->fd, SHUT_RDWR);
  }
  for (auto& [id, entry] : conns) {
    if (entry.reader.joinable()) entry.reader.join();
  }
  for (auto& t : finished) {
    if (t.joinable()) t.join();
  }
  listen_fd_ = -1;
  started_ = false;
}

TcpServerStats TcpServerTransport::Stats() const {
  TcpServerStats s;
  s.accepted = accepted_.load(std::memory_order_relaxed);
  s.rejected_over_cap = rejected_over_cap_.load(std::memory_order_relaxed);
  s.accept_transient_errors =
      accept_transient_errors_.load(std::memory_order_relaxed);
  std::lock_guard<std::mutex> lk(conns_mu_);
  s.open_connections = conns_.size();
  return s;
}

Result<std::unique_ptr<ClientTransport>> TcpClientTransport::Connect(
    const std::string& host, std::uint16_t port,
    std::chrono::milliseconds connect_timeout) {
  using R = Result<std::unique_ptr<ClientTransport>>;
  int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) {
    return R(ConnectionError(std::string("tcp client: socket: ") +
                             std::strerror(errno)));
  }
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  if (::inet_pton(AF_INET, host.c_str(), &addr.sin_addr) != 1) {
    ::close(fd);
    return R::Error("tcp client: bad host address " + host);
  }
  // Non-blocking connect so a black-holed peer cannot hang the dial; the
  // socket stays non-blocking for the deadline-bounded Call path.
  ::fcntl(fd, F_SETFL, ::fcntl(fd, F_GETFL, 0) | O_NONBLOCK);
  const auto deadline = Clock::now() + connect_timeout;
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) < 0) {
    if (errno != EINPROGRESS) {
      const int err = errno;
      ::close(fd);
      return R(ConnectionError(std::string("tcp client: connect: ") +
                               std::strerror(err)));
    }
    IoResult r = PollFor(fd, POLLOUT, deadline);
    if (r == IoResult::kTimeout) {
      ::close(fd);
      return R(TimeoutError("tcp client: connect to " + host + " timed out"));
    }
    int err = 0;
    socklen_t err_len = sizeof(err);
    if (r == IoResult::kError ||
        ::getsockopt(fd, SOL_SOCKET, SO_ERROR, &err, &err_len) < 0 ||
        err != 0) {
      ::close(fd);
      return R(ConnectionError(std::string("tcp client: connect: ") +
                               std::strerror(err != 0 ? err : errno)));
    }
  }
  int one = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  NetMetrics::Get().dials->Add(1);
  return R(std::unique_ptr<ClientTransport>(new TcpClientTransport(fd)));
}

TcpClientTransport::~TcpClientTransport() {
  if (fd_ >= 0) ::close(fd_);
}

Result<Bytes> TcpClientTransport::Call(ByteView request,
                                       std::chrono::milliseconds deadline) {
  if (broken_) {
    return Result<Bytes>(ConnectionError(
        "tcp client: connection broken by an earlier timeout/error"));
  }
  if (request.size() > kMaxFrameBytes) {
    // Nothing was written, so the connection stays usable.
    return Result<Bytes>::Error(
        "tcp client: request of " + std::to_string(request.size()) +
        " bytes exceeds the frame cap (" + std::to_string(kMaxFrameBytes) +
        ")");
  }
  const auto dl = Clock::now() + deadline;
  if (IoResult r = WriteFrame(fd_, request, dl); r != IoResult::kOk) {
    broken_ = true;
    return Result<Bytes>(
        r == IoResult::kTimeout
            ? TimeoutError("tcp client: send did not complete within deadline")
            : ConnectionError("tcp client: write failed (server gone?)"));
  }
  Bytes reply;
  const FrameReader::ReadResult r = reader_.Read(fd_, reply, dl);
  if (r != FrameReader::ReadResult::kFrame) {
    broken_ = true;
    switch (r) {
      case FrameReader::ReadResult::kTimeout:
        return Result<Bytes>(
            TimeoutError("tcp client: no reply within deadline"));
      case FrameReader::ReadResult::kOversized:
        return Result<Bytes>(ConnectionError(
            "tcp client: reply prefix exceeds the frame cap (" +
            std::to_string(kMaxFrameBytes) + ")"));
      default:
        return Result<Bytes>(
            ConnectionError("tcp client: read failed (server gone?)"));
    }
  }
  if (reader_.Buffered() != 0) {
    // One call is outstanding, so nothing may follow its reply: these bytes
    // would be read as the next call's reply.
    broken_ = true;
    return Result<Bytes>(ConnectionError(
        "tcp client: " + std::to_string(reader_.Buffered()) +
        " bytes beyond the reply frame"));
  }
  return reply;
}

}  // namespace dcert::svc
