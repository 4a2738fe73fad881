// Client-side wrapper over a ClientTransport connection: encodes requests,
// decodes reply envelopes, and surfaces the server's busy signal distinctly
// from hard errors so callers (the load generator, retry loops) can tell
// shedding from failure. Verification of the returned proofs stays with the
// caller via the existing HistoricalIndex::VerifyQuery / SuperlightClient
// checks — the transport and the SP are untrusted.
//
// The client holds the last tip a tip fetch or query reply delivered (its
// key and decoded TipInfo) and offers the key with every query, so a server
// at the same tip answers with the key instead of the tip fields. A reply
// naming a key this client did not offer is garbled (retried, never
// returned). Holding a tip trusts nothing: callers validate every returned
// tip, keyed by QueryReply::tip_key.
//
// Retry policy: a logical call may span several attempts. Transient failures
// — kBusy shedding, transport timeouts, broken/refused connections, and
// replies too garbled to decode — back off exponentially (with seeded
// jitter) and retry, redialing through the Connector when the stream is no
// longer trustworthy. Server-reported errors are permanent and never
// retried. The defaults (max_attempts = 1) preserve the one-shot behavior
// existing call sites were written against.
#pragma once

#include <chrono>
#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <utility>

#include "common/rng.h"
#include "svc/protocol.h"
#include "svc/transport.h"

namespace dcert::svc {

struct RetryPolicy {
  /// Total tries per logical call; 1 = fail on the first error.
  int max_attempts = 1;
  /// Deadline handed to every transport Call.
  std::chrono::milliseconds call_deadline = kDefaultCallDeadline;
  /// Bounded exponential backoff between attempts; the actual sleep is
  /// jittered uniformly in [backoff/2, backoff] to decorrelate retry storms.
  std::chrono::milliseconds initial_backoff{5};
  std::chrono::milliseconds max_backoff{250};
  double backoff_multiplier = 2.0;
  /// Wall-clock budget across all attempts of one logical call; once a
  /// backoff would overrun it, the client gives up with the last error.
  std::chrono::milliseconds retry_budget{10000};
  std::uint64_t jitter_seed = 0x7e57;
};

/// Retry budget accounting, surfaced so benches and tests can see how hard
/// the client had to work (and that fault injection actually bit).
struct SpClientStats {
  std::uint64_t calls = 0;             // logical calls issued
  std::uint64_t attempts = 0;          // transport round trips tried
  std::uint64_t retries = 0;           // attempts after the first
  std::uint64_t reconnects = 0;        // successful redials
  std::uint64_t timeouts = 0;          // attempts lost to deadlines
  std::uint64_t transport_errors = 0;  // broken connections, garbled replies
  std::uint64_t busy_replies = 0;      // kBusy sheds observed
  std::uint64_t stale_shard_replies = 0;  // kStaleShard rejections observed
  std::uint64_t giveups = 0;           // logical calls that exhausted retries
  std::uint64_t backoff_ms_total = 0;  // wall clock spent backing off
};

class SpClient {
 public:
  /// One-shot client over an existing connection (no reconnect path).
  explicit SpClient(std::unique_ptr<ClientTransport> conn,
                    RetryPolicy policy = {})
      : conn_(std::move(conn)),
        policy_(policy),
        jitter_rng_(policy.jitter_seed) {}

  /// Reconnecting client: dials lazily through `connector` and redials
  /// whenever the stream breaks (timeout, EOF, undecodable reply).
  SpClient(Connector connector, RetryPolicy policy)
      : connector_(std::move(connector)),
        policy_(policy),
        jitter_rng_(policy.jitter_seed) {}

  /// The certified tip the server answered at, and the proof built against
  /// its index digest; the caller validates the tip, then the proof.
  using QueryResult = QueryReply;

  Result<TipInfo> FetchTip();
  /// Live metrics snapshot from the server's registry (Op::kStats).
  Result<obs::MetricsSnapshot> FetchStats();
  /// Lightweight liveness/health probe (Op::kHealth).
  Result<HealthInfo> FetchHealth();
  /// Serialized fleet shard map (Op::kShardMap); decode with
  /// fleet::ShardMap::Deserialize.
  Result<Bytes> FetchShardMap();
  Result<QueryResult> Historical(std::uint64_t account,
                                 std::uint64_t from_height,
                                 std::uint64_t to_height);
  Result<QueryResult> Aggregate(std::uint64_t account,
                                std::uint64_t from_height,
                                std::uint64_t to_height);
  Result<std::uint64_t> Announce(const AnnounceRequest& req);

  // Shard-addressed variants: the request carries (map_version, shard_id) so
  // a shard server can reject misrouted or stale-map calls with kStaleShard.
  // A kStaleShard reply fails the call without retrying (blind retries
  // cannot help — the *map* is wrong); LastReplyStaleShard() tells callers
  // to refresh their shard map and re-route.
  Result<QueryResult> HistoricalSharded(std::uint64_t map_version,
                                        std::uint32_t shard_id,
                                        std::uint64_t account,
                                        std::uint64_t from_height,
                                        std::uint64_t to_height);
  Result<QueryResult> AggregateSharded(std::uint64_t map_version,
                                       std::uint32_t shard_id,
                                       std::uint64_t account,
                                       std::uint64_t from_height,
                                       std::uint64_t to_height);

  /// True when the last failed call ended on a kBusy shed by admission
  /// control rather than a transport/protocol error.
  bool LastReplyBusy() const { return last_busy_; }
  /// True when the last failed call was rejected with kStaleShard.
  bool LastReplyStaleShard() const { return last_stale_shard_; }

  const SpClientStats& Stats() const { return stats_; }

 private:
  /// Validates (and captures) the op-specific OK body of a reply; a failure
  /// marks the reply garbled, which is a retryable transport-level fault.
  using BodyDecoder = std::function<Status(const Bytes& body)>;

  /// A shard-scoped query's (map_version, shard_id).
  using ShardScope = std::pair<std::uint64_t, std::uint32_t>;
  /// One query call, offering the held tip's key; `scope` wraps the frame
  /// in a shard-scoped envelope. A decoded reply's tip becomes the held tip.
  Result<QueryResult> Query(const QueryRequest& q,
                            const std::optional<ShardScope>& scope);
  /// One logical call: attempt/backoff/reconnect loop around the transport.
  Result<Bytes> Roundtrip(const Bytes& request, const BodyDecoder& decode_body);
  /// Ensures conn_ is live, dialing through connector_ if present.
  Status EnsureConnected();

  std::unique_ptr<ClientTransport> conn_;
  Connector connector_;
  RetryPolicy policy_;
  Rng jitter_rng_;
  SpClientStats stats_;
  bool last_busy_ = false;
  bool last_stale_shard_ = false;
  bool ever_connected_ = false;
  std::optional<HeldTip> held_tip_;
};

}  // namespace dcert::svc
