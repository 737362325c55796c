// Epoch-stream replication: WAL shipping from a primary to read replicas.
//
// The primary runs a ReplicationSource on its own listen port. A replica
// connects, sends the protocol magic and one kReplSubscribe frame, and the
// source answers with a bootstrap (a kReplSnapshot carrying the full
// published state at some epoch, only when the subscriber starts from
// epoch 0) followed by a live tail of kReplRecords frames — each one a
// batch of WAL record payloads (EncodeWalPayload bytes, exactly what the
// primary's own recovery replays) in strictly increasing epoch order. The
// stream is the WAL: a follower that applies every record is running
// Database::RecoverFrom continuously, so "replica state" and "what the
// primary would recover to" are the same artifact by construction.
//
// The follower side (net::Follower) maintains the subscription: it
// connects, bootstraps or resumes from its own commit epoch, applies each
// epoch through the service's writer lane (serializing with any apply;
// check-only traffic keeps reading pinned snapshots), and
// publishes through the normal MVCC path — replication is just another
// writer. On any transport damage it disconnects, backs off with full
// jitter and resubscribes with start_epoch = its current commit epoch, so
// a kill -9, a severed cable or one corrupt frame each cost one reconnect,
// never a re-bootstrap and never a double-applied epoch (applies are
// idempotent for epochs at or below the follower's commit epoch).
//
// Liveness: the source ships an empty kReplRecords as a heartbeat while
// the primary is idle, carrying the primary's epoch and WAL byte counts;
// the follower computes its lag gauges (replication_lag_epochs / _bytes /
// _ms) from those on every frame and treats a silent connection as dead
// after `dead_after`. Acks (kReplAck, the follower's applied epoch) flow
// back on the same socket and surface on the primary as repl_acked_epoch.
#ifndef UFILTER_NET_REPLICATION_H_
#define UFILTER_NET_REPLICATION_H_

#include <atomic>
#include <chrono>
#include <memory>
#include <mutex>
#include <random>
#include <string>
#include <thread>
#include <vector>

#include "common/result.h"
#include "net/frame.h"
#include "net/socket.h"
#include "obs/metrics.h"
#include "relational/database.h"
#include "relational/wal.h"
#include "service/check_service.h"

namespace ufilter::net {

struct ReplicationSourceOptions {
  /// Replication listen port; 0 = kernel-assigned (read back via port()).
  uint16_t port = 0;
  int backlog = 16;
  /// The primary's WAL file (must match the database's durability config);
  /// the source tails this file — replication requires durability on.
  std::string wal_path;
  /// How often each subscriber thread polls the WAL for new records.
  std::chrono::milliseconds poll_interval{20};
  /// Idle heartbeat cadence (empty kReplRecords with fresh lag counters).
  std::chrono::milliseconds heartbeat_interval{200};
  /// Per-batch payload cap; a subscriber may request a smaller one.
  uint64_t max_batch_bytes = 4u << 20;
};

/// \brief Primary-side replication feed: accepts subscribers, streams WAL.
class ReplicationSource {
 public:
  /// Binds and starts the accept loop. `db` must have durability enabled
  /// on `options.wal_path` and must outlive the source. Metrics register
  /// in `registry` (must outlive the source too).
  static Result<std::unique_ptr<ReplicationSource>> Start(
      relational::Database* db, obs::Registry* registry,
      ReplicationSourceOptions options);
  ~ReplicationSource();

  ReplicationSource(const ReplicationSource&) = delete;
  ReplicationSource& operator=(const ReplicationSource&) = delete;

  uint16_t port() const { return port_; }

  /// Stops accepting, severs every subscriber, joins all threads.
  /// Idempotent; also the destructor's path.
  void Stop();

 private:
  struct Subscriber {
    int fd = -1;
    std::thread thread;
    std::atomic<bool> done{false};
  };

  ReplicationSource(relational::Database* db, obs::Registry* registry,
                    ReplicationSourceOptions options, int listen_fd,
                    uint16_t port);

  void AcceptLoop();
  /// One subscriber's whole life: handshake, bootstrap, tail, acks.
  void ServeSubscriber(Subscriber* sub);
  Status ServeSubscriberImpl(int fd);
  void ReapFinished();

  relational::Database* db_;
  ReplicationSourceOptions options_;
  int listen_fd_ = -1;
  uint16_t port_ = 0;

  std::thread accept_thread_;
  std::atomic<bool> stop_{false};

  std::mutex subs_mu_;
  std::vector<std::unique_ptr<Subscriber>> subs_;

  // Registered in the registry given to Start, under repl_<name>.
  obs::Gauge* subscribers_;            ///< currently connected
  obs::Counter* snapshots_shipped_;    ///< bootstrap kReplSnapshot frames
  obs::Counter* records_shipped_;      ///< WAL records sent (all batches)
  obs::Counter* bytes_shipped_;        ///< payload bytes of those records
  obs::Gauge* acked_epoch_;            ///< highest epoch any subscriber acked
  obs::Counter* protocol_errors_;      ///< subscriptions dropped, bad frames
};

struct FollowerOptions {
  /// The primary's replication endpoint.
  std::string host = "127.0.0.1";
  uint16_t port = 0;
  std::chrono::milliseconds connect_timeout{1000};
  /// Reconnect backoff (full jitter, like net::Client).
  std::chrono::milliseconds backoff_base{20};
  std::chrono::milliseconds backoff_max{500};
  uint64_t jitter_seed = 0;  ///< 0 = random_device
  /// A connection with no frame (records or heartbeat) for this long is
  /// declared dead and rebuilt. Must exceed the source's heartbeat
  /// interval with margin.
  std::chrono::milliseconds dead_after{2000};
  /// Batch cap requested from the source (0 = source default).
  uint64_t max_batch_bytes = 0;
  /// When non-empty, every received bootstrap snapshot is persisted here
  /// as a normal checkpoint file (WriteFileAtomicSynced), so a follower
  /// restart recovers locally and resumes from its own epoch instead of
  /// re-bootstrapping over the wire.
  std::string checkpoint_path;
};

/// \brief Replica-side subscription: applies the primary's epoch stream.
class Follower {
 public:
  /// Starts the subscription thread. All pointers must outlive the
  /// follower. Applies go through `service` (the writer lane); lag and
  /// apply metrics register in the service's registry.
  static std::unique_ptr<Follower> Start(service::CheckService* service,
                                         relational::Database* db,
                                         FollowerOptions options);
  ~Follower();

  Follower(const Follower&) = delete;
  Follower& operator=(const Follower&) = delete;

  /// Highest epoch applied (or verified already-present) on this replica.
  uint64_t applied_epoch() const {
    return applied_epoch_.load(std::memory_order_acquire);
  }

  /// Blocks until applied_epoch() >= epoch or the timeout expires.
  bool WaitForEpoch(uint64_t epoch, std::chrono::milliseconds timeout) const;

  /// OK while the stream is healthy (reconnects are healthy); a non-OK
  /// status means an apply failed — the replica's state can no longer be
  /// trusted to converge and the follower has stopped.
  Status status() const;

  /// Disconnects and joins the subscription thread. Idempotent.
  void Stop();

 private:
  Follower(service::CheckService* service, relational::Database* db,
           FollowerOptions options);

  void Run();
  /// One connection: subscribe, then apply frames until damage. The
  /// returned status is why the connection ended (never OK).
  Status RunOnce();
  Status HandleSnapshot(const std::string& payload);
  Status HandleRecords(const std::string& payload);
  std::chrono::milliseconds BackoffDelay(int attempt);

  service::CheckService* service_;
  relational::Database* db_;
  FollowerOptions options_;

  std::thread thread_;
  std::atomic<bool> stop_{false};
  std::atomic<int> fd_{-1};
  std::atomic<uint64_t> applied_epoch_{0};
  std::mt19937_64 jitter_;
  /// The last instant the replica was fully caught up (lag_epochs == 0);
  /// replication_lag_ms measures from here while behind.
  std::chrono::steady_clock::time_point caught_up_at_;

  mutable std::mutex status_mu_;
  Status fatal_;  ///< non-OK once an apply failed (stream stopped)

  // Registered in the service's registry: repl_<name> for the counters,
  // replication_lag_<unit> for the gauges.
  obs::Counter* connects_;  ///< successful subscriptions (1 = never rebuilt)
  obs::Counter* snapshots_loaded_;  ///< wire bootstraps applied
  /// Epochs applied (idempotent skips counted in stale_skipped_).
  obs::Counter* records_applied_;
  obs::Counter* bytes_applied_;  ///< payload bytes of applied records
  obs::Counter* stale_skipped_;  ///< resume duplicates (epoch <= local)
  obs::Gauge* lag_epochs_;
  obs::Gauge* lag_bytes_;
  obs::Gauge* lag_ms_;
  obs::Histogram* apply_ns_;
};

}  // namespace ufilter::net

#endif  // UFILTER_NET_REPLICATION_H_
