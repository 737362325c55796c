#include "net/replication.h"

#include <algorithm>
#include <random>
#include <utility>

namespace ufilter::net {

namespace {

// Bound on writing one frame to a subscriber / one ack to the source; a
// peer that cannot take bytes within this window is treated as gone.
constexpr std::chrono::milliseconds kWriteTimeout{5000};
// Bound on the subscribe handshake (connect -> first frame).
constexpr std::chrono::milliseconds kHandshakeTimeout{5000};

std::chrono::steady_clock::time_point Deadline(std::chrono::milliseconds d) {
  return std::chrono::steady_clock::now() + d;
}

}  // namespace

// ---------------------------------------------------------------------------
// ReplicationSource
// ---------------------------------------------------------------------------

Result<std::unique_ptr<ReplicationSource>> ReplicationSource::Start(
    relational::Database* db, obs::Registry* registry,
    ReplicationSourceOptions options) {
  if (options.wal_path.empty()) {
    return Status::InvalidArgument(
        "replication source needs a WAL to tail (wal_path is empty)");
  }
  if (!db->durability_enabled()) {
    return Status::InvalidArgument(
        "replication source requires durability: the epoch stream *is* the "
        "WAL");
  }
  auto listen = ListenTcp(options.port, options.backlog);
  UFILTER_RETURN_NOT_OK(listen.status());
  auto port = LocalPort(*listen);
  if (!port.ok()) {
    CloseFd(*listen);
    return port.status();
  }
  std::unique_ptr<ReplicationSource> src(new ReplicationSource(
      db, registry, std::move(options), *listen, *port));
  src->accept_thread_ = std::thread([s = src.get()] { s->AcceptLoop(); });
  return src;
}

ReplicationSource::ReplicationSource(relational::Database* db,
                                     obs::Registry* registry,
                                     ReplicationSourceOptions options,
                                     int listen_fd, uint16_t port)
    : db_(db),
      options_(std::move(options)),
      listen_fd_(listen_fd),
      port_(port),
      subscribers_(registry->GetGauge("repl_subscribers")),
      snapshots_shipped_(registry->GetCounter("repl_snapshots_shipped")),
      records_shipped_(registry->GetCounter("repl_records_shipped")),
      bytes_shipped_(registry->GetCounter("repl_bytes_shipped")),
      acked_epoch_(registry->GetGauge("repl_acked_epoch")),
      protocol_errors_(registry->GetCounter("repl_protocol_errors")) {}

ReplicationSource::~ReplicationSource() { Stop(); }

void ReplicationSource::AcceptLoop() {
  while (!stop_.load(std::memory_order_acquire)) {
    auto fd = AcceptWithTimeout(listen_fd_, /*timeout_ms=*/100);
    if (!fd.ok()) {
      if (fd.status().code() == StatusCode::kDeadlineExceeded) {
        ReapFinished();
        continue;
      }
      break;  // listening socket shut down
    }
    auto sub = std::make_unique<Subscriber>();
    sub->fd = *fd;
    Subscriber* raw = sub.get();
    {
      std::lock_guard<std::mutex> lock(subs_mu_);
      subs_.push_back(std::move(sub));
    }
    raw->thread = std::thread([this, raw] { ServeSubscriber(raw); });
  }
}

void ReplicationSource::ReapFinished() {
  std::vector<std::unique_ptr<Subscriber>> done;
  {
    std::lock_guard<std::mutex> lock(subs_mu_);
    for (auto it = subs_.begin(); it != subs_.end();) {
      if ((*it)->done.load(std::memory_order_acquire)) {
        done.push_back(std::move(*it));
        it = subs_.erase(it);
      } else {
        ++it;
      }
    }
  }
  for (auto& sub : done) {
    if (sub->thread.joinable()) sub->thread.join();
    CloseFd(sub->fd);
  }
}

void ReplicationSource::ServeSubscriber(Subscriber* sub) {
  subscribers_->Set(subscribers_->Value() + 1);
  Status st = ServeSubscriberImpl(sub->fd);
  if (st.code() == StatusCode::kParseError) protocol_errors_->Inc();
  subscribers_->Set(subscribers_->Value() - 1);
  ShutdownFd(sub->fd);
  sub->done.store(true, std::memory_order_release);
}

Status ReplicationSource::ServeSubscriberImpl(int fd) {
  // Handshake: the magic preamble plus exactly one kReplSubscribe frame.
  FrameReader frames(/*expect_magic=*/true, kReplMaxFrameBytes);
  auto handshake_deadline = Deadline(kHandshakeTimeout);
  std::string first;
  char buf[65536];
  while (true) {
    auto got = RecvSome(fd, buf, sizeof(buf), handshake_deadline);
    UFILTER_RETURN_NOT_OK(got.status());
    frames.Feed(buf, *got);
    auto next = frames.Next();
    UFILTER_RETURN_NOT_OK(next.status());
    if (next->has_value()) {
      first = *std::move(*next);
      break;
    }
  }
  auto type = PeekType(first);
  UFILTER_RETURN_NOT_OK(type.status());
  if (*type != MsgType::kReplSubscribe) {
    return Status::ParseError("replication handshake: expected subscribe");
  }
  auto sub = DecodeReplSubscribe(first);
  UFILTER_RETURN_NOT_OK(sub.status());

  uint64_t batch_cap = options_.max_batch_bytes;
  if (sub->max_batch_bytes > 0) {
    batch_cap = std::min(batch_cap, sub->max_batch_bytes);
  }

  // Bootstrap: a subscriber starting from nothing gets the full published
  // state at one pinned epoch; everyone else resumes from their own epoch
  // and receives only the WAL suffix past it.
  uint64_t resume_epoch = sub->start_epoch;
  if (sub->start_epoch == 0) {
    ReplSnapshotMsg snap_msg;
    {
      auto snapshot = db_->OpenSnapshot();
      snap_msg.epoch = snapshot->epoch();
      snap_msg.state_payload =
          relational::EncodeDatabaseState(db_->schema(), *snapshot);
    }
    std::string frame = FramePayload(EncodeReplSnapshot(snap_msg));
    UFILTER_RETURN_NOT_OK(
        SendAll(fd, frame.data(), frame.size(), Deadline(kWriteTimeout)));
    snapshots_shipped_->Inc();
    resume_epoch = snap_msg.epoch;
  }

  relational::WalTailer tailer(options_.wal_path);
  auto last_send = std::chrono::steady_clock::now();
  bool sent_anything = false;
  while (!stop_.load(std::memory_order_acquire)) {
    // Make every record staged by the group-commit buffer visible to the
    // tailer; the fsync schedule is untouched (Flush, not Sync).
    UFILTER_RETURN_NOT_OK(db_->FlushWalToFile());
    auto polled = tailer.Poll(batch_cap);
    UFILTER_RETURN_NOT_OK(polled.status());

    ReplRecordsMsg msg;
    uint64_t batch_bytes = 0;
    for (auto& rec : *polled) {
      if (rec.epoch <= resume_epoch) continue;  // subscriber already has it
      resume_epoch = rec.epoch;
      batch_bytes += rec.payload.size();
      msg.records.push_back(std::move(rec.payload));
    }

    auto now = std::chrono::steady_clock::now();
    bool heartbeat_due =
        !sent_anything || now - last_send >= options_.heartbeat_interval;
    if (!msg.records.empty() || heartbeat_due) {
      msg.primary_epoch = db_->commit_epoch();
      msg.primary_wal_bytes = tailer.known_file_bytes();
      msg.shipped_wal_bytes = tailer.offset();
      std::string frame = FramePayload(EncodeReplRecords(msg));
      UFILTER_RETURN_NOT_OK(
          SendAll(fd, frame.data(), frame.size(), Deadline(kWriteTimeout)));
      records_shipped_->Add(msg.records.size());
      bytes_shipped_->Add(batch_bytes);
      last_send = now;
      sent_anything = true;
    }

    // Drain any acks the follower pushed back (non-blocking-ish: a 1ms
    // recv window per iteration).
    while (true) {
      auto got = RecvSome(fd, buf, sizeof(buf),
                          Deadline(std::chrono::milliseconds(1)));
      if (!got.ok()) {
        if (got.status().code() == StatusCode::kDeadlineExceeded) break;
        return got.status();  // subscriber gone
      }
      frames.Feed(buf, *got);
      while (true) {
        auto next = frames.Next();
        UFILTER_RETURN_NOT_OK(next.status());
        if (!next->has_value()) break;
        auto t = PeekType(**next);
        UFILTER_RETURN_NOT_OK(t.status());
        if (*t != MsgType::kReplAck) {
          return Status::ParseError(
              "replication stream: follower sent a non-ack frame");
        }
        auto ack = DecodeReplAck(**next);
        UFILTER_RETURN_NOT_OK(ack.status());
        if (ack->applied_epoch > acked_epoch_->Value()) {
          acked_epoch_->Set(ack->applied_epoch);
        }
      }
    }

    if (msg.records.empty()) {
      std::this_thread::sleep_for(options_.poll_interval);
    }
  }
  return Status::OK();
}

void ReplicationSource::Stop() {
  if (stop_.exchange(true)) {
    // Idempotent: the first caller did (or is doing) the teardown.
    if (accept_thread_.joinable()) return;
  }
  ShutdownFd(listen_fd_);
  if (accept_thread_.joinable()) accept_thread_.join();
  std::vector<std::unique_ptr<Subscriber>> subs;
  {
    std::lock_guard<std::mutex> lock(subs_mu_);
    subs.swap(subs_);
  }
  for (auto& sub : subs) {
    ShutdownFd(sub->fd);
    if (sub->thread.joinable()) sub->thread.join();
    CloseFd(sub->fd);
  }
  if (listen_fd_ >= 0) {
    CloseFd(listen_fd_);
    listen_fd_ = -1;
  }
}

// ---------------------------------------------------------------------------
// Follower
// ---------------------------------------------------------------------------

std::unique_ptr<Follower> Follower::Start(service::CheckService* service,
                                          relational::Database* db,
                                          FollowerOptions options) {
  std::unique_ptr<Follower> f(
      new Follower(service, db, std::move(options)));
  f->thread_ = std::thread([raw = f.get()] { raw->Run(); });
  return f;
}

Follower::Follower(service::CheckService* service, relational::Database* db,
                   FollowerOptions options)
    : service_(service),
      db_(db),
      options_(std::move(options)),
      jitter_(options_.jitter_seed != 0 ? options_.jitter_seed
                                        : std::random_device{}()),
      caught_up_at_(std::chrono::steady_clock::now()) {
  obs::Registry& reg = service_->registry();
  connects_ = reg.GetCounter("repl_connects");
  snapshots_loaded_ = reg.GetCounter("repl_snapshots_loaded");
  records_applied_ = reg.GetCounter("repl_records_applied");
  bytes_applied_ = reg.GetCounter("repl_bytes_applied");
  stale_skipped_ = reg.GetCounter("repl_stale_skipped");
  lag_epochs_ = reg.GetGauge("replication_lag_epochs");
  lag_bytes_ = reg.GetGauge("replication_lag_bytes");
  lag_ms_ = reg.GetGauge("replication_lag_ms");
  apply_ns_ = reg.GetHistogram("repl_apply_ns");
  applied_epoch_.store(db_->commit_epoch(), std::memory_order_release);
}

Follower::~Follower() { Stop(); }

Status Follower::status() const {
  std::lock_guard<std::mutex> lock(status_mu_);
  return fatal_;
}

bool Follower::WaitForEpoch(uint64_t epoch,
                            std::chrono::milliseconds timeout) const {
  auto deadline = Deadline(timeout);
  while (applied_epoch() < epoch) {
    if (std::chrono::steady_clock::now() >= deadline) return false;
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  return true;
}

std::chrono::milliseconds Follower::BackoffDelay(int attempt) {
  int64_t ceil_ms = options_.backoff_base.count();
  for (int i = 1; i < attempt && ceil_ms < options_.backoff_max.count(); ++i) {
    ceil_ms *= 2;
  }
  ceil_ms = std::min<int64_t>(ceil_ms, options_.backoff_max.count());
  std::uniform_int_distribution<int64_t> dist(0, std::max<int64_t>(ceil_ms, 1));
  return std::chrono::milliseconds(dist(jitter_));
}

void Follower::Run() {
  int attempt = 0;
  while (!stop_.load(std::memory_order_acquire)) {
    uint64_t connects_before = connects_->Value();
    Status st = RunOnce();
    (void)st;  // why the connection ended; reconnecting is the remedy
    {
      std::lock_guard<std::mutex> lock(status_mu_);
      if (!fatal_.ok()) return;  // apply failed: convergence lost, stop
    }
    if (stop_.load(std::memory_order_acquire)) return;
    // A connection that got as far as subscribing resets the backoff.
    attempt = connects_->Value() > connects_before ? 1 : attempt + 1;
    std::this_thread::sleep_for(BackoffDelay(attempt));
  }
}

Status Follower::RunOnce() {
  auto fd = ConnectTcp(options_.host, options_.port, options_.connect_timeout);
  UFILTER_RETURN_NOT_OK(fd.status());
  {
    std::lock_guard<std::mutex> lock(status_mu_);
    fd_.store(*fd, std::memory_order_release);
  }
  auto cleanup = [this] {
    std::lock_guard<std::mutex> lock(status_mu_);
    CloseFd(fd_.exchange(-1, std::memory_order_acq_rel));
  };
  auto fail = [&](Status st) {
    cleanup();
    return st;
  };

  // Subscribe: magic preamble, then resume from our own commit epoch — 0
  // (a fresh replica) asks for a snapshot bootstrap.
  Status st = SendAll(*fd, kNetMagic, kNetMagicLen,
                      Deadline(options_.connect_timeout));
  if (!st.ok()) return fail(st);
  ReplSubscribeMsg sub;
  sub.start_epoch = db_->commit_epoch();
  sub.max_batch_bytes = options_.max_batch_bytes;
  std::string frame = FramePayload(EncodeReplSubscribe(sub));
  st = SendAll(*fd, frame.data(), frame.size(), Deadline(kWriteTimeout));
  if (!st.ok()) return fail(st);
  connects_->Inc();

  FrameReader frames(/*expect_magic=*/false, kReplMaxFrameBytes);
  char buf[65536];
  auto last_frame = std::chrono::steady_clock::now();
  while (!stop_.load(std::memory_order_acquire)) {
    auto got = RecvSome(*fd, buf, sizeof(buf),
                        Deadline(std::chrono::milliseconds(100)));
    if (!got.ok()) {
      if (got.status().code() != StatusCode::kDeadlineExceeded) {
        return fail(got.status());  // peer gone / reset
      }
      if (std::chrono::steady_clock::now() - last_frame >
          options_.dead_after) {
        return fail(Status::DeadlineExceeded(
            "replication stream silent past dead_after: reconnecting"));
      }
      continue;
    }
    frames.Feed(buf, *got);
    while (true) {
      auto next = frames.Next();
      if (!next.ok()) return fail(next.status());  // corrupt stream
      if (!next->has_value()) break;
      last_frame = std::chrono::steady_clock::now();
      auto type = PeekType(**next);
      if (!type.ok()) return fail(type.status());
      switch (*type) {
        case MsgType::kReplSnapshot:
          st = HandleSnapshot(**next);
          break;
        case MsgType::kReplRecords:
          st = HandleRecords(**next);
          break;
        default:
          st = Status::ParseError(
              "unexpected frame type on the replication stream");
          break;
      }
      if (!st.ok()) return fail(st);
    }
  }
  cleanup();
  return Status::OK();
}

Status Follower::HandleSnapshot(const std::string& payload) {
  auto msg = DecodeReplSnapshot(payload);
  UFILTER_RETURN_NOT_OK(msg.status());
  // Persist the bootstrap before applying it: a follower killed right
  // after the load recovers from this checkpoint locally and resumes,
  // instead of re-shipping the whole state.
  if (!options_.checkpoint_path.empty()) {
    UFILTER_RETURN_NOT_OK(relational::WriteFileAtomicSynced(
        options_.checkpoint_path,
        relational::EncodeCheckpointFile(msg->epoch, msg->state_payload)));
  }
  Status st = db_->LoadReplicatedSnapshot(msg->epoch, msg->state_payload);
  if (!st.ok()) {
    std::lock_guard<std::mutex> lock(status_mu_);
    fatal_ = st;
    return st;
  }
  snapshots_loaded_->Inc();
  applied_epoch_.store(msg->epoch, std::memory_order_release);
  std::string ack = FramePayload(EncodeReplAck({msg->epoch}));
  int fd = fd_.load(std::memory_order_acquire);
  return SendAll(fd, ack.data(), ack.size(), Deadline(kWriteTimeout));
}

Status Follower::HandleRecords(const std::string& payload) {
  auto msg = DecodeReplRecords(payload);
  UFILTER_RETURN_NOT_OK(msg.status());
  for (const std::string& rec_payload : msg->records) {
    auto record = relational::DecodeWalPayload(rec_payload);
    UFILTER_RETURN_NOT_OK(record.status());
    if (record->epoch <= db_->commit_epoch()) {
      // Resume overlap: the source replayed an epoch we already hold
      // (e.g. an ack lost to a reconnect). Never re-applied, never
      // double-counted.
      stale_skipped_->Inc();
      continue;
    }
    auto t0 = std::chrono::steady_clock::now();
    Status st = service_->ApplyReplicatedEpoch(*record);
    auto t1 = std::chrono::steady_clock::now();
    apply_ns_->Record(static_cast<uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(t1 - t0)
            .count()));
    if (!st.ok()) {
      std::lock_guard<std::mutex> lock(status_mu_);
      fatal_ = st;
      return st;
    }
    records_applied_->Inc();
    bytes_applied_->Add(rec_payload.size());
    applied_epoch_.store(record->epoch, std::memory_order_release);
  }

  // Lag gauges come from the primary's own counters stamped on the frame,
  // so they are meaningful even when this batch was empty (a heartbeat).
  uint64_t local_epoch = db_->commit_epoch();
  uint64_t lag_epochs = msg->primary_epoch > local_epoch
                            ? msg->primary_epoch - local_epoch
                            : 0;
  uint64_t lag_bytes = msg->primary_wal_bytes > msg->shipped_wal_bytes
                           ? msg->primary_wal_bytes - msg->shipped_wal_bytes
                           : 0;
  auto now = std::chrono::steady_clock::now();
  if (lag_epochs == 0) {
    caught_up_at_ = now;
    lag_ms_->Set(0);
  } else {
    lag_ms_->Set(static_cast<uint64_t>(
        std::chrono::duration_cast<std::chrono::milliseconds>(
            now - caught_up_at_)
            .count()));
  }
  lag_epochs_->Set(lag_epochs);
  lag_bytes_->Set(lag_bytes);

  std::string ack = FramePayload(
      EncodeReplAck({applied_epoch_.load(std::memory_order_acquire)}));
  int fd = fd_.load(std::memory_order_acquire);
  return SendAll(fd, ack.data(), ack.size(), Deadline(kWriteTimeout));
}

void Follower::Stop() {
  stop_.store(true, std::memory_order_release);
  {
    std::lock_guard<std::mutex> lock(status_mu_);
    int fd = fd_.load(std::memory_order_acquire);
    if (fd >= 0) ShutdownFd(fd);
  }
  if (thread_.joinable()) thread_.join();
}

}  // namespace ufilter::net
