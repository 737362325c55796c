#include "service/check_service.h"

#include <chrono>
#include <utility>

namespace ufilter::service {

using check::CheckOptions;
using check::CheckOutcome;
using check::CheckReport;

namespace {

uint64_t ElapsedNs(std::chrono::steady_clock::time_point since) {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now() - since)
          .count());
}

CheckReport DeadlineExceededReport(const char* where) {
  CheckReport report;
  report.outcome = CheckOutcome::kDeadlineExceeded;
  report.error = Status::DeadlineExceeded(where);
  return report;
}

}  // namespace

class CheckService::PromiseCompletion : public Completion {
 public:
  explicit PromiseCompletion(obs::Tracer* tracer) : tracer_(tracer) {}

  std::future<CheckReport> future() { return promise_.get_future(); }

  void Complete(uint64_t /*tag*/, CheckReport report,
                obs::TraceContext trace) override {
    // Finished before the future resolves: a caller that reads tracer()
    // after get() finds its trace in the ring.
    tracer_->Finish(trace);
    promise_.set_value(std::move(report));
  }

 private:
  obs::Tracer* tracer_;
  std::promise<CheckReport> promise_;
};

CheckService::CheckService(check::UFilter* filter, CheckServiceOptions options)
    : filter_(filter),
      db_(filter->database()),
      options_(options),
      queue_(options.queue_capacity),
      tracer_(options.trace) {
  // Service-owned metrics: the service counters and histograms here, the
  // server's and replication's where those register.
  submitted_ = registry_.GetCounter("service_submitted");
  completed_ = registry_.GetCounter("service_completed");
  fast_path_ = registry_.GetCounter("service_fast_path");
  writer_lane_ = registry_.GetCounter("service_writer_lane");
  escalations_ = registry_.GetCounter("service_escalations");
  shed_ = registry_.GetCounter("service_shed");
  deadline_expired_ = registry_.GetCounter("service_deadline_expired");
  reader_wait_ns_ = registry_.GetCounter("service_reader_wait_ns");
  writer_wait_ns_ = registry_.GetCounter("service_writer_wait_ns");
  check_latency_ = registry_.GetHistogram("check_latency_ns");
  for (size_t i = 0; i < obs::kStageCount; ++i) {
    stage_hist_[i] = registry_.GetHistogram(
        std::string("stage_") + obs::StageName(static_cast<obs::Stage>(i)) +
        "_ns");
  }
  queue_wait_ = stage_hist_[static_cast<size_t>(obs::Stage::kQueueWait)];
  // One Collect() is the full observable state of the process: the
  // database registry's series (engine, WAL, columnar, MVCC, plan cache)
  // plus the values owned by the service's own queue, slow log and tracer.
  registry_.AddCollector([this](obs::RegistrySnapshot* out) {
    obs::RegistrySnapshot db = db_->registry().Collect();
    out->insert(out->end(), std::make_move_iterator(db.begin()),
                std::make_move_iterator(db.end()));
    auto add = [out](const char* name, obs::MetricKind kind, uint64_t v) {
      out->push_back({name, kind, v, {}});
    };
    const auto kCounter = obs::MetricKind::kCounter;
    const auto kGauge = obs::MetricKind::kGauge;
    add("queue_depth", kGauge, queue_.size());
    add("queue_high_water", kGauge, queue_.high_water());
    add("queue_capacity", kGauge, queue_.capacity());
    add("slow_checks_logged", kCounter, slow_log_.logged());
    add("slow_checks_suppressed", kCounter, slow_log_.suppressed());
    add("traces_sampled", kCounter, tracer_.sampled_count());
  });
  slow_log_.Configure(options_.slow_log);
  if (!options_.durability.wal_path.empty() && !db_->durability_enabled()) {
    // Before the workers start: EnableDurability is a setup-time call, and
    // every epoch committed through the writer lane below must be logged.
    durability_status_ = db_->EnableDurability(options_.durability);
  }
  int threads = options.worker_threads;
  if (threads <= 0) {
    threads = static_cast<int>(std::thread::hardware_concurrency());
    if (threads <= 0) threads = 1;
  }
  workers_.reserve(static_cast<size_t>(threads));
  for (int i = 0; i < threads; ++i) {
    workers_.emplace_back([this] { WorkerLoop(); });
  }
}

CheckService::~CheckService() { Shutdown(); }

void CheckService::Shutdown() {
  queue_.Close();
  for (std::thread& t : workers_) {
    if (t.joinable()) t.join();
  }
  // Durability barrier: with the workers drained and joined, force the last
  // (possibly partial) group-commit batch to stable storage.
  if (db_->durability_enabled()) (void)db_->SyncWal();
}

Status CheckService::ApplyReplicatedEpoch(
    const relational::WalRecord& record) {
  std::lock_guard<std::mutex> lane(writer_mu_);
  return db_->ApplyReplicatedEpoch(record);
}

std::shared_ptr<Session> CheckService::OpenSession(std::string name) {
  uint64_t id = next_session_id_++;
  if (name.empty()) name = "session-" + std::to_string(id);
  return std::make_shared<Session>(id, std::move(name), db_->CreateContext());
}

void CheckService::ObserveStage(obs::Stage stage, uint64_t dur_ns) {
  if (!options_.metrics_enabled) return;
  stage_hist_[static_cast<size_t>(stage)]->Record(dur_ns);
}

std::unique_ptr<CheckService::Request> CheckService::MakeRequest(
    std::shared_ptr<Session> session, std::string update_text,
    check::CheckOptions options, std::shared_ptr<Completion> done,
    uint64_t tag) {
  auto req = std::make_unique<Request>();
  req->session = std::move(session);
  req->update_text = std::move(update_text);
  req->options = options;
  req->done = std::move(done);
  req->tag = tag;
  if (options_.metrics_enabled) {
    req->trace = tracer_.Begin(next_request_id_++);
  }
  return req;
}

std::future<CheckReport> CheckService::Submit(std::shared_ptr<Session> session,
                                              std::string update_text,
                                              CheckOptions options) {
  auto done = std::make_shared<PromiseCompletion>(&tracer_);
  std::future<CheckReport> future = done->future();
  auto req = MakeRequest(std::move(session), std::move(update_text), options,
                         std::move(done), 0);
  // Counted only once actually admitted, so submitted == completed holds
  // after a drain (a rejected push below is neither).
  submitted_->Inc();
  if (!queue_.Push(std::move(req))) {
    // Shut down: resolve immediately instead of hanging the caller. (Push
    // dropped the request and its promise; rebuild the rejection inline.)
    completed_->Inc();
    std::promise<CheckReport> rejected;
    CheckReport report;
    report.outcome = CheckOutcome::kInvalid;
    report.error =
        Status::InvalidArgument("check service is shut down");
    rejected.set_value(std::move(report));
    return rejected.get_future();
  }
  return future;
}

AdmitResult CheckService::SubmitWithDeadline(
    std::shared_ptr<Session> session, std::string update_text,
    check::CheckOptions options, std::optional<SteadyTime> deadline,
    std::shared_ptr<Completion> done, uint64_t tag) {
  if (deadline.has_value() &&
      std::chrono::steady_clock::now() >= *deadline) {
    deadline_expired_->Inc();
    return AdmitResult::kExpired;
  }
  auto req = MakeRequest(std::move(session), std::move(update_text), options,
                         std::move(done), tag);
  req->deadline = deadline;
  // Count before the push: once the queue owns the request a worker may
  // finish it immediately, and completed must never overtake submitted.
  submitted_->Inc();
  // With a deadline, wait for queue room only until it expires — the
  // caller is a socket handler that must answer the client either way.
  // Without one, this is plain TryPush admission.
  QueueWaitResult pushed =
      deadline.has_value()
          ? queue_.PushFor(std::move(req), *deadline)
          : (queue_.TryPush(std::move(req)) ? QueueWaitResult::kOk
                                            : QueueWaitResult::kTimedOut);
  if (pushed != QueueWaitResult::kOk) {
    submitted_->Sub(1);
    if (pushed == QueueWaitResult::kClosed) return AdmitResult::kClosed;
    shed_->Inc();
    return AdmitResult::kShed;
  }
  return AdmitResult::kAdmitted;
}

void CheckService::WorkerLoop() {
  std::unique_ptr<Request> req;
  BoundedQueue<std::unique_ptr<Request>>::SteadyTime pushed_at{};
  while (queue_.Pop(&req, &pushed_at)) {
    if (options_.metrics_enabled) {
      // Queue residency is attributed at pop (the only point that knows
      // both ends): always into the stage histogram, and into the span
      // list of a sampled trace.
      auto popped = std::chrono::steady_clock::now();
      queue_wait_->Record(static_cast<uint64_t>(
          std::chrono::duration_cast<std::chrono::nanoseconds>(popped -
                                                               pushed_at)
              .count()));
      req->trace.RecordSpanLane(obs::Stage::kQueueWait, pushed_at, popped,
                                obs::CurrentThreadLane());
    }
    // Queue purge: a request whose deadline expired while it waited is
    // answered without executing — the client already gave up, and the
    // kDeadlineExceeded verdict certifies nothing ran (safe to retry).
    CheckReport report =
        (req->deadline.has_value() &&
         std::chrono::steady_clock::now() >= *req->deadline)
            ? DeadlineExceededReport("deadline expired in admission queue")
            : Process(req.get());
    FinishRequest(req.get(), std::move(report));
    req.reset();
  }
}

void CheckService::FinishRequest(Request* req, CheckReport report) {
  if (report.outcome == CheckOutcome::kDeadlineExceeded) {
    deadline_expired_->Inc();
  }
  completed_->Inc();
  obs::TraceContext* trace = &req->trace;
  if (trace->active()) {
    // End-to-end latency as seen by the service (response write, if any,
    // is appended by the Completion before it finishes the trace).
    uint64_t total = trace->NowRelNs();
    check_latency_->Record(total);
    // Queue-wait was recorded at pop; response-write hasn't happened yet —
    // both naturally excluded by the skip-zero rule (stages that didn't
    // run must not contribute zeros to their distributions).
    for (size_t i = 1; i < obs::kStageCount; ++i) {
      uint64_t ns = trace->stage_totals()[i];
      if (ns != 0) stage_hist_[i]->Record(ns);
    }
    if (slow_log_.enabled() && total >= slow_log_.threshold_ns()) {
      obs::SlowCheckRecord rec;
      rec.request_id = trace->request_id();
      rec.session = req->session->name();
      rec.verdict = check::CheckOutcomeName(report.outcome);
      rec.total_ns = total;
      rec.stage_ns = trace->stage_totals();
      if (req->plan != nullptr) {
        rec.normalized_text = req->plan->normalized_text();
        rec.template_hash = req->plan->template_hash();
      }
      rec.from_plan_cache = req->plan_from_cache;
      slow_log_.Log(rec);
    }
  }
  // Last: the Completion may resolve a caller's future or write the
  // response, and either can end the caller's wait.
  req->done->Complete(req->tag, std::move(report), std::move(req->trace));
}

CheckReport CheckService::Process(Request* req) {
  // One session, one request at a time: the session's context carries the
  // snapshot pin (and the writer lane mutates its scratch), so same-session
  // requests must not interleave. Cross-session requests never contend
  // here.
  std::lock_guard<std::mutex> session_lock(
      req->session->processing_mutex());
  relational::ExecutionContext* ctx = req->session->context();
  obs::TraceContext* trace = &req->trace;
  std::shared_ptr<const check::PreparedUpdate> plan;
  bool tried_fast_path = false;
  {
    // Fast path: pin a snapshot of the latest commit epoch on the session's
    // context, then prepare (thread-safe sharded plan cache) and attempt
    // the whole check read-only against the pinned tables. Opening the
    // snapshot is the only synchronization point — after it, no lock is
    // held, so this runs concurrently with every other reader *and* with a
    // writer-lane occupant committing new versions.
    auto wait_start = std::chrono::steady_clock::now();
    std::shared_ptr<const relational::Snapshot> snapshot;
    {
      obs::ScopedSpan span(trace, obs::Stage::kSnapshotPin);
      snapshot = db_->OpenSnapshot();
    }
    tried_fast_path = !req->options.apply;
    // Only genuine fast-path candidates account into the reader-wait
    // counter: an apply=true request's snapshot open is writer-side work
    // and must not pollute the readers-never-block metric.
    if (tried_fast_path) reader_wait_ns_->Add(ElapsedNs(wait_start));
    ctx->PinReadSnapshot(std::move(snapshot));
    bool cache_hit = false;
    plan = filter_->Prepare(req->update_text, &cache_hit, ctx, trace);
    req->plan = plan;
    req->plan_from_cache = cache_hit;
    std::optional<CheckReport> fast;
    {
      obs::ScopedSpan span(trace, obs::Stage::kProbe);
      fast = filter_->TryCheckReadOnly(*plan, req->options, ctx);
    }
    ctx->ClearReadSnapshot();
    if (fast.has_value()) {
      fast_path_->Inc();
      return *std::move(fast);
    }
  }
  // Writer lane: one occupant at a time; the classic execute / rollback
  // protocol runs against the live tables (copy-on-write keeps pinned
  // snapshots stable), and the guard publishes the outcome as one commit.
  auto wait_start = std::chrono::steady_clock::now();
  std::unique_lock<std::mutex> write_lock(writer_mu_);
  writer_wait_ns_->Add(ElapsedNs(wait_start));
  CheckReport report;
  bool timing = trace->active();
  obs::TraceClock::time_point publish_start{};
  {
    relational::Database::WriterGuard guard(db_);
    if (!req->options.apply) {
      // Escalated check-only traffic executes and fully rolls back: no net
      // change, so don't commit a byte-identical epoch per check.
      guard.AbandonPublish();
    }
    writer_lane_->Inc();
    if (tried_fast_path) escalations_->Inc();
    {
      obs::ScopedSpan span(trace, obs::Stage::kApply);
      if (options_.writer_lane_hold_ms_for_testing > 0) {
        std::this_thread::sleep_for(std::chrono::milliseconds(
            options_.writer_lane_hold_ms_for_testing));
      }
      report = filter_->Execute(*plan, req->options, ctx);
    }
    if (report.outcome != CheckOutcome::kExecuted) {
      // A rejected apply rolled everything back too — don't commit a no-op
      // epoch for it.
      guard.AbandonPublish();
    }
    if (timing) publish_start = obs::TraceClock::now();
    // The guard's destruction publishes the commit epoch and appends it to
    // the WAL (fsync per policy) — that is the wal_sync span.
  }
  if (timing) {
    trace->RecordSpan(obs::Stage::kWalSync, publish_start,
                      obs::TraceClock::now());
  }
  return report;
}

}  // namespace ufilter::service
