// The concurrent check service: multiplexes many client sessions over one
// shared Database + compiled UFilter (Fig. 5 deployed as middleware, the
// way XPERANTO / SilkRoute front multiple clients).
//
// Architecture:
//   - a fixed pool of worker threads drains a *bounded* MPMC admission
//     queue (Submit blocks when it is full — backpressure — and
//     SubmitWithDeadline sheds load instead);
//   - every check-only request (apply=false: any strategy, any number of
//     actions) runs on the *fast path*: the worker pins an MVCC snapshot
//     (Database::OpenSnapshot, a mutex-guarded pointer copy) on the
//     session's context, then runs plan-cache prepare, the probes, the
//     translation and its ops on one throwaway overlay of the pinned
//     tables with **no lock held at all** — N workers check concurrently
//     with each other *and* with the writer lane;
//   - applies (apply=true), and nothing else, are serialized through the
//     single *writer lane* (a plain mutex): they run against the live
//     tables inside a savepoint, and a Database::WriterGuard publishes the
//     result as a new commit epoch. In-flight snapshot checks keep reading
//     their pinned epoch; the writer's copy-on-write clones never touch a
//     published table version.
//
// Shared vs. per-session state: the Database's base tables, the compiled
// view and the sharded plan cache are shared; each Session owns an
// ExecutionContext (temp tables, undo log). Every counter is a relaxed
// atomic owned by a metric registry (see registry()). See
// docs/ARCHITECTURE.md, "Concurrency model" and "Snapshots & versioning".
#ifndef UFILTER_SERVICE_CHECK_SERVICE_H_
#define UFILTER_SERVICE_CHECK_SERVICE_H_

#include <atomic>
#include <chrono>
#include <future>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "obs/metrics.h"
#include "obs/slowlog.h"
#include "obs/trace.h"
#include "relational/wal.h"
#include "service/bounded_queue.h"
#include "service/session.h"
#include "ufilter/checker.h"

namespace ufilter::service {

struct CheckServiceOptions {
  /// Worker pool size; 0 means std::thread::hardware_concurrency().
  int worker_threads = 0;
  /// Admission queue bound (backpressure threshold).
  size_t queue_capacity = 256;
  /// Test-only fault injection: every writer-lane request holds the lane
  /// for this long before executing, so tests can assert that snapshot
  /// readers never wait on a slow writer.
  int writer_lane_hold_ms_for_testing = 0;
  /// Durability config forwarded to Database::EnableDurability at service
  /// construction (wal_path empty = in-memory only, the default). The
  /// fsync-policy knob trades commit latency for durability: kAlways syncs
  /// per committed epoch, kGroup amortizes one fsync over
  /// `durability.group_commit_size` writer-lane commits, kNever leaves it
  /// to the OS. Fast-path (snapshot) checks never touch the WAL either
  /// way. If the database already has durability enabled the service just
  /// uses it; a failed enable is surfaced via durability_status().
  relational::DurabilityOptions durability;
  /// Per-check timing instrumentation: stage spans, latency/stage/queue
  /// histograms, trace sampling, slow-check log. Counters (submitted /
  /// shed / engine work) stay on regardless — they predate this knob and
  /// cost one relaxed add each. Off still reads the clock on the check
  /// path: for the reader- and writer-wait counters, and for the report's
  /// step timings. bench_obs gates the on-vs-off gap at <3%.
  bool metrics_enabled = true;
  /// Full-trace sampling (1-in-N requests) and ring size.
  obs::Tracer::Options trace;
  /// Slow-check log threshold / rate limit / sink (threshold 0 = off).
  obs::SlowLogOptions slow_log;
};

/// How SubmitWithDeadline disposed of a request at admission.
enum class AdmitResult {
  kAdmitted,  ///< queued; its Completion runs when a worker finishes it
  kShed,      ///< queue full past its deadline budget — retry later
  kExpired,   ///< the deadline had already passed at admission
  kClosed,    ///< the service is shut down / draining
};

/// Where a finished request goes. The worker that finishes an admitted
/// request records the service's metrics for it, then calls Complete
/// exactly once, on its own thread, with the tag the request was submitted
/// with. From then on the hook owns `trace` and finishes it
/// (tracer().Finish) after its last span; when metrics are off the trace
/// is inactive and needs nothing.
class Completion {
 public:
  virtual ~Completion() = default;
  virtual void Complete(uint64_t tag, check::CheckReport report,
                        obs::TraceContext trace) = 0;
};

class CheckService {
 public:
  using SteadyTime = std::chrono::steady_clock::time_point;
  /// Starts the worker pool immediately. `filter` (and its database) must
  /// outlive the service.
  explicit CheckService(check::UFilter* filter,
                        CheckServiceOptions options = {});
  /// Drains and joins (see Shutdown).
  ~CheckService();

  CheckService(const CheckService&) = delete;
  CheckService& operator=(const CheckService&) = delete;

  /// Opens a new session (thread-safe). The session is valid until the
  /// service is destroyed; closing is just dropping the shared_ptr.
  std::shared_ptr<Session> OpenSession(std::string name = "");

  /// Enqueues one check; blocks while the queue is full (backpressure).
  /// The future resolves when a worker finishes the check, after the
  /// check's trace is finished. After Shutdown the future resolves
  /// immediately with an InvalidArgument report.
  std::future<check::CheckReport> Submit(std::shared_ptr<Session> session,
                                         std::string update_text,
                                         check::CheckOptions options = {});

  /// Deadline-carrying admission, the network front end's entry point.
  /// An already-expired deadline is rejected as kExpired without touching
  /// the queue; otherwise the request waits for queue room only until its
  /// deadline (never a blocked socket) and is shed as kShed when the queue
  /// stays full. An admitted request keeps its deadline: a worker that pops
  /// it after expiry answers kDeadlineExceeded without executing (the queue
  /// purge), so the verdict is authoritative — an expired/shed request was
  /// *never* executed and is always safe to retry. `deadline` nullopt =
  /// no deadline: admitted only if the queue has room now. The request's
  /// trace begins here, and only an admitted request reaches `done`.
  AdmitResult SubmitWithDeadline(std::shared_ptr<Session> session,
                                 std::string update_text,
                                 check::CheckOptions options,
                                 std::optional<SteadyTime> deadline,
                                 std::shared_ptr<Completion> done,
                                 uint64_t tag);

  /// Applies one replicated WAL record through the writer lane (follower
  /// mode). The applier and any apply take turns on writer_mu_, and
  /// check-only traffic keeps reading its pinned snapshots throughout.
  /// Forwards to Database::ApplyReplicatedEpoch (idempotent for
  /// already-applied epochs; see its contract for failure semantics).
  Status ApplyReplicatedEpoch(const relational::WalRecord& record);

  /// Refuses new submissions, drains everything queued, joins the workers.
  /// Idempotent.
  void Shutdown();

  int worker_threads() const {
    return static_cast<int>(workers_.size());
  }
  check::UFilter* filter() { return filter_; }

  /// Outcome of the construction-time Database::EnableDurability call (OK
  /// when durability was not requested or the database already had it on).
  const Status& durability_status() const { return durability_status_; }

  /// The service-wide metric registry: the service, server and
  /// replication series, the stage / latency / queue-wait histograms, and
  /// at Collect() time the database registry's series (engine, WAL,
  /// columnar, MVCC, plan cache) plus the queue, slow-log and trace
  /// values. Every exposition path, in process or remote, renders from
  /// Collect() of this registry.
  obs::Registry& registry() { return registry_; }
  const obs::Registry& registry() const { return registry_; }
  obs::Tracer& tracer() { return tracer_; }
  obs::SlowLog& slow_log() { return slow_log_; }
  bool metrics_enabled() const { return options_.metrics_enabled; }

  /// Records an out-of-band stage duration into that stage's always-on
  /// histogram (no-op when metrics are disabled). Used by the network
  /// front end for response_write, which happens after the service has
  /// handed the request to its Completion.
  void ObserveStage(obs::Stage stage, uint64_t dur_ns);

 private:
  struct Request {
    std::shared_ptr<Session> session;
    std::string update_text;
    check::CheckOptions options;
    /// Absolute execution deadline; a worker popping the request after
    /// this instant answers kDeadlineExceeded instead of executing.
    std::optional<SteadyTime> deadline;
    /// Receives the verdict (with `tag`) when a worker finishes.
    std::shared_ptr<Completion> done;
    uint64_t tag = 0;
    /// Inactive when metrics are disabled.
    obs::TraceContext trace;
    /// Set by Process for the slow-check log (the plan fingerprint).
    std::shared_ptr<const check::PreparedUpdate> plan;
    bool plan_from_cache = false;
  };

  /// Submit's Completion: finishes the trace, then resolves the future.
  class PromiseCompletion;

  void WorkerLoop();
  check::CheckReport Process(Request* req);
  std::unique_ptr<Request> MakeRequest(std::shared_ptr<Session> session,
                                       std::string update_text,
                                       check::CheckOptions options,
                                       std::shared_ptr<Completion> done,
                                       uint64_t tag);
  void FinishRequest(Request* req, check::CheckReport report);

  check::UFilter* filter_;
  relational::Database* db_;
  CheckServiceOptions options_;
  BoundedQueue<std::unique_ptr<Request>> queue_;
  std::vector<std::thread> workers_;

  /// The writer lane: one apply at a time. Checks never touch it — they
  /// read a pinned MVCC snapshot instead.
  std::mutex writer_mu_;

  std::atomic<uint64_t> next_session_id_{1};
  std::atomic<uint64_t> next_request_id_{1};

  // All owned by registry_ (declared before the pointers so destruction
  // order is safe), under service_<name> for the counters.
  obs::Registry registry_;
  obs::Counter* submitted_;
  obs::Counter* completed_;
  /// Checks served read-only against a pinned snapshot (no lock held;
  /// concurrent with each other and with the writer lane).
  obs::Counter* fast_path_;
  /// Applies serialized through the exclusive writer lane.
  obs::Counter* writer_lane_;
  /// Admissions refused because the queue stayed full.
  obs::Counter* shed_;
  /// Requests whose deadline expired before execution: rejected at
  /// admission or purged from the queue by a worker (answered with a
  /// kDeadlineExceeded verdict — the request never executed).
  obs::Counter* deadline_expired_;
  /// Total time fast-path requests spent blocked acquiring their snapshot
  /// (the only synchronization point on the read path). Stays ~0 even
  /// while a writer occupies the lane — the readers-never-block invariant.
  obs::Counter* reader_wait_ns_;
  /// Total time writer-lane requests spent waiting for the lane mutex.
  obs::Counter* writer_wait_ns_;
  obs::Histogram* check_latency_;
  obs::Histogram* queue_wait_;
  obs::Histogram* stage_hist_[obs::kStageCount];

  obs::Tracer tracer_;
  obs::SlowLog slow_log_;
  Status durability_status_;
};

}  // namespace ufilter::service

#endif  // UFILTER_SERVICE_CHECK_SERVICE_H_
