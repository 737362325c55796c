// Per-check stage tracing. A TraceContext rides one check request from
// net::Server decode through CheckService submit into UFilter::Prepare /
// execute and WAL sync to the response write, attributing wall time to a
// fixed eight-stage taxonomy:
//
//   queue_wait      admission-queue residency (push -> worker pop)
//   snapshot_pin    opening + pinning the MVCC read snapshot
//   plan_cache      literal lifting, plan-cache lookup by shape, and on a
//                   hit the bind of the request's values (with step-1
//                   validation)
//   compile         compilation of a shape on a miss (and its bind)
//   probe           the lock-free read-only U-Filter probe
//   apply           writer-lane execution (probe + mutation)
//   wal_sync        version publication + WAL append/fsync
//   response_write  encoding the response and writing its frame, from the
//                   worker's hand-off to the connection's outbox until the
//                   last byte is sent (a wait behind earlier responses on
//                   the connection counts here)
//
// Two outputs, two costs. Stage *histograms* are always on and cost one
// histogram record per span — that is what bench_obs gates at <3%. Full
// *traces* (the per-request span list) are sampled 1-in-M: unsampled
// requests still get span timings recorded into stage totals (needed for
// the slow-check log), but skip the span-vector append; sampled traces
// land in a bounded ring exportable as Chrome trace-event JSON that
// chrome://tracing and Perfetto load directly.
#ifndef UFILTER_OBS_TRACE_H_
#define UFILTER_OBS_TRACE_H_

#include <array>
#include <atomic>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <mutex>
#include <string>
#include <vector>

namespace ufilter::obs {

enum class Stage : uint8_t {
  kQueueWait = 0,
  kSnapshotPin = 1,
  kPlanCache = 2,
  kCompile = 3,
  kProbe = 4,
  kApply = 5,
  kWalSync = 6,
  kResponseWrite = 7,
};

inline constexpr size_t kStageCount = 8;

/// Stable stage name used in trace span names, stage histogram metric
/// names (`stage_<name>_ns`) and slow-check-log keys.
const char* StageName(Stage s);

using TraceClock = std::chrono::steady_clock;

/// One timed stage within a request, relative to the context's birth.
struct TraceSpan {
  Stage stage = Stage::kQueueWait;
  uint64_t start_ns = 0;
  uint64_t dur_ns = 0;
  /// Dense id of the thread that ran the span; becomes the Chrome trace
  /// `tid`, so spans on one lane render as one track.
  uint32_t lane = 0;
};

/// Dense per-thread lane id (0, 1, 2, ... in first-use order), stable for
/// the thread's lifetime. Used instead of std::thread::id so trace tids
/// are small and deterministic-ish.
uint32_t CurrentThreadLane();

/// \brief The per-request trace state.
///
/// Created by Tracer::Begin (or default-constructed inactive, in which
/// case every recording call is a no-op). A check request holds its trace
/// by value and is its only owner: the reader thread that admits it, the
/// worker that runs it, and whichever thread writes its response touch it
/// one after another, never at once. The request's completion finishes it:
/// on the wire once the response is written, in process before the
/// caller's future resolves.
class TraceContext {
 public:
  TraceContext() = default;

  bool active() const { return active_; }
  bool sampled() const { return sampled_; }
  uint64_t request_id() const { return request_id_; }

  /// Nanoseconds since the context was born.
  uint64_t NowRelNs() const {
    return static_cast<uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            TraceClock::now() - born_)
            .count());
  }

  /// Records a completed stage [begin, end) (absolute steady-clock
  /// times), attributed to the calling thread's lane.
  void RecordSpan(Stage stage, TraceClock::time_point begin,
                  TraceClock::time_point end);

  /// Same, with an explicit lane (used for queue-wait, which no single
  /// thread "runs").
  void RecordSpanLane(Stage stage, TraceClock::time_point begin,
                      TraceClock::time_point end, uint32_t lane);

  /// Pre-measured variant for durations timed outside the context.
  void RecordDuration(Stage stage, uint64_t dur_ns);

  /// Total ns attributed to `stage` so far.
  uint64_t StageTotalNs(Stage stage) const {
    return stage_totals_[static_cast<size_t>(stage)];
  }
  const std::array<uint64_t, kStageCount>& stage_totals() const {
    return stage_totals_;
  }

  /// End-to-end latency; set by Tracer::Finish.
  uint64_t total_ns() const { return total_ns_; }

  const std::vector<TraceSpan>& spans() const { return spans_; }
  TraceClock::time_point born() const { return born_; }

 private:
  friend class Tracer;

  uint64_t request_id_ = 0;
  bool active_ = false;
  bool sampled_ = false;
  TraceClock::time_point born_{};
  std::array<uint64_t, kStageCount> stage_totals_{};
  uint64_t total_ns_ = 0;
  std::vector<TraceSpan> spans_;
};

/// RAII span: times construction -> destruction into `trace` (no-op when
/// trace is null or inactive — the clock is not even read).
class ScopedSpan {
 public:
  ScopedSpan(TraceContext* trace, Stage stage) : trace_(trace), stage_(stage) {
    if (trace_ != nullptr && trace_->active()) {
      begin_ = TraceClock::now();
    } else {
      trace_ = nullptr;
    }
  }
  ~ScopedSpan() {
    if (trace_ != nullptr) {
      trace_->RecordSpan(stage_, begin_, TraceClock::now());
    }
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  TraceContext* trace_;
  Stage stage_;
  TraceClock::time_point begin_{};
};

/// A finished, sampled trace held in the Tracer's ring.
struct CompletedTrace {
  uint64_t request_id = 0;
  uint64_t total_ns = 0;
  std::vector<TraceSpan> spans;
};

/// \brief Owns the sampling decision and the ring of completed traces.
class Tracer {
 public:
  struct Options {
    /// Sample one full trace out of every `sample_every` requests;
    /// 0 disables full traces entirely (stage histograms stay on).
    uint32_t sample_every = 64;
    /// Completed sampled traces retained (oldest evicted first).
    size_t ring_capacity = 256;
  };

  // Two constructors instead of one defaulted argument: GCC rejects a
  // default argument that needs the nested struct's member initializers
  // before the enclosing class is complete.
  Tracer() : Tracer(Options()) {}
  explicit Tracer(Options options) : options_(options) {}

  /// Starts a trace for a new request. Always active (stage totals are
  /// always accumulated); sampled 1-in-M per options.
  TraceContext Begin(uint64_t request_id);

  /// Seals the trace: fixes total_ns (birth -> now, unless already set)
  /// and, if sampled, pushes it into the ring. Idempotent via active().
  void Finish(TraceContext& trace);

  std::vector<CompletedTrace> Snapshot() const;

  /// Renders the ring as a Chrome trace-event JSON document
  /// ({"traceEvents":[...]} with "ph":"X" complete events, ts/dur in
  /// microseconds). Loadable by chrome://tracing and Perfetto.
  std::string ExportChromeJson() const;

  uint64_t sampled_count() const {
    return sampled_.load(std::memory_order_relaxed);
  }

 private:
  Options options_;
  std::atomic<uint64_t> next_{0};
  std::atomic<uint64_t> sampled_{0};
  mutable std::mutex mu_;
  std::deque<CompletedTrace> ring_;
};

}  // namespace ufilter::obs

#endif  // UFILTER_OBS_TRACE_H_
