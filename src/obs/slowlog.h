// The slow-check log: one structured JSON line per check whose
// end-to-end latency crosses a configurable threshold, carrying the full
// stage breakdown, the normalized-text plan fingerprint, and the verdict —
// enough for an operator to tell a queue-wait problem from a compile storm
// from a slow fsync without reproducing the request.
//
// Records are rate-limited (token window per wall-clock second) so a
// latency incident cannot turn the log itself into the bottleneck;
// suppressed records are counted and surfaced as a metric.
#ifndef UFILTER_OBS_SLOWLOG_H_
#define UFILTER_OBS_SLOWLOG_H_

#include <array>
#include <atomic>
#include <cstdint>
#include <cstdio>
#include <mutex>
#include <string>

#include "obs/trace.h"

namespace ufilter::obs {

struct SlowLogOptions {
  /// Checks at or above this end-to-end latency are logged; 0 disables
  /// the slow log entirely.
  uint64_t threshold_ns = 0;
  /// Records emitted per wall-clock second before suppression kicks in.
  uint32_t max_per_sec = 10;
  /// Destination stream; nullptr means stderr. Ignored when `path` is
  /// set. The stream is borrowed, not owned.
  std::FILE* stream = nullptr;
  /// When non-empty, the log is appended to this file (opened by the
  /// SlowLog, owned by it).
  std::string path;
};

/// Everything one slow-check line carries.
struct SlowCheckRecord {
  uint64_t request_id = 0;
  std::string session;
  /// A stable check::CheckOutcomeName() string ("executed", "invalid",
  /// "data conflict", ...).
  const char* verdict = "not run";
  uint64_t total_ns = 0;
  std::array<uint64_t, kStageCount> stage_ns{};
  /// The update's shape (its text with literal values lifted out) — the
  /// plan-cache key, i.e. the template fingerprint an operator can
  /// correlate across requests whatever their values.
  std::string normalized_text;
  uint64_t template_hash = 0;
  bool from_plan_cache = false;
};

/// Renders the record as a single JSON line (no trailing newline).
/// Exposed separately so tests can validate the schema without a FILE*.
std::string FormatSlowCheckRecord(const SlowCheckRecord& record);

/// \brief Threshold + rate-limit front end over a FILE* sink.
///
/// Thread-safe; Log() from any worker. Cheap when disabled (one load) or
/// under threshold (one comparison).
class SlowLog {
 public:
  SlowLog() = default;
  ~SlowLog();
  SlowLog(const SlowLog&) = delete;
  SlowLog& operator=(const SlowLog&) = delete;

  /// (Re)configures the sink. Not thread-safe against concurrent Log();
  /// call before the workers start.
  void Configure(const SlowLogOptions& options);

  bool enabled() const { return threshold_ns_ != 0; }
  uint64_t threshold_ns() const { return threshold_ns_; }

  /// Logs the record if total_ns >= threshold and the rate limit allows.
  void Log(const SlowCheckRecord& record);

  uint64_t logged() const { return logged_.load(std::memory_order_relaxed); }
  uint64_t suppressed() const {
    return suppressed_.load(std::memory_order_relaxed);
  }

 private:
  uint64_t threshold_ns_ = 0;
  uint32_t max_per_sec_ = 10;
  std::FILE* stream_ = nullptr;  // borrowed (or stderr)
  std::FILE* owned_ = nullptr;   // opened from options.path
  std::atomic<uint64_t> logged_{0};
  std::atomic<uint64_t> suppressed_{0};
  std::mutex mu_;
  // Rate-limit window state (guarded by mu_).
  int64_t window_sec_ = -1;
  uint32_t window_count_ = 0;
};

}  // namespace ufilter::obs

#endif  // UFILTER_OBS_SLOWLOG_H_
