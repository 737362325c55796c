// The load generator: closed-loop check connections, each one net::Client,
// plus (apply_mixed) one pipelined connection that sends applies in an open
// loop at a fixed rate and times each from its due time. Without applies a
// pacer thread keeps the same schedule and sends nothing, so the
// generator's lateness is measured on every workload.
#ifndef PERFBENCH_WIRE_H_
#define PERFBENCH_WIRE_H_

#include <sched.h>

#include <cstdint>
#include <functional>
#include <vector>

#include "common.h"
#include "workload.h"

namespace perfbench {

/// Applies per second of apply_mixed's open-loop writer, and its period.
inline constexpr int kApplyRate = 100;
inline constexpr int64_t kApplyPeriodNs = 1000000000LL / kApplyRate;
/// With spans on, each connection pings before one check in this many.
inline constexpr uint64_t kPingEvery = 16;

struct WireOptions {
  Workload workload = Workload::kCheckHot;
  uint64_t seed = 1;
  uint16_t port = 0;
  int readers = 4;
  bool writer = false;
  /// Time-based mode: unrecorded warm-up, then the measured window.
  double warmup_s = 0;
  double measure_s = 1;
  /// Count-based mode (when `counts` is non-empty): reader i sends
  /// warm_counts[i] unrecorded requests, then counts[i] measured ones, and
  /// the writer runs until every reader is done. Replaying a time-based
  /// run's counts sends exactly the requests it sent.
  std::vector<uint64_t> warm_counts;
  std::vector<uint64_t> counts;
  cpu_set_t cpus;
  /// Records one span per check request, and times a Ping on the same
  /// connection before every kPingEvery-th one.
  bool spans = false;
  /// Self-test hook: on reader 0, the first request of this class in the
  /// warm-up and the first in the window expect the wrong verdict (-1 =
  /// off).
  int flip_expect = -1;
  /// Called once when the measured window opens (the caller scrapes there).
  std::function<void()> on_window_open;
  /// Time-based mode: sampled when the window opens and at the end of each
  /// kSliceSeconds slice of it (the caller reads the server's CPU time).
  std::function<double()> sample_server_cpu;
};

/// The measured window is cut into slices this long; the end-to-end
/// metrics are medians over slices, so a stall of the host that lasts less
/// than half the window moves them little.
inline constexpr double kSliceSeconds = 1.0;

struct ReadRecord {
  double latency_us = 0;  // kFailedLatency when the request failed
  int64_t done_ns = 0;    // when the verdict arrived
  Expect expect = Expect::kExecuted;
  bool wrong_verdict = false;
  bool transport_error = false;
};

struct WriteRecord {
  double latency_us = 0;  // from the due time; kFailedLatency on failure
  int64_t due_ns = 0;
  bool wrong_verdict = false;
  bool transport_error = false;
};

struct WireResult {
  std::vector<ReadRecord> reads;
  std::vector<WriteRecord> writes;
  /// Unrecorded and measured requests per reader.
  std::vector<uint64_t> warmed;
  std::vector<uint64_t> completed;
  /// Requests outside the measured window (warm-up checks, applies due
  /// outside it, pings). Their verdicts are checked like the others; they
  /// stay out of the latency samples only.
  uint64_t unrecorded = 0;
  uint64_t unrecorded_wrong = 0;
  uint64_t unrecorded_transport_errors = 0;
  /// Round trips of the pings sent with spans on: the wire's cost without
  /// any service work.
  std::vector<double> ping_us;
  /// Send (or pacer wake-up) time minus due time, per slot in the window.
  std::vector<double> late_us;
  /// Applies answered kExecuted over the whole run, warm-up included.
  uint64_t applies_executed = 0;
  uint64_t client_retries = 0;
  uint64_t client_reconnects = 0;
  double window_s = 0;
  /// When the window opened, and the slice boundaries after it with the
  /// server's CPU seconds at each (time-based mode with sample_server_cpu).
  int64_t open_ns = 0;
  std::vector<int64_t> slice_end_ns;
  std::vector<double> slice_server_cpu;  // one more: the window's opening
  /// This process's CPU seconds over the window.
  double generator_cpu_s = 0;
  SpanLog spans;
};

WireResult RunWire(const WireOptions& options);

}  // namespace perfbench

#endif  // PERFBENCH_WIRE_H_
