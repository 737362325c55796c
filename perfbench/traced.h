// The in-process passes of a traced run. Both replay a wire run's request
// stream (same seed, same per-connection counts, same concurrency) against
// a freshly seeded fixture:
//   - the direct pass makes the public calls CheckService::Process makes,
//     one span around each. On the check-only workloads it then runs a few
//     applies alone, so the apply spans are measured on every workload;
//   - the submit pass sends the same requests through CheckService::Submit.
// The breakdown pass times the calls nested inside Prepare and
// TryCheckReadOnly, and the wire codec, on the same inputs.
#ifndef PERFBENCH_TRACED_H_
#define PERFBENCH_TRACED_H_

#include <sched.h>

#include <cstdint>
#include <vector>

#include "common.h"
#include "server.h"
#include "workload.h"

namespace perfbench {

struct ReplayPlan {
  Workload workload = Workload::kCheckHot;
  uint64_t seed = 1;
  /// Per reader: unrecorded requests, then measured ones.
  std::vector<uint64_t> warm_counts;
  std::vector<uint64_t> counts;
  bool writer = false;
};

struct PassResult {
  /// Per measured check-only request: duration of its root span.
  std::vector<double> read_us;
  /// Sum over measured check-only requests of their child spans.
  double read_children_us = 0;
  /// Durations of every span by name: all requests, warm-up and applies
  /// included.
  std::vector<double> by_name[kSpanCount];
  /// Every request the pass made, warm-up and applies included; every
  /// one has its verdict checked.
  uint64_t requests = 0;
  uint64_t wrong_verdicts = 0;
  uint64_t applies_executed = 0;
  /// Commit epochs the pass published.
  uint64_t epochs_advanced = 0;
  SpanLog spans;
};

/// Pass 1. `cpus` hosts every thread.
PassResult RunDirect(Fixture* fx, const ReplayPlan& plan,
                     const cpu_set_t& cpus);
/// Pass 2. The service's workers run on `service_cpus`, the submitting
/// threads on `client_cpus`.
PassResult RunSubmit(Fixture* fx, const ReplayPlan& plan,
                     const cpu_set_t& service_cpus,
                     const cpu_set_t& client_cpus);

/// Mean cost of the nested calls, over the first requests of each reader.
struct Breakdown {
  double normalize_ns = 0;
  double parse_us = 0;
  double bind_us = 0;
  double validate_ns = 0;
  double star_ns = 0;
  double dryrun_us = 0;
  double codec_ns = 0;
  double bytes_per_req = 0;
};
Breakdown RunBreakdown(Fixture* fx, const ReplayPlan& plan);

}  // namespace perfbench

#endif  // PERFBENCH_TRACED_H_
