// Small pieces shared by the benchmark's server and load-generator halves:
// clocks, CPU placement, quantiles and the span recorder of traced runs.
#ifndef PERFBENCH_COMMON_H_
#define PERFBENCH_COMMON_H_

#include <sched.h>

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <limits>
#include <string>
#include <thread>
#include <vector>

#include "net/frame.h"
#include "ufilter/checker.h"
#include "workload.h"

namespace perfbench {

inline int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// Sleeps until `due_ns`, waking at least every 2 ms to ask `stopped()`;
/// false as soon as it returns true.
template <typename Stopped>
bool SleepUntil(int64_t due_ns, Stopped stopped) {
  for (int64_t now = NowNs(); now < due_ns; now = NowNs()) {
    if (stopped()) return false;
    std::this_thread::sleep_for(
        std::chrono::nanoseconds(std::min<int64_t>(due_ns - now, 2000000)));
  }
  return !stopped();
}

/// The CPUs the server and the load generator run on. With four or more
/// CPUs they get disjoint halves, so neither steals the other's cycles
/// (a shared set doubled the spread of p99 latency); with fewer both use
/// all of them.
struct Placement {
  cpu_set_t all;
  cpu_set_t server;
  cpu_set_t generator;
  int generator_cpus = 0;
  bool pinned = false;
};
Placement ChoosePlacement();
/// Pins the calling thread (and every thread it creates afterwards).
void PinThread(const cpu_set_t& cpus);

/// CPU seconds this process has used, all its threads together.
double ProcessCpuSeconds();

/// q-quantile (q in [0,1]) by linear interpolation between order
/// statistics; sorts `v`. A failed request enters as +infinity, so it lies
/// beyond every percentile. Returns 0 for an empty sample.
double Quantile(std::vector<double>* v, double q);
double Mean(const std::vector<double>& v);
inline constexpr double kFailedLatency =
    std::numeric_limits<double>::infinity();

/// True when the wire verdict is the one the generator expects.
bool VerdictMatches(Expect expect, ufilter::net::Verdict verdict);
/// The wire verdict of an in-process outcome (as net::Server maps it).
ufilter::net::Verdict VerdictOf(ufilter::check::CheckOutcome outcome);

/// One traced interval. All spans of one request share `request`; `parent`
/// names the enclosing span (kNoParent for the request's root).
struct Span {
  uint64_t request = 0;
  uint8_t name = 0;
  uint8_t parent = 0;
  int64_t start_ns = 0;
  int64_t end_ns = 0;
};
inline constexpr uint8_t kNoParent = 0xff;

/// Span names; the part before the dot is the layer that owns the call.
enum SpanName : uint8_t {
  kSpanDirect,          // pass 1 root: the direct calls of one request
  kSpanSnapshotOpen,    // relational: OpenSnapshot + PinReadSnapshot
  kSpanSnapshotRelease, // relational: ClearReadSnapshot (may free versions)
  kSpanPrepareHit,      // ufilter: Prepare served by the plan cache
  kSpanPrepareMiss,     // ufilter: Prepare that compiled
  kSpanReadOnlyCheck,   // ufilter: TryCheckReadOnly
  kSpanWriterWait,      // service: waiting for the writer lane
  kSpanExecute,         // ufilter: an apply's Execute under a WriterGuard
  kSpanCommit,          // relational: the apply's WriterGuard release
  kSpanWalSync,         // relational: SyncWal after an apply commits
  kSpanEscalate,        // ufilter: an escalated check's Execute + rollback
  kSpanSubmit,          // pass 2 root: CheckService::Submit -> verdict
  kSpanWire,            // pass 3 root: net::Client::Check
  kSpanCount,
};
const char* SpanNameString(uint8_t name);

/// One thread's spans; merged and written out after the run.
using SpanLog = std::vector<Span>;

/// Writes the spans of one request in 16 as tab-separated lines (request,
/// name, parent, start, end; times in ns from the first span), which keeps
/// whole request trees at a tenth of the size. False on an I/O error.
bool WriteSpans(const std::string& path, const std::vector<Span>& spans);

}  // namespace perfbench

#endif  // PERFBENCH_COMMON_H_
