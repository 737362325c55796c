// Seeded request streams for the wire-to-verdict benchmark.
//
// The database is TPC-H-like at scale 4 (5 regions, 25 nations, 600
// customers, 6,000 orders with 4 lineitems each) published as the paper's
// Fig. 14 view Vfail(region), where deleting a region is untranslatable.
// Every request carries the verdict the paper's three steps must give it,
// so the benchmark checks each answer instead of trusting it.
#ifndef PERFBENCH_WORKLOAD_H_
#define PERFBENCH_WORKLOAD_H_

#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

/// The expected outcome of a request, by the step that decides it.
enum class Expect : uint8_t {
  kInvalid = 0,         ///< step 1 (update validation) rejects it
  kUntranslatable = 1,  ///< step 2 (STAR) rejects it
  kConflict = 2,        ///< step 3 (data check) rejects it
  kExecuted = 3,        ///< translated on the read-only fast path
  kEscalated = 4,       ///< translated, but only in the writer lane
};
inline constexpr int kExpectCount = 5;
const char* ExpectName(Expect e);

enum class Workload { kCheckHot, kCheckCold, kApplyMixed };
/// False when `name` names no workload.
bool ParseWorkload(const std::string& name, Workload* out);
const char* WorkloadName(Workload w);

struct Request {
  std::string text;
  Expect expect = Expect::kExecuted;
  bool apply = false;
};

/// TPC-H scale of the database every workload runs on.
inline constexpr double kScale = 4.0;

/// xorshift64*: the same stream on every platform.
class Rng {
 public:
  explicit Rng(uint64_t seed);
  uint64_t Next();
  /// Uniform in [lo, hi).
  int64_t Below(int64_t lo, int64_t hi) {
    return lo + static_cast<int64_t>(Next() % static_cast<uint64_t>(hi - lo));
  }

 private:
  uint64_t state_;
};

/// The check-only funnel mix one closed-loop connection sends. On check_hot
/// and apply_mixed the keys come from small per-template pools fixed by the
/// seed (57 distinct texts in all); on check_cold they are uniform over all
/// rows, so almost every text is new to the plan cache.
class ReadStream {
 public:
  ReadStream(Workload workload, uint64_t seed, int connection);
  Request Next();

 private:
  bool hot_;
  Rng rng_;
  /// Per-template key pools (hot keyspace only).
  std::vector<std::vector<int64_t>> pools_;
};

/// The open-loop applies of apply_mixed: customer-name and order-price
/// replacements on uniform keys, and lineitem insert/delete pairs on line
/// numbers no read uses. A pair's delete trails its insert by kPairLag
/// pair writes, so it never overtakes the insert it undoes, and the
/// lineitem table never holds more than kPairLag extra rows.
class WriteStream {
 public:
  explicit WriteStream(uint64_t seed);
  Request Next();

  static constexpr size_t kPairLag = 8;

 private:
  Rng rng_;
  uint64_t count_ = 0;
  uint64_t next_line_ = 0;
  std::vector<std::pair<int64_t, int64_t>> live_;  // (order, line) FIFO
  size_t live_head_ = 0;
};

/// One request of each expected class, for the pre-run smoke check.
std::vector<Request> ProbeRequests();

}  // namespace perfbench

#endif  // PERFBENCH_WORKLOAD_H_
