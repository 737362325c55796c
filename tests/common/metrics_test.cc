#include "obs/metrics.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstdlib>
#include <string>
#include <thread>
#include <vector>

#include "obs/prometheus.h"

namespace ufilter::obs {
namespace {

// --- bucket shape ---------------------------------------------------------

TEST(HistogramBucketsTest, BoundsStrictlyIncreasing) {
  for (size_t i = 1; i + 1 < kHistogramBuckets; ++i) {
    EXPECT_LT(HistogramBucketBound(i - 1), HistogramBucketBound(i)) << i;
  }
  EXPECT_EQ(HistogramBucketBound(0), 100u);
  // The covered range must comfortably hold a slow fsync (~tens of ms) and
  // a pathological full-second check before overflowing.
  EXPECT_GT(HistogramBucketBound(kHistogramBuckets - 2), 1000000000ull);
}

TEST(HistogramBucketsTest, BoundaryExactness) {
  // Bucket 0 is [0, 100); every later bucket i is [bound(i-1), bound(i)).
  EXPECT_EQ(HistogramBucketFor(0), 0u);
  EXPECT_EQ(HistogramBucketFor(99), 0u);
  EXPECT_EQ(HistogramBucketFor(100), 1u);
  for (size_t i = 0; i + 1 < kHistogramBuckets; ++i) {
    uint64_t bound = HistogramBucketBound(i);
    EXPECT_EQ(HistogramBucketFor(bound - 1), i) << "below bound " << bound;
    EXPECT_EQ(HistogramBucketFor(bound), i + 1) << "at bound " << bound;
  }
  EXPECT_EQ(HistogramBucketFor(UINT64_MAX), kHistogramBuckets - 1);
}

// --- recording and percentiles -------------------------------------------

TEST(HistogramTest, CountSumMaxExact) {
  Histogram h;
  h.Record(10);
  h.Record(250);
  h.Record(7000);
  HistogramSnapshot s = h.Snapshot();
  EXPECT_EQ(s.count, 3u);
  EXPECT_EQ(s.sum, 7260u);
  EXPECT_EQ(s.max, 7000u);
  EXPECT_EQ(s.buckets[HistogramBucketFor(10)], 1u);
  EXPECT_EQ(s.buckets[HistogramBucketFor(250)], 1u);
  EXPECT_EQ(s.buckets[HistogramBucketFor(7000)], 1u);
}

TEST(HistogramTest, EmptyQuantilesAreZero) {
  HistogramSnapshot s;
  EXPECT_EQ(s.Percentile(50), 0u);
  EXPECT_EQ(s.Percentile(99), 0u);
  EXPECT_EQ(s.ValueAtQuantile(1.0), 0u);
}

// Percentile estimates vs. a sorted-sample oracle: the log-bucket design
// promises the estimate lands in the same bucket as the true rank sample,
// i.e. within one ~1.3x bucket ratio (bucket 0 spans [0,100) exactly).
TEST(HistogramTest, PercentileWithinOneBucketOfOracle) {
  Histogram h;
  std::vector<uint64_t> oracle;
  uint64_t v = 12345;
  for (int i = 0; i < 20000; ++i) {
    v = v * 6364136223846793005ull + 1442695040888963407ull;
    uint64_t sample = v % 50000000;  // 0 .. 50ms in ns
    h.Record(sample);
    oracle.push_back(sample);
  }
  std::sort(oracle.begin(), oracle.end());
  HistogramSnapshot s = h.Snapshot();
  for (int p : {10, 50, 90, 99}) {
    double q = static_cast<double>(p) / 100.0;
    uint64_t rank =
        static_cast<uint64_t>(q * static_cast<double>(oracle.size()));
    uint64_t truth = oracle[std::min(rank, oracle.size() - 1)];
    uint64_t est = s.Percentile(p);
    // The estimate interpolates inside the truth's bucket; a full-bucket
    // fraction can land exactly on the upper bound (one bucket up), so
    // allow at most one bucket of drift — i.e. within ~1.3x of the truth.
    long bucket_err =
        static_cast<long>(HistogramBucketFor(est)) -
        static_cast<long>(HistogramBucketFor(truth));
    EXPECT_LE(std::abs(bucket_err), 1)
        << "p" << p << " est=" << est << " truth=" << truth;
    EXPECT_LE(est, s.max);
  }
  // q >= 1 is the exact max, not an interpolation.
  EXPECT_EQ(s.ValueAtQuantile(1.0), s.max);
  EXPECT_EQ(s.Percentile(100), s.max);
}

TEST(HistogramTest, OverflowRankReturnsExactMax) {
  Histogram h;
  h.Record(1);
  h.Record(UINT64_MAX / 2);  // overflow bucket
  HistogramSnapshot s = h.Snapshot();
  EXPECT_EQ(s.Percentile(99), UINT64_MAX / 2);
}

// --- merge algebra --------------------------------------------------------

HistogramSnapshot MakeSnap(std::initializer_list<uint64_t> values) {
  Histogram h;
  for (uint64_t v : values) h.Record(v);
  return h.Snapshot();
}

bool SnapEq(const HistogramSnapshot& a, const HistogramSnapshot& b) {
  return a.buckets == b.buckets && a.count == b.count && a.sum == b.sum &&
         a.max == b.max;
}

TEST(HistogramTest, MergeAssociativeAndCommutative) {
  HistogramSnapshot a = MakeSnap({5, 120, 99000});
  HistogramSnapshot b = MakeSnap({77, 77, 4000000});
  HistogramSnapshot c = MakeSnap({1, 2500000000ull});

  HistogramSnapshot ab = a;
  ab.Merge(b);
  HistogramSnapshot ba = b;
  ba.Merge(a);
  EXPECT_TRUE(SnapEq(ab, ba));

  HistogramSnapshot ab_c = ab;
  ab_c.Merge(c);
  HistogramSnapshot bc = b;
  bc.Merge(c);
  HistogramSnapshot a_bc = a;
  a_bc.Merge(bc);
  EXPECT_TRUE(SnapEq(ab_c, a_bc));

  EXPECT_EQ(ab_c.count, 8u);
  EXPECT_EQ(ab_c.max, 2500000000ull);
  // Merging shards must equal recording everything into one histogram.
  HistogramSnapshot all =
      MakeSnap({5, 120, 99000, 77, 77, 4000000, 1, 2500000000ull});
  EXPECT_TRUE(SnapEq(ab_c, all));
}

// --- concurrency (meaningful under TSAN) ----------------------------------

TEST(HistogramTest, ConcurrentRecordLosesNothing) {
  Histogram h;
  constexpr int kThreads = 4;
  constexpr int kPerThread = 25000;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&h, t] {
      for (int i = 0; i < kPerThread; ++i) {
        h.Record(static_cast<uint64_t>(t * 1000 + i % 997));
      }
    });
  }
  // Snapshot while writers run: must be race-free (values approximate).
  for (int i = 0; i < 100; ++i) {
    HistogramSnapshot s = h.Snapshot();
    EXPECT_LE(s.count, static_cast<uint64_t>(kThreads) * kPerThread);
  }
  for (auto& t : threads) t.join();
  HistogramSnapshot s = h.Snapshot();
  EXPECT_EQ(s.count, static_cast<uint64_t>(kThreads) * kPerThread);
  uint64_t bucket_total = 0;
  for (uint64_t b : s.buckets) bucket_total += b;
  EXPECT_EQ(bucket_total, s.count);
}

TEST(CounterTest, ConcurrentIncLosesNothing) {
  Counter c;
  std::vector<std::thread> threads;
  for (int t = 0; t < 4; ++t) {
    threads.emplace_back([&c] {
      for (int i = 0; i < 50000; ++i) c.Inc();
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(c.Value(), 200000u);
}

// --- registry -------------------------------------------------------------

TEST(RegistryTest, GetOrCreateReturnsStableIdentity) {
  Registry r;
  Counter* c1 = r.GetCounter("requests");
  Counter* c2 = r.GetCounter("requests");
  ASSERT_NE(c1, nullptr);
  EXPECT_EQ(c1, c2);
  Histogram* h1 = r.GetHistogram("latency_ns");
  EXPECT_EQ(h1, r.GetHistogram("latency_ns"));
  Gauge* g = r.GetGauge("depth");
  ASSERT_NE(g, nullptr);
  // Kind mismatch on an existing name is a programming error -> nullptr.
  EXPECT_EQ(r.GetGauge("requests"), nullptr);
  EXPECT_EQ(r.GetCounter("latency_ns"), nullptr);
  EXPECT_EQ(r.GetHistogram("depth"), nullptr);
}

TEST(RegistryTest, CollectSortedWithCollectors) {
  Registry r;
  r.GetCounter("zeta")->Add(7);
  r.GetGauge("alpha")->Set(3);
  r.GetHistogram("mid_ns")->Record(150);
  r.AddCollector([](RegistrySnapshot* out) {
    MetricSample s;
    s.name = "collected_total";
    s.kind = MetricKind::kCounter;
    s.value = 42;
    out->push_back(std::move(s));
  });
  RegistrySnapshot snap = r.Collect();
  ASSERT_EQ(snap.size(), 4u);
  EXPECT_TRUE(std::is_sorted(snap.begin(), snap.end(),
                             [](const MetricSample& a, const MetricSample& b) {
                               return a.name < b.name;
                             }));
  const MetricSample* z = FindSample(snap, "zeta");
  ASSERT_NE(z, nullptr);
  EXPECT_EQ(z->value, 7u);
  const MetricSample* col = FindSample(snap, "collected_total");
  ASSERT_NE(col, nullptr);
  EXPECT_EQ(col->value, 42u);
  const MetricSample* h = FindSample(snap, "mid_ns");
  ASSERT_NE(h, nullptr);
  EXPECT_EQ(h->hist.count, 1u);
  EXPECT_EQ(FindSample(snap, "missing"), nullptr);
}

TEST(RegistryTest, CounterWindowReadsMovementSinceItsBaseline) {
  Registry r;
  Counter* c = r.GetCounter("work");
  Gauge* epoch = r.GetGauge("epoch");
  c->Add(5);
  epoch->Set(10);
  CounterWindow window(r);
  EXPECT_EQ(window.Delta("work"), 0u);
  c->Add(3);
  epoch->Set(12);
  EXPECT_EQ(window.Delta("work"), 3u);
  EXPECT_EQ(window.Delta("epoch"), 2u);  // a monotonic gauge diffs too
  EXPECT_EQ(window.Delta("missing"), 0u);
  window.Rebase();
  EXPECT_EQ(window.Delta("work"), 0u);
  // Nothing was reset: the registry still holds the totals.
  EXPECT_EQ(SampleValue(r.Collect(), "work"), 8u);
  EXPECT_EQ(SampleValue(r.Collect(), "missing"), 0u);
}

// --- Prometheus exposition -------------------------------------------------

TEST(PrometheusTest, RendersCountersGaugesHistograms) {
  Registry r;
  r.GetCounter("reqs")->Add(5);
  r.GetGauge("depth")->Set(2);
  Histogram* h = r.GetHistogram("lat_ns");
  h->Record(50);    // bucket 0 (le="100")
  h->Record(120);   // bucket 1 (le="130")
  h->Record(UINT64_MAX / 2);  // overflow (+Inf only)
  std::string text = RenderPrometheus(r.Collect());

  EXPECT_NE(text.find("# TYPE ufilter_reqs counter\n"), std::string::npos);
  EXPECT_NE(text.find("ufilter_reqs 5\n"), std::string::npos);
  EXPECT_NE(text.find("# TYPE ufilter_depth gauge\n"), std::string::npos);
  EXPECT_NE(text.find("ufilter_depth 2\n"), std::string::npos);
  EXPECT_NE(text.find("# TYPE ufilter_lat_ns histogram\n"), std::string::npos);
  // Cumulative buckets: 1 at le="100", 2 at le="130", and +Inf == count.
  EXPECT_NE(text.find("ufilter_lat_ns_bucket{le=\"100\"} 1\n"),
            std::string::npos);
  EXPECT_NE(text.find("ufilter_lat_ns_bucket{le=\"130\"} 2\n"),
            std::string::npos);
  EXPECT_NE(text.find("ufilter_lat_ns_bucket{le=\"+Inf\"} 3\n"),
            std::string::npos);
  EXPECT_NE(text.find("ufilter_lat_ns_count 3\n"), std::string::npos);
}

TEST(PrometheusTest, SkipsLeadingEmptyBucketsOnly) {
  Registry r;
  Histogram* h = r.GetHistogram("hi_ns");
  h->Record(200000);  // lands well past the first buckets
  std::string text = RenderPrometheus(r.Collect(), "");
  // No all-zero leading bucket lines...
  EXPECT_EQ(text.find("{le=\"100\"} 0"), std::string::npos);
  // ...but the first populated bucket and +Inf both carry the full count.
  size_t bucket = HistogramBucketFor(200000);
  char expect[64];
  std::snprintf(expect, sizeof(expect), "hi_ns_bucket{le=\"%llu\"} 1",
                static_cast<unsigned long long>(HistogramBucketBound(bucket)));
  EXPECT_NE(text.find(expect), std::string::npos);
  EXPECT_NE(text.find("hi_ns_bucket{le=\"+Inf\"} 1\n"), std::string::npos);
}

}  // namespace
}  // namespace ufilter::obs
