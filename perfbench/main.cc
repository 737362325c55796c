// perfbench: the wire-to-verdict benchmark of the U-Filter funnel.
//
//   perfbench serve --dir DIR
//       the server under test (launched by `run`, one process per server)
//   perfbench run --workload W --seed N --seconds S --trace 0|1
//                 --workdir DIR [--smoke] [--flip-expect CLASS]
//       the load generator. Prints one `mix {...}` line with the realised
//       request mix and generator health, then, as its last line, the JSON
//       result: end-to-end metrics with --trace 0, per-layer metrics with
//       --trace 1. Exits 1 when a verdict or an epoch/WAL invariant is
//       wrong. A run whose generator fell behind is flagged on the mix
//       line and on stderr, and still reported.
//
// perfbench/run.py builds this binary and is the command to run; see
// perfbench/README.md for the workloads and the metric definitions.
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include "common.h"
#include "net/client.h"
#include "obs/metrics.h"
#include "server.h"
#include "traced.h"
#include "wire.h"
#include "workload.h"

namespace perfbench {
namespace {

using ufilter::net::MetricsMsg;

struct Args {
  Workload workload = Workload::kCheckHot;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  bool smoke = false;
  std::string workdir;
  int flip_expect = -1;
};

// Server launches per run; set-up time is their median.
constexpr int kSetupLaunches = 15;
constexpr double kWarmupSeconds = 1.0;
// Generator health limits. The open-loop schedule's lateness p99 was
// 0.07-0.24 ms on a quiet 4-vCPU host and 3.6-6.9 ms while neighbours
// slowed every figure several times over, so 1 ms separates the two. The
// generator must also leave headroom on its CPUs.
constexpr double kMaxLateP99Us = 1000;
constexpr double kMaxGeneratorCpuShare = 0.9;
// The breakdown line reports whether the layer self times of a traced run
// account for the wire mean to within this share.
constexpr double kMaxUnaccounted = 0.1;

bool ParseArgs(int argc, char** argv, Args* a) {
  for (int i = 2; i < argc; ++i) {
    std::string flag = argv[i];
    auto value = [&](const char** out) {
      if (i + 1 >= argc) return false;
      *out = argv[++i];
      return true;
    };
    const char* v = nullptr;
    if (flag == "--smoke") {
      a->smoke = true;
    } else if (!value(&v)) {
      std::fprintf(stderr, "missing value for %s\n", flag.c_str());
      return false;
    } else if (flag == "--workload") {
      if (!ParseWorkload(v, &a->workload)) {
        std::fprintf(stderr, "unknown workload: %s\n", v);
        return false;
      }
    } else if (flag == "--seed") {
      a->seed = std::strtoull(v, nullptr, 10);
    } else if (flag == "--seconds") {
      a->seconds = std::atof(v);
    } else if (flag == "--trace") {
      a->trace = std::atoi(v) != 0;
    } else if (flag == "--workdir") {
      a->workdir = v;
    } else if (flag == "--flip-expect") {
      for (int e = 0; e < kExpectCount; ++e) {
        if (std::strcmp(v, ExpectName(static_cast<Expect>(e))) == 0) {
          a->flip_expect = e;
        }
      }
      if (a->flip_expect < 0) {
        std::fprintf(stderr, "unknown verdict class: %s\n", v);
        return false;
      }
    } else {
      std::fprintf(stderr, "unknown argument: %s\n", flag.c_str());
      return false;
    }
  }
  if (a->workdir.empty() || a->seconds <= 0) {
    std::fprintf(stderr, "run needs --workdir and positive --seconds\n");
    return false;
  }
  return true;
}

std::string SelfExe() {
  char buf[4096];
  ssize_t n = ::readlink("/proc/self/exe", buf, sizeof buf - 1);
  if (n <= 0) return "";
  return std::string(buf, static_cast<size_t>(n));
}

/// Collects metrics in print order and renders the result line.
class RunReport {
 public:
  void Add(const std::string& name, double value, const std::string& unit) {
    metrics_.push_back({name, value, unit});
  }
  void Fail(const std::string& why) {
    correct_ = false;
    std::fprintf(stderr, "perfbench: FAILED: %s\n", why.c_str());
  }
  bool correct() const { return correct_; }
  uint64_t attempted = 0;
  uint64_t failed = 0;

  void Print() const {
    std::string out = "{\"correct\": ";
    out += correct_ ? "true" : "false";
    out += ", \"attempted\": " + std::to_string(attempted);
    out += ", \"failed\": " + std::to_string(failed);
    out += ", \"metrics\": {";
    for (size_t i = 0; i < metrics_.size(); ++i) {
      if (i > 0) out += ", ";
      out += "\"" + metrics_[i].name + "\": {\"value\": " +
             Number(metrics_[i].value) + ", \"unit\": \"" + metrics_[i].unit +
             "\"}";
    }
    out += "}}";
    std::printf("%s\n", out.c_str());
    std::fflush(stdout);
  }

  static std::string Number(double v) {
    // JSON has no infinity; a latency that is infinite because requests
    // failed prints as an absurdly large one.
    if (!std::isfinite(v)) v = 1e300;
    char buf[64];
    std::snprintf(buf, sizeof buf, "%.17g", v);
    return buf;
  }

 private:
  struct Metric {
    std::string name;
    double value;
    std::string unit;
  };
  std::vector<Metric> metrics_;
  bool correct_ = true;
};

/// Counter difference between two scrapes.
double Delta(const MetricsMsg& before, const MetricsMsg& after,
             const std::string& name) {
  return Value(after, name) - Value(before, name);
}

double Ratio(double num, double den) { return den > 0 ? num / den : 0; }

/// Launches a server; on failure prints why and returns null.
std::unique_ptr<ServerProcess> Launch(const Args& args,
                                      const Placement& placement,
                                      const std::string& name) {
  auto proc = ServerProcess::Launch(SelfExe(), args.workdir + "/" + name,
                                    placement.server);
  if (!proc.ok()) {
    std::fprintf(stderr, "perfbench: %s\n", proc.status().ToString().c_str());
    return nullptr;
  }
  return std::move(*proc);
}

/// Checks one request of each verdict class, so a broken set-up fails
/// before anything is timed.
bool ProbeVerdicts(uint16_t port) {
  ufilter::net::ClientOptions copts;
  copts.port = port;
  copts.max_attempts = 1;
  copts.request_timeout = std::chrono::milliseconds(30000);
  ufilter::net::Client client(copts);
  for (const Request& req : ProbeRequests()) {
    auto resp = client.Check(req.text, /*apply=*/false);
    if (!resp.ok() || !VerdictMatches(req.expect, resp->verdict)) {
      std::fprintf(stderr,
                   "perfbench: set-up check failed: expected %s, got %s\n%s\n",
                   ExpectName(req.expect),
                   resp.ok() ? ufilter::net::VerdictName(resp->verdict)
                             : resp.status().ToString().c_str(),
                   req.text.c_str());
      return false;
    }
  }
  return true;
}

bool ScrapeOrFail(uint16_t port, MetricsMsg* out, RunReport* result) {
  auto m = Scrape(port);
  if (!m.ok()) {
    result->Fail("scrape failed: " + m.status().ToString());
    return false;
  }
  *out = *std::move(m);
  return true;
}

/// The epoch/WAL invariant: every executed apply publishes exactly one
/// commit epoch and one WAL record; check-only traffic publishes none.
void CheckEpochs(const MetricsMsg& before, const MetricsMsg& after,
                 uint64_t applies_executed, const char* pass,
                 RunReport* result) {
  double epochs = Delta(before, after, "db_commit_epoch");
  double records = Delta(before, after, "wal_records");
  double want = static_cast<double>(applies_executed);
  if (epochs != want || records != want) {
    result->Fail(std::string(pass) + ": commit epoch advanced by " +
                 std::to_string(epochs) + " and WAL records by " +
                 std::to_string(records) + ", expected " +
                 std::to_string(applies_executed));
  }
}

/// Tallies one wire run into attempted/failed and returns its wrong
/// verdicts. Requests outside the window count like the measured ones.
uint64_t Tally(const WireResult& w, RunReport* result) {
  uint64_t wrong = w.unrecorded_wrong;
  result->failed += w.unrecorded_wrong + w.unrecorded_transport_errors;
  result->attempted += w.unrecorded;
  for (const ReadRecord& r : w.reads) {
    wrong += r.wrong_verdict;
    result->failed += r.wrong_verdict || r.transport_error;
  }
  for (const WriteRecord& r : w.writes) {
    wrong += r.wrong_verdict;
    result->failed += r.wrong_verdict || r.transport_error;
  }
  result->attempted += w.reads.size() + w.writes.size();
  return wrong;
}

struct Health {
  double late_p99_us = 0;
  double late_max_us = 0;
  double cpu_share = 0;
};

Health GeneratorHealth(const WireResult& w, const Placement& placement) {
  Health h;
  std::vector<double> late = w.late_us;
  h.late_p99_us = Quantile(&late, 0.99);  // sorts `late`
  h.late_max_us = late.empty() ? 0 : late.back();
  h.cpu_share =
      Ratio(w.generator_cpu_s, w.window_s * placement.generator_cpus);
  return h;
}

/// The realised mix and generator health, printed next to the metrics.
void PrintMix(const Args& args, const WireResult& w, const MetricsMsg& before,
              const MetricsMsg& after, const Health& h, bool valid,
              const RunReport& result, bool pinned) {
  uint64_t by_class[kExpectCount] = {};
  for (const ReadRecord& r : w.reads) ++by_class[static_cast<int>(r.expect)];
  double n = static_cast<double>(w.reads.size());
  std::string shares;
  for (int e = 0; e < kExpectCount; ++e) {
    if (e > 0) shares += ", ";
    shares += std::string("\"") + ExpectName(static_cast<Expect>(e)) +
              "\": " + RunReport::Number(Ratio(by_class[e], n));
  }
  double hits = Delta(before, after, "plan_cache_hits");
  double misses = Delta(before, after, "plan_cache_misses");
  // Between the two scrapes the server completed these check-only requests.
  double checks = Delta(before, after, "service_completed") -
                  static_cast<double>(w.writes.size());
  std::printf(
      "mix {\"workload\": \"%s\", \"seed\": %llu, \"checks\": %zu, "
      "\"applies\": %zu, \"share\": {%s}, \"plan_cache_hit_ratio\": %s, "
      "\"escalation_share\": %s, \"failed_frac\": %s, "
      "\"gen_late_p99_us\": %s, \"gen_late_max_us\": %s, "
      "\"gen_cpu_share\": %s, \"valid\": %s, \"cpu_pinning\": %s}\n",
      WorkloadName(args.workload),
      static_cast<unsigned long long>(args.seed), w.reads.size(),
      w.writes.size(), shares.c_str(),
      RunReport::Number(Ratio(hits, hits + misses)).c_str(),
      RunReport::Number(
          Ratio(Delta(before, after, "service_escalations"), checks))
          .c_str(),
      RunReport::Number(Ratio(static_cast<double>(result.failed),
                           static_cast<double>(result.attempted)))
          .c_str(),
      RunReport::Number(h.late_p99_us).c_str(),
      RunReport::Number(h.late_max_us).c_str(),
      RunReport::Number(h.cpu_share).c_str(), valid ? "true" : "false",
      pinned ? "true" : "false");
}

/// False, with a warning, when the generator fell behind or was CPU-bound:
/// such a run's numbers describe the generator as much as the server. A
/// smoke window is too short for its lateness p99 to mean anything.
bool HealthValid(const Args& args, const Health& h) {
  if (args.smoke) return true;
  if (h.late_p99_us > kMaxLateP99Us) {
    std::fprintf(stderr,
                 "perfbench: INVALID run: the generator fell behind schedule "
                 "(send - due p99 %.0f us > %.0f us)\n",
                 h.late_p99_us, kMaxLateP99Us);
    return false;
  }
  if (h.cpu_share > kMaxGeneratorCpuShare) {
    std::fprintf(stderr,
                 "perfbench: INVALID run: the load generator was CPU-bound "
                 "(%.0f%% of its CPUs)\n",
                 100 * h.cpu_share);
    return false;
  }
  return true;
}

WireOptions BaseWireOptions(const Args& args, const Placement& placement,
                            uint16_t port) {
  WireOptions o;
  o.workload = args.workload;
  o.seed = args.seed;
  o.port = port;
  bool mixed = args.workload == Workload::kApplyMixed;
  // apply_mixed: three readers plus the writer's connection.
  o.readers = mixed ? 3 : 4;
  o.writer = mixed;
  o.warmup_s = args.smoke ? 0.2 : kWarmupSeconds;
  o.measure_s = args.seconds;
  o.cpus = placement.generator;
  o.flip_expect = args.flip_expect;
  return o;
}

/// The measured requests of one slice of the window.
struct Slice {
  double seconds = 0;
  double server_cpu_s = 0;
  double served = 0;  // checks answered and applies due in the slice
  std::vector<double> checks, reject, step3, lane;
};

/// Cuts the window into its slices: a check by when its verdict arrived,
/// an apply by its due time. Writer-lane latency is the applies' on
/// apply_mixed and, on the check-only workloads, the escalated checks'
/// (execute and roll back in the lane).
std::vector<Slice> CutSlices(const WireResult& w, bool mixed) {
  const size_t n = w.slice_end_ns.size();
  std::vector<Slice> slices(n);
  if (n == 0) return slices;
  int64_t start = w.open_ns;
  for (size_t k = 0; k < n; ++k) {
    slices[k].seconds = static_cast<double>(w.slice_end_ns[k] - start) * 1e-9;
    start = w.slice_end_ns[k];
    if (w.slice_server_cpu.size() == n + 1) {
      slices[k].server_cpu_s =
          w.slice_server_cpu[k + 1] - w.slice_server_cpu[k];
    }
  }
  auto at = [&](int64_t t) -> Slice& {
    size_t k = static_cast<size_t>(
        std::upper_bound(w.slice_end_ns.begin(), w.slice_end_ns.end(), t) -
        w.slice_end_ns.begin());
    return slices[std::min(k, n - 1)];
  };
  for (const ReadRecord& r : w.reads) {
    Slice& s = at(r.done_ns);
    s.served += 1;
    s.checks.push_back(r.latency_us);
    bool rejected = r.expect == Expect::kInvalid ||
                    r.expect == Expect::kUntranslatable;
    (rejected ? s.reject : s.step3).push_back(r.latency_us);
    if (!mixed && r.expect == Expect::kEscalated) {
      s.lane.push_back(r.latency_us);
    }
  }
  for (const WriteRecord& r : w.writes) {
    Slice& s = at(r.due_ns);
    s.served += 1;
    s.lane.push_back(r.latency_us);
  }
  return slices;
}

/// The median over slices of f(slice).
template <typename F>
double SliceMedian(std::vector<Slice>* slices, F f) {
  std::vector<double> values;
  for (Slice& s : *slices) values.push_back(f(s));
  return Quantile(&values, 0.5);
}

int RunEndToEnd(const Args& args, const Placement& placement) {
  RunReport result;
  const bool mixed = args.workload == Workload::kApplyMixed;
  std::vector<double> setup;
  std::unique_ptr<ServerProcess> server;
  int launches = args.smoke ? 1 : kSetupLaunches;
  for (int i = 0; i < launches; ++i) {
    if (server != nullptr) server->Stop();
    server = Launch(args, placement, "server");
    if (server == nullptr) return 2;
    setup.push_back(server->setup_seconds());
  }
  if (!ProbeVerdicts(server->port())) return 1;

  MetricsMsg seeded, opened, final_scrape;
  if (!ScrapeOrFail(server->port(), &seeded, &result)) return 1;
  WireOptions wo = BaseWireOptions(args, placement, server->port());
  wo.on_window_open = [&] { ScrapeOrFail(server->port(), &opened, &result); };
  wo.sample_server_cpu = [&] { return server->CpuSeconds(); };
  WireResult w = RunWire(wo);
  if (!ScrapeOrFail(server->port(), &final_scrape, &result)) return 1;
  double rss_mb = server->PeakRssMb();
  if (!server->Stop()) result.Fail("the server did not drain cleanly");

  uint64_t wrong = Tally(w, &result);
  if (wrong > 0) result.Fail(std::to_string(wrong) + " wrong verdicts");
  CheckEpochs(seeded, final_scrape, w.applies_executed, "wire", &result);

  Health health = GeneratorHealth(w, placement);
  PrintMix(args, w, opened, final_scrape, health, HealthValid(args, health),
           result, placement.pinned);

  // Every figure but the set-up time and the RSS is a median over slices.
  std::vector<Slice> slices = CutSlices(w, mixed);
  auto median = [&](std::vector<double> Slice::*field, double q) {
    return SliceMedian(&slices,
                       [&](Slice& s) { return Quantile(&(s.*field), q); });
  };
  result.Add("setup_s", Quantile(&setup, 0.5), "s");
  result.Add("checks_per_s", SliceMedian(&slices, [](Slice& s) {
               return Ratio(static_cast<double>(s.checks.size()), s.seconds);
             }), "1/s");
  result.Add("check_p50_us", median(&Slice::checks, 0.5), "us");
  result.Add("reject_p50_us", median(&Slice::reject, 0.5), "us");
  result.Add("step3_p50_us", median(&Slice::step3, 0.5), "us");
  result.Add("apply_p50_us", median(&Slice::lane, 0.5), "us");
  result.Add("server_cpu_us_per_req", SliceMedian(&slices, [](Slice& s) {
               return Ratio(s.server_cpu_s * 1e6, s.served);
             }), "us");
  result.Add("server_rss_mb", rss_mb, "MB");
  // The p99s amplify the host's speed several times over, so they are
  // printed next to the result instead of in it.
  std::printf("tail {\"check_p99_us\": %s, \"apply_p99_us\": %s}\n",
              RunReport::Number(median(&Slice::checks, 0.99)).c_str(),
              RunReport::Number(median(&Slice::lane, 0.99)).c_str());
  result.Print();
  return result.correct() ? 0 : 1;
}

double WireMean(const WireResult& w) {
  std::vector<double> finite;
  for (const ReadRecord& r : w.reads) {
    if (std::isfinite(r.latency_us)) finite.push_back(r.latency_us);
  }
  return Mean(finite);
}

int RunTraced(const Args& args, const Placement& placement) {
  RunReport result;
  const bool mixed = args.workload == Workload::kApplyMixed;

  // Untraced wire pass: the reference for the tracing overhead, and the
  // request counts every traced pass replays.
  WireResult untraced;
  {
    auto server = Launch(args, placement, "server");
    if (server == nullptr) return 2;
    if (!ProbeVerdicts(server->port())) return 1;
    MetricsMsg before, after;
    if (!ScrapeOrFail(server->port(), &before, &result)) return 1;
    // Three wire-length passes follow, so this one measures a third of
    // the run.
    WireOptions wo = BaseWireOptions(args, placement, server->port());
    wo.measure_s = args.seconds / 3;
    untraced = RunWire(wo);
    if (!ScrapeOrFail(server->port(), &after, &result)) return 1;
    CheckEpochs(before, after, untraced.applies_executed, "untraced wire",
                &result);
    if (!server->Stop()) result.Fail("the server did not drain cleanly");
  }
  ReplayPlan plan;
  plan.workload = args.workload;
  plan.seed = args.seed;
  plan.warm_counts = untraced.warmed;
  plan.counts = untraced.completed;
  plan.writer = mixed;

  // Pass 1 (direct calls) and the breakdown, on one fresh fixture.
  PassResult direct;
  Breakdown breakdown;
  {
    auto fx = MakeFixture(args.workdir + "/direct");
    if (!fx.ok()) {
      std::fprintf(stderr, "perfbench: %s\n", fx.status().ToString().c_str());
      return 2;
    }
    direct = RunDirect(&*fx, plan, placement.all);
    breakdown = RunBreakdown(&*fx, plan);
  }
  // Pass 2 (CheckService::Submit), on another.
  PassResult submit;
  {
    auto fx = MakeFixture(args.workdir + "/submit");
    if (!fx.ok()) {
      std::fprintf(stderr, "perfbench: %s\n", fx.status().ToString().c_str());
      return 2;
    }
    submit = RunSubmit(&*fx, plan, placement.server, placement.generator);
  }
  PinThread(placement.generator);
  RemoveWorkDir(args.workdir + "/direct");
  RemoveWorkDir(args.workdir + "/submit");
  // Pass 3: the same requests over the wire, with spans.
  WireResult traced;
  MetricsMsg before, after;
  {
    auto server = Launch(args, placement, "server");
    if (server == nullptr) return 2;
    if (!ProbeVerdicts(server->port())) return 1;
    if (!ScrapeOrFail(server->port(), &before, &result)) return 1;
    WireOptions wo = BaseWireOptions(args, placement, server->port());
    wo.warm_counts = plan.warm_counts;
    wo.counts = plan.counts;
    wo.spans = true;
    traced = RunWire(wo);
    if (!ScrapeOrFail(server->port(), &after, &result)) return 1;
    CheckEpochs(before, after, traced.applies_executed, "traced wire",
                &result);
    if (!server->Stop()) result.Fail("the server did not drain cleanly");
  }

  uint64_t wrong = Tally(untraced, &result) + Tally(traced, &result) +
                   direct.wrong_verdicts + submit.wrong_verdicts;
  result.failed += direct.wrong_verdicts + submit.wrong_verdicts;
  result.attempted += direct.requests + submit.requests;
  if (wrong > 0) result.Fail(std::to_string(wrong) + " wrong verdicts");
  for (const PassResult* p : {&direct, &submit}) {
    if (p->epochs_advanced != p->applies_executed) {
      result.Fail("in-process pass published " +
                  std::to_string(p->epochs_advanced) + " epochs for " +
                  std::to_string(p->applies_executed) + " applies");
    }
  }

  std::vector<Span> spans = direct.spans;
  spans.insert(spans.end(), submit.spans.begin(), submit.spans.end());
  spans.insert(spans.end(), traced.spans.begin(), traced.spans.end());
  std::string span_path = args.workdir + "/spans-" +
                          WorkloadName(args.workload) + ".tsv";
  if (!WriteSpans(span_path, spans)) {
    std::fprintf(stderr, "perfbench: cannot write %s\n", span_path.c_str());
  }

  Health health = GeneratorHealth(traced, placement);
  PrintMix(args, traced, before, after, health, HealthValid(args, health),
           result, placement.pinned);

  const double d_root = Mean(direct.read_us);
  const double d_children = Ratio(direct.read_children_us,
                                 static_cast<double>(direct.read_us.size()));
  const double s_mean = Mean(submit.read_us);
  const double w_mean = WireMean(traced);
  const double ping_us = Mean(traced.ping_us);
  auto d = [&](const char* name) { return Delta(before, after, name); };
  const double completed = d("service_completed");
  const double applies = static_cast<double>(traced.writes.size());
  const double checks = completed - applies;
  const double commits = d("db_commit_epoch");
  auto per_commit = [&](const char* name) { return Ratio(d(name), commits); };
  ufilter::obs::RegistrySnapshot snap =
      ufilter::net::SnapshotFromMetrics(after);
  const ufilter::obs::MetricSample* queue_wait =
      ufilter::obs::FindSample(snap, "stage_queue_wait_ns");
  double hits = d("plan_cache_hits");
  double misses = d("plan_cache_misses");

  result.Add("net.roundtrip_us", w_mean - s_mean, "us");
  result.Add("net.ping_us", ping_us, "us");
  result.Add("net.codec_ns", breakdown.codec_ns, "ns");
  result.Add("net.bytes_per_req", breakdown.bytes_per_req, "bytes");
  result.Add("net.client_retries", static_cast<double>(traced.client_retries),
             "count");
  result.Add("net.client_reconnects",
             static_cast<double>(traced.client_reconnects), "count");
  result.Add("service.overhead_us", s_mean - d_root, "us");
  result.Add("service.queue_wait_p99_us",
             queue_wait == nullptr ? 0 : queue_wait->hist.Percentile(99) * 1e-3,
             "us");
  result.Add("service.fast_path_ratio", Ratio(d("service_fast_path"), checks),
             "ratio");
  result.Add("service.escalations_per_kreq",
             Ratio(1000 * d("service_escalations"), checks), "per_kreq");
  result.Add("service.writer_wait_us",
             Ratio(d("service_writer_wait_ns") * 1e-3,
                   d("service_writer_lane")),
             "us");
  result.Add("ufilter.plan_cache_hit_ratio", Ratio(hits, hits + misses),
             "ratio");
  result.Add("ufilter.prepare_hit_ns",
             Mean(direct.by_name[kSpanPrepareHit]) * 1e3, "ns");
  result.Add("ufilter.prepare_miss_us",
             Mean(direct.by_name[kSpanPrepareMiss]), "us");
  result.Add("ufilter.bind_us", breakdown.bind_us, "us");
  result.Add("ufilter.validate_ns", breakdown.validate_ns, "ns");
  result.Add("ufilter.star_ns", breakdown.star_ns, "ns");
  result.Add("ufilter.readonly_check_us",
             Mean(direct.by_name[kSpanReadOnlyCheck]), "us");
  result.Add("ufilter.execute_us", Mean(direct.by_name[kSpanExecute]), "us");
  result.Add("ufilter.escalate_us", Mean(direct.by_name[kSpanEscalate]),
             "us");
  result.Add("xquery.normalize_ns", breakdown.normalize_ns, "ns");
  result.Add("xquery.parse_us", breakdown.parse_us, "us");
  result.Add("relational.snapshot_open_ns",
             Mean(direct.by_name[kSpanSnapshotOpen]) * 1e3, "ns");
  result.Add("relational.snapshot_release_ns",
             Mean(direct.by_name[kSpanSnapshotRelease]) * 1e3, "ns");
  result.Add("relational.dryrun_us", breakdown.dryrun_us, "us");
  result.Add("relational.rows_scanned_per_req",
             Ratio(d("engine_rows_scanned"), completed), "rows");
  result.Add("relational.index_lookups_per_req",
             Ratio(d("engine_index_lookups"), completed), "count");
  result.Add("relational.commit_us", Mean(direct.by_name[kSpanCommit]),
             "us");
  result.Add("relational.wal_sync_us", Mean(direct.by_name[kSpanWalSync]),
             "us");
  result.Add("relational.wal_bytes_per_commit", per_commit("wal_bytes"),
             "bytes");
  result.Add("relational.fsyncs_per_commit", per_commit("wal_fsyncs"),
             "count");
  result.Add("relational.versions_retired_per_commit",
             per_commit("mvcc_versions_retired"), "count");
  result.Add("relational.columnar_builds_per_commit",
             per_commit("columnar_builds"), "count");
  // Layer self times, each measured on its own: the direct calls' spans,
  // the service as the submit pass minus the direct pass, and the network
  // as the pings' round trip plus the codec. Nothing here is derived from
  // the wire mean, so the sum can miss it either way: by the harness gaps
  // between direct spans, and by whatever the wire path costs beyond an
  // empty round trip, the codec and the in-process service.
  const double net_us = ping_us + breakdown.codec_ns * 1e-3;
  const double unaccounted =
      Ratio(w_mean - (d_children + (s_mean - d_root) + net_us), w_mean);
  result.Add("trace.unaccounted_frac", unaccounted, "ratio");
  result.Add("trace.overhead_frac", Ratio(w_mean, WireMean(untraced)) - 1,
             "ratio");
  result.Add("gen.late_p99_us", health.late_p99_us, "us");
  result.Add("gen.late_max_us", health.late_max_us, "us");
  result.Add("gen.cpu_share", health.cpu_share, "ratio");

  // The breakdown as shares of the call that contains it.
  double miss_us = Mean(direct.by_name[kSpanPrepareMiss]);
  double hit_ns = Mean(direct.by_name[kSpanPrepareHit]) * 1e3;
  double ro_us = Mean(direct.by_name[kSpanReadOnlyCheck]);
  std::printf(
      "breakdown {\"parse_of_prepare_miss\": %s, \"bind_of_prepare_miss\": "
      "%s, \"validate_of_prepare_miss\": %s, \"star_of_prepare_miss\": %s, "
      "\"normalize_of_prepare_hit\": %s, \"dryrun_of_readonly_check\": %s, "
      "\"layers_cover_wire_mean\": %s, \"spans\": \"%s\"}\n",
      RunReport::Number(Ratio(breakdown.parse_us, miss_us)).c_str(),
      RunReport::Number(Ratio(breakdown.bind_us, miss_us)).c_str(),
      RunReport::Number(Ratio(breakdown.validate_ns * 1e-3, miss_us)).c_str(),
      RunReport::Number(Ratio(breakdown.star_ns * 1e-3, miss_us)).c_str(),
      RunReport::Number(Ratio(breakdown.normalize_ns, hit_ns)).c_str(),
      RunReport::Number(Ratio(breakdown.dryrun_us, ro_us)).c_str(),
      std::fabs(unaccounted) <= kMaxUnaccounted ? "true" : "false",
      span_path.c_str());
  result.Print();
  return result.correct() ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  if (argc >= 2 && std::strcmp(argv[1], "serve") == 0) {
    if (argc != 4 || std::strcmp(argv[2], "--dir") != 0) {
      std::fprintf(stderr, "usage: perfbench serve --dir DIR\n");
      return 2;
    }
    return ServeMain(argv[3]);
  }
  Args args;
  if (argc < 2 || std::strcmp(argv[1], "run") != 0 ||
      !ParseArgs(argc, argv, &args)) {
    std::fprintf(stderr,
                 "usage: perfbench run --workload W --seed N --seconds S "
                 "--trace 0|1 --workdir DIR [--smoke] [--flip-expect CLASS]\n");
    return 2;
  }
  Placement placement = ChoosePlacement();
  PinThread(placement.generator);
  return args.trace ? RunTraced(args, placement) : RunEndToEnd(args, placement);
}
