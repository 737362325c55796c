#include "common.h"

#include <time.h>

#include <algorithm>
#include <cmath>
#include <cstdio>

namespace perfbench {

Placement ChoosePlacement() {
  Placement p;
  CPU_ZERO(&p.all);
  if (sched_getaffinity(0, sizeof p.all, &p.all) != 0) {
    CPU_ZERO(&p.all);
    CPU_SET(0, &p.all);
  }
  std::vector<int> cpus;
  for (int c = 0; c < CPU_SETSIZE; ++c) {
    if (CPU_ISSET(c, &p.all)) cpus.push_back(c);
  }
  p.server = p.all;
  p.generator = p.all;
  p.generator_cpus = static_cast<int>(cpus.size());
  if (cpus.size() >= 4) {
    CPU_ZERO(&p.server);
    CPU_ZERO(&p.generator);
    size_t half = cpus.size() / 2;
    for (size_t i = 0; i < cpus.size(); ++i) {
      CPU_SET(cpus[i], i < half ? &p.server : &p.generator);
    }
    p.generator_cpus = static_cast<int>(cpus.size() - half);
    p.pinned = true;
  }
  return p;
}

void PinThread(const cpu_set_t& cpus) {
  // Best effort: an unpinned run is still a valid run.
  (void)sched_setaffinity(0, sizeof cpus, &cpus);
}

double ProcessCpuSeconds() {
  timespec ts{};
  if (clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts) != 0) return 0;
  return static_cast<double>(ts.tv_sec) +
         static_cast<double>(ts.tv_nsec) * 1e-9;
}

double Quantile(std::vector<double>* v, double q) {
  if (v->empty()) return 0;
  std::sort(v->begin(), v->end());
  double pos = q * static_cast<double>(v->size() - 1);
  size_t lo = static_cast<size_t>(std::floor(pos));
  size_t hi = std::min(lo + 1, v->size() - 1);
  double a = (*v)[lo];
  double b = (*v)[hi];
  if (std::isinf(a) || std::isinf(b)) return kFailedLatency;
  return a + (b - a) * (pos - static_cast<double>(lo));
}

double Mean(const std::vector<double>& v) {
  if (v.empty()) return 0;
  double sum = 0;
  for (double x : v) sum += x;
  return sum / static_cast<double>(v.size());
}

bool VerdictMatches(Expect expect, ufilter::net::Verdict verdict) {
  using ufilter::net::Verdict;
  switch (expect) {
    case Expect::kInvalid:
      return verdict == Verdict::kInvalid;
    case Expect::kUntranslatable:
      return verdict == Verdict::kUntranslatable;
    case Expect::kConflict:
      return verdict == Verdict::kDataConflict;
    case Expect::kExecuted:
    case Expect::kEscalated:
      return verdict == Verdict::kExecuted;
  }
  return false;
}

ufilter::net::Verdict VerdictOf(ufilter::check::CheckOutcome outcome) {
  using ufilter::check::CheckOutcome;
  using ufilter::net::Verdict;
  switch (outcome) {
    case CheckOutcome::kExecuted:
      return Verdict::kExecuted;
    case CheckOutcome::kInvalid:
      return Verdict::kInvalid;
    case CheckOutcome::kUntranslatable:
      return Verdict::kUntranslatable;
    case CheckOutcome::kDataConflict:
      return Verdict::kDataConflict;
    case CheckOutcome::kNotRun:
      return Verdict::kNotRun;
    case CheckOutcome::kDeadlineExceeded:
      return Verdict::kDeadlineExceeded;
  }
  return Verdict::kError;
}

const char* SpanNameString(uint8_t name) {
  static const char* const kNames[kSpanCount] = {
      "direct",
      "relational.snapshot_open",
      "relational.snapshot_release",
      "ufilter.prepare_hit",
      "ufilter.prepare_miss",
      "ufilter.readonly_check",
      "service.writer_wait",
      "ufilter.execute",
      "relational.commit",
      "relational.wal_sync",
      "ufilter.escalate",
      "service.submit",
      "net.check",
  };
  return name < kSpanCount ? kNames[name] : "-";
}

bool WriteSpans(const std::string& path, const std::vector<Span>& spans) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  int64_t origin = spans.empty() ? 0 : spans.front().start_ns;
  for (const Span& s : spans) origin = std::min(origin, s.start_ns);
  std::fprintf(f, "request\tname\tparent\tstart_ns\tend_ns\n");
  for (const Span& s : spans) {
    if (s.request % 16 != 0) continue;
    std::fprintf(f, "%llu\t%s\t%s\t%lld\t%lld\n",
                 static_cast<unsigned long long>(s.request),
                 SpanNameString(s.name), SpanNameString(s.parent),
                 static_cast<long long>(s.start_ns - origin),
                 static_cast<long long>(s.end_ns - origin));
  }
  return std::fclose(f) == 0;
}

}  // namespace perfbench
