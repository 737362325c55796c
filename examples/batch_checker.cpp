// Batch update checker: a small command-line front end over the library.
//
//   batch_checker [updates.xq]
//
// Compiles the BookView over the sample database and checks every update
// statement from the given file (or a built-in demo batch when no file is
// given). Statements are separated by lines containing only "---". For each
// statement the verdict, the rejection reason or the translated SQL is
// printed — the loop an application embedding U-Filter would run.
#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "common/strings.h"
#include "fixtures/bookdb.h"
#include "ufilter/checker.h"

namespace {

std::vector<std::string> DemoBatch() {
  using ufilter::fixtures::PaperUpdate;
  return {PaperUpdate(8), PaperUpdate(13), PaperUpdate(2), PaperUpdate(5),
          PaperUpdate(9)};
}

std::vector<std::string> ReadBatch(const char* path) {
  std::ifstream in(path);
  if (!in) {
    std::fprintf(stderr, "cannot open %s; using the demo batch\n", path);
    return DemoBatch();
  }
  std::vector<std::string> out;
  std::string line, current;
  while (std::getline(in, line)) {
    if (ufilter::Trim(line) == "---") {
      if (!ufilter::Trim(current).empty()) out.push_back(current);
      current.clear();
    } else {
      current += line + "\n";
    }
  }
  if (!ufilter::Trim(current).empty()) out.push_back(current);
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace ufilter;

  auto db = fixtures::MakeBookDatabase();
  if (!db.ok()) {
    std::fprintf(stderr, "%s\n", db.status().ToString().c_str());
    return 1;
  }
  auto uf = check::UFilter::Create(db->get(), fixtures::BookViewQuery());
  if (!uf.ok()) {
    std::fprintf(stderr, "%s\n", uf.status().ToString().c_str());
    return 1;
  }

  std::vector<std::string> batch =
      argc > 1 ? ReadBatch(argv[1]) : DemoBatch();
  std::printf("checking %zu update statement(s) against BookView\n\n",
              batch.size());

  // One CheckBatch call: every statement is prepared through the plan cache
  // and same-shaped step-3 probes are merged into OR-of-predicates queries.
  std::vector<check::CheckReport> reports = (*uf)->CheckBatch(batch);

  int accepted = 0, rejected = 0;
  for (size_t i = 0; i < reports.size(); ++i) {
    const check::CheckReport& report = reports[i];
    std::printf("[%zu] %s\n", i + 1, report.Describe().c_str());
    std::printf("     (prepare %.6fs%s, step3 %.6fs)\n\n",
                report.prepare_seconds,
                report.from_plan_cache ? " [plan cache]" : "",
                report.step3_seconds);
    if (report.outcome == check::CheckOutcome::kExecuted) {
      ++accepted;
    } else {
      ++rejected;
    }
  }
  // The work counters are series of the database's metric registry.
  const obs::RegistrySnapshot work = (*db)->registry().Collect();
  auto series = [&work](const char* name) {
    return static_cast<unsigned long long>(obs::SampleValue(work, name));
  };
  std::printf(
      "summary: %d executed, %d filtered out by U-Filter\n"
      "work: %llu probe queries (%llu merged covering %llu probes), "
      "%llu plans compiled, %llu cache hits\n",
      accepted, rejected, series("engine_queries_executed"),
      series("engine_batch_queries_executed"),
      series("engine_batch_branches_merged"),
      series("engine_updates_compiled"), series("plan_cache_hits"));
  return 0;
}
