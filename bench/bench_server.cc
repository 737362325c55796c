// Multi-process load generator for the network front end: K forked client
// processes hammer an in-process Server over real TCP sockets.
//
//   ServerLoad/clients:K    healthy traffic — K clients x check-only
//                           requests; items/sec is requests completed per
//                           second of wall time, across all K client
//                           processes (frame codec + socket round trip +
//                           service fast path).
//   ServerOverload          deliberate overload — one worker holding the
//                           writer lane against short-deadline applies
//                           from many clients; most requests must come
//                           back shed or deadline-expired, never hang.
//
// Counters are scraped over the wire via the kMetricsRequest message (the
// same path operators use), so shed/deadline_expired/completed work is
// visible in BENCH_server.json: requests_per_iter, completed_per_iter,
// shed_per_iter, deadline_expired_per_iter, client_errors_per_iter. Both
// series time wall clock (UseRealTime): the benchmark thread itself
// mostly sleeps in read and waitpid while the forked clients work, so its
// CPU time says nothing about throughput. The CI gate requires both series,
// checks the JSON mirror exists, and fails if a healthy ServerLoad run
// loses a response (client_errors_per_iter above 0).
#include <benchmark/benchmark.h>

#include "bench_json.h"

#include <sys/wait.h>
#include <unistd.h>

#include <chrono>
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "fixtures/synthetic.h"
#include "net/client.h"
#include "net/server.h"

namespace {

using ufilter::check::UFilter;
using ufilter::net::Client;
using ufilter::net::ClientOptions;
using ufilter::net::Server;
using ufilter::net::ServerOptions;

constexpr int kDepth = 3;
constexpr int kRowsPerLevel = 64;

struct Rig {
  std::unique_ptr<ufilter::relational::Database> db;
  std::unique_ptr<UFilter> uf;
  std::unique_ptr<Server> server;
};

Rig MakeRig(ServerOptions opts) {
  Rig rig;
  auto db = ufilter::fixtures::MakeChainDatabase(kDepth, kRowsPerLevel);
  if (!db.ok()) {
    std::fprintf(stderr, "fixture: %s\n", db.status().ToString().c_str());
    std::abort();
  }
  rig.db = std::move(*db);
  auto uf = UFilter::Create(rig.db.get(),
                            ufilter::fixtures::ChainViewQuery(kDepth));
  if (!uf.ok()) {
    std::fprintf(stderr, "ufilter: %s\n", uf.status().ToString().c_str());
    std::abort();
  }
  rig.uf = std::move(*uf);
  auto server = Server::Start(rig.uf.get(), opts);
  if (!server.ok()) {
    std::fprintf(stderr, "server: %s\n", server.status().ToString().c_str());
    std::abort();
  }
  rig.server = std::move(*server);
  return rig;
}

struct ClientTally {
  int ok = 0;
  int refused = 0;  // shed / draining / deadline — the server said no
  int errors = 0;   // transport or protocol failure
};

/// One forked client process: `requests` checks against the server, tally
/// written to `pipe_fd` as three integers. _exit so no benchmark/atexit
/// machinery runs in the child.
void RunClientProcess(int pipe_fd, uint16_t port, int requests, bool apply,
                      int timeout_ms) {
  ClientOptions opts;
  opts.port = port;
  opts.request_timeout = std::chrono::milliseconds(timeout_ms);
  opts.max_attempts = 1;  // the bench measures the server, not the backoff
  opts.jitter_seed = static_cast<uint32_t>(getpid());
  Client client(opts);
  ClientTally tally;
  const std::string update =
      ufilter::fixtures::ChainReplaceUpdate(1, 1, "bench");
  for (int i = 0; i < requests; ++i) {
    auto resp = client.Check(update, apply);
    if (resp.ok()) {
      ++tally.ok;
    } else if (resp.status().IsUnavailable() ||
               resp.status().IsDeadlineExceeded()) {
      ++tally.refused;
    } else {
      ++tally.errors;
    }
  }
  ::dprintf(pipe_fd, "%d %d %d\n", tally.ok, tally.refused, tally.errors);
  ::close(pipe_fd);
  ::_exit(0);
}

/// Forks `clients` processes and aggregates their tallies.
ClientTally RunStorm(uint16_t port, int clients, int requests_each,
                     bool apply, int timeout_ms) {
  std::vector<int> read_fds;
  std::vector<pid_t> pids;
  for (int c = 0; c < clients; ++c) {
    int fds[2];
    if (pipe(fds) != 0) std::abort();
    pid_t pid = fork();
    if (pid < 0) std::abort();
    if (pid == 0) {
      ::close(fds[0]);
      RunClientProcess(fds[1], port, requests_each, apply, timeout_ms);
    }
    ::close(fds[1]);
    read_fds.push_back(fds[0]);
    pids.push_back(pid);
  }
  ClientTally total;
  for (size_t c = 0; c < pids.size(); ++c) {
    char buf[64] = {0};
    ssize_t n = ::read(read_fds[c], buf, sizeof(buf) - 1);
    ::close(read_fds[c]);
    int wstatus = 0;
    ::waitpid(pids[c], &wstatus, 0);
    ClientTally one;
    if (n > 0 &&
        std::sscanf(buf, "%d %d %d", &one.ok, &one.refused, &one.errors) ==
            3) {
      total.ok += one.ok;
      total.refused += one.refused;
      total.errors += one.errors;
    } else {
      total.errors += requests_each;  // child died: count its whole share
    }
  }
  return total;
}

void AttachWireStats(benchmark::State& state, const Rig& rig,
                     const ClientTally& tally, int64_t requests) {
  ClientOptions opts;
  opts.port = rig.server->port();
  Client scraper(opts);
  auto scrape = scraper.Metrics();
  // A failed scrape reads as zeros, like a missing series.
  auto wire = [&scrape](const char* name) {
    const ufilter::net::WireMetric* m =
        scrape.ok() ? scrape->Find(name) : nullptr;
    return m != nullptr ? static_cast<double>(m->value) : 0.0;
  };
  const auto avg = benchmark::Counter::kAvgIterations;
  state.counters["requests_per_iter"] =
      benchmark::Counter(static_cast<double>(requests), avg);
  state.counters["completed_per_iter"] =
      benchmark::Counter(wire("service_completed"), avg);
  state.counters["shed_per_iter"] =
      benchmark::Counter(wire("service_shed"), avg);
  state.counters["deadline_expired_per_iter"] =
      benchmark::Counter(wire("service_deadline_expired"), avg);
  state.counters["client_errors_per_iter"] =
      benchmark::Counter(static_cast<double>(tally.errors), avg);
}

void ServerLoad(benchmark::State& state) {
  const int clients = static_cast<int>(state.range(0));
  constexpr int kRequestsEach = 32;
  ServerOptions opts;
  opts.service.worker_threads = 2;
  Rig rig = MakeRig(opts);

  ClientTally tally;
  int64_t requests = 0;
  for (auto _ : state) {
    ClientTally round = RunStorm(rig.server->port(), clients, kRequestsEach,
                                 /*apply=*/false, /*timeout_ms=*/5000);
    tally.ok += round.ok;
    tally.refused += round.refused;
    tally.errors += round.errors;
    requests += static_cast<int64_t>(clients) * kRequestsEach;
  }
  state.SetItemsProcessed(requests);
  AttachWireStats(state, rig, tally, requests);
  rig.server->Drain();
}
BENCHMARK(ServerLoad)
    ->Arg(1)
    ->Arg(2)
    ->Arg(4)
    ->ArgName("clients")
    ->UseRealTime()
    ->Unit(benchmark::kMillisecond);

void ServerOverload(benchmark::State& state) {
  // One worker that holds the writer lane 40ms per apply, a queue of one,
  // eight clients with 25ms budgets: almost everything must be refused —
  // shed at admission or purged at its deadline — and refusals must be
  // fast (this is the latency being measured).
  constexpr int kClients = 8;
  constexpr int kRequestsEach = 8;
  ServerOptions opts;
  opts.service.worker_threads = 1;
  opts.service.queue_capacity = 1;
  opts.service.writer_lane_hold_ms_for_testing = 40;
  Rig rig = MakeRig(opts);

  ClientTally tally;
  int64_t requests = 0;
  for (auto _ : state) {
    ClientTally round = RunStorm(rig.server->port(), kClients, kRequestsEach,
                                 /*apply=*/true, /*timeout_ms=*/25);
    tally.ok += round.ok;
    tally.refused += round.refused;
    tally.errors += round.errors;
    requests += static_cast<int64_t>(kClients) * kRequestsEach;
  }
  state.SetItemsProcessed(requests);
  AttachWireStats(state, rig, tally, requests);
  rig.server->Drain();
}
BENCHMARK(ServerOverload)->UseRealTime()->Unit(benchmark::kMillisecond);

}  // namespace

int main(int argc, char** argv) {
  return ufilter::bench::RunWithJson(argc, argv, "server");
}
