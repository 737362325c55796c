#include "traced.h"

#include <atomic>
#include <future>
#include <mutex>
#include <thread>

#include "net/frame.h"
#include "relational/dryrun.h"
#include "ufilter/star.h"
#include "ufilter/update_binding.h"
#include "ufilter/validation.h"
#include "wire.h"
#include "xquery/normalize.h"
#include "xquery/parser.h"

namespace perfbench {

namespace {

using ufilter::check::CheckOptions;
using ufilter::check::CheckOutcome;
using ufilter::check::CheckReport;

constexpr uint64_t kWriterRequestBit = 1ULL << 63;
// Applies the direct pass runs alone on the check-only workloads.
constexpr uint64_t kSoloApplies = 50;

uint64_t RequestId(int reader, uint64_t seq) {
  return (static_cast<uint64_t>(reader) + 1) << 32 | seq;
}

/// One request through the calls CheckService::Process makes, with a span
/// around each. `writer_mu` stands in for the service's writer lane.
/// Returns the report; `*children_us` receives the summed child spans.
CheckReport DirectRequest(Fixture* fx,
                          ufilter::relational::ExecutionContext* ctx,
                          const std::string& text, bool apply,
                          std::mutex* writer_mu, uint64_t id, SpanLog* log,
                          double* children_us) {
  auto* db = fx->db.get();
  auto* uf = fx->filter.get();
  CheckOptions opts;
  opts.apply = apply;
  int64_t children = 0;
  auto span = [&](uint8_t name, int64_t a, int64_t b) {
    children += b - a;
    log->push_back(Span{id, name, kSpanDirect, a, b});
  };
  int64_t t0 = NowNs();
  ctx->PinReadSnapshot(db->OpenSnapshot());
  int64_t t1 = NowNs();
  span(kSpanSnapshotOpen, t0, t1);
  bool hit = false;
  auto plan = uf->Prepare(text, &hit, ctx);
  int64_t t2 = NowNs();
  span(hit ? kSpanPrepareHit : kSpanPrepareMiss, t1, t2);
  std::optional<CheckReport> fast = uf->TryCheckReadOnly(*plan, opts, ctx);
  int64_t t3 = NowNs();
  span(kSpanReadOnlyCheck, t2, t3);
  ctx->ClearReadSnapshot();
  int64_t t4 = NowNs();
  span(kSpanSnapshotRelease, t3, t4);
  CheckReport report;
  if (fast.has_value()) {
    report = *std::move(fast);
  } else {
    std::unique_lock<std::mutex> lane(*writer_mu);
    int64_t t5 = NowNs();
    span(kSpanWriterWait, t4, t5);
    int64_t t6 = 0;
    {
      ufilter::relational::Database::WriterGuard guard(db);
      if (!apply) guard.AbandonPublish();
      report = uf->Execute(*plan, opts, ctx);
      t6 = NowNs();
      if (report.outcome != CheckOutcome::kExecuted) guard.AbandonPublish();
    }
    int64_t t7 = NowNs();
    lane.unlock();
    if (!apply) {
      // An escalated check executes and rolls back: it publishes and logs
      // nothing, so it gets a span of its own.
      span(kSpanEscalate, t5, t7);
    } else {
      span(kSpanExecute, t5, t6);
      span(kSpanCommit, t6, t7);
      // The service syncs per group commit, not here, so this span is not
      // a child. It times one fsync of the apply's record.
      (void)db->SyncWal();
      log->push_back(Span{id, kSpanWalSync, kSpanDirect, t7, NowNs()});
    }
  }
  int64_t end = NowNs();
  log->push_back(Span{id, kSpanDirect, kNoParent, t0, end});
  *children_us = static_cast<double>(children) * 1e-3;
  return report;
}

void Collect(PassResult* out, std::vector<SpanLog>* logs) {
  for (SpanLog& log : *logs) {
    for (const Span& s : log) {
      out->by_name[s.name].push_back(
          static_cast<double>(s.end_ns - s.start_ns) * 1e-3);
    }
    out->spans.insert(out->spans.end(), log.begin(), log.end());
  }
}

}  // namespace

PassResult RunDirect(Fixture* fx, const ReplayPlan& plan,
                     const cpu_set_t& cpus) {
  PassResult result;
  const size_t readers = plan.counts.size();
  std::vector<SpanLog> logs(readers + 1);
  std::vector<std::vector<double>> read_us(readers);
  std::vector<double> children(readers, 0);
  std::vector<uint64_t> wrong(readers, 0);
  std::mutex writer_mu;
  std::atomic<bool> readers_done{false};
  auto done = [&] { return readers_done.load(std::memory_order_acquire); };
  uint64_t epoch0 = fx->db->commit_epoch();
  PinThread(cpus);

  // Runs the next apply of `stream` and checks that it executed.
  auto apply = [&](ufilter::relational::ExecutionContext* ctx,
                   WriteStream* stream, uint64_t i) {
    double unused = 0;
    CheckReport r = DirectRequest(fx, ctx, stream->Next().text,
                                  /*apply=*/true, &writer_mu,
                                  kWriterRequestBit | i, &logs[readers],
                                  &unused);
    ++result.requests;
    if (r.outcome == CheckOutcome::kExecuted) {
      ++result.applies_executed;
    } else {
      ++result.wrong_verdicts;
    }
  };
  std::thread writer;
  if (plan.writer) {
    writer = std::thread([&] {
      auto ctx = fx->db->CreateContext();
      WriteStream stream(plan.seed);
      const int64_t begin = NowNs();
      for (uint64_t i = 0;; ++i) {
        if (!SleepUntil(begin + static_cast<int64_t>(i) * kApplyPeriodNs,
                        done)) {
          break;
        }
        apply(ctx.get(), &stream, i);
      }
    });
  }
  std::vector<std::thread> threads;
  for (size_t i = 0; i < readers; ++i) {
    threads.emplace_back([&, i] {
      auto ctx = fx->db->CreateContext();
      ReadStream stream(plan.workload, plan.seed, static_cast<int>(i));
      uint64_t warm = plan.warm_counts[i];
      for (uint64_t seq = 0; seq < warm + plan.counts[i]; ++seq) {
        Request req = stream.Next();
        bool measured = seq >= warm;
        double child_us = 0;
        int64_t t0 = NowNs();
        // Warm-up requests log spans too: on check_hot they hold every
        // plan-cache miss.
        CheckReport r = DirectRequest(fx, ctx.get(), req.text,
                                      /*apply=*/false, &writer_mu,
                                      RequestId(static_cast<int>(i), seq),
                                      &logs[i], &child_us);
        int64_t t1 = NowNs();
        if (!VerdictMatches(req.expect, VerdictOf(r.outcome))) ++wrong[i];
        if (!measured) continue;
        read_us[i].push_back(static_cast<double>(t1 - t0) * 1e-3);
        children[i] += child_us;
      }
    });
  }
  for (std::thread& t : threads) t.join();
  readers_done.store(true, std::memory_order_release);
  if (writer.joinable()) writer.join();
  if (!plan.writer) {
    // The check-only workloads send no applies. A few of apply_mixed's,
    // alone after the replay, give the apply spans (execute, commit, WAL
    // sync) their cost without concurrent reads.
    auto ctx = fx->db->CreateContext();
    WriteStream stream(plan.seed);
    for (uint64_t i = 0; i < kSoloApplies; ++i) apply(ctx.get(), &stream, i);
  }

  for (size_t i = 0; i < readers; ++i) {
    result.read_us.insert(result.read_us.end(), read_us[i].begin(),
                          read_us[i].end());
    result.read_children_us += children[i];
    result.wrong_verdicts += wrong[i];
    result.requests += plan.warm_counts[i] + plan.counts[i];
  }
  result.epochs_advanced = fx->db->commit_epoch() - epoch0;
  Collect(&result, &logs);
  return result;
}

PassResult RunSubmit(Fixture* fx, const ReplayPlan& plan,
                     const cpu_set_t& service_cpus,
                     const cpu_set_t& client_cpus) {
  PassResult result;
  const size_t readers = plan.counts.size();
  std::vector<SpanLog> logs(readers);
  std::vector<std::vector<double>> read_us(readers);
  std::vector<uint64_t> wrong(readers, 0);
  std::atomic<bool> readers_done{false};
  auto done = [&] { return readers_done.load(std::memory_order_acquire); };
  uint64_t epoch0 = fx->db->commit_epoch();

  // Threads inherit the creator's CPUs: the workers get the server's half.
  PinThread(service_cpus);
  ufilter::service::CheckService service(fx->filter.get(), ServiceOptions());
  PinThread(client_cpus);

  std::vector<std::future<CheckReport>> applies;
  std::thread writer;
  if (plan.writer) {
    writer = std::thread([&] {
      auto session = service.OpenSession("writer");
      WriteStream stream(plan.seed);
      CheckOptions opts;
      const int64_t begin = NowNs();
      for (uint64_t i = 0;; ++i) {
        if (!SleepUntil(begin + static_cast<int64_t>(i) * kApplyPeriodNs,
                        done)) {
          break;
        }
        applies.push_back(service.Submit(session, stream.Next().text, opts));
      }
    });
  }
  std::vector<std::thread> threads;
  for (size_t i = 0; i < readers; ++i) {
    threads.emplace_back([&, i] {
      auto session = service.OpenSession();
      ReadStream stream(plan.workload, plan.seed, static_cast<int>(i));
      CheckOptions opts;
      opts.apply = false;
      uint64_t warm = plan.warm_counts[i];
      for (uint64_t seq = 0; seq < warm + plan.counts[i]; ++seq) {
        Request req = stream.Next();
        int64_t t0 = NowNs();
        CheckReport r = service.Submit(session, req.text, opts).get();
        int64_t t1 = NowNs();
        if (!VerdictMatches(req.expect, VerdictOf(r.outcome))) ++wrong[i];
        if (seq < warm) continue;
        read_us[i].push_back(static_cast<double>(t1 - t0) * 1e-3);
        logs[i].push_back(Span{RequestId(static_cast<int>(i), seq),
                               kSpanSubmit, kNoParent, t0, t1});
      }
    });
  }
  for (std::thread& t : threads) t.join();
  readers_done.store(true, std::memory_order_release);
  if (writer.joinable()) writer.join();
  result.requests += applies.size();
  for (auto& f : applies) {
    if (f.get().outcome == CheckOutcome::kExecuted) {
      ++result.applies_executed;
    } else {
      ++result.wrong_verdicts;
    }
  }
  service.Shutdown();

  for (size_t i = 0; i < readers; ++i) {
    result.read_us.insert(result.read_us.end(), read_us[i].begin(),
                          read_us[i].end());
    result.wrong_verdicts += wrong[i];
    result.requests += plan.warm_counts[i] + plan.counts[i];
  }
  result.epochs_advanced = fx->db->commit_epoch() - epoch0;
  Collect(&result, &logs);
  return result;
}

Breakdown RunBreakdown(Fixture* fx, const ReplayPlan& plan) {
  // Enough inputs for stable means, few enough to take well under a second.
  constexpr uint64_t kPerReader = 500;
  auto* db = fx->db.get();
  auto* uf = fx->filter.get();
  auto ctx = db->CreateContext();
  CheckOptions opts;
  opts.apply = false;
  double sums[8] = {};
  uint64_t counts[8] = {};
  enum { kNormalize, kParse, kBind, kValidate, kStar, kDryRun, kCodec, kBytes };
  auto add = [&](int k, int64_t a, int64_t b) {
    sums[k] += static_cast<double>(b - a);
    ++counts[k];
  };
  for (size_t i = 0; i < plan.counts.size(); ++i) {
    ReadStream stream(plan.workload, plan.seed, static_cast<int>(i));
    for (uint64_t seq = 0; seq < plan.warm_counts[i]; ++seq) stream.Next();
    for (uint64_t n = 0; n < std::min(plan.counts[i], kPerReader); ++n) {
      Request req = stream.Next();
      int64_t t0 = NowNs();
      std::string normalized = ufilter::xq::NormalizeUpdateText(req.text);
      int64_t t1 = NowNs();
      add(kNormalize, t0, t1);
      auto stmt = ufilter::xq::ParseUpdate(req.text);
      int64_t t2 = NowNs();
      add(kParse, t1, t2);
      if (stmt.ok()) {
        auto bound = ufilter::check::BindUpdate(uf->analyzed_view(),
                                                uf->view_asg(), *stmt);
        int64_t t3 = NowNs();
        add(kBind, t2, t3);
        if (bound.ok()) {
          ufilter::Status valid =
              ufilter::check::ValidateUpdate(uf->view_asg(), *bound);
          int64_t t4 = NowNs();
          add(kValidate, t3, t4);
          if (valid.ok()) {
            auto star = ufilter::check::CheckStar(uf->view_asg(),
                                                  bound->target_node,
                                                  bound->op);
            add(kStar, t4, NowNs());
            (void)star;
          }
        }
      }
      ctx->PinReadSnapshot(db->OpenSnapshot());
      auto prepared = uf->Prepare(req.text, nullptr, ctx.get());
      auto fast = uf->TryCheckReadOnly(*prepared, opts, ctx.get());
      if (fast.has_value() && fast->outcome == CheckOutcome::kExecuted &&
          !fast->translation.empty()) {
        int64_t t5 = NowNs();
        auto dry = ufilter::relational::DryRunOps(*db, ctx.get(),
                                                  fast->translation);
        add(kDryRun, t5, NowNs());
        (void)dry;
      }
      ctx->ClearReadSnapshot();

      ufilter::net::CheckRequestMsg request;
      request.request_id = n + 1;
      request.deadline_ms = 30000;
      request.update_text = req.text;
      ufilter::net::CheckResponseMsg response;
      response.request_id = request.request_id;
      if (fast.has_value()) {
        response.verdict = VerdictOf(fast->outcome);
        response.status_code = static_cast<uint8_t>(fast->error.code());
        response.message = fast->error.message();
        response.rows_affected = fast->rows_affected;
      } else {
        response.verdict = ufilter::net::Verdict::kExecuted;
      }
      int64_t c0 = NowNs();
      std::string req_payload = ufilter::net::EncodeCheckRequest(request);
      std::string req_frame = ufilter::net::FramePayload(req_payload);
      auto decoded_req = ufilter::net::DecodeCheckRequest(req_payload);
      std::string resp_payload = ufilter::net::EncodeCheckResponse(response);
      std::string resp_frame = ufilter::net::FramePayload(resp_payload);
      auto decoded_resp = ufilter::net::DecodeCheckResponse(resp_payload);
      add(kCodec, c0, NowNs());
      sums[kBytes] += static_cast<double>(req_frame.size() + resp_frame.size());
      ++counts[kBytes];
      (void)decoded_req;
      (void)decoded_resp;
    }
  }
  auto mean = [&](int k) { return counts[k] ? sums[k] / counts[k] : 0.0; };
  Breakdown b;
  b.normalize_ns = mean(kNormalize);
  b.parse_us = mean(kParse) * 1e-3;
  b.bind_us = mean(kBind) * 1e-3;
  b.validate_ns = mean(kValidate);
  b.star_ns = mean(kStar);
  b.dryrun_us = mean(kDryRun) * 1e-3;
  b.codec_ns = mean(kCodec);
  b.bytes_per_req = mean(kBytes);
  return b;
}

}  // namespace perfbench
