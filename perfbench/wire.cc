#include "wire.h"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstring>
#include <mutex>
#include <thread>

#include "net/client.h"
#include "net/frame.h"
#include "net/socket.h"

namespace perfbench {

namespace {

using ufilter::net::Verdict;

enum Phase : int { kWarmup, kMeasure, kStop };

/// Shared state of one RunWire call.
struct Run {
  const WireOptions* opt;
  std::atomic<int> phase{kWarmup};
  std::atomic<int64_t> open_ns{INT64_MAX};
  std::atomic<int64_t> close_ns{INT64_MAX};
};

/// Sleeps until `due_ns`; false when the run stopped first.
bool WaitForDue(const Run& run, int64_t due_ns) {
  return SleepUntil(due_ns, [&run] {
    return run.phase.load(std::memory_order_acquire) == kStop;
  });
}

/// Keeps the writer's schedule without sending; records how late each
/// wake-up in the window was.
void PacerLoop(Run* run, std::vector<double>* late_us) {
  PinThread(run->opt->cpus);
  const int64_t begin = NowNs();
  for (int64_t i = 0;; ++i) {
    int64_t due = begin + i * kApplyPeriodNs;
    if (!WaitForDue(*run, due)) break;
    if (due >= run->open_ns.load()) {
      late_us->push_back(static_cast<double>(NowNs() - due) * 1e-3);
    }
  }
}

/// What one closed-loop connection sent and got back.
struct ReaderOut {
  std::vector<ReadRecord> reads;
  uint64_t warmed = 0;
  uint64_t unrecorded_wrong = 0;
  uint64_t unrecorded_transport_errors = 0;
  uint64_t pings = 0;
  std::vector<double> ping_us;
  uint64_t retries = 0;
  uint64_t reconnects = 0;
  SpanLog spans;
};

void ReaderLoop(Run* run, int index, ReaderOut* out) {
  const WireOptions& opt = *run->opt;
  PinThread(opt.cpus);
  ufilter::net::ClientOptions copts;
  copts.port = opt.port;
  copts.max_attempts = 1;
  copts.connect_timeout = std::chrono::milliseconds(5000);
  copts.request_timeout = std::chrono::milliseconds(30000);
  copts.jitter_seed = static_cast<uint32_t>(index + 1);
  ufilter::net::Client client(copts);
  ReadStream stream(opt.workload, opt.seed, index);
  bool counted = !opt.counts.empty();
  uint64_t warm =
      counted ? opt.warm_counts[static_cast<size_t>(index)] : 0;
  uint64_t quota =
      counted ? warm + opt.counts[static_cast<size_t>(index)] : 0;
  bool flip_warm = index == 0 && opt.flip_expect >= 0;
  bool flip_measured = flip_warm;
  for (uint64_t seq = 0;; ++seq) {
    int phase = run->phase.load(std::memory_order_acquire);
    if (phase == kStop || (counted && seq >= quota)) break;
    Request req = stream.Next();
    bool measured = counted ? seq >= warm : phase == kMeasure;
    if (!measured) ++out->warmed;
    bool& flip = measured ? flip_measured : flip_warm;
    if (flip && static_cast<int>(req.expect) == opt.flip_expect) {
      req.expect = req.expect == Expect::kExecuted ? Expect::kConflict
                                                   : Expect::kExecuted;
      flip = false;
    }
    if (opt.spans && measured && seq % kPingEvery == 0) {
      int64_t p0 = NowNs();
      ufilter::Status pong = client.Ping();
      int64_t p1 = NowNs();
      ++out->pings;
      if (pong.ok()) {
        out->ping_us.push_back(static_cast<double>(p1 - p0) * 1e-3);
      } else {
        ++out->unrecorded_transport_errors;
      }
    }
    int64_t t0 = NowNs();
    auto resp = client.Check(req.text, /*apply=*/false);
    int64_t t1 = NowNs();
    bool transport_error = !resp.ok();
    bool wrong =
        !transport_error && !VerdictMatches(req.expect, resp->verdict);
    if (!measured) {
      out->unrecorded_wrong += wrong;
      out->unrecorded_transport_errors += transport_error;
      continue;
    }
    ReadRecord rec;
    rec.expect = req.expect;
    rec.transport_error = transport_error;
    rec.wrong_verdict = wrong;
    rec.latency_us = transport_error || wrong
                         ? kFailedLatency
                         : static_cast<double>(t1 - t0) * 1e-3;
    rec.done_ns = t1;
    out->reads.push_back(rec);
    if (opt.spans) {
      out->spans.push_back(Span{(static_cast<uint64_t>(index) + 1) << 32 | seq,
                                kSpanWire, kNoParent, t0, t1});
    }
  }
  out->retries = client.metrics().retries;
  out->reconnects = client.metrics().reconnects;
}

/// apply_mixed's writer: one connection, requests pipelined so every send
/// goes out at its due time whatever the server's backlog.
class OpenLoopWriter {
 public:
  /// Records the applies and their lateness into `out`; its readers'
  /// fields are merged in only after Join.
  OpenLoopWriter(Run* run, WireResult* out) : run_(run), out_(out) {}

  ufilter::Status Start() {
    auto fd = ufilter::net::ConnectTcp("127.0.0.1", run_->opt->port,
                                       std::chrono::milliseconds(5000));
    if (!fd.ok()) return fd.status();
    fd_ = *fd;
    UFILTER_RETURN_NOT_OK(ufilter::net::SendAll(
        fd_, ufilter::net::kNetMagic, ufilter::net::kNetMagicLen,
        std::chrono::steady_clock::now() + std::chrono::seconds(5)));
    sender_ = std::thread([this] { SendLoop(); });
    receiver_ = std::thread([this] { ReceiveLoop(); });
    return ufilter::Status::OK();
  }

  void Join() {
    if (sender_.joinable()) sender_.join();
    if (receiver_.joinable()) receiver_.join();
    ufilter::net::CloseFd(fd_);
  }

 private:
  struct Sent {
    int64_t due_ns;
    int64_t send_ns;
  };

  void SendLoop() {
    PinThread(run_->opt->cpus);
    WriteStream stream(run_->opt->seed);
    const int64_t begin = NowNs();
    for (uint64_t i = 0;; ++i) {
      int64_t due = begin + static_cast<int64_t>(i) * kApplyPeriodNs;
      if (!WaitForDue(*run_, due)) break;
      ufilter::net::CheckRequestMsg msg;
      msg.request_id = i + 1;
      msg.apply = true;
      msg.update_text = stream.Next().text;
      std::string frame =
          ufilter::net::FramePayload(ufilter::net::EncodeCheckRequest(msg));
      int64_t send_ns = NowNs();
      if (due >= run_->open_ns.load()) {
        out_->late_us.push_back(static_cast<double>(send_ns - due) * 1e-3);
      }
      {
        std::lock_guard<std::mutex> lock(mu_);
        sent_.push_back(Sent{due, send_ns});
      }
      ufilter::Status st = ufilter::net::SendAll(
          fd_, frame.data(), frame.size(),
          std::chrono::steady_clock::now() + std::chrono::seconds(10));
      if (!st.ok()) break;
    }
    sending_done_.store(true, std::memory_order_release);
  }

  void ReceiveLoop() {
    PinThread(run_->opt->cpus);
    ufilter::net::FrameReader reader;
    size_t received = 0;
    int64_t give_up_ns = 0;
    char buf[16384];
    while (true) {
      size_t sent;
      {
        std::lock_guard<std::mutex> lock(mu_);
        sent = sent_.size();
      }
      if (sending_done_.load(std::memory_order_acquire) && received >= sent) {
        break;
      }
      if (sending_done_.load(std::memory_order_acquire) && give_up_ns == 0) {
        give_up_ns = NowNs() + 30000000000LL;
      }
      if (give_up_ns != 0 && NowNs() > give_up_ns) break;
      auto n = ufilter::net::RecvSome(
          fd_, buf, sizeof buf,
          std::chrono::steady_clock::now() + std::chrono::milliseconds(100));
      if (!n.ok()) {
        if (n.status().code() == ufilter::StatusCode::kDeadlineExceeded) {
          continue;
        }
        break;
      }
      reader.Feed(buf, *n);
      while (true) {
        auto payload = reader.Next();
        if (!payload.ok() || !payload->has_value()) break;
        int64_t now = NowNs();
        auto resp = ufilter::net::DecodeCheckResponse(**payload);
        if (!resp.ok() || resp->request_id == 0) continue;
        Sent s;
        {
          std::lock_guard<std::mutex> lock(mu_);
          if (resp->request_id > sent_.size()) continue;
          s = sent_[resp->request_id - 1];
        }
        ++received;
        Record(s, resp->verdict == Verdict::kExecuted, false, now);
      }
    }
    // Whatever never came back failed.
    std::lock_guard<std::mutex> lock(mu_);
    for (size_t i = received; i < sent_.size(); ++i) {
      Record(sent_[i], false, true, 0);
    }
  }

  /// Called by the receiver only. Applies outside the window are checked
  /// too; only their latency goes unrecorded.
  void Record(const Sent& s, bool executed, bool transport_error,
              int64_t done_ns) {
    if (executed) ++out_->applies_executed;
    bool wrong = !transport_error && !executed;
    if (s.due_ns < run_->open_ns.load() || s.due_ns >= run_->close_ns.load()) {
      ++out_->unrecorded;
      out_->unrecorded_wrong += wrong;
      out_->unrecorded_transport_errors += transport_error;
      return;
    }
    WriteRecord rec;
    rec.due_ns = s.due_ns;
    rec.transport_error = transport_error;
    rec.wrong_verdict = wrong;
    rec.latency_us = executed ? static_cast<double>(done_ns - s.due_ns) * 1e-3
                              : kFailedLatency;
    out_->writes.push_back(rec);
  }

  Run* run_;
  WireResult* out_;
  int fd_ = -1;
  std::mutex mu_;
  std::vector<Sent> sent_;  // index = request_id - 1
  std::atomic<bool> sending_done_{false};
  std::thread sender_;
  std::thread receiver_;
};

}  // namespace

WireResult RunWire(const WireOptions& opt) {
  WireResult result;
  Run run;
  run.opt = &opt;
  bool counted = !opt.counts.empty();
  int readers = counted ? static_cast<int>(opt.counts.size()) : opt.readers;
  run.phase.store(counted ? kMeasure : kWarmup);

  std::vector<ReaderOut> outs(static_cast<size_t>(readers));

  double cpu0 = 0;
  int64_t t0 = 0;
  auto open_window = [&] {
    if (opt.on_window_open) opt.on_window_open();
    cpu0 = ProcessCpuSeconds();
    t0 = NowNs();
    run.open_ns.store(t0);
    run.phase.store(kMeasure, std::memory_order_release);
  };
  if (counted) open_window();

  OpenLoopWriter writer(&run, &result);
  bool writer_started = false;
  std::thread pacer;
  if (!opt.writer) {
    pacer = std::thread(PacerLoop, &run, &result.late_us);
  } else {
    ufilter::Status st = writer.Start();
    writer_started = st.ok();
    if (!st.ok()) {
      WriteRecord failed;
      failed.transport_error = true;
      failed.latency_us = kFailedLatency;
      result.writes.push_back(failed);
    }
  }
  std::vector<std::thread> threads;
  for (int i = 0; i < readers; ++i) {
    size_t k = static_cast<size_t>(i);
    threads.emplace_back(ReaderLoop, &run, i, &outs[k]);
  }
  int64_t t1 = 0;
  auto close_window = [&] {
    t1 = NowNs();
    run.close_ns.store(t1);
    run.phase.store(kStop, std::memory_order_release);
    result.generator_cpu_s = ProcessCpuSeconds() - cpu0;
  };
  if (!counted) {
    std::this_thread::sleep_for(std::chrono::duration<double>(opt.warmup_s));
    open_window();
    const int slices = std::max(
        1, static_cast<int>(std::lround(opt.measure_s / kSliceSeconds)));
    if (opt.sample_server_cpu) {
      result.slice_server_cpu.push_back(opt.sample_server_cpu());
    }
    for (int k = 1; k <= slices; ++k) {
      SleepUntil(t0 + static_cast<int64_t>(opt.measure_s * 1e9 * k / slices),
                 [] { return false; });
      if (k == slices) close_window();
      result.slice_end_ns.push_back(k == slices ? t1 : NowNs());
      if (opt.sample_server_cpu) {
        result.slice_server_cpu.push_back(opt.sample_server_cpu());
      }
    }
  }
  for (std::thread& t : threads) t.join();
  // Count-based: the run ends when the last reader is done.
  if (counted) close_window();
  if (writer_started) writer.Join();
  if (pacer.joinable()) pacer.join();

  result.window_s = static_cast<double>(t1 - t0) * 1e-9;
  result.open_ns = t0;
  for (ReaderOut& o : outs) {
    result.warmed.push_back(o.warmed);
    result.completed.push_back(o.reads.size());
    result.reads.insert(result.reads.end(), o.reads.begin(), o.reads.end());
    result.unrecorded += o.warmed + o.pings;
    result.unrecorded_wrong += o.unrecorded_wrong;
    result.unrecorded_transport_errors += o.unrecorded_transport_errors;
    result.ping_us.insert(result.ping_us.end(), o.ping_us.begin(),
                          o.ping_us.end());
    result.client_retries += o.retries;
    result.client_reconnects += o.reconnects;
    result.spans.insert(result.spans.end(), o.spans.begin(), o.spans.end());
  }
  return result;
}

}  // namespace perfbench
