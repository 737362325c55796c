#include "net/frame.h"

#include <algorithm>
#include <cstring>

#include "relational/wal.h"  // Crc32: the WAL's framing checksum, reused

namespace ufilter::net {

namespace {

void PutU8(std::string* out, uint8_t v) {
  out->push_back(static_cast<char>(v));
}

void PutU32(std::string* out, uint32_t v) {
  for (int i = 0; i < 4; ++i) {
    out->push_back(static_cast<char>((v >> (8 * i)) & 0xFF));
  }
}

void PutU64(std::string* out, uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    out->push_back(static_cast<char>((v >> (8 * i)) & 0xFF));
  }
}

void PutString(std::string* out, const std::string& s) {
  PutU32(out, static_cast<uint32_t>(s.size()));
  out->append(s);
}

/// Strict bounded reader over a payload; any underflow poisons it.
class Cursor {
 public:
  explicit Cursor(const std::string& payload) : p_(payload) {}

  uint8_t U8() {
    if (!Need(1)) return 0;
    return static_cast<uint8_t>(p_[pos_++]);
  }

  uint32_t U32() {
    if (!Need(4)) return 0;
    uint32_t v = 0;
    for (int i = 0; i < 4; ++i) {
      v |= static_cast<uint32_t>(static_cast<uint8_t>(p_[pos_++])) << (8 * i);
    }
    return v;
  }

  uint64_t U64() {
    if (!Need(8)) return 0;
    uint64_t v = 0;
    for (int i = 0; i < 8; ++i) {
      v |= static_cast<uint64_t>(static_cast<uint8_t>(p_[pos_++])) << (8 * i);
    }
    return v;
  }

  std::string Str() {
    uint32_t n = U32();
    if (!ok_ || !Need(n)) return std::string();
    std::string s = p_.substr(pos_, n);
    pos_ += n;
    return s;
  }

  bool ok() const { return ok_; }
  /// Trailing garbage is as suspect as a short payload.
  bool AtEnd() const { return ok_ && pos_ == p_.size(); }

 private:
  bool Need(size_t n) {
    if (!ok_ || p_.size() - pos_ < n) {
      ok_ = false;
      return false;
    }
    return true;
  }

  const std::string& p_;
  size_t pos_ = 0;
  bool ok_ = true;
};

Status Malformed(const char* what) {
  return Status::ParseError(std::string("malformed ") + what + " message");
}

}  // namespace

const char* VerdictName(Verdict v) {
  switch (v) {
    case Verdict::kExecuted:
      return "executed";
    case Verdict::kInvalid:
      return "invalid";
    case Verdict::kUntranslatable:
      return "untranslatable";
    case Verdict::kDataConflict:
      return "data-conflict";
    case Verdict::kNotRun:
      return "not-run";
    case Verdict::kDeadlineExceeded:
      return "deadline-exceeded";
    case Verdict::kShed:
      return "shed";
    case Verdict::kDraining:
      return "draining";
    case Verdict::kError:
      return "error";
    case Verdict::kRedirectToPrimary:
      return "redirect-to-primary";
  }
  return "?";
}

bool VerdictIsRetrySafe(Verdict v) {
  return v == Verdict::kShed || v == Verdict::kDraining ||
         v == Verdict::kDeadlineExceeded;
}

std::string EncodeCheckRequest(const CheckRequestMsg& msg) {
  std::string out;
  PutU8(&out, static_cast<uint8_t>(MsgType::kCheckRequest));
  PutU64(&out, msg.request_id);
  PutU32(&out, msg.deadline_ms);
  PutU8(&out, msg.apply ? 1 : 0);
  PutU8(&out, msg.strategy);
  PutString(&out, msg.update_text);
  return out;
}

std::string EncodeCheckResponse(const CheckResponseMsg& msg) {
  std::string out;
  PutU8(&out, static_cast<uint8_t>(MsgType::kCheckResponse));
  PutU64(&out, msg.request_id);
  PutU8(&out, static_cast<uint8_t>(msg.verdict));
  PutU8(&out, msg.status_code);
  PutU64(&out, static_cast<uint64_t>(msg.rows_affected));
  PutU32(&out, msg.retry_after_ms);
  PutString(&out, msg.message);
  return out;
}

std::string EncodePing(uint64_t request_id) {
  std::string out;
  PutU8(&out, static_cast<uint8_t>(MsgType::kPing));
  PutU64(&out, request_id);
  return out;
}

std::string EncodePong(uint64_t request_id) {
  std::string out;
  PutU8(&out, static_cast<uint8_t>(MsgType::kPong));
  PutU64(&out, request_id);
  return out;
}

std::string EncodeMetricsRequest() {
  std::string out;
  PutU8(&out, static_cast<uint8_t>(MsgType::kMetricsRequest));
  return out;
}

std::string EncodeMetricsResponse(const MetricsMsg& msg) {
  std::string out;
  PutU8(&out, static_cast<uint8_t>(MsgType::kMetricsResponse));
  PutU32(&out, static_cast<uint32_t>(msg.metrics.size()));
  for (const WireMetric& m : msg.metrics) {
    PutString(&out, m.name);
    PutU8(&out, m.kind);
    PutU64(&out, m.value);
    PutU64(&out, m.hist_count);
    PutU64(&out, m.hist_sum);
    PutU64(&out, m.hist_max);
    PutU32(&out, static_cast<uint32_t>(m.hist_buckets.size()));
    for (const auto& [idx, count] : m.hist_buckets) {
      PutU8(&out, idx);
      PutU64(&out, count);
    }
  }
  return out;
}

const WireMetric* MetricsMsg::Find(const std::string& name) const {
  for (const WireMetric& m : metrics) {
    if (m.name == name) return &m;
  }
  return nullptr;
}

MetricsMsg MetricsFromSnapshot(const obs::RegistrySnapshot& snapshot) {
  MetricsMsg msg;
  msg.metrics.reserve(snapshot.size());
  for (const obs::MetricSample& s : snapshot) {
    WireMetric m;
    m.name = s.name;
    m.kind = static_cast<uint8_t>(s.kind);
    m.value = s.value;
    if (s.kind == obs::MetricKind::kHistogram) {
      m.hist_count = s.hist.count;
      m.hist_sum = s.hist.sum;
      m.hist_max = s.hist.max;
      for (size_t i = 0; i < obs::kHistogramBuckets; ++i) {
        if (s.hist.buckets[i] != 0) {
          m.hist_buckets.emplace_back(static_cast<uint8_t>(i),
                                      s.hist.buckets[i]);
        }
      }
    }
    msg.metrics.push_back(std::move(m));
  }
  return msg;
}

obs::RegistrySnapshot SnapshotFromMetrics(const MetricsMsg& msg) {
  obs::RegistrySnapshot out;
  out.reserve(msg.metrics.size());
  for (const WireMetric& m : msg.metrics) {
    obs::MetricSample s;
    s.name = m.name;
    s.kind = static_cast<obs::MetricKind>(m.kind);
    s.value = m.value;
    if (s.kind == obs::MetricKind::kHistogram) {
      s.hist.count = m.hist_count;
      s.hist.sum = m.hist_sum;
      s.hist.max = m.hist_max;
      for (const auto& [idx, count] : m.hist_buckets) {
        s.hist.buckets[idx] = count;
      }
    }
    out.push_back(std::move(s));
  }
  return out;
}

Result<MsgType> PeekType(const std::string& payload) {
  if (payload.empty()) return Status::ParseError("empty message payload");
  uint8_t t = static_cast<uint8_t>(payload[0]);
  // Only enumerators pass, so a retired type byte (5 and 6, the old
  // fixed-size stats request and response) is wire damage like any other.
  switch (static_cast<MsgType>(t)) {
    case MsgType::kCheckRequest:
    case MsgType::kCheckResponse:
    case MsgType::kPing:
    case MsgType::kPong:
    case MsgType::kMetricsRequest:
    case MsgType::kMetricsResponse:
    case MsgType::kReplSubscribe:
    case MsgType::kReplSnapshot:
    case MsgType::kReplRecords:
    case MsgType::kReplAck:
      return static_cast<MsgType>(t);
  }
  return Status::ParseError("unknown message type " + std::to_string(t));
}

Result<CheckRequestMsg> DecodeCheckRequest(const std::string& payload) {
  Cursor c(payload);
  if (c.U8() != static_cast<uint8_t>(MsgType::kCheckRequest)) {
    return Malformed("check-request");
  }
  CheckRequestMsg msg;
  msg.request_id = c.U64();
  msg.deadline_ms = c.U32();
  msg.apply = c.U8() != 0;
  msg.strategy = c.U8();
  msg.update_text = c.Str();
  if (!c.AtEnd()) return Malformed("check-request");
  if (msg.strategy > 2) return Malformed("check-request");
  return msg;
}

Result<CheckResponseMsg> DecodeCheckResponse(const std::string& payload) {
  Cursor c(payload);
  if (c.U8() != static_cast<uint8_t>(MsgType::kCheckResponse)) {
    return Malformed("check-response");
  }
  CheckResponseMsg msg;
  msg.request_id = c.U64();
  uint8_t verdict = c.U8();
  msg.status_code = c.U8();
  msg.rows_affected = static_cast<int64_t>(c.U64());
  msg.retry_after_ms = c.U32();
  msg.message = c.Str();
  if (!c.AtEnd()) return Malformed("check-response");
  if (verdict > static_cast<uint8_t>(Verdict::kRedirectToPrimary)) {
    return Malformed("check-response");
  }
  msg.verdict = static_cast<Verdict>(verdict);
  return msg;
}

Result<uint64_t> DecodePingPong(const std::string& payload) {
  Cursor c(payload);
  uint8_t t = c.U8();
  if (t != static_cast<uint8_t>(MsgType::kPing) &&
      t != static_cast<uint8_t>(MsgType::kPong)) {
    return Malformed("ping/pong");
  }
  uint64_t id = c.U64();
  if (!c.AtEnd()) return Malformed("ping/pong");
  return id;
}

Result<MetricsMsg> DecodeMetricsResponse(const std::string& payload) {
  Cursor c(payload);
  if (c.U8() != static_cast<uint8_t>(MsgType::kMetricsResponse)) {
    return Malformed("metrics-response");
  }
  MetricsMsg msg;
  uint32_t n = c.U32();
  for (uint32_t i = 0; i < n && c.ok(); ++i) {
    WireMetric m;
    m.name = c.Str();
    m.kind = c.U8();
    m.value = c.U64();
    m.hist_count = c.U64();
    m.hist_sum = c.U64();
    m.hist_max = c.U64();
    uint32_t buckets = c.U32();
    for (uint32_t b = 0; b < buckets && c.ok(); ++b) {
      uint8_t idx = c.U8();
      uint64_t count = c.U64();
      // A bucket index past the fixed histogram shape is corruption, not a
      // future extension — SnapshotFromMetrics would index out of bounds.
      if (idx >= static_cast<uint8_t>(obs::kHistogramBuckets)) {
        return Malformed("metrics-response");
      }
      m.hist_buckets.emplace_back(idx, count);
    }
    if (m.kind > 2) return Malformed("metrics-response");
    msg.metrics.push_back(std::move(m));
  }
  if (!c.AtEnd()) return Malformed("metrics-response");
  return msg;
}

std::string EncodeReplSubscribe(const ReplSubscribeMsg& msg) {
  std::string out;
  PutU8(&out, static_cast<uint8_t>(MsgType::kReplSubscribe));
  PutU64(&out, msg.start_epoch);
  PutU64(&out, msg.max_batch_bytes);
  return out;
}

Result<ReplSubscribeMsg> DecodeReplSubscribe(const std::string& payload) {
  Cursor c(payload);
  if (c.U8() != static_cast<uint8_t>(MsgType::kReplSubscribe)) {
    return Malformed("repl-subscribe");
  }
  ReplSubscribeMsg msg;
  msg.start_epoch = c.U64();
  msg.max_batch_bytes = c.U64();
  if (!c.AtEnd()) return Malformed("repl-subscribe");
  return msg;
}

std::string EncodeReplSnapshot(const ReplSnapshotMsg& msg) {
  std::string out;
  PutU8(&out, static_cast<uint8_t>(MsgType::kReplSnapshot));
  PutU64(&out, msg.epoch);
  PutString(&out, msg.state_payload);
  return out;
}

Result<ReplSnapshotMsg> DecodeReplSnapshot(const std::string& payload) {
  Cursor c(payload);
  if (c.U8() != static_cast<uint8_t>(MsgType::kReplSnapshot)) {
    return Malformed("repl-snapshot");
  }
  ReplSnapshotMsg msg;
  msg.epoch = c.U64();
  msg.state_payload = c.Str();
  if (!c.AtEnd()) return Malformed("repl-snapshot");
  return msg;
}

std::string EncodeReplRecords(const ReplRecordsMsg& msg) {
  std::string out;
  PutU8(&out, static_cast<uint8_t>(MsgType::kReplRecords));
  PutU64(&out, msg.primary_epoch);
  PutU64(&out, msg.primary_wal_bytes);
  PutU64(&out, msg.shipped_wal_bytes);
  PutU32(&out, static_cast<uint32_t>(msg.records.size()));
  for (const std::string& r : msg.records) PutString(&out, r);
  return out;
}

Result<ReplRecordsMsg> DecodeReplRecords(const std::string& payload) {
  Cursor c(payload);
  if (c.U8() != static_cast<uint8_t>(MsgType::kReplRecords)) {
    return Malformed("repl-records");
  }
  ReplRecordsMsg msg;
  msg.primary_epoch = c.U64();
  msg.primary_wal_bytes = c.U64();
  msg.shipped_wal_bytes = c.U64();
  uint32_t n = c.U32();
  msg.records.reserve(std::min<uint32_t>(n, 1024));
  for (uint32_t i = 0; i < n && c.ok(); ++i) {
    msg.records.push_back(c.Str());
  }
  if (!c.AtEnd()) return Malformed("repl-records");
  return msg;
}

std::string EncodeReplAck(const ReplAckMsg& msg) {
  std::string out;
  PutU8(&out, static_cast<uint8_t>(MsgType::kReplAck));
  PutU64(&out, msg.applied_epoch);
  return out;
}

Result<ReplAckMsg> DecodeReplAck(const std::string& payload) {
  Cursor c(payload);
  if (c.U8() != static_cast<uint8_t>(MsgType::kReplAck)) {
    return Malformed("repl-ack");
  }
  ReplAckMsg msg;
  msg.applied_epoch = c.U64();
  if (!c.AtEnd()) return Malformed("repl-ack");
  return msg;
}

std::string FramePayload(const std::string& payload) {
  std::string out;
  out.reserve(kFrameHeaderLen + payload.size());
  PutU32(&out, static_cast<uint32_t>(payload.size()));
  PutU32(&out, relational::Crc32(payload.data(), payload.size()));
  out.append(payload);
  return out;
}

Result<std::optional<std::string>> FrameReader::Next() {
  if (magic_pending_) {
    if (buf_.size() - pos_ < kNetMagicLen) return std::optional<std::string>();
    if (::memcmp(buf_.data() + pos_, kNetMagic, kNetMagicLen) != 0) {
      return Status::ParseError("bad connection magic");
    }
    pos_ += kNetMagicLen;
    magic_pending_ = false;
  }
  if (buf_.size() - pos_ < kFrameHeaderLen) {
    Compact();
    return std::optional<std::string>();
  }
  const unsigned char* h =
      reinterpret_cast<const unsigned char*>(buf_.data() + pos_);
  uint32_t len = 0;
  uint32_t crc = 0;
  for (int i = 0; i < 4; ++i) {
    len |= static_cast<uint32_t>(h[i]) << (8 * i);
    crc |= static_cast<uint32_t>(h[4 + i]) << (8 * i);
  }
  if (len > max_frame_) {
    return Status::ParseError("frame length " + std::to_string(len) +
                              " exceeds limit " + std::to_string(max_frame_) +
                              " (corrupt length prefix?)");
  }
  if (buf_.size() - pos_ < kFrameHeaderLen + len) {
    return std::optional<std::string>();  // torn mid-frame: need more bytes
  }
  std::string payload = buf_.substr(pos_ + kFrameHeaderLen, len);
  if (relational::Crc32(payload.data(), payload.size()) != crc) {
    return Status::ParseError("frame CRC mismatch");
  }
  pos_ += kFrameHeaderLen + len;
  Compact();
  return std::optional<std::string>(std::move(payload));
}

}  // namespace ufilter::net
