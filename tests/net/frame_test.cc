// Wire codec strictness and frame parsing: these bytes arrive off a
// socket from arbitrary peers, so every decoder must treat truncation,
// trailing garbage, type confusion and bit flips as ParseError (or "need
// more bytes"), never as UB and never as a silently different message.
#include "net/frame.h"

#include <gtest/gtest.h>

#include <string>

namespace ufilter::net {
namespace {

CheckRequestMsg SampleRequest() {
  CheckRequestMsg req;
  req.request_id = 0x1122334455667788ull;
  req.deadline_ms = 250;
  req.apply = true;
  req.strategy = 1;
  req.update_text = "FOR $b IN document(\"default\")/book DELETE $b";
  return req;
}

CheckResponseMsg SampleResponse() {
  CheckResponseMsg resp;
  resp.request_id = 42;
  resp.verdict = Verdict::kDataConflict;
  resp.status_code = 7;
  resp.message = "side effect on another view row";
  resp.rows_affected = -3;
  resp.retry_after_ms = 0;
  return resp;
}

TEST(FrameCodecTest, CheckRequestRoundTrip) {
  CheckRequestMsg req = SampleRequest();
  auto got = DecodeCheckRequest(EncodeCheckRequest(req));
  ASSERT_TRUE(got.ok()) << got.status().ToString();
  EXPECT_EQ(got->request_id, req.request_id);
  EXPECT_EQ(got->deadline_ms, req.deadline_ms);
  EXPECT_EQ(got->apply, req.apply);
  EXPECT_EQ(got->strategy, req.strategy);
  EXPECT_EQ(got->update_text, req.update_text);
}

TEST(FrameCodecTest, CheckResponseRoundTrip) {
  CheckResponseMsg resp = SampleResponse();
  auto got = DecodeCheckResponse(EncodeCheckResponse(resp));
  ASSERT_TRUE(got.ok()) << got.status().ToString();
  EXPECT_EQ(got->request_id, resp.request_id);
  EXPECT_EQ(got->verdict, resp.verdict);
  EXPECT_EQ(got->status_code, resp.status_code);
  EXPECT_EQ(got->message, resp.message);
  EXPECT_EQ(got->rows_affected, resp.rows_affected);
  EXPECT_EQ(got->retry_after_ms, resp.retry_after_ms);
}

TEST(FrameCodecTest, PingPongRoundTrip) {
  auto ping = DecodePingPong(EncodePing(99));
  ASSERT_TRUE(ping.ok());
  EXPECT_EQ(*ping, 99u);
  auto pong = DecodePingPong(EncodePong(100));
  ASSERT_TRUE(pong.ok());
  EXPECT_EQ(*pong, 100u);
}

obs::RegistrySnapshot SampleRegistry() {
  obs::RegistrySnapshot snap;
  obs::MetricSample counter;
  counter.name = "service_completed";
  counter.kind = obs::MetricKind::kCounter;
  counter.value = 12345;
  snap.push_back(counter);
  obs::MetricSample gauge;
  gauge.name = "db_commit_epoch";
  gauge.kind = obs::MetricKind::kGauge;
  gauge.value = 9;
  snap.push_back(gauge);
  obs::MetricSample hist;
  hist.name = "check_latency_ns";
  hist.kind = obs::MetricKind::kHistogram;
  hist.hist.buckets[0] = 3;
  hist.hist.buckets[17] = 5;
  hist.hist.buckets[obs::kHistogramBuckets - 1] = 1;
  hist.hist.count = 9;
  hist.hist.sum = 777777;
  hist.hist.max = 650000;
  snap.push_back(hist);
  return snap;
}

TEST(FrameCodecTest, MetricsRoundTripIsLossless) {
  MetricsMsg msg = MetricsFromSnapshot(SampleRegistry());
  // Sparse histogram transport: only the three populated buckets travel.
  const WireMetric* h = msg.Find("check_latency_ns");
  ASSERT_NE(h, nullptr);
  EXPECT_EQ(h->hist_buckets.size(), 3u);

  auto got = DecodeMetricsResponse(EncodeMetricsResponse(msg));
  ASSERT_TRUE(got.ok()) << got.status().ToString();
  obs::RegistrySnapshot back = SnapshotFromMetrics(*got);
  obs::RegistrySnapshot orig = SampleRegistry();
  ASSERT_EQ(back.size(), orig.size());
  for (size_t i = 0; i < orig.size(); ++i) {
    const obs::MetricSample* b = obs::FindSample(back, orig[i].name);
    ASSERT_NE(b, nullptr) << orig[i].name;
    EXPECT_EQ(b->kind, orig[i].kind);
    EXPECT_EQ(b->value, orig[i].value);
    EXPECT_EQ(b->hist.buckets, orig[i].hist.buckets);
    EXPECT_EQ(b->hist.count, orig[i].hist.count);
    EXPECT_EQ(b->hist.sum, orig[i].hist.sum);
    EXPECT_EQ(b->hist.max, orig[i].hist.max);
  }
  // Percentiles survive the wire: remote rendering equals in-process.
  const obs::MetricSample* lat = obs::FindSample(back, "check_latency_ns");
  EXPECT_EQ(lat->hist.Percentile(99),
            obs::FindSample(orig, "check_latency_ns")->hist.Percentile(99));
  EXPECT_EQ(got->Find("missing"), nullptr);
}

TEST(FrameCodecTest, MetricsDecoderRejectsHostileInput) {
  MetricsMsg msg = MetricsFromSnapshot(SampleRegistry());
  std::string p = EncodeMetricsResponse(msg);
  // Bucket index past the histogram width: find the first bucket-index
  // byte of the histogram metric and poke it out of range.
  for (size_t i = 0; i + 1 < p.size(); ++i) {
    std::string damaged = p;
    damaged[i] = '\x7f';  // 127 >= kHistogramBuckets anywhere it lands
    auto got = DecodeMetricsResponse(damaged);
    if (got.ok()) {
      // The flip must at least not have produced an out-of-range bucket.
      for (const WireMetric& m : got->metrics) {
        for (const auto& [idx, count] : m.hist_buckets) {
          EXPECT_LT(idx, obs::kHistogramBuckets);
          (void)count;
        }
      }
    }
  }
  // A kind byte past kHistogram is a ParseError, not a mystery metric.
  WireMetric bad;
  bad.name = "x";
  bad.kind = 3;
  MetricsMsg bad_msg;
  bad_msg.metrics.push_back(bad);
  EXPECT_FALSE(DecodeMetricsResponse(EncodeMetricsResponse(bad_msg)).ok());
}

TEST(FrameCodecTest, PeekTypeIdentifiesMessages) {
  auto t = PeekType(EncodeCheckRequest(SampleRequest()));
  ASSERT_TRUE(t.ok());
  EXPECT_EQ(*t, MsgType::kCheckRequest);
  auto mreq = PeekType(EncodeMetricsRequest());
  ASSERT_TRUE(mreq.ok());
  EXPECT_EQ(*mreq, MsgType::kMetricsRequest);
  auto mresp = PeekType(EncodeMetricsResponse(MetricsMsg{}));
  ASSERT_TRUE(mresp.ok());
  EXPECT_EQ(*mresp, MsgType::kMetricsResponse);
  EXPECT_FALSE(PeekType("").ok());
  EXPECT_FALSE(PeekType(std::string(1, '\x63')).ok());  // unknown type
  // 5 and 6 were the retired stats request/response: wire damage now.
  for (char retired : {'\x05', '\x06'}) {
    auto got = PeekType(std::string(1, retired) + std::string(8, '\0'));
    ASSERT_FALSE(got.ok()) << static_cast<int>(retired);
    EXPECT_TRUE(got.status().IsParseError()) << got.status().ToString();
  }
}

TEST(FrameCodecTest, EveryTruncationIsParseError) {
  const std::string payloads[] = {
      EncodeCheckRequest(SampleRequest()),
      EncodeCheckResponse(SampleResponse()),
      EncodePing(7),
      EncodeMetricsResponse(MetricsFromSnapshot(SampleRegistry())),
  };
  for (const std::string& p : payloads) {
    for (size_t cut = 0; cut < p.size(); ++cut) {
      std::string prefix = p.substr(0, cut);
      EXPECT_FALSE(DecodeCheckRequest(prefix).ok());
      EXPECT_FALSE(DecodeCheckResponse(prefix).ok());
      EXPECT_FALSE(DecodePingPong(prefix).ok());
      EXPECT_FALSE(DecodeMetricsResponse(prefix).ok());
    }
  }
}

TEST(FrameCodecTest, TrailingGarbageIsParseError) {
  std::string p = EncodeCheckRequest(SampleRequest()) + "x";
  auto got = DecodeCheckRequest(p);
  ASSERT_FALSE(got.ok());
  EXPECT_TRUE(got.status().IsParseError()) << got.status().ToString();
}

TEST(FrameCodecTest, TypeConfusionIsParseError) {
  // A well-formed request fed to the response decoder (and vice versa)
  // must fail on the type byte, not misparse the remaining fields.
  EXPECT_FALSE(DecodeCheckResponse(EncodeCheckRequest(SampleRequest())).ok());
  EXPECT_FALSE(DecodeCheckRequest(EncodeCheckResponse(SampleResponse())).ok());
  EXPECT_FALSE(DecodePingPong(EncodeMetricsRequest()).ok());
  EXPECT_FALSE(DecodeMetricsResponse(EncodePong(1)).ok());
}

TEST(FrameCodecTest, OutOfRangeEnumsAreParseError) {
  CheckRequestMsg req = SampleRequest();
  req.strategy = 3;  // past kOutside
  EXPECT_FALSE(DecodeCheckRequest(EncodeCheckRequest(req)).ok());

  // Patch the verdict byte past kError: offset = type(1) + id(8).
  std::string p = EncodeCheckResponse(SampleResponse());
  p[1 + 8] = '\x2a';
  EXPECT_FALSE(DecodeCheckResponse(p).ok());
}

TEST(FrameReaderTest, ByteAtATimeReassemblesMultipleFrames) {
  std::string stream;
  stream.append(kNetMagic, kNetMagicLen);
  const std::string payload_a = EncodeCheckRequest(SampleRequest());
  const std::string payload_b = EncodePing(5);
  stream += FramePayload(payload_a);
  stream += FramePayload(payload_b);

  FrameReader reader(/*expect_magic=*/true);
  std::vector<std::string> got;
  for (char c : stream) {
    reader.Feed(&c, 1);
    while (true) {
      auto next = reader.Next();
      ASSERT_TRUE(next.ok()) << next.status().ToString();
      if (!next->has_value()) break;
      got.push_back(**next);
    }
  }
  ASSERT_EQ(got.size(), 2u);
  EXPECT_EQ(got[0], payload_a);
  EXPECT_EQ(got[1], payload_b);
  EXPECT_EQ(reader.buffered(), 0u);
}

TEST(FrameReaderTest, TornFrameIsJustIncomplete) {
  // A frame cut mid-length-prefix (exactly what the chaos proxy does) is
  // "need more bytes", not an error — the error is the hangup that
  // follows, surfaced by the socket layer.
  std::string frame = FramePayload(EncodePing(1));
  for (size_t cut = 0; cut < frame.size(); ++cut) {
    FrameReader reader;
    reader.Feed(frame.data(), cut);
    auto next = reader.Next();
    ASSERT_TRUE(next.ok()) << "cut=" << cut;
    EXPECT_FALSE(next->has_value()) << "cut=" << cut;
  }
}

TEST(FrameReaderTest, BadMagicIsParseError) {
  FrameReader reader(/*expect_magic=*/true);
  std::string junk = "GET / HT";  // a confused HTTP client
  reader.Feed(junk.data(), junk.size());
  auto next = reader.Next();
  EXPECT_FALSE(next.ok());
  EXPECT_TRUE(next.status().IsParseError());
}

TEST(FrameReaderTest, EverysingleBitFlipIsDetected) {
  // CRC32 catches all single-bit errors; a flipped length prefix either
  // fails the CRC, waits for bytes that never come, or is rejected as
  // absurd. No flip may ever yield a successfully parsed *different*
  // payload.
  const std::string payload = EncodeCheckRequest(SampleRequest());
  const std::string frame = FramePayload(payload);
  for (size_t byte = 0; byte < frame.size(); ++byte) {
    for (int bit = 0; bit < 8; ++bit) {
      std::string damaged = frame;
      damaged[byte] = static_cast<char>(damaged[byte] ^ (1 << bit));
      FrameReader reader;
      reader.Feed(damaged.data(), damaged.size());
      auto next = reader.Next();
      if (!next.ok()) continue;                // detected: CRC / length
      if (!next->has_value()) continue;        // waiting for more bytes
      FAIL() << "bit flip at byte " << byte << " bit " << bit
             << " produced a successfully parsed frame";
    }
  }
}

TEST(FrameReaderTest, OversizedLengthIsRejectedImmediately) {
  FrameReader reader(/*expect_magic=*/false, /*max_frame_bytes=*/1024);
  std::string header;
  uint32_t len = 1u << 30;
  for (int i = 0; i < 4; ++i) header.push_back(char((len >> (8 * i)) & 0xFF));
  header.append(4, '\0');  // CRC placeholder; never read
  reader.Feed(header.data(), header.size());
  auto next = reader.Next();
  ASSERT_FALSE(next.ok());
  EXPECT_TRUE(next.status().IsParseError());
}

TEST(VerdictTest, RetrySafetyClassification) {
  EXPECT_TRUE(VerdictIsRetrySafe(Verdict::kShed));
  EXPECT_TRUE(VerdictIsRetrySafe(Verdict::kDraining));
  EXPECT_TRUE(VerdictIsRetrySafe(Verdict::kDeadlineExceeded));
  EXPECT_FALSE(VerdictIsRetrySafe(Verdict::kExecuted));
  EXPECT_FALSE(VerdictIsRetrySafe(Verdict::kError));
  EXPECT_STREQ(VerdictName(Verdict::kShed), "shed");
}

}  // namespace
}  // namespace ufilter::net
