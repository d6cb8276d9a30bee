// The telemetry plane's building blocks (obs/telemetry.h, obs/metrics.h):
//   * EventLog append/tail cursor protocol — ordering, incremental reads,
//     explicit dropped counts when the ring laps a slow reader;
//   * every rendered record is valid JSON (the JSONL sink writes them
//     verbatim);
//   * concurrent appenders against a live tailer, and concurrent
//     observers against histogram snapshots (the TSan targets);
//   * histogramQuantile interpolation and its clamping contract;
//   * the MetricsRegistry JSON schema, golden-tested with the p50/p95/p99
//     fields the daemon's metrics op serves.
#include <gtest/gtest.h>

#include <atomic>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "panorama/obs/metrics.h"
#include "panorama/obs/telemetry.h"
#include "panorama/support/json.h"

namespace panorama::obs {
namespace {

double fieldNumber(const support::JsonValue& v, std::string_view key) {
  const support::JsonValue* f = v.find(key);
  EXPECT_TRUE(f && f->isNumber()) << "missing number field " << key;
  return f && f->isNumber() ? f->asNumber() : -1;
}

support::JsonValue parseEvent(const std::string& text) {
  std::string error;
  std::optional<support::JsonValue> v = support::JsonValue::parse(text, &error);
  EXPECT_TRUE(v.has_value()) << text << ": " << error;
  return v ? *v : support::JsonValue::makeNull();
}

TEST(EventFieldsTest, RendersTypedSuffixes) {
  EXPECT_EQ(EventFields().num("a", std::uint64_t{7}).take(), ",\"a\":7");
  EXPECT_EQ(EventFields().num("a", std::int64_t{-7}).take(), ",\"a\":-7");
  EXPECT_EQ(EventFields().real("r", 1.5).take(), ",\"r\":1.500");
  EXPECT_EQ(EventFields().str("s", "x\"y\\z").take(), ",\"s\":\"x\\\"y\\\\z\"");
  EXPECT_EQ(EventFields().num("a", std::uint64_t{1}).str("b", "c").take(),
            ",\"a\":1,\"b\":\"c\"");
}

TEST(EventLogTest, AppendAndTailInOrder) {
  EventLog log(16);
  EXPECT_EQ(log.appended(), 0u);
  EventLog::Tail empty = log.tail(0, 10);
  EXPECT_TRUE(empty.events.empty());
  EXPECT_EQ(empty.nextCursor, 0u);
  EXPECT_EQ(empty.dropped, 0u);

  EXPECT_EQ(log.append(EventKind::ConnOpen, EventFields().num("client", std::uint64_t{1}).take()),
            0u);
  EXPECT_EQ(log.append(EventKind::SubmitBegin), 1u);
  EXPECT_EQ(log.append(EventKind::ConnClose), 2u);
  EXPECT_EQ(log.appended(), 3u);

  EventLog::Tail t = log.tail(0, 10);
  ASSERT_EQ(t.events.size(), 3u);
  EXPECT_EQ(t.nextCursor, 3u);
  EXPECT_EQ(t.dropped, 0u);
  for (std::size_t k = 0; k < t.events.size(); ++k) {
    support::JsonValue ev = parseEvent(t.events[k]);
    EXPECT_EQ(fieldNumber(ev, "seq"), static_cast<double>(k));
    EXPECT_GE(fieldNumber(ev, "ts_ms"), 0.0);
    const support::JsonValue* kind = ev.find("kind");
    ASSERT_TRUE(kind && kind->isString());
  }
  support::JsonValue first = parseEvent(t.events[0]);
  EXPECT_EQ(first.find("kind")->asString(), "conn_open");
  EXPECT_EQ(fieldNumber(first, "client"), 1.0);
}

TEST(EventLogTest, CursorResumesIncrementalReads) {
  EventLog log(16);
  for (int k = 0; k < 5; ++k) log.append(EventKind::Error);

  EventLog::Tail a = log.tail(0, 2);
  ASSERT_EQ(a.events.size(), 2u);
  EXPECT_EQ(a.nextCursor, 2u);
  EventLog::Tail b = log.tail(a.nextCursor, 2);
  ASSERT_EQ(b.events.size(), 2u);
  EXPECT_EQ(b.nextCursor, 4u);
  EventLog::Tail c = log.tail(b.nextCursor, 10);
  ASSERT_EQ(c.events.size(), 1u);
  EXPECT_EQ(c.nextCursor, 5u);
  EXPECT_EQ(parseEvent(c.events[0]).find("seq")->asNumber(), 4.0);
  // Fully drained: the cursor parks at the head.
  EXPECT_TRUE(log.tail(c.nextCursor, 10).events.empty());
}

TEST(EventLogTest, LappedReaderSeesExplicitDrops) {
  EventLog log(4);
  EXPECT_EQ(log.capacity(), 4u);
  for (int k = 0; k < 10; ++k) log.append(EventKind::Snapshot);

  EventLog::Tail t = log.tail(0, 100);
  EXPECT_EQ(t.dropped, 6u);
  ASSERT_EQ(t.events.size(), 4u);
  EXPECT_EQ(parseEvent(t.events.front()).find("seq")->asNumber(), 6.0);
  EXPECT_EQ(parseEvent(t.events.back()).find("seq")->asNumber(), 9.0);
  EXPECT_EQ(t.nextCursor, 10u);
}

TEST(EventLogTest, MaxEventsBoundsOneTail) {
  EventLog log(64);
  for (int k = 0; k < 20; ++k) log.append(EventKind::Error);
  EventLog::Tail t = log.tail(0, 7);
  EXPECT_EQ(t.events.size(), 7u);
  EXPECT_EQ(t.nextCursor, 7u);
  EXPECT_EQ(t.dropped, 0u);
}

TEST(EventLogTest, ConcurrentAppendersNeverTearATail) {
  EventLog log(256);
  constexpr int kThreads = 4;
  constexpr int kPerThread = 2000;
  std::vector<std::thread> writers;
  for (int w = 0; w < kThreads; ++w)
    writers.emplace_back([&log, w] {
      for (int k = 0; k < kPerThread; ++k)
        log.append(EventKind::SubmitEnd,
                   EventFields().num("writer", static_cast<std::uint64_t>(w)).take());
    });

  // A live tailer racing the appends: every record it returns must be valid
  // JSON with strictly increasing seq, and dropped+seen must never exceed
  // what was appended.
  std::uint64_t cursor = 0;
  std::uint64_t seen = 0;
  std::uint64_t dropped = 0;
  while (seen + dropped < static_cast<std::uint64_t>(kThreads) * kPerThread) {
    EventLog::Tail t = log.tail(cursor, 64);
    double prevSeq = -1;
    for (const std::string& e : t.events) {
      const double seq = fieldNumber(parseEvent(e), "seq");
      EXPECT_GT(seq, prevSeq);
      prevSeq = seq;
    }
    seen += t.events.size();
    dropped += t.dropped;
    cursor = t.nextCursor;
  }
  for (std::thread& t : writers) t.join();
  EXPECT_EQ(log.appended(), static_cast<std::uint64_t>(kThreads) * kPerThread);
  EXPECT_EQ(seen + dropped, log.appended());
}

TEST(HistogramTest, SnapshotsStayConsistentUnderConcurrentObserves) {
  Histogram h;
  std::atomic<bool> done{false};
  std::vector<std::thread> observers;
  for (std::uint64_t w = 0; w < 3; ++w)
    observers.emplace_back([&h, &done, w] {
      for (std::uint64_t k = 0; !done.load(std::memory_order_relaxed); ++k)
        h.observe((k * 7 + w) & 0xfff);
    });
  while (h.snapshot().count == 0) std::this_thread::yield();

  // Every snapshot is one moment of the histogram: its buckets add up to
  // its count, and its min does not exceed its max.
  int torn = 0;
  for (int k = 0; k < 20000; ++k) {
    const Histogram::Snapshot s = h.snapshot();
    std::uint64_t inBuckets = 0;
    for (std::uint64_t b : s.buckets) inBuckets += b;
    if (inBuckets != s.count || s.min > s.max) ++torn;
  }
  done.store(true, std::memory_order_relaxed);
  for (std::thread& t : observers) t.join();
  EXPECT_EQ(torn, 0);
}

TEST(HistogramQuantileTest, EmptyAndDegenerate) {
  Histogram h;
  EXPECT_EQ(histogramQuantile(h.snapshot(), 0.5), 0.0);
  h.observe(100);
  // One sample: every quantile is that sample (the [min,max] clamp).
  Histogram::Snapshot s = h.snapshot();
  EXPECT_EQ(histogramQuantile(s, 0.0), 100.0);
  EXPECT_EQ(histogramQuantile(s, 0.5), 100.0);
  EXPECT_EQ(histogramQuantile(s, 0.99), 100.0);
  EXPECT_EQ(histogramQuantile(s, 1.0), 100.0);
}

TEST(HistogramQuantileTest, InterpolatesWithinBucketBounds) {
  Histogram h;
  for (std::uint64_t v = 1; v <= 1000; ++v) h.observe(v);
  Histogram::Snapshot s = h.snapshot();
  const double p50 = histogramQuantile(s, 0.50);
  const double p95 = histogramQuantile(s, 0.95);
  const double p99 = histogramQuantile(s, 0.99);
  // The error bound is one log2 bucket: the true p50 (500) lives in
  // [256, 511], the true p95 (950) and p99 (990) in [512, 1000].
  EXPECT_GE(p50, 256.0);
  EXPECT_LE(p50, 511.0);
  EXPECT_GE(p95, 512.0);
  EXPECT_LE(p95, 1000.0);
  EXPECT_GE(p99, p95);
  EXPECT_LE(p99, 1000.0);
  EXPECT_LE(p50, p95);
}

TEST(HistogramQuantileTest, ClampsToObservedRange) {
  Histogram h;
  h.observe(5);
  h.observe(6);
  h.observe(7);
  // All three samples share bucket 3 ([4,7]); interpolation stays inside
  // the observed [5,7], not the bucket's [4,7].
  Histogram::Snapshot s = h.snapshot();
  EXPECT_GE(histogramQuantile(s, 0.01), 5.0);
  EXPECT_LE(histogramQuantile(s, 0.99), 7.0);
}

TEST(MetricsRegistryTest, JsonSchemaGoldenWithQuantiles) {
  MetricsRegistry registry;
  registry.counter("c").add(2);
  Histogram& h = registry.histogram("h");
  h.observe(1);
  h.observe(1);
  h.observe(1);
  EXPECT_EQ(registry.toJson(),
            "{\n"
            "  \"counters\": {\n"
            "    \"c\": 2\n"
            "  },\n"
            "  \"histograms\": {\n"
            "    \"h\": {\"count\": 3, \"sum\": 3, \"min\": 1, \"max\": 1, \"mean\": 1.00, "
            "\"p50\": 1.00, \"p95\": 1.00, \"p99\": 1.00, \"buckets\": [0, 3]}\n"
            "  }\n"
            "}\n");
}

TEST(MetricsRegistryTest, JsonQuantilesParseAndOrder) {
  MetricsRegistry registry;
  Histogram& h = registry.histogram("daemon.op.submit.wall_us");
  for (std::uint64_t v = 1; v <= 100; ++v) h.observe(v * 10);
  std::string error;
  std::optional<support::JsonValue> doc = support::JsonValue::parse(registry.toJson(), &error);
  ASSERT_TRUE(doc.has_value()) << error;
  const support::JsonValue* histograms = doc->find("histograms");
  ASSERT_TRUE(histograms && histograms->isObject());
  const support::JsonValue* entry = histograms->find("daemon.op.submit.wall_us");
  ASSERT_TRUE(entry && entry->isObject());
  const double p50 = fieldNumber(*entry, "p50");
  const double p95 = fieldNumber(*entry, "p95");
  const double p99 = fieldNumber(*entry, "p99");
  const double mx = fieldNumber(*entry, "max");
  EXPECT_LE(p50, p95);
  EXPECT_LE(p95, p99);
  EXPECT_LE(p99, mx);
  EXPECT_EQ(mx, 1000.0);
  EXPECT_GE(fieldNumber(*entry, "min"), 10.0);
}

}  // namespace
}  // namespace panorama::obs
