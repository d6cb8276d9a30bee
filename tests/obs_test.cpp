// The observability subsystem: structured tracing (span nesting, per-thread
// buffer merge, the disabled fast path, Chrome trace-event JSON), the
// unified metrics registry, decision-provenance plumbing, and the golden
// byte-compatibility contract of the registry-driven corpus stats block.
#include <gtest/gtest.h>

#include <atomic>
#include <cctype>
#include <cstdio>
#include <map>
#include <set>
#include <thread>

#include "panorama/analysis/driver.h"
#include "panorama/obs/metrics.h"
#include "panorama/obs/provenance.h"
#include "panorama/obs/trace.h"

namespace panorama {
namespace {

using obs::MetricsRegistry;
using obs::Span;
using obs::TraceEvent;
using obs::Tracer;

// ---------------------------------------------------------------------------
// A strict JSON syntax checker (no external deps): enough of RFC 8259 to
// reject anything chrome://tracing or a JSON consumer would reject.
// ---------------------------------------------------------------------------

class JsonChecker {
 public:
  explicit JsonChecker(std::string_view text) : text_(text) {}

  bool valid() {
    skipWs();
    if (!value()) return false;
    skipWs();
    return pos_ == text_.size();
  }

 private:
  bool eof() const { return pos_ >= text_.size(); }
  char peek() const { return text_[pos_]; }
  bool eat(char c) {
    if (eof() || peek() != c) return false;
    ++pos_;
    return true;
  }
  void skipWs() {
    while (!eof() && (peek() == ' ' || peek() == '\t' || peek() == '\n' || peek() == '\r'))
      ++pos_;
  }

  bool literal(std::string_view word) {
    if (text_.substr(pos_, word.size()) != word) return false;
    pos_ += word.size();
    return true;
  }

  bool string() {
    if (!eat('"')) return false;
    while (!eof()) {
      char c = text_[pos_++];
      if (c == '"') return true;
      if (static_cast<unsigned char>(c) < 0x20) return false;  // raw control char
      if (c == '\\') {
        if (eof()) return false;
        char e = text_[pos_++];
        if (e == 'u') {
          for (int k = 0; k < 4; ++k)
            if (eof() || !std::isxdigit(static_cast<unsigned char>(text_[pos_++]))) return false;
        } else if (e != '"' && e != '\\' && e != '/' && e != 'b' && e != 'f' && e != 'n' &&
                   e != 'r' && e != 't') {
          return false;
        }
      }
    }
    return false;  // unterminated
  }

  bool number() {
    std::size_t start = pos_;
    eat('-');
    if (eof() || !std::isdigit(static_cast<unsigned char>(peek()))) return false;
    if (peek() == '0') ++pos_;
    else
      while (!eof() && std::isdigit(static_cast<unsigned char>(peek()))) ++pos_;
    if (!eof() && peek() == '.') {
      ++pos_;
      if (eof() || !std::isdigit(static_cast<unsigned char>(peek()))) return false;
      while (!eof() && std::isdigit(static_cast<unsigned char>(peek()))) ++pos_;
    }
    if (!eof() && (peek() == 'e' || peek() == 'E')) {
      ++pos_;
      if (!eof() && (peek() == '+' || peek() == '-')) ++pos_;
      if (eof() || !std::isdigit(static_cast<unsigned char>(peek()))) return false;
      while (!eof() && std::isdigit(static_cast<unsigned char>(peek()))) ++pos_;
    }
    return pos_ > start;
  }

  bool object() {
    if (!eat('{')) return false;
    skipWs();
    if (eat('}')) return true;
    while (true) {
      skipWs();
      if (!string()) return false;
      skipWs();
      if (!eat(':')) return false;
      skipWs();
      if (!value()) return false;
      skipWs();
      if (eat('}')) return true;
      if (!eat(',')) return false;
    }
  }

  bool array() {
    if (!eat('[')) return false;
    skipWs();
    if (eat(']')) return true;
    while (true) {
      skipWs();
      if (!value()) return false;
      skipWs();
      if (eat(']')) return true;
      if (!eat(',')) return false;
    }
  }

  bool value() {
    if (eof()) return false;
    switch (peek()) {
      case '{': return object();
      case '[': return array();
      case '"': return string();
      case 't': return literal("true");
      case 'f': return literal("false");
      case 'n': return literal("null");
      default: return number();
    }
  }

  std::string_view text_;
  std::size_t pos_ = 0;
};

TEST(JsonCheckerTest, AcceptsAndRejects) {
  EXPECT_TRUE(JsonChecker(R"({"a": [1, -2.5e3, "x\n\"yé"], "b": {}, "c": null})").valid());
  EXPECT_FALSE(JsonChecker(R"({"a": 1,})").valid());
  EXPECT_FALSE(JsonChecker(R"({"a" 1})").valid());
  EXPECT_FALSE(JsonChecker("{\"a\": \"\x01\"}").valid());
  EXPECT_FALSE(JsonChecker(R"([1, 2)").valid());
  EXPECT_FALSE(JsonChecker(R"({} extra)").valid());
}

// ---------------------------------------------------------------------------
// Tracing
// ---------------------------------------------------------------------------

/// Every tracing test starts and ends with a disabled, empty tracer so the
/// suite's tests cannot observe each other's events.
class TraceTest : public ::testing::Test {
 protected:
  void SetUp() override {
    Tracer::global().disable();
    Tracer::global().clear();
  }
  void TearDown() override {
    Tracer::global().disable();
    Tracer::global().clear();
  }
};

TEST_F(TraceTest, SpanRecordsCategoryNameAndArgs) {
  Tracer::global().enable();
  {
    Span span("test.unit", "hello");
    ASSERT_TRUE(span.active());
    span.arg("key", "value");
    span.arg("k2", "v2");
  }
  std::vector<TraceEvent> events = Tracer::global().snapshot();
  ASSERT_EQ(events.size(), 1u);
  EXPECT_STREQ(events[0].category, "test.unit");
  EXPECT_EQ(events[0].name, "hello");
  ASSERT_EQ(events[0].args.size(), 2u);
  EXPECT_EQ(events[0].args[0].first, "key");
  EXPECT_EQ(events[0].args[0].second, "value");
  EXPECT_GE(events[0].durNs, 0);
}

TEST_F(TraceTest, NestedSpansAreContainedInTheirParent) {
  Tracer::global().enable();
  {
    Span outer("test.unit", "outer");
    {
      Span inner("test.unit", "inner");
    }
  }
  std::vector<TraceEvent> events = Tracer::global().snapshot();
  ASSERT_EQ(events.size(), 2u);
  // snapshot orders by (tid, start): the outer span starts first.
  EXPECT_EQ(events[0].name, "outer");
  EXPECT_EQ(events[1].name, "inner");
  EXPECT_LE(events[0].startNs, events[1].startNs);
  EXPECT_GE(events[0].startNs + events[0].durNs, events[1].startNs + events[1].durNs);
}

TEST_F(TraceTest, DisabledTracingRecordsNothing) {
  ASSERT_FALSE(Tracer::global().enabled());
  {
    Span span("test.unit", "ghost");
    EXPECT_FALSE(span.active());
    span.arg("key", "value");  // must be a no-op, not a crash
  }
  EXPECT_EQ(Tracer::global().eventCount(), 0u);
  EXPECT_TRUE(Tracer::global().snapshot().empty());
}

TEST_F(TraceTest, EnableMidstreamOnlyCapturesLaterSpans) {
  { Span before("test.unit", "before"); }
  Tracer::global().enable();
  { Span after("test.unit", "after"); }
  std::vector<TraceEvent> events = Tracer::global().snapshot();
  ASSERT_EQ(events.size(), 1u);
  EXPECT_EQ(events[0].name, "after");
}

TEST_F(TraceTest, PerThreadBuffersMergeAcrossManyThreadsAndChunks) {
  Tracer::global().enable();
  constexpr std::size_t kThreads = 4;
  constexpr std::size_t kPerThread = 1031;
  std::vector<std::thread> threads;
  for (std::size_t t = 0; t < kThreads; ++t) {
    threads.emplace_back([t] {
      std::string name("t");
      name += std::to_string(t);
      for (std::size_t k = 0; k < kPerThread; ++k) Span span("test.thread", name);
    });
  }
  for (std::thread& th : threads) th.join();

  std::vector<TraceEvent> events = Tracer::global().snapshot();
  ASSERT_EQ(events.size(), kThreads * kPerThread);
  // Events are grouped by tid and time-ordered within each tid; each
  // thread's own events all carry that thread's tid.
  std::map<std::uint32_t, std::size_t> perTid;
  for (std::size_t k = 0; k < events.size(); ++k) {
    ++perTid[events[k].tid];
    if (k > 0 && events[k].tid == events[k - 1].tid) {
      EXPECT_GE(events[k].startNs, events[k - 1].startNs);
    }
  }
  ASSERT_EQ(perTid.size(), kThreads);
  for (const auto& [tid, n] : perTid) EXPECT_EQ(n, kPerThread);
}

TEST_F(TraceTest, ClearDropsEventsAndBuffersReRegister) {
  Tracer::global().enable();
  { Span span("test.unit", "first"); }
  ASSERT_EQ(Tracer::global().eventCount(), 1u);
  Tracer::global().clear();
  EXPECT_EQ(Tracer::global().eventCount(), 0u);
  // The calling thread's cached buffer belongs to the old generation; the
  // next span must re-register rather than write into a detached buffer.
  { Span span("test.unit", "second"); }
  std::vector<TraceEvent> events = Tracer::global().snapshot();
  ASSERT_EQ(events.size(), 1u);
  EXPECT_EQ(events[0].name, "second");
}

TEST_F(TraceTest, ChromeTraceJsonIsSchemaValidAndEscaped) {
  Tracer::global().enable();
  {
    Span span("test.unit", "quote\" slash\\ newline\n tab\t ctrl\x01 done");
    span.arg("arg \"key\"", "value\\with\nescapes");
  }
  std::string json = Tracer::global().chromeTraceJson();
  EXPECT_TRUE(JsonChecker(json).valid()) << json;
  EXPECT_NE(json.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\": \"X\""), std::string::npos);
  EXPECT_NE(json.find("\"cat\": \"test.unit\""), std::string::npos);
  EXPECT_NE(json.find("\\u0001"), std::string::npos);  // control char escaped
}

TEST_F(TraceTest, EmptyTraceIsStillValidJson) {
  std::string json = Tracer::global().chromeTraceJson();
  EXPECT_TRUE(JsonChecker(json).valid()) << json;
}

TEST_F(TraceTest, ClearStraddlingSpanIsClampedNotNegative) {
  Tracer::global().enable();
  {
    Span span("test.unit", "straddle");
    ASSERT_TRUE(span.active());
    // clear() re-bases the epoch underneath the open span: its raw duration
    // would be negative. The span must land in the *new* generation with a
    // clamped, non-negative duration.
    Tracer::global().clear();
  }
  std::vector<TraceEvent> events = Tracer::global().snapshot();
  ASSERT_EQ(events.size(), 1u);
  EXPECT_EQ(events[0].name, "straddle");
  EXPECT_GE(events[0].durNs, 0);
  std::string json = Tracer::global().chromeTraceJson();
  EXPECT_TRUE(JsonChecker(json).valid()) << json;
  EXPECT_EQ(json.find("\"dur\": -"), std::string::npos) << json;
}

TEST_F(TraceTest, DisableStraddlingSpanIsStillRecorded) {
  Tracer::global().enable();
  {
    Span span("test.unit", "tail");
    Tracer::global().disable();
  }
  // Only construction consults the enabled flag; an open span always lands.
  std::vector<TraceEvent> events = Tracer::global().snapshot();
  ASSERT_EQ(events.size(), 1u);
  EXPECT_EQ(events[0].name, "tail");
}

TEST_F(TraceTest, ChromeExportTimesArePerTidMonotonicWithNonNegativeDurations) {
  Tracer::global().enable();
  std::vector<std::thread> threads;
  for (int t = 0; t < 3; ++t) {
    threads.emplace_back([] {
      for (int k = 0; k < 20; ++k) {
        Span outer("test.thread", "outer");
        Span inner("test.thread", "inner");
      }
    });
  }
  for (std::thread& th : threads) th.join();

  // Exported events must satisfy what chrome://tracing assumes of complete
  // ("X") events: one per line here, non-negative dur, ts non-decreasing
  // within each tid track.
  std::string json = Tracer::global().chromeTraceJson();
  ASSERT_TRUE(JsonChecker(json).valid());
  std::map<unsigned, double> lastTs;
  std::size_t parsed = 0;
  std::size_t pos = 0;
  while ((pos = json.find("{\"ph\": \"X\"", pos)) != std::string::npos) {
    unsigned tid = 0;
    double ts = -1, dur = -1;
    ASSERT_EQ(std::sscanf(json.c_str() + pos,
                          "{\"ph\": \"X\", \"pid\": 1, \"tid\": %u, \"ts\": %lf, \"dur\": %lf",
                          &tid, &ts, &dur),
              3)
        << json.substr(pos, 80);
    EXPECT_GE(ts, 0.0);
    EXPECT_GE(dur, 0.0);
    auto [it, fresh] = lastTs.try_emplace(tid, ts);
    if (!fresh) {
      EXPECT_GE(ts, it->second) << "tid " << tid;
      it->second = ts;
    }
    ++parsed;
    ++pos;
  }
  EXPECT_EQ(parsed, 3u * 20u * 2u);
  EXPECT_EQ(lastTs.size(), 3u);
}

TEST_F(TraceTest, TracedParallelCorpusRunMatchesUntracedVerdicts) {
  // The TSan-covered stress path: a full multi-threaded corpus run with
  // tracing enabled, while a reader polls snapshots concurrently. Tracing
  // must not perturb a single verdict.
  AnalysisOptions options;
  options.numThreads = 4;
  CorpusAnalysisResult untraced = analyzeCorpusParallel(options);

  Tracer::global().enable();
  std::atomic<bool> done{false};
  std::thread reader([&] {
    std::size_t polls = 0;
    while (!done.load(std::memory_order_acquire)) {
      std::vector<TraceEvent> events = Tracer::global().snapshot();
      for (std::size_t k = 1; k < events.size(); ++k) {
        if (events[k].tid == events[k - 1].tid) {
          ASSERT_GE(events[k].startNs, events[k - 1].startNs);
        }
      }
      ++polls;
      std::this_thread::yield();
    }
    EXPECT_GT(polls, 0u);
  });
  CorpusAnalysisResult traced = analyzeCorpusParallel(options);
  done.store(true, std::memory_order_release);
  reader.join();
  Tracer::global().disable();

  EXPECT_GT(Tracer::global().eventCount(), 0u);
  ASSERT_EQ(traced.loops.size(), untraced.loops.size());
  for (std::size_t k = 0; k < traced.loops.size(); ++k) {
    EXPECT_EQ(traced.loops[k].classification, untraced.loops[k].classification)
        << traced.loops[k].kernelId;
    EXPECT_EQ(traced.loops[k].report, untraced.loops[k].report);
    EXPECT_EQ(traced.loops[k].provenance, untraced.loops[k].provenance);
  }
  // The run produced the span taxonomy the DESIGN documents.
  std::vector<TraceEvent> events = Tracer::global().snapshot();
  std::set<std::string> categories;
  for (const TraceEvent& e : events) categories.insert(e.category);
  EXPECT_TRUE(categories.count("corpus.run"));
  EXPECT_TRUE(categories.count("corpus.kernel"));
  EXPECT_TRUE(categories.count("analysis.loop"));
  EXPECT_TRUE(categories.count("summary.proc"));
}

// ---------------------------------------------------------------------------
// Metrics
// ---------------------------------------------------------------------------

TEST(MetricsTest, CounterAddAndSet) {
  obs::Counter c;
  EXPECT_EQ(c.value(), 0u);
  c.add(3);
  c.add();
  EXPECT_EQ(c.value(), 4u);
  c.set(42);
  EXPECT_EQ(c.value(), 42u);
}

TEST(MetricsTest, HistogramTracksMomentsAndLog2Buckets) {
  obs::Histogram h;
  for (std::uint64_t v : {0ull, 1ull, 2ull, 3ull, 1000ull}) h.observe(v);
  obs::Histogram::Snapshot s = h.snapshot();
  EXPECT_EQ(s.count, 5u);
  EXPECT_EQ(s.sum, 1006u);
  EXPECT_EQ(s.min, 0u);
  EXPECT_EQ(s.max, 1000u);
  EXPECT_DOUBLE_EQ(s.mean(), 1006.0 / 5.0);
  EXPECT_EQ(s.buckets[0], 1u);   // v == 0
  EXPECT_EQ(s.buckets[1], 1u);   // v == 1
  EXPECT_EQ(s.buckets[2], 2u);   // v in [2, 3]
  EXPECT_EQ(s.buckets[10], 1u);  // 1000 needs 10 bits
  h.reset();
  s = h.snapshot();
  EXPECT_EQ(s.count, 0u);
  EXPECT_EQ(s.sum, 0u);
  EXPECT_EQ(s.min, 0u);
  EXPECT_EQ(s.max, 0u);
}

TEST(MetricsTest, RegistryInternsByNameWithStableAddresses) {
  MetricsRegistry reg;
  obs::Counter& a = reg.counter("alpha");
  obs::Counter& b = reg.counter("beta");
  a.add(7);
  EXPECT_EQ(&reg.counter("alpha"), &a);
  EXPECT_NE(&a, &b);
  EXPECT_EQ(reg.counterValue("alpha"), std::optional<std::uint64_t>(7));
  EXPECT_EQ(reg.counterValue("missing"), std::nullopt);
  obs::Histogram& h = reg.histogram("hist");
  h.observe(4);
  EXPECT_EQ(&reg.histogram("hist"), &h);
  reg.reset();
  EXPECT_EQ(reg.counterValue("alpha"), std::optional<std::uint64_t>(0));
  EXPECT_EQ(h.snapshot().count, 0u);
}

TEST(MetricsTest, JsonDumpIsValidAndSorted) {
  MetricsRegistry reg;
  reg.counter("z.last").set(2);
  reg.counter("a.first").set(1);
  reg.histogram("latency").observe(5);
  std::string json = reg.toJson();
  EXPECT_TRUE(JsonChecker(json).valid()) << json;
  EXPECT_LT(json.find("a.first"), json.find("z.last"));
  EXPECT_NE(json.find("\"latency\""), std::string::npos);
  MetricsRegistry empty;
  EXPECT_TRUE(JsonChecker(empty.toJson()).valid());
}

TEST(MetricsTest, ConcurrentCountersSumExactly) {
  MetricsRegistry reg;
  constexpr std::size_t kThreads = 8, kIters = 10000;
  std::vector<std::thread> threads;
  for (std::size_t t = 0; t < kThreads; ++t)
    threads.emplace_back([&reg] {
      for (std::size_t k = 0; k < kIters; ++k) reg.counter("shared").add();
    });
  for (std::thread& th : threads) th.join();
  EXPECT_EQ(reg.counterValue("shared"), std::optional<std::uint64_t>(kThreads * kIters));
}

TEST(MetricsTest, RenderCacheCountersMatchesHistoricalFormats) {
  // rateDecimals=1 is the query-cache line; rateDecimals=0 is the simplify
  // memo's truncated integer percent. Both formats are frozen.
  EXPECT_EQ(obs::renderCacheCounters("query cache", 997, 3, 3, 1, 1),
            "query cache: 997 hits / 3 misses (99.7% hit rate), 3 entries, 1 evictions");
  EXPECT_EQ(obs::renderCacheCounters("simplify memo", 665, 335, 335, 0, 0),
            "simplify memo: 665 hits / 335 misses (66% hit rate), 335 entries, 0 evictions");
  EXPECT_EQ(obs::renderCacheCounters("query cache", 0, 0, 0, 0, 1),
            "query cache: 0 hits / 0 misses (0.0% hit rate), 0 entries, 0 evictions");
}

TEST(MetricsTest, RenderSummaryCostMatchesHistoricalFormat) {
  EXPECT_EQ(obs::renderSummaryCost(87, 47, 28, 9, 1502),
            "summary cost: 87 block steps, 47 loop expansions, 28 call mappings, "
            "peak list length 9, 1502 GARs created");
}

// ---------------------------------------------------------------------------
// Provenance
// ---------------------------------------------------------------------------

TEST(ProvenanceTest, ScopeLabelsNestAndRestore) {
  EXPECT_EQ(obs::ProvenanceScope::currentLabel(), "");
  {
    obs::ProvenanceScope outer("outer-test");
    EXPECT_EQ(obs::ProvenanceScope::currentLabel(), "outer-test");
    {
      obs::ProvenanceScope inner("inner-test");
      EXPECT_EQ(obs::ProvenanceScope::currentLabel(), "inner-test");
    }
    EXPECT_EQ(obs::ProvenanceScope::currentLabel(), "outer-test");
    // The label is the calling thread's own.
    std::string elsewhere = "unset";
    std::thread([&] { elsewhere = obs::ProvenanceScope::currentLabel(); }).join();
    EXPECT_EQ(elsewhere, "");
  }
  EXPECT_EQ(obs::ProvenanceScope::currentLabel(), "");
}

TEST(ProvenanceTest, TrailFiltersByKind) {
  obs::DecisionTrail trail;
  trail.add(obs::EvidenceKind::Candidacy, "a", Truth::True);
  trail.add(obs::EvidenceKind::FlowTest, "a", Truth::Unknown, "detail");
  trail.add(obs::EvidenceKind::Candidacy, "b", Truth::False);
  EXPECT_FALSE(trail.empty());
  EXPECT_EQ(trail.ofKind(obs::EvidenceKind::Candidacy).size(), 2u);
  ASSERT_EQ(trail.ofKind(obs::EvidenceKind::FlowTest).size(), 1u);
  EXPECT_EQ(trail.ofKind(obs::EvidenceKind::FlowTest)[0]->detail, "detail");
  EXPECT_TRUE(trail.ofKind(obs::EvidenceKind::Classification).empty());
}

TEST(ProvenanceTest, EvidenceIsIdenticalAcrossThreadCountsAndCaching) {
  // The determinism contract of provenance: the same rendered trails
  // regardless of thread count or cache configuration.
  struct CacheGuard {
    ~CacheGuard() { QueryCache::global().configure(QueryCache::kDefaultCapacity); }
  } guard;
  AnalysisOptions serial;
  serial.numThreads = 1;
  AnalysisOptions parallel4;
  parallel4.numThreads = 4;
  CorpusAnalysisResult base = analyzeCorpusParallel(serial);
  for (std::size_t capacity : {QueryCache::kDefaultCapacity, std::size_t{0}}) {
    QueryCache::global().configure(capacity);
    CorpusAnalysisResult other = analyzeCorpusParallel(parallel4);
    ASSERT_EQ(other.loops.size(), base.loops.size());
    for (std::size_t k = 0; k < base.loops.size(); ++k) {
      EXPECT_EQ(other.loops[k].provenance, base.loops[k].provenance) << base.loops[k].kernelId;
      EXPECT_EQ(other.loops[k].provenanceSummary, base.loops[k].provenanceSummary)
          << base.loops[k].kernelId;
    }
  }
}

// ---------------------------------------------------------------------------
// The corpus stats block: registry-driven, byte-compatible with the
// historical hand-formatted rendering (the golden contract of this PR).
// ---------------------------------------------------------------------------

CorpusAnalysisResult fabricatedResult() {
  CorpusAnalysisResult result;
  CorpusRoutineResult a, b, c;
  a.classification = LoopClass::Parallel;
  b.classification = LoopClass::ParallelAfterPrivatization;
  c.classification = LoopClass::Serial;
  b.provenanceEvidenceCount = 5;
  result.loops = {a, b, c};
  result.threadsUsed = 4;
  result.summaryStats.blockSteps = 87;
  result.summaryStats.loopExpansions = 47;
  result.summaryStats.callMappings = 28;
  result.summaryStats.peakListLength = 9;
  result.summaryStats.garsCreated = 1502;
  result.cacheStats.hits = 997;
  result.cacheStats.misses = 3;
  result.cacheStats.entries = 3;
  result.cacheStats.evictions = 1;
  result.simplifyStats.hits = 665;  // 66.5%: exposes rounded-vs-truncated
  result.simplifyStats.misses = 335;
  result.simplifyStats.entries = 335;
  result.simplifyStats.evictions = 0;
  return result;
}

TEST(CorpusStatsTest, GoldenByteCompatibleRendering) {
  const std::string expected =
      "corpus: 3 loops analyzed on 4 threads — 1 parallel, "
      "1 parallel after privatization, 1 serial\n"
      "summary cost: 87 block steps, 47 loop expansions, 28 call mappings, "
      "peak list length 9, 1502 GARs created\n"
      "query cache: 997 hits / 3 misses (99.7% hit rate), 3 entries, 1 evictions\n"
      "simplify memo: 665 hits / 335 misses (66% hit rate), 335 entries, 0 evictions\n";
  EXPECT_EQ(formatCorpusStats(fabricatedResult()), expected);
}

TEST(CorpusStatsTest, SingularThreadSpelling) {
  CorpusAnalysisResult result = fabricatedResult();
  result.threadsUsed = 1;
  std::string text = formatCorpusStats(result);
  EXPECT_NE(text.find("on 1 thread —"), std::string::npos) << text;
  EXPECT_EQ(text.find("1 threads"), std::string::npos) << text;
}

TEST(CorpusStatsTest, PublishingFillsTheGlobalRegistryForMetricsDumps) {
  std::string ignored = formatCorpusStats(fabricatedResult());
  MetricsRegistry& reg = MetricsRegistry::global();
  EXPECT_EQ(reg.counterValue("corpus.loops"), std::optional<std::uint64_t>(3));
  EXPECT_EQ(reg.counterValue("corpus.parallel_after_privatization"),
            std::optional<std::uint64_t>(1));
  EXPECT_EQ(reg.counterValue("provenance.evidence"), std::optional<std::uint64_t>(5));
  EXPECT_EQ(reg.counterValue("query_cache.hits"), std::optional<std::uint64_t>(997));
  EXPECT_EQ(reg.counterValue("simplify_memo.misses"), std::optional<std::uint64_t>(335));
  EXPECT_TRUE(JsonChecker(reg.toJson()).valid());
}

}  // namespace
}  // namespace panorama
