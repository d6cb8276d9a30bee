// The cost-attribution profiler: phase-tree construction from synthetic
// span forests (the selfNs invariant, outermost-only loop/query
// attribution, top-K ordering), JSON schema validity via the support JSON
// parser, and the real-pipeline contracts — per-phase totals summing to the
// corpus wall time at one thread, and thread-shape-independent aggregate
// counts across {1, 4, 8} analysis threads with the query cache off.
#include <gtest/gtest.h>

#include <map>

#include "panorama/analysis/driver.h"
#include "panorama/obs/profile.h"
#include "panorama/obs/trace.h"
#include "panorama/support/json.h"

namespace panorama {
namespace {

using obs::buildCostProfile;
using obs::CostProfile;
using obs::PhaseNode;
using obs::TraceEvent;
using support::JsonValue;

TraceEvent ev(const char* category, std::string name, std::int64_t startNs, std::int64_t durNs,
              std::uint32_t tid = 0,
              std::vector<std::pair<std::string, std::string>> args = {}) {
  TraceEvent e;
  e.category = category;
  e.name = std::move(name);
  e.startNs = startNs;
  e.durNs = durNs;
  e.tid = tid;
  e.args = std::move(args);
  return e;
}

/// The synthetic forest every structural test uses:
///
///   corpus.run [0, 1000)
///     summary.proc "foo" [10, 210)
///       query.fm [20, 70)                       outermost query under foo
///     analysis.loop "foo DO i" [300, 700)
///       deptest.loop "foo DO i" [310, 360)      nested loop span
///       query.implies [400, 500)                outermost query under loop
///         query.fm [410, 450)                   nested query: no attribution
std::vector<TraceEvent> syntheticForest() {
  return {
      ev("corpus.run", "perfect corpus", 0, 1000),
      ev("summary.proc", "foo", 10, 200),
      ev("query.fm", "ConstraintSet::contradictory", 20, 50, 0,
         {{"expr", "i - n <= 0"}, {"ctx", "guard p"}, {"verdict", "True"}}),
      ev("analysis.loop", "foo DO i", 300, 400),
      ev("deptest.loop", "foo DO i", 310, 50),
      ev("query.implies", "Pred::implies", 400, 100, 0,
         {{"expr", "P#1 => P#2"}, {"verdict", "Unknown"}}),
      ev("query.fm", "ConstraintSet::contradictory", 410, 40, 0, {{"verdict", "False"}}),
  };
}

const PhaseNode* findChild(const std::vector<PhaseNode>& nodes, std::string_view category) {
  for (const PhaseNode& n : nodes)
    if (n.category == category) return &n;
  return nullptr;
}

void checkSelfInvariant(const PhaseNode& node) {
  std::int64_t childNs = 0;
  for (const PhaseNode& c : node.children) {
    childNs += c.totalNs;
    checkSelfInvariant(c);
  }
  EXPECT_EQ(node.selfNs + childNs, node.totalNs) << node.category;
}

TEST(ProfileBuildTest, PhaseTreeFollowsSpanNesting) {
  CostProfile p = buildCostProfile(syntheticForest());
  EXPECT_EQ(p.wallNs, 1000);
  EXPECT_EQ(p.events, 7u);
  EXPECT_EQ(p.threads, 1u);

  ASSERT_EQ(p.phases.size(), 1u);
  const PhaseNode& root = p.phases[0];
  EXPECT_EQ(root.category, "corpus.run");
  EXPECT_EQ(root.totalNs, 1000);
  EXPECT_EQ(root.selfNs, 1000 - 200 - 400);
  EXPECT_EQ(root.count, 1u);
  EXPECT_EQ(root.maxNs, 1000);

  const PhaseNode* proc = findChild(root.children, "summary.proc");
  ASSERT_NE(proc, nullptr);
  EXPECT_EQ(proc->totalNs, 200);
  EXPECT_EQ(proc->selfNs, 150);  // minus the nested query.fm

  const PhaseNode* loop = findChild(root.children, "analysis.loop");
  ASSERT_NE(loop, nullptr);
  EXPECT_EQ(loop->totalNs, 400);
  EXPECT_EQ(loop->selfNs, 400 - 50 - 100);
  const PhaseNode* implies = findChild(loop->children, "query.implies");
  ASSERT_NE(implies, nullptr);
  EXPECT_EQ(implies->selfNs, 100 - 40);  // minus the FM it issued

  for (const PhaseNode& r : p.phases) checkSelfInvariant(r);
}

TEST(ProfileBuildTest, AttributesProcsLoopsAndOutermostQueriesOnly) {
  CostProfile p = buildCostProfile(syntheticForest());

  ASSERT_EQ(p.procedures.size(), 1u);
  const obs::ProcCost& pc = p.procedures[0];
  EXPECT_EQ(pc.name, "foo");
  EXPECT_EQ(pc.summarySpans, 1u);
  EXPECT_EQ(pc.summaryNs, 200);
  // deptest.loop is nested inside analysis.loop: only the outermost loop
  // span attributes, so no double count.
  EXPECT_EQ(pc.loopSpans, 1u);
  EXPECT_EQ(pc.loopNs, 400);
  EXPECT_EQ(pc.totalNs(), 600);
  // The FM under summary.proc and the implies under the loop attribute; the
  // FM issued *inside* the implies does not.
  EXPECT_EQ(pc.coldQueries, 2u);
  EXPECT_EQ(pc.coldQueryNs, 50 + 100);

  ASSERT_EQ(p.loops.size(), 1u);
  const obs::LoopCost& lc = p.loops[0];
  EXPECT_EQ(lc.proc, "foo");
  EXPECT_EQ(lc.name, "DO i");
  EXPECT_EQ(lc.count, 1u);
  EXPECT_EQ(lc.totalNs, 400);
  EXPECT_EQ(lc.coldQueries, 1u);
  EXPECT_EQ(lc.coldQueryNs, 100);
}

TEST(ProfileBuildTest, TopQueriesSortedByDurationWithRenderedExpressions) {
  CostProfile p = buildCostProfile(syntheticForest());
  ASSERT_EQ(p.topQueries.size(), 3u);
  EXPECT_EQ(p.topQueries[0].kind, "query.implies");
  EXPECT_EQ(p.topQueries[0].durNs, 100);
  EXPECT_EQ(p.topQueries[0].expr, "P#1 => P#2");
  EXPECT_EQ(p.topQueries[1].durNs, 50);
  EXPECT_EQ(p.topQueries[1].expr, "i - n <= 0");
  EXPECT_EQ(p.topQueries[1].context, "guard p");
  EXPECT_EQ(p.topQueries[1].verdict, "True");
  EXPECT_EQ(p.topQueries[2].durNs, 40);

  obs::ProfileOptions options;
  options.topQueries = 2;
  CostProfile trimmed = buildCostProfile(syntheticForest(), options);
  ASSERT_EQ(trimmed.topQueries.size(), 2u);
  EXPECT_EQ(trimmed.topQueries[1].durNs, 50);
}

TEST(ProfileBuildTest, EmptySnapshotYieldsEmptyProfile) {
  CostProfile p = buildCostProfile({});
  EXPECT_EQ(p.wallNs, 0);
  EXPECT_EQ(p.events, 0u);
  EXPECT_TRUE(p.phases.empty());
  EXPECT_NE(renderCostProfileJson(p).find("\"schema_version\": 1"), std::string::npos);
}

TEST(ProfileRenderTest, JsonParsesAndCarriesTheSchema) {
  CostProfile p = buildCostProfile(syntheticForest());
  p.caches.push_back({"query cache", 10, 5, 5, 2});
  obs::SessionReuse reuse;
  reuse.epoch = 2;
  reuse.warm = true;
  reuse.procedures = 3;
  reuse.dirty = 1;
  reuse.invalidations.push_back({"olda", "fingerprint", "content fingerprint changed"});
  p.sessions.push_back(reuse);

  std::string json = renderCostProfileJson(p);
  std::string error;
  std::optional<JsonValue> v = JsonValue::parse(json, &error);
  ASSERT_TRUE(v.has_value()) << error;
  EXPECT_EQ(v->find("schema_version")->asNumber(), 1);
  EXPECT_EQ(v->find("wall_ns")->asNumber(), 1000);
  EXPECT_EQ(v->find("threads")->asNumber(), 1);

  const JsonValue* phases = v->find("phases");
  ASSERT_NE(phases, nullptr);
  ASSERT_EQ(phases->items().size(), 1u);
  EXPECT_EQ(phases->items()[0].find("category")->asString(), "corpus.run");
  EXPECT_EQ(phases->items()[0].find("self_ns")->asNumber(), 400);

  const JsonValue* queries = v->find("top_queries");
  ASSERT_NE(queries, nullptr);
  EXPECT_EQ(queries->items()[0].find("expr")->asString(), "P#1 => P#2");

  const JsonValue* caches = v->find("caches");
  ASSERT_NE(caches, nullptr);
  EXPECT_EQ(caches->items()[0].find("evictions")->asNumber(), 2);

  const JsonValue* sessions = v->find("sessions");
  ASSERT_NE(sessions, nullptr);
  const JsonValue& s0 = sessions->items()[0];
  EXPECT_TRUE(s0.find("warm")->asBool());
  ASSERT_EQ(s0.find("invalidations")->items().size(), 1u);
  EXPECT_EQ(s0.find("invalidations")->items()[0].find("cause")->asString(), "fingerprint");
}

TEST(ProfileRenderTest, JsonKeepsSpanNamesAndArgsVerbatim) {
  // Names and args carry source text: quotes, backslashes, newlines and
  // control characters must be escaped and parse back to the original.
  const std::string raw = "quote\" slash\\ newline\n ctrl\x01 done";
  CostProfile p = buildCostProfile({
      ev("summary.proc", raw, 0, 100),
      ev("query.fm", raw + " name", 10, 50, 0,
         {{"expr", raw + " expr"}, {"ctx", raw + " ctx"}, {"verdict", raw + " verdict"}}),
  });

  std::string json = renderCostProfileJson(p);
  EXPECT_NE(json.find("\\u0001"), std::string::npos) << json;
  std::string error;
  std::optional<JsonValue> v = JsonValue::parse(json, &error);
  ASSERT_TRUE(v.has_value()) << error << "\n" << json;
  const JsonValue* procedures = v->find("procedures");
  ASSERT_NE(procedures, nullptr);
  ASSERT_EQ(procedures->items().size(), 1u);
  EXPECT_EQ(procedures->items()[0].find("name")->asString(), raw);
  const JsonValue* queries = v->find("top_queries");
  ASSERT_NE(queries, nullptr);
  ASSERT_EQ(queries->items().size(), 1u);
  const JsonValue& q = queries->items()[0];
  EXPECT_EQ(q.find("name")->asString(), raw + " name");
  EXPECT_EQ(q.find("expr")->asString(), raw + " expr");
  EXPECT_EQ(q.find("context")->asString(), raw + " ctx");
  EXPECT_EQ(q.find("verdict")->asString(), raw + " verdict");
}

TEST(ProfileRenderTest, TextRendererNamesDirtyUnitsAndCauses) {
  CostProfile p = buildCostProfile(syntheticForest());
  obs::SessionReuse reuse;
  reuse.epoch = 3;
  reuse.warm = true;
  reuse.dirty = 2;
  reuse.invalidations.push_back({"olda", "fingerprint", "content fingerprint changed"});
  reuse.invalidations.push_back({"caller", "callee-epoch", "callee 'olda' summary epoch changed"});
  p.sessions.push_back(reuse);

  std::string text = renderCostProfileText(p);
  EXPECT_NE(text.find("session epoch 3 (warm)"), std::string::npos) << text;
  EXPECT_NE(text.find("invalidated olda [fingerprint]: content fingerprint changed"),
            std::string::npos)
      << text;
  EXPECT_NE(text.find("invalidated caller [callee-epoch]: callee 'olda' summary epoch changed"),
            std::string::npos)
      << text;
  EXPECT_NE(text.find("top cold queries:"), std::string::npos);
}

// ---------------------------------------------------------------------------
// Real-pipeline contracts
// ---------------------------------------------------------------------------

class ProfilePipelineTest : public ::testing::Test {
 protected:
  void SetUp() override {
    obs::Tracer::global().disable();
    obs::Tracer::global().clear();
  }
  void TearDown() override {
    obs::Tracer::global().disable();
    obs::Tracer::global().clear();
    QueryCache::global().configure(QueryCache::kDefaultCapacity);
  }

  CostProfile profileCorpusRun(std::size_t threads) {
    obs::Tracer::global().clear();
    obs::Tracer::global().enable();
    AnalysisOptions options;
    options.numThreads = threads;
    QueryCache::global().configure(0);  // cache off: every query runs cold
    analyzeCorpusParallel(options);
    obs::Tracer::global().disable();
    CostProfile p = buildCostProfile(obs::Tracer::global().snapshot());
    obs::Tracer::global().clear();
    return p;
  }
};

TEST_F(ProfilePipelineTest, SingleThreadPhaseTotalsSumToWallTime) {
  CostProfile p = profileCorpusRun(1);
  ASSERT_FALSE(p.phases.empty());
  EXPECT_EQ(p.threads, 1u);
  // At one thread the root spans tile the trace: their totals must account
  // for the wall time up to the gaps between top-level spans (< 5%).
  std::int64_t rootNs = 0;
  for (const PhaseNode& r : p.phases) rootNs += r.totalNs;
  EXPECT_LE(rootNs, p.wallNs);
  EXPECT_GE(static_cast<double>(rootNs), 0.95 * static_cast<double>(p.wallNs));
  for (const PhaseNode& r : p.phases) checkSelfInvariant(r);
}

TEST_F(ProfilePipelineTest, AggregateCountsAreThreadShapeIndependent) {
  std::map<std::size_t, CostProfile> profiles;
  for (std::size_t threads : {1u, 4u, 8u}) profiles.emplace(threads, profileCorpusRun(threads));

  const CostProfile& base = profiles.at(1);
  ASSERT_FALSE(base.procedures.empty());
  ASSERT_FALSE(base.loops.empty());
  for (std::size_t threads : {4u, 8u}) {
    const CostProfile& p = profiles.at(threads);
    // Total span count may vary with the thread shape (cold queries depend
    // on which thread warmed the shared cache); the attribution aggregates
    // below must not.
    EXPECT_GT(p.events, 0u) << threads << " threads";
    ASSERT_EQ(p.procedures.size(), base.procedures.size());
    ASSERT_EQ(p.loops.size(), base.loops.size());

    // Per-procedure span and cold-query *counts* are deterministic across
    // thread shapes (durations are not); sorting differs, so compare by name.
    std::map<std::string, const obs::ProcCost*> byName;
    for (const obs::ProcCost& pc : p.procedures) byName[pc.name] = &pc;
    for (const obs::ProcCost& expected : base.procedures) {
      ASSERT_TRUE(byName.count(expected.name)) << expected.name;
      const obs::ProcCost& got = *byName.at(expected.name);
      EXPECT_EQ(got.summarySpans, expected.summarySpans) << expected.name;
      EXPECT_EQ(got.loopSpans, expected.loopSpans) << expected.name;
      EXPECT_EQ(got.coldQueries, expected.coldQueries) << expected.name;
    }

    std::map<std::pair<std::string, std::string>, const obs::LoopCost*> loopsByKey;
    for (const obs::LoopCost& lc : p.loops) loopsByKey[{lc.proc, lc.name}] = &lc;
    for (const obs::LoopCost& expected : base.loops) {
      auto it = loopsByKey.find({expected.proc, expected.name});
      ASSERT_NE(it, loopsByKey.end()) << expected.proc << " " << expected.name;
      EXPECT_EQ(it->second->count, expected.count);
      EXPECT_EQ(it->second->coldQueries, expected.coldQueries);
    }
  }
}

TEST_F(ProfilePipelineTest, TopQueriesCarryRenderedExpressionsFromTheRealPipeline) {
  CostProfile p = profileCorpusRun(1);
  ASSERT_FALSE(p.topQueries.empty());
  // Every query kind renders its expression, so whichever spans win the
  // top-K (a preempted prefilter span can outrank every FM span on a busy
  // machine), each one names its query.
  for (const obs::QueryCost& qc : p.topQueries) {
    EXPECT_TRUE(qc.kind == "query.fm" || qc.kind == "query.implies" ||
                qc.kind == "query.prefilter")
        << qc.kind;
    EXPECT_FALSE(qc.expr.empty()) << qc.kind << " top query carries no rendered expression";
  }
}

}  // namespace
}  // namespace panorama
