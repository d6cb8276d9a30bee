// The edit-sequence oracle: seeded scripts of random edits to generated
// multi-procedure programs (tests/program_gen.h, MultiProcGen), replayed
// through every incremental path, each step compared byte for byte with a
// cold analysis of the same text with the memo tables cleared:
//   * one session at 1 thread and one at 4 threads;
//   * a session saved and restored into a fresh session before every
//     submit;
//   * a named daemon session (a few scripts).
// The edits insert, delete and modify nests, change a callee's write set,
// add a read of a work array after its nest (the copy-out flips through
// ueAfter alone), reorder items, shift lines, swap a subroutine's formals
// and insert CONTINUEs. Two of them also pin the early cutoff
// (DESIGN.md §4.4): a CONTINUE leaves the edited procedure's summary epoch
// where it was, and a write-set edit or a formal swap moves it.
#include <gtest/gtest.h>
#include <unistd.h>

#include <cstdint>
#include <cstdio>
#include <memory>
#include <optional>
#include <set>
#include <sstream>
#include <string>
#include <utility>

#include "panorama/predicate/fm_incremental.h"
#include "panorama/predicate/predicate.h"
#include "panorama/session/session.h"
#include "panorama/store/daemon.h"
#include "panorama/store/protocol.h"
#include "panorama/support/json.h"
#include "panorama/support/memo_cache.h"
#include "program_gen.h"

namespace panorama {
namespace {

using Edit = MultiProcGen::Edit;

struct CacheGuard {
  ~CacheGuard() { QueryCache::global().configure(QueryCache::kDefaultCapacity); }
};

std::string render(const SessionResult& r) {
  std::ostringstream os;
  for (const SessionLoopResult& loop : r.loops)
    os << loop.procName << " | line " << loop.line << '\n' << loop.report << loop.provenance << '\n';
  return os.str();
}

/// A cold analysis of `source` with every memo table cleared first.
SessionResult coldAnalysis(const std::string& source, const AnalysisOptions& options) {
  QueryCache::global().clear();
  clearSimplifyMemo();
  clearFmEliminationCache();
  AnalysisSession cold(options);
  SessionResult r = cold.submit(source);
  EXPECT_TRUE(r.ok) << r.error << '\n' << source;
  return r;
}

const char* editName(Edit e) {
  switch (e) {
    case Edit::InsertNest: return "insert-nest";
    case Edit::DeleteNest: return "delete-nest";
    case Edit::ModifyNest: return "modify-nest";
    case Edit::WriteSet: return "write-set";
    case Edit::ReadAfter: return "read-after";
    case Edit::Reorder: return "reorder";
    case Edit::ShiftLines: return "shift-lines";
    case Edit::Continue: return "continue";
    case Edit::SwapFormals: return "swap-formals";
  }
  return "?";
}

constexpr int kSteps = 14;

/// How much of the incremental machinery a replay exercised (1 thread).
struct Coverage {
  std::uint64_t loopSkips = 0;
  std::uint64_t ueAfterRecomputed = 0;
  std::uint64_t summariesUnchanged = 0;
};

void replay(unsigned seed, const AnalysisOptions& base, const std::string& snapshotPath,
            Coverage& coverage) {
  AnalysisOptions one = base;
  one.numThreads = 1;
  AnalysisOptions four = base;
  four.numThreads = 4;
  AnalysisSession serial(one);
  AnalysisSession parallel(four);
  auto restored = std::make_unique<AnalysisSession>(one);

  MultiProcGen gen(seed);
  GenProgram prog = gen.program();
  for (int step = 0; step <= kSteps; ++step) {
    std::optional<std::pair<Edit, std::size_t>> edit;
    if (step > 0) edit = gen.edit(prog);
    const std::string where =
        "seed " + std::to_string(seed) + ", step " + std::to_string(step) +
        (edit ? std::string(", ") + editName(edit->first) + " in " + prog.procs[edit->second].name
              : std::string(", first submit"));
    const std::string source = prog.render();
    const std::string edited = edit ? prog.procs[edit->second].name : std::string();
    const std::uint64_t epochBefore = edit ? serial.summaryEpochOf(edited) : 0;

    const std::string cold = render(coldAnalysis(source, one));
    const SessionResult warm = serial.submit(source);
    ASSERT_TRUE(warm.ok) << where << '\n' << warm.error << '\n' << source;
    EXPECT_EQ(render(warm), cold) << where << '\n' << source;
    coverage.loopSkips += warm.stats.loopSkips;
    coverage.ueAfterRecomputed += warm.stats.ueAfterRecomputed;
    coverage.summariesUnchanged += warm.stats.summariesUnchanged;
    const SessionResult warm4 = parallel.submit(source);
    ASSERT_TRUE(warm4.ok) << where;
    EXPECT_EQ(render(warm4), cold) << where << " (4 threads)";
    EXPECT_EQ(warm4.stats.invalidations.size(), warm.stats.invalidations.size()) << where;
    for (std::size_t k = 0; k < warm.stats.invalidations.size() &&
                            k < warm4.stats.invalidations.size();
         ++k) {
      EXPECT_EQ(warm4.stats.invalidations[k].unit, warm.stats.invalidations[k].unit) << where;
      EXPECT_EQ(warm4.stats.invalidations[k].detail, warm.stats.invalidations[k].detail) << where;
    }

    if (step > 0) {
      ASSERT_TRUE(restored->save(snapshotPath).ok) << where;
      restored = std::make_unique<AnalysisSession>(one);
      ASSERT_TRUE(restored->restore(snapshotPath).ok) << where;
    }
    const SessionResult viaSnapshot = restored->submit(source);
    ASSERT_TRUE(viaSnapshot.ok) << where;
    EXPECT_EQ(render(viaSnapshot), cold) << where << " (restored)";

    if (!edit) continue;
    const std::uint64_t epochAfter = serial.summaryEpochOf(edited);
    switch (edit->first) {
      case Edit::Continue:
        // Nothing a caller reads of the procedure changed: the cutoff fires.
        EXPECT_EQ(epochAfter, epochBefore) << where;
        EXPECT_GE(warm.stats.summariesUnchanged, 1u) << where;
        break;
      case Edit::WriteSet:
      case Edit::SwapFormals:
        // The summary or the frame changed: the cutoff must not fire.
        EXPECT_EQ(epochAfter, serial.epoch()) << where;
        break;
      default:
        break;
    }
  }
}

TEST(EditOracleTest, ScriptsMatchAColdAnalysisAtEveryStep) {
  CacheGuard guard;
  const std::string snapshot =
      testing::TempDir() + "edit_oracle_" + std::to_string(::getpid()) + ".pano";
  Coverage coverage;
  for (unsigned seed = 1; seed <= 10; ++seed) replay(seed, AnalysisOptions{}, snapshot, coverage);
  std::remove(snapshot.c_str());
  // The scripts reach every reuse decision the comparisons above judge.
  EXPECT_GT(coverage.loopSkips, 0u);
  EXPECT_GT(coverage.ueAfterRecomputed, 0u);
  EXPECT_GT(coverage.summariesUnchanged, 0u);
}

TEST(EditOracleTest, QuantifiedScriptsMatchAColdAnalysisAtEveryStep) {
  CacheGuard guard;
  const std::string snapshot =
      testing::TempDir() + "edit_oracle_q_" + std::to_string(::getpid()) + ".pano";
  AnalysisOptions quantified;
  quantified.quantified = true;
  Coverage coverage;
  for (unsigned seed = 101; seed <= 103; ++seed) replay(seed, quantified, snapshot, coverage);
  std::remove(snapshot.c_str());
}

TEST(EditOracleTest, EveryEditKindOccurs) {
  // The scripts above are only as strong as their mix: every kind must be
  // drawn, and the kinds that need a particular item must find one.
  std::set<Edit> seen;
  for (unsigned seed = 1; seed <= 10; ++seed) {
    MultiProcGen gen(seed);
    GenProgram prog = gen.program();
    for (int step = 0; step < kSteps; ++step) seen.insert(gen.edit(prog).first);
  }
  EXPECT_EQ(seen.size(), static_cast<std::size_t>(MultiProcGen::kEdits));
}

// ----- one named daemon session --------------------------------------------

support::JsonValue rpc(int fd, const std::string& request) {
  std::string error;
  EXPECT_TRUE(store::writeFrame(fd, request, &error)) << error;
  std::string payload;
  EXPECT_EQ(store::readFrame(fd, payload, &error), store::FrameStatus::Ok) << error;
  std::optional<support::JsonValue> v = support::JsonValue::parse(payload, &error);
  EXPECT_TRUE(v.has_value()) << error;
  return v ? *v : support::JsonValue::makeNull();
}

TEST(EditOracleTest, NamedDaemonSessionMatchesAColdAnalysisAtEveryStep) {
  CacheGuard guard;
  AnalysisOptions options;
  options.numThreads = 2;
  const std::string path = "/tmp/panoeo_" + std::to_string(::getpid()) + ".sock";
  store::Daemon daemon(path, options);
  std::string error;
  ASSERT_TRUE(daemon.start(error)) << error;
  const int fd = store::connectUnixSocket(path, &error);
  ASSERT_GE(fd, 0) << error;

  for (unsigned seed : {7u, 8u}) {
    MultiProcGen gen(seed);
    GenProgram prog = gen.program();
    const std::string sessionKey = "oracle" + std::to_string(seed);
    for (int step = 0; step <= 8; ++step) {
      if (step > 0) gen.edit(prog);
      const std::string source = prog.render();
      std::string req = "{\"id\":1,\"op\":\"submit\",\"name\":\"p.f\",\"explain\":true,\"session\":\"";
      support::appendJsonEscaped(req, sessionKey);
      req += "\",\"source\":\"";
      support::appendJsonEscaped(req, source);
      req += "\"}";
      const support::JsonValue reply = rpc(fd, req);
      const support::JsonValue* report = reply.find("report");
      ASSERT_TRUE(report && report->isString()) << "seed " << seed << ", step " << step;

      const SessionResult cold = coldAnalysis(source, options);
      std::string expected = "p.f: " + std::to_string(cold.loops.size()) + " loop(s)\n\n";
      for (const SessionLoopResult& loop : cold.loops) expected += loop.report + loop.provenance + '\n';
      EXPECT_EQ(report->asString(), expected) << "seed " << seed << ", step " << step << '\n'
                                              << source;
    }
  }
  ::close(fd);
  daemon.stop();
  daemon.wait();
}

}  // namespace
}  // namespace panorama
