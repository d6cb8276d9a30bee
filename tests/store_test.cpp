// The on-disk session store (store/, DESIGN.md §4.8):
//   * save() then restore() into a fresh process-state session reproduces
//     the in-process warm re-analysis byte-for-byte, at 1/4/8 threads;
//   * a restored session serves a byte-identical resubmit through the
//     whole-file fast path (the snapshot carries the source hash);
//   * truncated / corrupted / version-mismatched snapshots are rejected
//     with a structured diagnostic and leave the session untouched — at
//     every payload offset, even when the header is re-signed over the
//     damage;
//   * restore() adopts the snapshot's ablation switches but keeps the
//     session's execution options;
//   * save() under concurrent submits always snapshots one consistent
//     epoch — every file written while another thread edits restores;
//   * a submit runs sema once and builds flow graphs for its dirty cone
//     only, and a restore runs neither (a snapshot holds no AST);
//   * a restored unit whose carried summaries do not fit its procedure is
//     re-summarized, not trusted.
#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <set>
#include <sstream>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "panorama/obs/trace.h"
#include "panorama/session/session.h"
#include "panorama/store/format.h"
#include "panorama/support/memo_cache.h"

namespace panorama {
namespace {

struct CacheGuard {
  ~CacheGuard() { QueryCache::global().configure(QueryCache::kDefaultCapacity); }
};

// The session_test call chain: main -> top -> mid -> leaf, plus a sibling.
// `leaf` is textually last so the edit cannot shift other procedures' lines.
const char* kBase = R"(
      program main
      real a(100)
      real b(100)
      do i = 1, 100
        a(i) = 0.0
      enddo
      call sib(b)
      call top(a)
      end
      subroutine sib(s)
      real s(100)
      do i = 1, 100
        s(i) = 1.0
      enddo
      end
      subroutine top(t)
      real t(100)
      call mid(t)
      end
      subroutine mid(m)
      real m(100)
      call leaf(m)
      end
      subroutine leaf(x)
      real x(100)
      do i = 1, 100
        x(i) = 2.0
      enddo
      end
)";

const char* kLeafEdited = R"(
      program main
      real a(100)
      real b(100)
      do i = 1, 100
        a(i) = 0.0
      enddo
      call sib(b)
      call top(a)
      end
      subroutine sib(s)
      real s(100)
      do i = 1, 100
        s(i) = 1.0
      enddo
      end
      subroutine top(t)
      real t(100)
      call mid(t)
      end
      subroutine mid(m)
      real m(100)
      call leaf(m)
      end
      subroutine leaf(x)
      real x(100)
      do i = 1, 50
        x(i) = 3.0
      enddo
      end
)";

std::string render(const SessionResult& r) {
  std::ostringstream os;
  for (const SessionLoopResult& loop : r.loops) {
    os << loop.procName << " | line " << loop.line << " | " << toString(loop.classification)
       << '\n'
       << loop.report << loop.provenance << '\n';
  }
  return os.str();
}

std::string tempPath(const std::string& name) { return testing::TempDir() + name; }

/// RAII snapshot file cleanup.
struct FileGuard {
  std::string path;
  ~FileGuard() { std::remove(path.c_str()); }
};

std::string slurp(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream buf;
  buf << in.rdbuf();
  return buf.str();
}

void spit(const std::string& path, const std::string& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
}

/// `payload` behind a header re-signed over it (size and FNV-1a hash), so
/// the integrity check passes and only the reader's structural checks can
/// catch damage to the payload.
std::string signedSnapshot(const std::string& header, const std::string& payload) {
  std::string out = header + payload;
  const std::uint64_t size = payload.size();
  const std::uint64_t hash = store::fnv1a(payload);
  for (int k = 0; k < 8; ++k) {
    out[8 + k] = static_cast<char>((size >> (8 * k)) & 0xff);
    out[16 + k] = static_cast<char>((hash >> (8 * k)) & 0xff);
  }
  return out;
}

TEST(StoreTest, RestoredWarmRunByteIdenticalAcrossThreadCounts) {
  CacheGuard guard;
  for (std::size_t threads : {1u, 4u, 8u}) {
    AnalysisOptions options;
    options.numThreads = threads;
    FileGuard snap{tempPath("store_roundtrip_" + std::to_string(threads) + ".pano")};

    // In-process reference: cold submit, snapshot, warm submit.
    AnalysisSession reference(options);
    ASSERT_TRUE(reference.submit(kBase).ok) << threads << " threads";
    store::StoreResult saved = reference.save(snap.path);
    ASSERT_TRUE(saved.ok) << saved.error;
    SessionResult inProcess = reference.submit(kLeafEdited);
    ASSERT_TRUE(inProcess.ok) << threads << " threads";

    // Restored run: fresh session, same snapshot, same edit.
    AnalysisSession restored(options);
    store::StoreResult r = restored.restore(snap.path);
    ASSERT_TRUE(r.ok) << r.error;
    EXPECT_EQ(restored.epoch(), 1u);
    SessionResult warm = restored.submit(kLeafEdited);
    ASSERT_TRUE(warm.ok) << threads << " threads";

    EXPECT_EQ(render(inProcess), render(warm)) << threads << " threads";
    EXPECT_EQ(inProcess.stats.summariesReused, warm.stats.summariesReused);
    EXPECT_EQ(inProcess.stats.loopsReused, warm.stats.loopsReused);
    EXPECT_EQ(inProcess.stats.dirty, warm.stats.dirty);
    EXPECT_GT(warm.stats.summariesReused, 0u) << "restore lost the snapshots";
  }
}

TEST(StoreTest, RestoredSessionServesByteIdenticalResubmitViaFastPath) {
  CacheGuard guard;
  FileGuard snap{tempPath("store_fastpath.pano")};
  AnalysisOptions options;
  options.numThreads = 1;

  AnalysisSession saver(options);
  SessionResult cold = saver.submit(kBase);
  ASSERT_TRUE(cold.ok);
  ASSERT_TRUE(saver.save(snap.path).ok);

  AnalysisSession restored(options);
  ASSERT_TRUE(restored.restore(snap.path).ok);
  SessionResult skip = restored.submit(kBase);
  ASSERT_TRUE(skip.ok);
  // The snapshot carries the source hash, so the identical resubmit never
  // parses or diffs — and still serves the full cached report set.
  EXPECT_EQ(skip.stats.fileSkips, 1u);
  EXPECT_EQ(render(cold), render(skip));
}

TEST(StoreTest, SaveRequiresALiveSession) {
  FileGuard snap{tempPath("store_dead.pano")};
  AnalysisSession session;
  store::StoreResult r = session.save(snap.path);
  EXPECT_FALSE(r.ok);
  EXPECT_NE(r.error.find("before its first successful submit"), std::string::npos) << r.error;
}

TEST(StoreTest, SaveFailsOnUnwritablePathWithDiagnostic) {
  CacheGuard guard;
  AnalysisSession session;
  ASSERT_TRUE(session.submit(kBase).ok);
  store::StoreResult r = session.save("/nonexistent-dir/snapshot.pano");
  EXPECT_FALSE(r.ok);
  EXPECT_NE(r.error.find("/nonexistent-dir/snapshot.pano"), std::string::npos) << r.error;
}

/// A failed restore must leave the session exactly as it was: same epoch,
/// and the next byte-identical resubmit still rides the fast path (proof
/// that units, hashes, and cached reports all survived).
void expectSessionUntouched(AnalysisSession& session, const std::string& coldRender,
                            const std::string& source = kBase) {
  EXPECT_EQ(session.epoch(), 1u);
  SessionResult again = session.submit(source);
  ASSERT_TRUE(again.ok);
  EXPECT_GE(again.stats.fileSkips, 1u);
  EXPECT_EQ(coldRender, render(again));
}

TEST(StoreTest, RestoreRejectsTruncatedSnapshotAndKeepsSession) {
  CacheGuard guard;
  FileGuard snap{tempPath("store_truncated.pano")};
  AnalysisSession session;
  SessionResult cold = session.submit(kBase);
  ASSERT_TRUE(cold.ok);
  ASSERT_TRUE(session.save(snap.path).ok);
  const std::string bytes = slurp(snap.path);
  ASSERT_GT(bytes.size(), 32u);

  // Shorter than the 24-byte header.
  spit(snap.path, bytes.substr(0, 10));
  store::StoreResult r = session.restore(snap.path);
  EXPECT_FALSE(r.ok);
  EXPECT_NE(r.error.find("truncated snapshot"), std::string::npos) << r.error;

  // Header intact, payload cut short.
  spit(snap.path, bytes.substr(0, bytes.size() - 5));
  r = session.restore(snap.path);
  EXPECT_FALSE(r.ok);
  EXPECT_NE(r.error.find("truncated snapshot"), std::string::npos) << r.error;

  expectSessionUntouched(session, render(cold));
}

TEST(StoreTest, RestoreRejectsCorruptedPayloadAndKeepsSession) {
  CacheGuard guard;
  FileGuard snap{tempPath("store_corrupt.pano")};
  AnalysisSession session;
  SessionResult cold = session.submit(kBase);
  ASSERT_TRUE(cold.ok);
  ASSERT_TRUE(session.save(snap.path).ok);
  std::string bytes = slurp(snap.path);
  ASSERT_GT(bytes.size(), store::kHeaderBytes + 8);

  bytes[store::kHeaderBytes + 7] ^= 0x40;  // one payload bit
  spit(snap.path, bytes);
  store::StoreResult r = session.restore(snap.path);
  EXPECT_FALSE(r.ok);
  EXPECT_NE(r.error.find("integrity hash mismatch"), std::string::npos) << r.error;

  expectSessionUntouched(session, render(cold));
}

TEST(StoreTest, RestoreRejectsVersionMismatchAndBadMagic) {
  CacheGuard guard;
  FileGuard snap{tempPath("store_version.pano")};
  AnalysisSession session;
  SessionResult cold = session.submit(kBase);
  ASSERT_TRUE(cold.ok);
  ASSERT_TRUE(session.save(snap.path).ok);
  const std::string bytes = slurp(snap.path);

  // Rewrite the schema version field (offset 4, little-endian u32): a
  // future version and the retired v1 to v6 are all version skew.
  store::StoreResult r;
  for (int version : {99, 1, 2, 3, 4, 5, 6}) {
    std::string versioned = bytes;
    versioned[4] = static_cast<char>(version);
    spit(snap.path, versioned);
    r = session.restore(snap.path);
    EXPECT_FALSE(r.ok);
    EXPECT_NE(r.error.find("unsupported schema version " + std::to_string(version)),
              std::string::npos)
        << r.error;
  }

  // Clobber the magic.
  std::string unmagiced = bytes;
  unmagiced[0] = 'X';
  spit(snap.path, unmagiced);
  r = session.restore(snap.path);
  EXPECT_FALSE(r.ok);
  EXPECT_NE(r.error.find("bad magic"), std::string::npos) << r.error;

  expectSessionUntouched(session, render(cold));
}

TEST(StoreTest, RestoreRejectsMissingFile) {
  AnalysisSession session;
  store::StoreResult r = session.restore(tempPath("store_never_written.pano"));
  EXPECT_FALSE(r.ok);
  EXPECT_FALSE(r.error.empty());
  // A dead session stays usable after the failed restore.
  EXPECT_TRUE(session.submit(kBase).ok);
}

// ----- loop-granular reuse across save/restore (§4.9) ----------------------

/// Four independent doubly-nested loop nests; `editedNest` (1-based, 0 =
/// none) changes a constant inside that nest, `comment` shifts every
/// statement down one line without touching any fingerprint.
std::string nestSource(int editedNest, bool comment = false) {
  std::string src = "      subroutine kern(a, b, n)\n";
  src += "      integer n\n";
  src += "      real a(100,4)\n";
  src += "      real b(100,4)\n";
  src += "      real t\n";
  if (comment) src += "c shifted down by one line\n";
  for (int k = 1; k <= 4; ++k) {
    const int lbl = 10 * k;
    const std::string col = std::to_string(k);
    const std::string c = (k == editedNest) ? "3.0" : "1.0";
    src += "      do " + std::to_string(lbl) + " i = 1, n\n";
    src += "      do " + std::to_string(lbl + 1) + " j = 1, n\n";
    src += "      t = a(j," + col + ") + " + c + "\n";
    src += "      b(j," + col + ") = t * 2.0\n";
    src += std::to_string(lbl + 1) + "    continue\n";
    src += std::to_string(lbl) + "    continue\n";
  }
  src += "      b(1,1) = 0.0\n";
  src += "      end\n";
  return src;
}

TEST(StoreTest, V2RoundTripFastPathsLoopGranularReuse) {
  CacheGuard guard;
  FileGuard snap{tempPath("store_v2_loops.pano")};

  // In-process reference: cold, save, single-loop edit.
  AnalysisSession reference;
  ASSERT_TRUE(reference.submit(nestSource(0)).ok);
  ASSERT_TRUE(reference.save(snap.path).ok);
  SessionResult inProcess = reference.submit(nestSource(1));
  ASSERT_TRUE(inProcess.ok);
  ASSERT_EQ(inProcess.stats.loopSkips, 6u);

  // The snapshot carries the per-item fingerprints and reuse edges, so the
  // restored session reuses exactly the same loops.
  AnalysisSession restored;
  ASSERT_TRUE(restored.restore(snap.path).ok);
  SessionResult warm = restored.submit(nestSource(1));
  ASSERT_TRUE(warm.ok);
  EXPECT_EQ(warm.stats.loopSkips, 6u);
  EXPECT_EQ(warm.stats.partialUnits, 1u);
  EXPECT_EQ(render(inProcess), render(warm));
}

TEST(StoreTest, V2RoundTripRemapsLinesAfterCommentOnlyEdit) {
  CacheGuard guard;
  FileGuard snap{tempPath("store_v2_remap.pano")};
  AnalysisSession saver;
  SessionResult cold = saver.submit(nestSource(0));
  ASSERT_TRUE(cold.ok);
  ASSERT_TRUE(saver.save(snap.path).ok);

  AnalysisSession restored;
  ASSERT_TRUE(restored.restore(snap.path).ok);
  SessionResult shifted = restored.submit(nestSource(0, /*comment=*/true));
  ASSERT_TRUE(shifted.ok);
  EXPECT_EQ(shifted.stats.dirty, 0u);
  EXPECT_GE(shifted.stats.lineRemaps, 1u);
  ASSERT_EQ(cold.loops.size(), shifted.loops.size());
  for (std::size_t k = 0; k < cold.loops.size(); ++k)
    EXPECT_EQ(cold.loops[k].line + 1, shifted.loops[k].line) << "loop " << k;
}

TEST(StoreTest, RestoreRejectsTruncatedV2ItemRecordsAndKeepsSession) {
  CacheGuard guard;
  FileGuard snap{tempPath("store_v2_truncated.pano")};
  AnalysisSession session;
  SessionResult cold = session.submit(nestSource(0));
  ASSERT_TRUE(cold.ok);
  ASSERT_TRUE(session.save(snap.path).ok);
  const std::string bytes = slurp(snap.path);
  ASSERT_GT(bytes.size(), store::kHeaderBytes + 64);

  // Cut the tail of the payload (where the unit's item/remap records live)
  // and re-sign the header so the cut survives the integrity check: the
  // READER's structural bounds checks must catch it, not just the hash.
  std::string payload = bytes.substr(store::kHeaderBytes);
  payload.resize(payload.size() - 48);
  spit(snap.path, signedSnapshot(bytes.substr(0, store::kHeaderBytes), payload));

  store::StoreResult r = session.restore(snap.path);
  EXPECT_FALSE(r.ok);
  EXPECT_NE(r.error.find("snapshot"), std::string::npos) << r.error;

  // The failed restore left the session exactly as it was: the identical
  // resubmit still rides the whole-file fast path with the cached reports.
  SessionResult again = session.submit(nestSource(0));
  ASSERT_TRUE(again.ok);
  EXPECT_GE(again.stats.fileSkips, 1u);
  EXPECT_EQ(render(cold), render(again));
}

// The snapshot carries the ablation switches, not the execution options: a
// session built without loop-granular reuse keeps it off after restoring a
// snapshot that a default session saved.
TEST(StoreTest, RestoreKeepsTheSessionsExecutionOptions) {
  CacheGuard guard;
  FileGuard snap{tempPath("store_exec_options.pano")};
  AnalysisSession saver;
  ASSERT_TRUE(saver.submit(nestSource(0)).ok);
  ASSERT_TRUE(saver.save(snap.path).ok);

  AnalysisOptions unitGranular;
  unitGranular.numThreads = 2;
  unitGranular.loopGranularReuse = false;
  AnalysisSession restored(unitGranular);
  ASSERT_TRUE(restored.restore(snap.path).ok);
  EXPECT_FALSE(restored.options().loopGranularReuse);
  EXPECT_EQ(restored.options().numThreads, 2u);
  SessionResult unitReuse = restored.submit(nestSource(1));
  ASSERT_TRUE(unitReuse.ok);
  EXPECT_EQ(unitReuse.stats.loopSkips, 0u);

  AnalysisSession defaultRestored;
  ASSERT_TRUE(defaultRestored.restore(snap.path).ok);
  SessionResult loopReuse = defaultRestored.submit(nestSource(1));
  ASSERT_TRUE(loopReuse.ok);
  EXPECT_GT(loopReuse.stats.loopSkips, 0u);
  EXPECT_EQ(render(unitReuse), render(loopReuse));
}

/// A one-procedure kernel (a 5 KB snapshot) whose loop item survives an
/// edit to the statement before it, so a warm submit of
/// `kernelSource("1.0")` after a restore seeds the loop summary read from
/// the snapshot into the analysis. It accesses arrays of rank 1 and 2, so a
/// flipped region array id can name an array of the other rank.
std::string kernelSource(const std::string& init) {
  return "      subroutine smoke(a, b, n)\n"
         "      integer n\n"
         "      real a(n), b(n)\n"
         "      real t(100), w(10, 10)\n"
         "      b(1) = " + init + "\n"
         "      do i = 1, n\n"
         "        t(i) = a(i) * 2.0\n"
         "        w(i, 2) = t(i)\n"
         "        b(i) = t(i) + w(i, 2)\n"
         "      enddo\n"
         "      end\n";
}

// Fault injection over a whole snapshot of a one-procedure kernel: at every
// payload offset, a truncation there and (separately) a one-bit flip there,
// each behind a re-signed header. Every truncation fails with a diagnostic
// and leaves the session serving its previous warm result; every flip
// either does the same or restores a session that warm-submits cleanly.
TEST(StoreTest, EveryTruncationAndBitFlipFailsCleanlyOrRestores) {
  CacheGuard guard;
  const std::string source = kernelSource("0.0");
  FileGuard pristine{tempPath("store_sweep_pristine.pano")};
  FileGuard snap{tempPath("store_sweep.pano")};
  AnalysisOptions options;
  options.numThreads = 1;
  AnalysisSession session(options);
  SessionResult cold = session.submit(source);
  ASSERT_TRUE(cold.ok);
  ASSERT_TRUE(session.save(pristine.path).ok);
  const std::string bytes = slurp(pristine.path);
  const std::string header = bytes.substr(0, store::kHeaderBytes);
  const std::string payload = bytes.substr(store::kHeaderBytes);
  const std::string want = render(cold);
  {
    AnalysisSession probe(options);
    ASSERT_TRUE(probe.restore(pristine.path).ok);
    SessionResult warm = probe.submit(kernelSource("1.0"));
    ASSERT_TRUE(warm.ok);
    ASSERT_EQ(warm.stats.loopSkips, 1u) << "the warm edit must reuse the restored loop";
  }

  for (std::size_t offset = 0; offset < payload.size(); ++offset) {
    SCOPED_TRACE("payload offset " + std::to_string(offset));
    spit(snap.path, signedSnapshot(header, payload.substr(0, offset)));
    store::StoreResult r = session.restore(snap.path);
    ASSERT_FALSE(r.ok) << "a truncated snapshot restored";
    EXPECT_NE(r.error.find("snapshot"), std::string::npos) << r.error;
    expectSessionUntouched(session, want, source);

    std::string flipped = payload;
    flipped[offset] = static_cast<char>(flipped[offset] ^ (1 << (offset % 8)));
    spit(snap.path, signedSnapshot(header, flipped));
    r = session.restore(snap.path);
    if (!r.ok) {
      EXPECT_NE(r.error.find("snapshot"), std::string::npos) << r.error;
      expectSessionUntouched(session, want, source);
      continue;
    }
    SessionResult warm = session.submit(kernelSource("1.0"));
    EXPECT_TRUE(warm.ok) << warm.error;
    // Back to the pristine state for the next offset.
    ASSERT_TRUE(session.restore(pristine.path).ok);
  }
}

// A restored unit whose carried state does not fit its procedure — here its
// summary flag cleared behind a re-signed header — is re-summarized by the
// next diffed submit, reported as "carried-state", with exactly the reports
// a cold run gives.
TEST(StoreTest, RestoredUnitWhoseCarriedStateDoesNotFitIsResummarized) {
  CacheGuard guard;
  const std::string source = kernelSource("0.0");
  const std::string shifted = "c one comment line shifts every statement\n" + source;
  FileGuard pristine{tempPath("store_refit_pristine.pano")};
  FileGuard snap{tempPath("store_refit.pano")};
  AnalysisOptions options;
  options.numThreads = 1;
  {
    AnalysisSession saver(options);
    ASSERT_TRUE(saver.submit(source).ok);
    ASSERT_TRUE(saver.save(pristine.path).ok);
  }
  std::string want;
  {
    AnalysisSession cold(options);
    SessionResult r = cold.submit(shifted);
    ASSERT_TRUE(r.ok);
    want = render(r);
  }
  const std::string bytes = slurp(pristine.path);
  const std::string header = bytes.substr(0, store::kHeaderBytes);
  const std::string payload = bytes.substr(store::kHeaderBytes);

  std::size_t resummarized = 0;
  for (std::size_t offset = 0; offset < payload.size(); ++offset) {
    if (payload[offset] != 1) continue;
    std::string cleared = payload;
    cleared[offset] = 0;
    spit(snap.path, signedSnapshot(header, cleared));
    AnalysisSession session(options);
    if (!session.restore(snap.path).ok) continue;
    SessionResult warm = session.submit(shifted);
    ASSERT_TRUE(warm.ok) << "payload offset " << offset << ": " << warm.error;
    if (warm.stats.invalidations.size() != 1 ||
        warm.stats.invalidations[0].cause != "carried-state")
      continue;
    ++resummarized;
    EXPECT_EQ(warm.stats.summariesRecomputed, 1u) << "payload offset " << offset;
    EXPECT_EQ(render(warm), want) << "payload offset " << offset;
  }
  EXPECT_GE(resummarized, 1u) << "no cleared byte was the unit's summary flag";
}

/// The spans `run` traces, as (category, name) pairs.
template <class Run>
std::multiset<std::pair<std::string, std::string>> tracedSpans(Run&& run) {
  obs::Tracer& tracer = obs::Tracer::global();
  tracer.clear();
  tracer.enable();
  run();
  tracer.disable();
  std::multiset<std::pair<std::string, std::string>> spans;
  for (const obs::TraceEvent& ev : tracer.snapshot()) spans.emplace(ev.category, ev.name);
  tracer.clear();
  return spans;
}

std::multiset<std::string> namesIn(const std::multiset<std::pair<std::string, std::string>>& spans,
                                   const std::string& category) {
  std::multiset<std::string> names;
  for (const auto& [cat, name] : spans)
    if (cat == category) names.insert(name);
  return names;
}

// The frontend work a session does is what its state cannot carry: one sema
// pass per submit, and flow graphs only for the procedures it re-summarizes.
// A restore rebuilds no AST, so it and the byte-identical resubmit after it
// run neither.
TEST(StoreTest, OnlySubmitsRunSemaAndOnlyDirtyProceduresGetFlowGraphs) {
  CacheGuard guard;
  FileGuard snap{tempPath("store_frontend_spans.pano")};
  AnalysisOptions options;
  options.numThreads = 1;
  AnalysisSession session(options);
  ASSERT_TRUE(session.submit(kBase).ok);
  ASSERT_TRUE(session.save(snap.path).ok);

  // The leaf's one loop changes: the leaf and its three transitive callers
  // are re-summarized, the sibling is not.
  SessionResult warm;
  const auto edit = tracedSpans([&] { warm = session.submit(kLeafEdited); });
  ASSERT_TRUE(warm.ok);
  ASSERT_EQ(warm.stats.summariesRecomputed, 4u);
  EXPECT_EQ(namesIn(edit, "frontend.sema").size(), 1u);
  EXPECT_EQ(namesIn(edit, "frontend.hsg"),
            (std::multiset<std::string>{"leaf", "main", "mid", "top"}));

  AnalysisSession restored(options);
  bool restoredOk = false;
  SessionResult resubmit;
  const auto restart = tracedSpans([&] {
    restoredOk = restored.restore(snap.path).ok;
    resubmit = restored.submit(kBase);
  });
  ASSERT_TRUE(restoredOk);
  ASSERT_TRUE(resubmit.ok);
  EXPECT_EQ(resubmit.stats.fileSkips, 1u);
  EXPECT_TRUE(namesIn(restart, "frontend.sema").empty());
  EXPECT_TRUE(namesIn(restart, "frontend.hsg").empty());
}

TEST(StoreTest, SaveUnderConcurrentSubmitsSnapshotsOneConsistentEpoch) {
  CacheGuard guard;
  AnalysisOptions options;
  options.numThreads = 2;
  AnalysisSession session(options);
  ASSERT_TRUE(session.submit(kBase).ok);

  constexpr int kIterations = 8;
  std::thread editor([&] {
    for (int k = 0; k < kIterations; ++k) {
      SessionResult r = session.submit(k % 2 == 0 ? kLeafEdited : kBase);
      ASSERT_TRUE(r.ok);
    }
  });

  std::vector<std::string> snaps;
  for (int k = 0; k < kIterations; ++k) {
    snaps.push_back(tempPath("store_concurrent_" + std::to_string(k) + ".pano"));
    store::StoreResult saved = session.save(snaps.back());
    ASSERT_TRUE(saved.ok) << saved.error;
  }
  editor.join();

  // Every snapshot — whichever epoch it caught — restores and re-analyzes.
  for (const std::string& snap : snaps) {
    AnalysisSession restored(options);
    store::StoreResult r = restored.restore(snap);
    ASSERT_TRUE(r.ok) << snap << ": " << r.error;
    SessionResult warm = restored.submit(kLeafEdited);
    ASSERT_TRUE(warm.ok);
    EXPECT_FALSE(warm.loops.empty());
  }
  for (const std::string& snap : snaps) std::remove(snap.c_str());
}

}  // namespace
}  // namespace panorama
