// The session-store bench: snapshotting every corpus session to disk and
// restoring it into a fresh session, versus re-running the cold analysis.
//
// Setup mirrors bench_incremental: one persistent AnalysisSession per
// Perfect-corpus kernel. The cold phase submits every kernel; the save
// phase serializes every session; the restore phase rebuilds fresh
// sessions from the snapshots; finally both the restored sessions and the
// original in-process sessions warm-submit a one-kernel edit.
//
// Contracts checked here (the bench fails, and CI with it, when violated):
//   * `reports_identical` — the restored sessions' warm reports are
//     byte-identical to the in-process sessions' warm reports (the store's
//     core correctness contract), gated as an Exact metric;
//   * restoring is cheaper than re-running the cold analysis.
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <memory>
#include <string>
#include <unistd.h>
#include <vector>

#include "harness.h"
#include "panorama/corpus/corpus.h"
#include "panorama/session/session.h"
#include "panorama/store/format.h"
#include "panorama/support/memo_cache.h"

using namespace panorama;

namespace {

double msSince(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double, std::milli>(std::chrono::steady_clock::now() - t0)
      .count();
}

/// Same edit as bench_incremental: a CONTINUE appended to the file's last
/// procedure body — fingerprint changes, no line shifts elsewhere.
std::string editLastProcedure(const std::string& source) {
  std::size_t pos = source.rfind("\n      end");
  if (pos == std::string::npos) return source;
  return source.substr(0, pos + 1) + "      continue\n" + source.substr(pos + 1);
}

std::string fingerprintOf(const std::vector<SessionResult>& results) {
  std::string out;
  for (const SessionResult& r : results)
    for (const SessionLoopResult& loop : r.loops) {
      out += loop.procName;
      out += '|';
      out += std::to_string(loop.line);
      out += '|';
      out += toString(loop.classification);
      out += '\n';
      out += loop.report;
    }
  return out;
}

bench::BenchResult run() {
  bench::BenchResult result;
  const std::vector<CorpusLoop>& corpus = perfectCorpus();

  std::vector<std::string> baseSources;
  std::vector<std::string> warmSources;
  for (std::size_t k = 0; k < corpus.size(); ++k) {
    baseSources.push_back(corpus[k].source);
    warmSources.push_back(k == 0 ? editLastProcedure(corpus[k].source) : corpus[k].source);
  }

  // Cold phase: one session per kernel, each starting from an empty verdict
  // cache (sessions share the process's), so restore is compared against a
  // cold analysis.
  std::vector<std::unique_ptr<AnalysisSession>> sessions;
  auto t0 = std::chrono::steady_clock::now();
  for (const std::string& source : baseSources) {
    sessions.push_back(std::make_unique<AnalysisSession>());
    QueryCache::global().clear();
    SessionResult r = sessions.back()->submit(source);
    if (!r.ok) {
      result.fail("cold submit failed:\n" + r.error);
      return result;
    }
  }
  const double coldMs = msSince(t0);

  // Save phase.
  std::vector<std::string> paths;
  std::size_t snapshotBytes = 0;
  const std::string prefix = "/tmp/bench_store_" + std::to_string(::getpid()) + "_";
  t0 = std::chrono::steady_clock::now();
  for (std::size_t k = 0; k < sessions.size(); ++k) {
    paths.push_back(prefix + std::to_string(k) + ".pano");
    store::StoreResult saved = sessions[k]->save(paths.back());
    if (!saved.ok) {
      result.fail("save failed: " + saved.error);
      return result;
    }
  }
  const double saveMs = msSince(t0);
  for (const std::string& path : paths) {
    FILE* f = std::fopen(path.c_str(), "rb");
    if (f) {
      std::fseek(f, 0, SEEK_END);
      snapshotBytes += static_cast<std::size_t>(std::ftell(f));
      std::fclose(f);
    }
  }

  // Restore phase: fresh sessions from disk.
  std::vector<std::unique_ptr<AnalysisSession>> restored;
  t0 = std::chrono::steady_clock::now();
  for (const std::string& path : paths) {
    restored.push_back(std::make_unique<AnalysisSession>());
    store::StoreResult r = restored.back()->restore(path);
    if (!r.ok) {
      result.fail("restore failed: " + r.error);
      return result;
    }
  }
  const double restoreMs = msSince(t0);

  // Warm phase, both lineages: the store contract is that these match
  // byte-for-byte.
  std::vector<SessionResult> warmInProcess(warmSources.size());
  std::vector<SessionResult> warmRestored(warmSources.size());
  std::size_t restoredReused = 0;
  for (std::size_t k = 0; k < warmSources.size(); ++k) {
    warmInProcess[k] = sessions[k]->submit(warmSources[k]);
    warmRestored[k] = restored[k]->submit(warmSources[k]);
    if (!warmInProcess[k].ok || !warmRestored[k].ok) {
      result.fail("warm submit failed");
      return result;
    }
    restoredReused += warmRestored[k].stats.summariesReused;
  }
  const bool identical = fingerprintOf(warmInProcess) == fingerprintOf(warmRestored);
  for (const std::string& path : paths) std::remove(path.c_str());

  std::printf("session store — perfect corpus, one session per kernel\n");
  std::printf("cold wall:      %.3f ms\n", coldMs);
  std::printf("save wall:      %.3f ms  (%zu bytes across %zu snapshots)\n", saveMs,
              snapshotBytes, paths.size());
  std::printf("restore wall:   %.3f ms  (%.2fx vs cold)\n", restoreMs, coldMs / restoreMs);
  std::printf("restored warm:  %zu summaries reused\n", restoredReused);
  std::printf("restored warm identical to in-process warm: %s\n", identical ? "yes" : "NO");

  result.addConfig("corpus", "perfect (Table 1/2 kernels)");
  result.addConfig("edit", "CONTINUE inserted into kernel 0's last procedure");
  result.add("cold_wall_ms", coldMs, bench::Direction::LowerIsBetter, 3.0, "ms");
  result.add("save_wall_ms", saveMs, bench::Direction::LowerIsBetter, 3.0, "ms");
  result.add("restore_wall_ms", restoreMs, bench::Direction::LowerIsBetter, 3.0, "ms");
  result
      .add("restore_speedup_vs_cold", coldMs / restoreMs, bench::Direction::HigherIsBetter, 1.0,
           "x")
      .gated = false;
  result.add("snapshot_bytes", static_cast<double>(snapshotBytes),
             bench::Direction::LowerIsBetter, 0.5, "B")
      .gated = false;
  result.add("restored_summaries_reused", static_cast<double>(restoredReused),
             bench::Direction::Exact);
  result.add("reports_identical", identical ? 1.0 : 0.0, bench::Direction::Exact);
  if (!identical)
    result.fail("restored sessions' warm reports diverge from the in-process sessions'");
  if (restoreMs > coldMs) result.fail("restore slower than re-running the cold analysis");
  return result;
}

const bench::Registration reg{{"store", /*repetitions=*/1, /*warmup=*/0, run}};

}  // namespace
