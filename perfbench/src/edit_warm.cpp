// edit_warm: one caller, one in-process AnalysisSession per program on one
// thread. Every op submits the program's base text with at most one seeded
// edit, so the session state stays stationary; restart ops round-trip the
// session through a snapshot first.
#include <sys/resource.h>

#include <filesystem>
#include <memory>

#include "bench.h"
#include "panorama/obs/trace.h"
#include "panorama/predicate/arena.h"
#include "panorama/session/session.h"
#include "panorama/symbolic/arena.h"

namespace perfbench {

using namespace panorama;

namespace {

constexpr std::size_t kCalibrateEvery = 100;

/// The session's reports in the same layout as coldReport().
std::string sessionReport(const SessionResult& result) {
  std::string out;
  for (const SessionLoopResult& loop : result.loops) {
    out += loop.report;
    out += '\n';
  }
  return out;
}

}  // namespace

PassResult runEditWarm(std::uint64_t seed, int seconds, const PassConfig& cfg) {
  PassResult r;
  SetupTimer setup;
  const Inputs in = buildInputs(Workload::EditWarm, seed, seconds);
  AnalysisOptions options;
  options.numThreads = 1;
  std::vector<std::unique_ptr<AnalysisSession>> sessions;
  for (const ProgramText& p : in.programs) {
    sessions.push_back(std::make_unique<AnalysisSession>(options));
    const SessionResult cold = sessions.back()->submit(p.base);
    if (!cold.ok) {
      r.ok = false;
      r.error = "edit_warm cold submit of " + p.name + " failed:\n" + cold.error;
      return r;
    }
  }
  setup.finish(r);
  if (cfg.setupOnly) return r;

  const std::string snapshot = cfg.workDir + "/edit_warm.snapshot";
  std::vector<std::uint64_t> fileSkips(sessions.size(), 0);
  BenchTrace trace;
  if (cfg.traced) obs::Tracer::global().enable();
  r.calibrations.push_back(calibrationWindow());
  for (std::size_t i = 0; i < in.script.size(); ++i) {
    if (i > 0 && i % kCalibrateEvery == 0) r.calibrations.push_back(calibrationWindow());
    const ScriptOp& op = in.script[i];
    const EditKind kind = static_cast<EditKind>(op.kind);
    const std::string& text = in.texts.text(op.textId);
    OpRecord rec;
    rec.kind = op.kind;
    rec.program = op.program;
    rec.textId = op.textId;
    double saveNs = 0, restoreNs = 0, saveStart = 0, restoreStart = 0;
    bool storeOk = true;

    const double cpu0 = processCpuNs();
    const double t0 = nowNs();
    if (kind == EditKind::Restart) {
      saveStart = nowNs();
      storeOk = sessions[op.program]->save(snapshot).ok;
      saveNs = nowNs() - saveStart;
      auto fresh = std::make_unique<AnalysisSession>(options);
      restoreStart = nowNs();
      storeOk = storeOk && fresh->restore(snapshot).ok;
      restoreNs = nowNs() - restoreStart;
      sessions[op.program] = std::move(fresh);
    }
    const double submitStart = nowNs();
    const SessionResult result = sessions[op.program]->submit(text);
    const double t1 = nowNs();
    rec.cpuNs = processCpuNs() - cpu0;
    rec.startNs = t0;
    rec.wallNs = t1 - t0;
    rec.ok = result.ok && storeOk;

    const SessionStats& st = result.stats;
    // The session's file-skip counter is cumulative; restarts begin anew.
    if (kind == EditKind::Restart) fileSkips[op.program] = 0;
    rec.work[0] = st.dirty;
    rec.work[1] = st.loopsRecomputed;
    rec.work[2] = st.loopsReused;
    rec.work[3] = st.lineRemaps;
    rec.work[4] = st.fileSkips - std::min(st.fileSkips, fileSkips[op.program]);
    rec.work[5] = st.summariesRecomputed;
    rec.work[6] = st.loopSkips;
    rec.work[7] = result.loops.size();
    fileSkips[op.program] = st.fileSkips;
    if (kind == EditKind::Restart) {
      std::error_code ec;
      rec.aux[kSnapshotBytes] = std::filesystem::file_size(snapshot, ec);
    }
    const std::string report = sessionReport(result);
    rec.reportHash = hashBytes(report);
    rec.reportBytes = report.size();
    if (cfg.traced) {
      rec.layerNs[kSave] = saveNs;
      rec.layerNs[kRestore] = restoreNs;
      foldLibraryTrace(rec.layerNs);
      if (kind == EditKind::Restart) {
        trace.add(i, "AnalysisSession::save", saveStart, saveNs, 0);
        trace.add(i, "AnalysisSession::restore", restoreStart, restoreNs, 0);
      }
      trace.add(i, "AnalysisSession::submit", submitStart, t1 - submitStart, 0);
    }
    if (rec.ok) r.reports.try_emplace(op.textId, report);
    r.ops.push_back(rec);
  }
  r.calibrations.push_back(calibrationWindow());
  obs::Tracer::global().disable();

  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  r.peakRssKb = static_cast<double>(ru.ru_maxrss);
  const QueryCache::Stats qc = QueryCache::global().stats();
  r.values["predicate.query_cache.hits"] = static_cast<double>(qc.hits);
  r.values["predicate.query_cache.misses"] = static_cast<double>(qc.misses);
  r.values["symbolic.arena.distinct"] = static_cast<double>(ExprArena::global().stats().distinct);
  r.values["symbolic.arena.bytes"] = static_cast<double>(ExprArena::global().stats().bytes);
  r.values["predicate.arena.distinct"] = static_cast<double>(PredArena::global().stats().distinct);
  std::error_code ec;
  std::filesystem::remove(snapshot, ec);
  if (cfg.traced && !cfg.tracePath.empty()) trace.write(cfg.tracePath);
  return r;
}

}  // namespace perfbench
