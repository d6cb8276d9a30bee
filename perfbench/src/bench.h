// The record every workload pass produces, and the three passes.
//
// A pass runs in its own forked child (fresh library state), performs the
// workload's setup, then its timed phase, and returns raw timings plus the
// calibration timeline. All normalization happens in the parent from that
// timeline, so every workload's numbers go through one code path.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <mutex>
#include <string>
#include <vector>

#include "common.h"
#include "inputs.h"

namespace panorama {
struct ProgramAnalysis;
}

namespace perfbench {

enum class Workload { CorpusCold, EditWarm, DaemonMix };

/// Library layers a traced op is split into (self time of the library's own
/// obs::Tracer spans, plus the benchmark's spans around public calls).
enum Layer : std::size_t {
  kParse,          ///< bench span around parseProgram
  kUnit,           ///< bench span around analyzeProgramUnit
  kSema,           ///< frontend.sema
  kHsg,            ///< frontend.hsg
  kSummaryProc,    ///< summary.proc self
  kLoopExpansion,  ///< summary.loop_expansion self
  kAnalysisLoop,   ///< analysis.loop self
  kDeptestLoop,    ///< deptest.loop self
  kQueryFm,        ///< query.fm self
  kQueryImplies,   ///< query.implies self
  kPrefilter,      ///< query.prefilter self
  kReanalyze,      ///< session.reanalyze self
  kSave,           ///< bench span around AnalysisSession::save
  kRestore,        ///< bench span around AnalysisSession::restore
  kLayers
};

/// Exact per-op work counts that enter the determinism digest. Their meaning
/// depends on the workload (see README.md); unused slots stay 0.
inline constexpr std::size_t kWorkCounts = 8;
/// Per-op counters that do not enter the digest (cache and arena counters
/// whose values may depend on process history, snapshot sizes).
enum Aux : std::size_t {
  kSimplifyHits,
  kSimplifyMisses,
  kFmHits,
  kFmMisses,
  kPrefilterAttempts,
  kPrefilterHits,
  kQcHits,
  kQcMisses,
  kExprDistinct,
  kExprBytes,
  kPredDistinct,
  kSnapshotBytes,
  kAuxCounts
};

struct OpRecord {
  std::uint32_t kind = 0;
  std::uint32_t program = 0;
  std::uint32_t textId = 0;
  std::uint32_t client = 0;
  std::uint32_t ok = 1;  ///< 0 on an error reply or a crashed op child
  double startNs = 0;    ///< raw op start (CLOCK_MONOTONIC)
  double wallNs = 0;     ///< raw op duration
  double cpuNs = 0;      ///< raw serving CPU inside the op (0 where not per-op)
  double rssKb = 0;      ///< corpus_cold: the op child's peak RSS
  double sample = 0;     ///< daemon_mix status reads: the pool queue depth
  std::uint64_t reportHash = 0;
  std::uint64_t reportBytes = 0;
  std::uint64_t work[kWorkCounts] = {};
  std::uint64_t aux[kAuxCounts] = {};
  double layerNs[kLayers] = {};  ///< raw, traced passes only
};

/// A calibration window of the timed phase.
struct CalWindow {
  CalPoint point;
  double startNs = 0;
  double endNs = 0;
};

struct PassResult {
  bool ok = true;
  std::string error;
  double setupRawNs = 0;  ///< this pass's own setup
  double setupScale = 1;  ///< nominal / measured around the setup
  std::vector<OpRecord> ops;
  std::vector<CalWindow> calibrations;
  /// Serving CPU of the whole timed phase outside calibrations, already
  /// normalized per segment (daemon_mix only: its CPU is not per-op).
  double servingCpuNormNs = 0;
  /// Per-layer self times of the traced timed phase, already normalized
  /// (daemon_mix only: its spans run on the daemon's threads, not per op).
  double layerNormNs[kLayers] = {};
  double peakRssKb = 0;  ///< the pass process at the end of the timed phase
  /// First report seen per text id; verification compares it with a cold
  /// analysis, and every later op of that text by hash.
  std::map<std::uint32_t, std::string> reports;
  /// Named per-layer values the pass reads from the daemon or the library
  /// at the end of the timed phase (final cache counters, histograms, ...).
  std::map<std::string, double> values;
};

/// Times a pass's setup between two calibrations, run on as many threads as
/// the setup keeps busy.
class SetupTimer {
 public:
  explicit SetupTimer(int threads = 1)
      : threads_(threads), before_(reference()), t0_(nowNs()) {}
  void finish(PassResult& r) const {
    const double t1 = nowNs();
    const CalPoint after = reference();
    r.setupRawNs = t1 - t0_;
    r.setupScale = kNominalRefMs / ((before_.refMs + after.refMs) / 2);
  }

 private:
  CalPoint reference() const { return threads_ > 1 ? calibrateConcurrent(threads_) : calibrate(); }
  int threads_;
  CalPoint before_;
  double t0_;
};

/// One calibration of the timed phase, with its window.
inline CalWindow calibrationWindow() {
  CalWindow w;
  w.startNs = nowNs();
  w.point = calibrate();
  w.endNs = nowNs();
  return w;
}

std::string encodePass(const PassResult& r);
PassResult decodePass(const std::string& bytes);

/// Everything a pass needs, rebuilt identically from the seed in every
/// process.
struct Inputs {
  Workload workload;
  std::vector<ProgramText> programs;
  TextTable texts;
  std::vector<ScriptOp> script;                 ///< corpus_cold, edit_warm
  std::vector<std::vector<ScriptOp>> clients;   ///< daemon_mix, one per client
};
Inputs buildInputs(Workload w, std::uint64_t seed, int seconds);

/// The benchmark's own spans: one per public call, tagged with the op id,
/// kept in memory and written as Chrome trace JSON when the pass ends.
class BenchTrace {
 public:
  void add(std::uint64_t op, const char* name, double startNs, double durNs, std::uint32_t tid);
  bool write(const std::string& path) const;

 private:
  struct Span {
    std::uint64_t op;
    const char* name;
    double startNs;
    double durNs;
    std::uint32_t tid;
  };
  mutable std::mutex mutex_;
  std::vector<Span> spans_;
};

/// Folds the library tracer's current buffer into per-layer self times
/// (added to `layerNs`), then clears it. Quiescent use only.
void foldLibraryTrace(double* layerNs);

struct PassConfig {
  bool traced = false;
  bool setupOnly = false;
  std::string workDir;   ///< snapshots, sockets and trace files go here
  std::string tracePath; ///< where a traced pass writes its bench spans
};

/// Each pass loads its inputs from the seed inside its timed setup.
PassResult runCorpusCold(std::uint64_t seed, int seconds, const PassConfig& cfg);
PassResult runEditWarm(std::uint64_t seed, int seconds, const PassConfig& cfg);
PassResult runDaemonMix(std::uint64_t seed, int seconds, const PassConfig& cfg);

/// A cold batch analysis of `text` on one thread: parse, analyzeProgramUnit,
/// and the formatted loop reports (one formatLoopAnalysis block plus a blank
/// line per loop). `inspect` sees the analysis before it is destroyed.
/// Throws on a parse or analysis error. This is the reference every op's
/// reports must equal.
std::string coldReport(const std::string& text,
                       const std::function<void(const panorama::ProgramAnalysis&)>& inspect = {});

/// The daemon_mix connection and thread counts, recorded in every output.
inline constexpr int kDaemonClients = 2;
inline constexpr int kDaemonPoolThreads = 2;

}  // namespace perfbench
