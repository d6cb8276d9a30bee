// A command-line driver — the closest thing to running the original
// Panorama analyzer: read a Fortran file (or a built-in corpus kernel),
// analyze it, and print the parallelization report.
//
//   panorama_driver file.f                analyze a file
//   panorama_driver --corpus              list built-in kernels
//   panorama_driver --corpus NAME         analyze a built-in kernel (an exact id,
//                                         fig1a/b/c, or a unique substring)
//   panorama_driver --corpus-run          analyze the whole Table 1/2 corpus
//   panorama_driver file.f --reanalyze=EDITED.f
//                                         warm re-analysis: analyze file.f,
//                                         then re-submit EDITED.f through the
//                                         incremental session and report only
//                                         what the dirty cone recomputed
//   flags: --no-symbolic --no-if-conditions --no-interprocedural
//          --quantified --summaries --hsg
//          --threads=N --no-cache --no-prefilter --stats
//   observability: --trace=FILE  (Chrome trace-event JSON, chrome://tracing)
//                  --metrics=FILE (unified metrics-registry JSON dump)
//                  --profile=FILE (hierarchical cost profile, DESIGN.md §4.5)
//                  --dump-ir=FILE (frontend-neutral IR pretty-print)
//                  --explain     (per-loop decision provenance)
//   service mode (DESIGN.md §4.8):
//     panorama_driver --daemon=SOCKET       serve clients over a Unix socket
//     panorama_driver file.f --save-session=S.pano
//                                           analyze, then snapshot the session
//     panorama_driver file.f --load-session=S.pano
//                                           restore a snapshot, warm-submit file.f
//
// Inputs ending in .cl / .clike parse through the C-like frontend
// (frontend/clike.h); everything else through the Fortran-77 parser. Both
// converge on the same pre-sema Program.
#include <charconv>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <sstream>

#include "panorama/analysis/analysis.h"
#include "panorama/analysis/driver.h"
#include "panorama/builder/builder.h"
#include "panorama/codegen/annotate.h"
#include "panorama/corpus/corpus.h"
#include "panorama/frontend/clike.h"
#include "panorama/frontend/parser.h"
#include "panorama/obs/metrics.h"
#include "panorama/obs/profile.h"
#include "panorama/obs/trace.h"
#include "panorama/predicate/arena.h"
#include "panorama/predicate/fm_incremental.h"
#include "panorama/predicate/intern.h"
#include "panorama/region/region.h"
#include "panorama/session/session.h"
#include "panorama/store/daemon.h"
#include "panorama/symbolic/arena.h"

using namespace panorama;

namespace {

void printArenaStats() {
  ExprArena::Stats es = ExprArena::global().stats();
  PredArena::Stats ps = PredArena::global().stats();
  std::printf("expr arena: %zu distinct exprs, %zu bytes, shard occupancy %zu..%zu\n",
              es.distinct, es.bytes, es.minShard, es.maxShard);
  std::printf("pred arena: %zu distinct preds, %zu bytes, shard occupancy %zu..%zu\n",
              ps.distinct, ps.bytes, ps.minShard, ps.maxShard);
  AtomTableStats as = atomTableStats();
  std::printf("atom table: %zu distinct atoms, %zu stored negations, %zu bytes\n", as.distinct,
              as.negations, as.bytes);
  RegionTable::Stats rs = RegionTable::global().stats();
  std::printf("region table: %zu distinct regions, %zu bytes, shard occupancy %zu..%zu\n",
              rs.distinct, rs.bytes, rs.minShard, rs.maxShard);
}

int usage() {
  std::fprintf(stderr,
               "usage: panorama_driver [flags] <file.f>\n"
               "       panorama_driver --corpus [NAME]\n"
               "       panorama_driver --corpus-run\n"
               "       panorama_driver [flags] <file.f> --reanalyze=EDITED.f\n"
               "flags: --no-symbolic --no-if-conditions --no-interprocedural\n"
               "       --no-prefilter (FM-only queries in every mode: disable the query tier)\n"
               "       --quantified --summaries --hsg --annotate\n"
               "       --threads=N (0 = all cores) --no-cache --stats\n"
               "       --trace=FILE --metrics=FILE --profile=FILE --dump-ir=FILE --explain\n"
               "service: --daemon=SOCKET (serve clients; see panorama_client)\n"
               "         --slow-ms=N (slow-request event threshold, default 500)\n"
               "         --telemetry-interval=MS (periodic self-snapshot events; 0 = off)\n"
               "         --event-log=FILE (dump the daemon event log as JSONL)\n"
               "         --save-session=FILE --load-session=FILE (session snapshots)\n"
               "inputs ending in .cl/.clike parse through the C-like frontend\n");
  return 2;
}

/// Strict value parsing for --flag=N arguments: the whole value must be a
/// non-negative decimal integer; anything else (empty, trailing junk, signs)
/// is rejected with a diagnostic naming the flag.
bool parseCountFlag(std::string_view arg, std::string_view prefix, std::size_t& out) {
  std::string_view value = arg.substr(prefix.size());
  std::size_t parsed = 0;
  const char* end = value.data() + value.size();
  auto [ptr, ec] = std::from_chars(value.data(), end, parsed);
  if (value.empty() || ec != std::errc() || ptr != end) {
    std::fprintf(stderr, "invalid value '%.*s' for %.*s: expected a non-negative integer\n",
                 static_cast<int>(value.size()), value.data(),
                 static_cast<int>(prefix.size() - 1), prefix.data());
    return false;
  }
  out = parsed;
  return true;
}

/// Writes the requested observability artifacts after a run; reports and
/// returns false when an output file cannot be written. The cost profile is
/// built from the global tracer's span snapshot with the global cache
/// counters attached; `sessions` carries per-submit reuse records on
/// --reanalyze runs.
bool writeObsArtifacts(const std::string& tracePath, const std::string& metricsPath,
                       const std::string& profilePath,
                       const std::vector<obs::SessionReuse>& sessions = {}) {
  if (!tracePath.empty()) {
    if (!obs::Tracer::global().writeChromeTrace(tracePath)) {
      std::fprintf(stderr, "cannot write trace file '%s'\n", tracePath.c_str());
      return false;
    }
    std::fprintf(stderr, "trace: %zu events -> %s\n", obs::Tracer::global().eventCount(),
                 tracePath.c_str());
  }
  if (!metricsPath.empty()) {
    if (!obs::MetricsRegistry::global().writeJson(metricsPath)) {
      std::fprintf(stderr, "cannot write metrics file '%s'\n", metricsPath.c_str());
      return false;
    }
    std::fprintf(stderr, "metrics -> %s\n", metricsPath.c_str());
  }
  if (!profilePath.empty()) {
    obs::CostProfile profile = obs::buildCostProfile(obs::Tracer::global().snapshot());
    const QueryCache::Stats qc = QueryCache::global().stats();
    const QueryCache::Stats memo = simplifyMemoStats();
    profile.caches.push_back({"query cache", qc.hits, qc.misses, qc.entries, qc.evictions});
    profile.caches.push_back(
        {"simplify memo", memo.hits, memo.misses, memo.entries, memo.evictions});
    profile.sessions = sessions;
    const std::string json = obs::renderCostProfileJson(profile);
    FILE* f = std::fopen(profilePath.c_str(), "w");
    bool ok = f != nullptr && std::fwrite(json.data(), 1, json.size(), f) == json.size();
    if (f) ok = (std::fclose(f) == 0) && ok;
    if (!ok) {
      std::fprintf(stderr, "cannot write profile file '%s'\n", profilePath.c_str());
      return false;
    }
    std::fprintf(stderr, "profile: %zu span(s) -> %s\n",
                 static_cast<std::size_t>(profile.events), profilePath.c_str());
  }
  return true;
}

/// --corpus-run: the whole Table 1/2 corpus through the parallel driver, with
/// per-loop reports (plus provenance under --explain) and the registry-driven
/// stats block.
int runWholeCorpus(const AnalysisOptions& options, bool explain, const std::string& tracePath,
                   const std::string& metricsPath, const std::string& profilePath,
                   const std::string& dumpIrPath) {
  CorpusAnalysisResult result = analyzeCorpusParallel(options);
  for (const CorpusRoutineResult& r : result.loops) {
    std::printf("[%s]\n%s", r.kernelId.c_str(), r.report.c_str());
    if (explain) std::printf("%s", r.provenance.c_str());
    std::printf("\n");
  }
  std::printf("%s", formatCorpusStats(result).c_str());
  if (!dumpIrPath.empty()) {
    // One concatenated dump, kernels in corpus order.
    std::string text;
    std::size_t procs = 0;
    for (const CorpusLoop& cl : perfectCorpus()) {
      DiagnosticEngine diags;
      std::optional<Program> program = parseProgram(cl.source, diags);
      if (!program) continue;
      if (!text.empty()) text += '\n';
      text += "// kernel " + cl.id + '\n';
      text += builder::dumpIr(*program);
      procs += program->procedures.size();
    }
    FILE* f = std::fopen(dumpIrPath.c_str(), "w");
    bool ok = f != nullptr && std::fwrite(text.data(), 1, text.size(), f) == text.size();
    if (f) ok = (std::fclose(f) == 0) && ok;
    if (!ok) {
      std::fprintf(stderr, "cannot write IR dump file '%s'\n", dumpIrPath.c_str());
      return 1;
    }
    std::fprintf(stderr, "ir: %zu procedure(s) -> %s\n", procs, dumpIrPath.c_str());
  }
  return writeObsArtifacts(tracePath, metricsPath, profilePath) ? 0 : 1;
}

/// Publishes the single-file run's stats into the global registry so that
/// --metrics and --stats read the same source of truth as the corpus driver.
void publishFileRunMetrics(const SummaryStats& s, const QueryCache::Stats& qc,
                           const QueryCache::Stats& memo) {
  obs::MetricsRegistry& reg = obs::MetricsRegistry::global();
  reg.counter("summary.block_steps").set(s.blockSteps);
  reg.counter("summary.loop_expansions").set(s.loopExpansions);
  reg.counter("summary.call_mappings").set(s.callMappings);
  reg.counter("summary.peak_list_length").set(s.peakListLength);
  reg.counter("summary.gars_created").set(s.garsCreated);
  reg.counter("query_cache.hits").set(qc.hits);
  reg.counter("query_cache.misses").set(qc.misses);
  reg.counter("query_cache.entries").set(qc.entries);
  reg.counter("query_cache.evictions").set(qc.evictions);
  reg.counter("simplify_memo.hits").set(memo.hits);
  reg.counter("simplify_memo.misses").set(memo.misses);
  reg.counter("simplify_memo.entries").set(memo.entries);
  reg.counter("simplify_memo.evictions").set(memo.evictions);
}

/// --corpus NAME: an exact kernel id, or a substring of exactly one id.
/// Anything else prints a diagnostic, naming every match when NAME is
/// ambiguous, and returns false.
bool findCorpusKernel(std::string_view name, std::string& source) {
  std::vector<const CorpusLoop*> matches;
  for (const CorpusLoop& cl : perfectCorpus()) {
    if (cl.id == name) {
      source = cl.source;
      return true;
    }
    if (cl.id.find(name) != std::string::npos) matches.push_back(&cl);
  }
  if (matches.size() == 1) {
    source = matches.front()->source;
    return true;
  }
  const int len = static_cast<int>(name.size());
  if (matches.empty()) {
    std::fprintf(stderr, "unknown corpus kernel '%.*s'\n", len, name.data());
    return false;
  }
  std::fprintf(stderr, "ambiguous corpus kernel '%.*s' matches %zu kernels:\n", len,
               name.data(), matches.size());
  for (const CorpusLoop* cl : matches) std::fprintf(stderr, "  %s\n", cl->id.c_str());
  return false;
}

/// True for inputs the C-like frontend owns (see clike.h).
bool isCLikeInput(std::string_view name) {
  auto endsWith = [&](std::string_view suffix) {
    return name.size() >= suffix.size() &&
           name.compare(name.size() - suffix.size(), suffix.size(), suffix) == 0;
  };
  return endsWith(".cl") || endsWith(".clike");
}

/// Frontend dispatch: one pre-sema Program regardless of surface syntax.
std::optional<Program> parseInput(const std::string& inputName, const std::string& source,
                                  DiagnosticEngine& diags) {
  if (isCLikeInput(inputName)) return parseCLike(source, diags);
  return parseProgram(source, diags);
}

/// --dump-ir=FILE: pretty-prints the frontend-neutral IR. Fails (with a
/// diagnostic, like --trace/--metrics/--profile) when FILE is unwritable.
bool writeIrDump(const std::string& path, const Program& program) {
  if (path.empty()) return true;
  const std::string text = builder::dumpIr(program);
  FILE* f = std::fopen(path.c_str(), "w");
  bool ok = f != nullptr && std::fwrite(text.data(), 1, text.size(), f) == text.size();
  if (f) ok = (std::fclose(f) == 0) && ok;
  if (!ok) {
    std::fprintf(stderr, "cannot write IR dump file '%s'\n", path.c_str());
    return false;
  }
  std::fprintf(stderr, "ir: %zu procedure(s) -> %s\n", program.procedures.size(), path.c_str());
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  AnalysisOptions options;
  options.numThreads = 1;  // interactive default: analyze on the calling thread
  std::size_t memoCapacity = QueryCache::kDefaultCapacity;
  bool queryTier = true;
  bool showSummaries = false;
  bool showHsg = false;
  bool annotateOutput = false;
  bool showStats = false;
  bool explain = false;
  bool corpusRun = false;
  std::string tracePath;
  std::string metricsPath;
  std::string profilePath;
  std::string dumpIrPath;
  std::string reanalyzePath;
  std::string daemonSocket;
  store::DaemonConfig daemonConfig;
  bool sawTelemetryFlag = false;
  std::string saveSessionPath;
  std::string loadSessionPath;
  std::string source;
  std::string inputName;

  for (int k = 1; k < argc; ++k) {
    std::string_view arg = argv[k];
    if (arg == "--no-symbolic") {
      options.symbolicAnalysis = false;
    } else if (arg == "--no-if-conditions") {
      options.ifConditions = false;
    } else if (arg == "--no-interprocedural") {
      options.interprocedural = false;
    } else if (arg == "--quantified") {
      options.quantified = true;
    } else if (arg == "--no-prefilter") {
      queryTier = false;
    } else if (arg == "--summaries") {
      showSummaries = true;
      options.computeDE = true;  // for the DE_i line; no verdict reads DE
    } else if (arg == "--hsg") {
      showHsg = true;
    } else if (arg == "--annotate") {
      annotateOutput = true;
    } else if (arg.rfind("--threads=", 0) == 0) {
      if (!parseCountFlag(arg, "--threads=", options.numThreads)) return 2;
    } else if (arg.rfind("--reanalyze=", 0) == 0) {
      reanalyzePath = std::string(arg.substr(12));
      if (reanalyzePath.empty()) {
        std::fprintf(stderr, "--reanalyze needs a file argument\n");
        return 2;
      }
    } else if (arg.rfind("--daemon=", 0) == 0) {
      daemonSocket = std::string(arg.substr(9));
      if (daemonSocket.empty()) {
        std::fprintf(stderr, "--daemon needs a socket path\n");
        return 2;
      }
    } else if (arg.rfind("--slow-ms=", 0) == 0) {
      if (!parseCountFlag(arg, "--slow-ms=", daemonConfig.slowMs)) return 2;
      sawTelemetryFlag = true;
    } else if (arg.rfind("--telemetry-interval=", 0) == 0) {
      if (!parseCountFlag(arg, "--telemetry-interval=", daemonConfig.telemetryIntervalMs))
        return 2;
      sawTelemetryFlag = true;
    } else if (arg.rfind("--event-log=", 0) == 0) {
      daemonConfig.eventLogPath = std::string(arg.substr(12));
      if (daemonConfig.eventLogPath.empty()) {
        std::fprintf(stderr, "--event-log needs a file argument\n");
        return 2;
      }
      sawTelemetryFlag = true;
    } else if (arg.rfind("--save-session=", 0) == 0) {
      saveSessionPath = std::string(arg.substr(15));
      if (saveSessionPath.empty()) {
        std::fprintf(stderr, "--save-session needs a file argument\n");
        return 2;
      }
    } else if (arg.rfind("--load-session=", 0) == 0) {
      loadSessionPath = std::string(arg.substr(15));
      if (loadSessionPath.empty()) {
        std::fprintf(stderr, "--load-session needs a file argument\n");
        return 2;
      }
    } else if (arg == "--no-cache") {
      memoCapacity = 0;
    } else if (arg == "--stats") {
      showStats = true;
    } else if (arg == "--explain") {
      explain = true;
    } else if (arg.rfind("--trace=", 0) == 0) {
      tracePath = std::string(arg.substr(8));
    } else if (arg.rfind("--metrics=", 0) == 0) {
      metricsPath = std::string(arg.substr(10));
    } else if (arg.rfind("--profile=", 0) == 0) {
      profilePath = std::string(arg.substr(10));
    } else if (arg.rfind("--dump-ir=", 0) == 0) {
      dumpIrPath = std::string(arg.substr(10));
      if (dumpIrPath.empty()) {
        std::fprintf(stderr, "--dump-ir needs a file argument\n");
        return 2;
      }
    } else if (arg == "--corpus-run") {
      corpusRun = true;
    } else if (arg == "--corpus") {
      if (k + 1 >= argc) {
        for (const CorpusLoop& cl : perfectCorpus()) std::printf("%s\n", cl.id.c_str());
        std::printf("fig1a\nfig1b\nfig1c\n");
        return 0;
      }
      std::string_view name = argv[++k];
      if (name == "fig1a") source = fig1aSource();
      else if (name == "fig1b") source = fig1bSource();
      else if (name == "fig1c") source = fig1cSource();
      else if (!findCorpusKernel(name, source)) return 2;
      inputName = name;
    } else if (!arg.empty() && arg[0] == '-') {
      return usage();
    } else {
      std::ifstream in{std::string(arg)};
      if (!in) {
        std::fprintf(stderr, "cannot open '%s'\n", argv[k]);
        return 2;
      }
      std::ostringstream buf;
      buf << in.rdbuf();
      source = buf.str();
      inputName = arg;
    }
  }
  // The memo capacity and the query tier are process settings: made once
  // here, for every mode.
  QueryCache::global().configure(memoCapacity);
  setQueryTierEnabled(queryTier);
  // The cost profile aggregates span buffers, so --profile implies tracing.
  if (!tracePath.empty() || !profilePath.empty()) obs::Tracer::global().enable();

  if (daemonSocket.empty() && sawTelemetryFlag) {
    std::fprintf(stderr,
                 "--slow-ms/--telemetry-interval/--event-log need --daemon\n");
    return 2;
  }

  if (!daemonSocket.empty()) {
    if (!source.empty() || corpusRun || !reanalyzePath.empty() || !saveSessionPath.empty() ||
        !loadSessionPath.empty()) {
      std::fprintf(stderr, "--daemon runs standalone; drop the input file and session flags\n");
      return 2;
    }
    store::Daemon daemon(daemonSocket, options, daemonConfig);
    std::string error;
    if (!daemon.start(error)) {
      std::fprintf(stderr, "cannot start daemon: %s\n", error.c_str());
      return 1;
    }
    std::fprintf(stderr, "panorama_driver: serving on %s\n", daemonSocket.c_str());
    daemon.wait();
    return writeObsArtifacts(tracePath, metricsPath, profilePath) ? 0 : 1;
  }

  if (corpusRun)
    return runWholeCorpus(options, explain, tracePath, metricsPath, profilePath, dumpIrPath);
  if (source.empty()) return usage();

  if (!saveSessionPath.empty() || !loadSessionPath.empty()) {
    // Session-snapshot mode: the single-file run goes through an
    // AnalysisSession so its state can be restored/saved around the submit.
    // Loop reports print in the same order and format as the batch path, so
    // the two outputs diff clean (driver_cli_test gates this).
    if (!reanalyzePath.empty()) {
      std::fprintf(stderr, "--save-session/--load-session cannot combine with --reanalyze\n");
      return 2;
    }
    DiagnosticEngine pdiags;
    std::optional<Program> program = parseInput(inputName, source, pdiags);
    if (!program) {
      std::fprintf(stderr, "%s: parse failed\n%s", inputName.c_str(), pdiags.str().c_str());
      return 1;
    }
    if (!writeIrDump(dumpIrPath, *program)) return 1;

    AnalysisSession session(options);
    if (!loadSessionPath.empty()) {
      store::StoreResult r = session.restore(loadSessionPath);
      if (!r.ok) {
        std::fprintf(stderr, "cannot load session: %s\n", r.error.c_str());
        return 1;
      }
      std::fprintf(stderr, "session <- %s (epoch %llu)\n", loadSessionPath.c_str(),
                   static_cast<unsigned long long>(session.epoch()));
    }
    SessionResult result = session.submit(std::move(*program));
    if (!result.ok) {
      std::fprintf(stderr, "%s: analysis failed\n%s", inputName.c_str(), result.error.c_str());
      return 1;
    }
    publishSessionMetrics(result.stats);
    std::printf("%s: %zu loop(s)\n\n", inputName.c_str(), result.loops.size());
    for (const SessionLoopResult& r : result.loops) {
      std::printf("%s", r.report.c_str());
      if (explain) std::printf("%s", r.provenance.c_str());
      std::printf("\n");
    }
    if (explain && !showStats) {
      // --stats prints these inside the full stats block; under --explain
      // alone, still surface why each cached loop verdict was reusable.
      for (const LoopReuse& lr : result.stats.loopReuse)
        std::printf("session.loop_reuse_cause: %s (line %lld): %s -- %s\n", lr.unit.c_str(),
                    static_cast<long long>(lr.line), lr.cause.c_str(), lr.detail.c_str());
    }
    if (showStats) {
      std::printf("%s", formatSessionStats(result.stats).c_str());
      printArenaStats();
    }
    if (!saveSessionPath.empty()) {
      store::StoreResult r = session.save(saveSessionPath);
      if (!r.ok) {
        std::fprintf(stderr, "cannot save session: %s\n", r.error.c_str());
        return 1;
      }
      std::fprintf(stderr, "session -> %s\n", saveSessionPath.c_str());
    }
    return writeObsArtifacts(tracePath, metricsPath, profilePath,
                             {result.stats})
               ? 0
               : 1;
  }

  if (!reanalyzePath.empty()) {
    // Incremental session: cold-analyze the primary input, then warm-submit
    // the edited file. Reports cover every loop; the session stats show how
    // small the dirty cone was.
    std::ifstream in{reanalyzePath};
    if (!in) {
      std::fprintf(stderr, "cannot open '%s'\n", reanalyzePath.c_str());
      return 2;
    }
    std::ostringstream buf;
    buf << in.rdbuf();

    // Both submits go through the frontend-neutral entry point: parse (by
    // extension-dispatched frontend) here, submit(Program) below.
    DiagnosticEngine pdiags;
    std::optional<Program> coldProgram = parseInput(inputName, source, pdiags);
    if (!coldProgram) {
      std::fprintf(stderr, "%s: parse failed\n%s", inputName.c_str(), pdiags.str().c_str());
      return 1;
    }
    if (!writeIrDump(dumpIrPath, *coldProgram)) return 1;
    std::optional<Program> warmProgram = parseInput(reanalyzePath, buf.str(), pdiags);
    if (!warmProgram) {
      std::fprintf(stderr, "%s: parse failed\n%s", reanalyzePath.c_str(), pdiags.str().c_str());
      return 1;
    }

    AnalysisSession session(options);
    SessionResult cold = session.submit(std::move(*coldProgram));
    if (!cold.ok) {
      std::fprintf(stderr, "%s: analysis failed\n%s", inputName.c_str(), cold.error.c_str());
      return 1;
    }
    SessionResult warm = session.submit(std::move(*warmProgram));
    if (!warm.ok) {
      std::fprintf(stderr, "%s: re-analysis failed\n%s", reanalyzePath.c_str(),
                   warm.error.c_str());
      return 1;
    }
    publishSessionMetrics(warm.stats);
    std::printf("%s: %zu loop(s) after re-analysis of %s\n\n", inputName.c_str(),
                warm.loops.size(), reanalyzePath.c_str());
    for (const SessionLoopResult& r : warm.loops) {
      std::printf("%s", r.report.c_str());
      if (explain) std::printf("%s", r.provenance.c_str());
      std::printf("\n");
    }
    std::printf("%s", formatSessionStats(warm.stats).c_str());
    if (showStats) printArenaStats();
    // The profile embeds both submits' reuse records: the cold epoch shows
    // what a full run costs, the warm epoch attributes every dirty unit to
    // its invalidation cause.
    return writeObsArtifacts(tracePath, metricsPath, profilePath,
                             {cold.stats, warm.stats})
               ? 0
               : 1;
  }

  DiagnosticEngine diags;
  auto program = parseInput(inputName, source, diags);
  if (!program) {
    std::fprintf(stderr, "%s: parse failed\n%s", inputName.c_str(), diags.str().c_str());
    return 1;
  }
  if (!writeIrDump(dumpIrPath, *program)) return 1;

  ThreadPool pool(options.numThreads);
  ProgramAnalysis pa = analyzeProgramUnit(std::move(*program), options, pool);
  if (!pa.ok) {
    std::fprintf(stderr, "%s: analysis failed\n%s", inputName.c_str(), pa.error.c_str());
    return 1;
  }

  if (showHsg) {
    for (const Procedure& proc : pa.program.procedures) {
      std::printf("---- HSG of %s ----\n%s\n", proc.name.c_str(),
                  pa.hsg.of(proc).graph.str().c_str());
    }
  }

  if (annotateOutput) {
    std::printf("%s", emitParallelSource(pa.program, pa.loops).c_str());
    // --annotate used to return early and silently drop --trace/--metrics
    // dumps; artifacts (and their failure exit) apply here too.
    publishFileRunMetrics(pa.analyzer->stats(), QueryCache::global().stats(),
                          simplifyMemoStats());
    return writeObsArtifacts(tracePath, metricsPath, profilePath) ? 0 : 1;
  }

  std::printf("%s: %zu loop(s)\n\n", inputName.c_str(), pa.loops.size());
  for (const LoopAnalysis& la : pa.loops) {
    std::printf("%s", formatLoopAnalysis(la).c_str());
    if (explain) std::printf("%s", formatProvenance(la).c_str());
    if (showSummaries && la.loop) {
      const LoopSummary* ls = pa.analyzer->loopSummary(la.loop);
      if (ls) {
        const SymbolTable& tab = pa.sema.symbols;
        const ArrayTable& arrays = pa.sema.arrays;
        std::printf("      MOD_i  = %s\n", ls->modIter.str(tab, arrays).c_str());
        std::printf("      UE_i   = %s\n", ls->ueIter.str(tab, arrays).c_str());
        std::printf("      DE_i   = %s\n", ls->deIter.str(tab, arrays).c_str());
        std::printf("      MOD_<i = %s\n", ls->modBefore.str(tab, arrays).c_str());
        std::printf("      MOD(L) = %s\n", ls->mod.str(tab, arrays).c_str());
        std::printf("      UE(L)  = %s\n", ls->ue.str(tab, arrays).c_str());
      }
    }
    std::printf("\n");
  }

  SummaryStats s = pa.analyzer->stats();
  QueryCache::Stats qc = QueryCache::global().stats();
  QueryCache::Stats memo = simplifyMemoStats();
  publishFileRunMetrics(s, qc, memo);

  if (showStats) {
    std::printf("%s\n",
                obs::renderSummaryCost(s.blockSteps, s.loopExpansions, s.callMappings,
                                       s.peakListLength, s.garsCreated)
                    .c_str());
    std::printf("%s\n", formatQueryCacheStats(qc).c_str());
    std::printf("%s\n", obs::renderCacheCounters("simplify memo", memo.hits, memo.misses,
                                                 memo.entries, memo.evictions,
                                                 /*rateDecimals=*/1)
                            .c_str());
    printArenaStats();
  }
  return writeObsArtifacts(tracePath, metricsPath, profilePath) ? 0 : 1;
}
