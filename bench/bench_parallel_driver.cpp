// The parallel analysis driver bench: corpus-wide wall time across the
// {1, 2, 4, 8} thread × {cache on, cache off} matrix. The classification
// table prints to stdout; the harness records per-config wall times (gated
// with generous CI tolerances), the exact loop count, and the headline
// speedup (ungated — it is a ratio of two noisy timings).
//
// The headline metric compares the driver's default configuration
// (4 threads, memo cache on) against the pre-driver behavior (1 thread,
// cache off). On a single-core host the thread axis cannot improve wall
// time — the config records nproc so readers can tell — and
// the speedup there comes from the memoized symbolic queries; on multi-core
// hosts both axes contribute. The thread effect alone is recorded next to
// it (thread_speedup_t4_cache: 1 vs 4 threads, both cached), with the
// process CPU time per corpus run at both thread counts (ungated).
#include <time.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <string>
#include <vector>

#include "harness.h"
#include "panorama/analysis/driver.h"

using namespace panorama;

namespace {

/// 4-thread + cache wall time recorded in BENCH_parallel_driver.json before
/// the hash-consed symbolic core (same corpus, same single-core host class).
constexpr double kPriorDefaultMs = 63.00;

/// CPU time consumed so far by every thread of the process.
double processCpuMs() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) * 1e3 + static_cast<double>(ts.tv_nsec) / 1e6;
}

struct ConfigResult {
  std::size_t threads = 1;
  bool cache = false;
  double bestMs = 0;
  double bestCpuMs = 0;  ///< process CPU of one corpus run, the least over repeats
  std::size_t loops = 0;
  QueryCache::Stats cacheStats;
  QueryCache::Stats simplifyStats;
  std::string fingerprint;  ///< per-loop classifications, for identity checks
};

std::string fingerprintOf(const CorpusAnalysisResult& r) {
  std::string out;
  for (const CorpusRoutineResult& loop : r.loops) {
    out += loop.kernelId;
    out += '|';
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

ConfigResult runConfig(std::size_t threads, bool cache, int repeats) {
  ConfigResult cr;
  cr.threads = threads;
  cr.cache = cache;
  cr.bestMs = 1e18;
  cr.bestCpuMs = 1e18;
  QueryCache::global().configure(cache ? QueryCache::kDefaultCapacity : 0);
  for (int r = 0; r < repeats; ++r) {
    AnalysisOptions options;
    options.numThreads = threads;
    const double cpu0 = processCpuMs();
    auto t0 = std::chrono::steady_clock::now();
    CorpusAnalysisResult result = analyzeCorpusParallel(options);
    double ms =
        std::chrono::duration<double, std::milli>(std::chrono::steady_clock::now() - t0).count();
    cr.bestMs = std::min(cr.bestMs, ms);
    cr.bestCpuMs = std::min(cr.bestCpuMs, processCpuMs() - cpu0);
    cr.loops = result.loops.size();
    cr.cacheStats = result.cacheStats;
    cr.simplifyStats = result.simplifyStats;
    cr.fingerprint = fingerprintOf(result);
  }
  return cr;
}

bench::BenchResult run() {
  constexpr int kRepeats = 5;
  std::vector<ConfigResult> matrix;
  for (std::size_t threads : {1u, 2u, 4u, 8u})
    for (bool cache : {false, true}) matrix.push_back(runConfig(threads, cache, kRepeats));
  QueryCache::global().configure(QueryCache::kDefaultCapacity);

  bool identical = true;
  for (const ConfigResult& c : matrix)
    identical = identical && c.fingerprint == matrix.front().fingerprint;

  double baselineMs = 0, defaultMs = 0, cachedOneThreadMs = 0, cpuOneMs = 0, cpuFourMs = 0;
  for (const ConfigResult& c : matrix) {
    if (c.threads == 1 && !c.cache) baselineMs = c.bestMs;
    if (c.threads == 1 && c.cache) {
      cachedOneThreadMs = c.bestMs;
      cpuOneMs = c.bestCpuMs;
    }
    if (c.threads == 4 && c.cache) {
      defaultMs = c.bestMs;
      cpuFourMs = c.bestCpuMs;
    }
  }

  std::printf("parallel driver — corpus wall time across the thread × cache matrix\n");
  std::printf("%7s | %-5s | %8s | %5s | query cache hit%% | simplify hit%%\n", "threads", "cache",
              "wall ms", "loops");
  for (const ConfigResult& c : matrix)
    std::printf("%7zu | %-5s | %8.2f | %5zu | %15.1f%% | %12.1f%%\n", c.threads,
                c.cache ? "on" : "off", c.bestMs, c.loops, 100.0 * c.cacheStats.hitRate(),
                100.0 * c.simplifyStats.hitRate());
  std::printf("headline: %.2f ms (1 thread, cache off) -> %.2f ms (4 threads, cache on), %.2fx\n",
              baselineMs, defaultMs, baselineMs / defaultMs);
  std::printf("threads alone (cache on): %.2fx wall; CPU per run %.2f ms (1 thread) vs %.2f ms "
              "(4 threads)\n",
              cachedOneThreadMs / defaultMs, cpuOneMs, cpuFourMs);

  bench::BenchResult result;
  result.addConfig("corpus", "perfect (Table 1/2 kernels)");
  result.addConfig("nproc", std::to_string(ThreadPool::defaultConcurrency()));
  result.addConfig("baseline", "1 thread, cache off (pre-driver behavior)");
  result.addConfig("comparison", "4 threads, cache on (driver default)");
  result.addConfig("prior_snapshot", "mutable SymExpr/Pred values (pre-interning)");
  for (const ConfigResult& c : matrix) {
    std::string key = "wall_ms_t" + std::to_string(c.threads) + (c.cache ? "_cache" : "_nocache");
    result.add(key, c.bestMs, bench::Direction::LowerIsBetter, 3.0, "ms");
  }
  result.add("loops", static_cast<double>(matrix.front().loops), bench::Direction::Exact);
  result.add("baseline_wall_ms", baselineMs, bench::Direction::LowerIsBetter, 3.0, "ms");
  result.add("comparison_wall_ms", defaultMs, bench::Direction::LowerIsBetter, 3.0, "ms");
  result.add("speedup", baselineMs / defaultMs, bench::Direction::HigherIsBetter, 1.0, "x")
      .gated = false;
  result
      .add("thread_speedup_t4_cache", cachedOneThreadMs / defaultMs,
           bench::Direction::HigherIsBetter, 1.0, "x")
      .gated = false;
  result.add("cpu_ms_t1_cache", cpuOneMs, bench::Direction::LowerIsBetter, 1.0, "ms").gated = false;
  result.add("cpu_ms_t4_cache", cpuFourMs, bench::Direction::LowerIsBetter, 1.0, "ms").gated = false;
  result
      .add("speedup_vs_prior", kPriorDefaultMs / defaultMs, bench::Direction::HigherIsBetter, 1.0,
           "x")
      .gated = false;
  if (!identical) result.fail("per-loop reports diverge across thread/cache configurations");
  return result;
}

const bench::Registration reg{{"parallel_driver", /*repetitions=*/1, /*warmup=*/0, run}};

}  // namespace
