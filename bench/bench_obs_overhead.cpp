// The observability overhead contract: tracing compiled into the analysis
// pipeline must be near-free when disabled and must not perturb verdicts
// when enabled — and the daemon's always-on telemetry plane (DESIGN.md
// §4.10) must not tax the submit path.
//
// Wall-clock deltas between two full corpus runs sit inside scheduler noise
// on small corpora, so the disabled-path cost is estimated deterministically
// instead: (spans one traced corpus run records) × (measured cost of one
// disabled Span, microbenched over millions of iterations) as a fraction of
// the untraced corpus wall time. That estimate carries a hard harness
// contract (Metric::maxValue = 2%), so the gate holds on every run with or
// without a baseline; the bench also fails when the enabled run does not
// reproduce the disabled run's reports byte-for-byte.
//
// The telemetry section applies the same recipe to the daemon: the per-
// submit telemetry time T is (events a real submit appends) × (microbenched
// EventLog::append cost) + (three per-op latency histograms) × (microbenched
// Histogram::observe cost). A real socket submit against a live daemon takes
// wall W, T included, so T / (W − T) is the share telemetry adds to the
// submit it rides on. That estimate carries its own hard <= 2% contract; W
// is recorded alongside as (noisy, ungated) context.
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <string>
#include <utility>
#include <vector>

#include "harness.h"
#include "panorama/analysis/driver.h"
#include "panorama/obs/metrics.h"
#include "panorama/obs/profile.h"
#include "panorama/obs/telemetry.h"
#include "panorama/obs/trace.h"
#include "panorama/store/daemon.h"
#include "panorama/store/protocol.h"
#include "panorama/support/json.h"

using namespace panorama;

namespace {

constexpr double kMaxOverheadPct = 2.0;

/// 4-thread corpus wall time committed in BENCH_parallel_driver.json by the
/// parallel-driver PR, before the obs subsystem existed (informational
/// context for the absolute numbers below; the contract is relative).
constexpr double kPreObsDefaultMs = 24.13;

std::string fingerprintOf(const CorpusAnalysisResult& r) {
  std::string out;
  for (const CorpusRoutineResult& loop : r.loops) {
    out += loop.kernelId;
    out += '|';
    out += loop.report;
    out += loop.provenanceSummary;
    out += '\n';
  }
  return out;
}

struct CorpusTiming {
  double bestMs = 1e18;
  std::string fingerprint;
};

CorpusTiming timeCorpus(bool traced, int repeats) {
  CorpusTiming t;
  AnalysisOptions options;
  options.numThreads = 4;
  for (int r = 0; r < repeats; ++r) {
    if (traced) {
      obs::Tracer::global().clear();
      obs::Tracer::global().enable();
    } else {
      obs::Tracer::global().disable();
    }
    auto t0 = std::chrono::steady_clock::now();
    CorpusAnalysisResult result = analyzeCorpusParallel(options);
    double ms =
        std::chrono::duration<double, std::milli>(std::chrono::steady_clock::now() - t0).count();
    t.bestMs = std::min(t.bestMs, ms);
    t.fingerprint = fingerprintOf(result);
  }
  obs::Tracer::global().disable();
  return t;
}

/// Cost of one Span construct+destruct with tracing disabled: the relaxed
/// load + branch the hot paths pay on every span site. The empty asm keeps
/// the compiler from collapsing the loop.
double measureDisabledSpanNs() {
  obs::Tracer::global().disable();
  constexpr std::size_t kIters = 4'000'000;
  double best = 1e18;
  for (int rep = 0; rep < 3; ++rep) {
    auto t0 = std::chrono::steady_clock::now();
    for (std::size_t k = 0; k < kIters; ++k) {
      obs::Span span("bench.overhead", "disabled");
      asm volatile("" ::: "memory");
    }
    double ns =
        std::chrono::duration<double, std::nano>(std::chrono::steady_clock::now() - t0).count() /
        static_cast<double>(kIters);
    best = std::min(best, ns);
  }
  return best;
}

struct CorpusTrace {
  std::size_t spans = 0;
  std::string profileJson;  ///< the run's CostProfile, embedded in snapshots
};

/// Spans one traced corpus run records — the number of disabled
/// constructor/destructor pairs an untraced run executes — plus the cost
/// profile of that run for the snapshot record. The run uses one thread:
/// the corpus run clears the memo tables first, so each cold query is
/// evaluated, and spanned, exactly once. At 4 threads, workers that miss
/// one verdict-cache key at once each emit a cold query span, and the count
/// moves run to run.
CorpusTrace traceCorpusRun() {
  obs::Tracer::global().clear();
  obs::Tracer::global().enable();
  AnalysisOptions options;
  options.numThreads = 1;
  analyzeCorpusParallel(options);
  obs::Tracer::global().disable();
  CorpusTrace t;
  obs::CostProfile profile = obs::buildCostProfile(obs::Tracer::global().snapshot());
  t.spans = profile.events;
  t.profileJson = obs::renderCostProfileJson(profile);
  obs::Tracer::global().clear();
  return t;
}

/// Cost of one EventLog::append with a submit_end-shaped field set — the
/// most expensive record the daemon writes per submit (one lock, rendered
/// into its ring slot).
double measureEventAppendNs() {
  obs::EventLog log(4096);
  constexpr std::size_t kIters = 200'000;
  double best = 1e18;
  for (int rep = 0; rep < 3; ++rep) {
    auto t0 = std::chrono::steady_clock::now();
    for (std::size_t k = 0; k < kIters; ++k) {
      log.append(obs::EventKind::SubmitEnd, obs::EventFields()
                                                .num("client", std::uint64_t{1})
                                                .str("name", "bench.f")
                                                .str("session", "bench")
                                                .num("epoch", std::uint64_t{k})
                                                .num("dirty", std::uint64_t{1})
                                                .num("loops", std::uint64_t{1})
                                                .num("wall_us", std::uint64_t{1234})
                                                .take());
    }
    double ns =
        std::chrono::duration<double, std::nano>(std::chrono::steady_clock::now() - t0).count() /
        static_cast<double>(kIters);
    best = std::min(best, ns);
  }
  return best;
}

/// Cost of one Histogram::observe — a bit_width plus one uncontended lock
/// around the count/sum/min/max/bucket update.
double measureObserveNs() {
  obs::Histogram h;
  constexpr std::size_t kIters = 4'000'000;
  double best = 1e18;
  for (int rep = 0; rep < 3; ++rep) {
    auto t0 = std::chrono::steady_clock::now();
    for (std::size_t k = 0; k < kIters; ++k) {
      h.observe(k & 0xffff);
      asm volatile("" ::: "memory");
    }
    double ns =
        std::chrono::duration<double, std::nano>(std::chrono::steady_clock::now() - t0).count() /
        static_cast<double>(kIters);
    best = std::min(best, ns);
  }
  return best;
}

const char* kDaemonProgA = R"(
      subroutine bench(a, n)
      integer n
      real a(n)
      real t(100)
      do i = 1, n
        t(i) = a(i) * 2.0
        a(i) = t(i) + 1.0
      enddo
      end
)";

const char* kDaemonProgB = R"(
      subroutine bench(a, n)
      integer n
      real a(n)
      real t(100)
      do i = 1, n
        t(i) = a(i) * 3.0
        a(i) = t(i) + 1.0
      enddo
      end
)";

struct DaemonTiming {
  double perSubmitMs = 0;      ///< best per-submit wall over the repeat blocks
  double eventsPerSubmit = 0;  ///< event-log records one submit appends
  bool ok = false;
};

/// Wall time of one submit over a real socket against a live daemon,
/// alternating two sources into one named session so every submit runs the
/// incremental pipeline (never the whole-file fast path).
DaemonTiming timeDaemonSubmits() {
  DaemonTiming t;
  const std::string sock = "/tmp/pano_bench_" + std::to_string(::getpid()) + ".sock";
  store::Daemon daemon(sock, AnalysisOptions{});
  std::string error;
  if (!daemon.start(error)) {
    std::fprintf(stderr, "bench daemon failed to start: %s\n", error.c_str());
    return t;
  }
  int fd = store::connectUnixSocket(sock, &error);
  if (fd < 0) {
    std::fprintf(stderr, "bench daemon connect failed: %s\n", error.c_str());
    daemon.stop();
    daemon.wait();
    return t;
  }
  auto submit = [&](const char* source) -> bool {
    std::string req = "{\"id\":1,\"op\":\"submit\",\"name\":\"bench.f\",\"session\":\"bench\","
                      "\"source\":\"";
    support::appendJsonEscaped(req, source);
    req += "\"}";
    std::string payload;
    return store::writeFrame(fd, req, &error) &&
           store::readFrame(fd, payload, &error) == store::FrameStatus::Ok;
  };

  constexpr int kBlocks = 3;
  constexpr int kPerBlock = 10;
  bool ok = submit(kDaemonProgA) && submit(kDaemonProgB);  // warm-up
  const std::uint64_t eventsBefore = daemon.eventLog().appended();
  double bestMs = 1e18;
  int timed = 0;
  for (int block = 0; ok && block < kBlocks; ++block) {
    auto t0 = std::chrono::steady_clock::now();
    for (int k = 0; ok && k < kPerBlock; ++k, ++timed)
      ok = submit(timed % 2 == 0 ? kDaemonProgA : kDaemonProgB);
    double ms =
        std::chrono::duration<double, std::milli>(std::chrono::steady_clock::now() - t0).count() /
        kPerBlock;
    bestMs = std::min(bestMs, ms);
  }
  if (ok)
    t.eventsPerSubmit = static_cast<double>(daemon.eventLog().appended() - eventsBefore) /
                        (kBlocks * kPerBlock);
  ::close(fd);
  daemon.stop();
  daemon.wait();
  if (!ok) {
    std::fprintf(stderr, "bench daemon submit failed: %s\n", error.c_str());
    return t;
  }
  t.perSubmitMs = bestMs;
  t.ok = true;
  return t;
}

bench::BenchResult run() {
  constexpr int kRepeats = 5;
  // Warm-up run so arena/cache cold-start cost does not land on either side.
  timeCorpus(/*traced=*/false, 1);

  CorpusTiming disabled = timeCorpus(/*traced=*/false, kRepeats);
  CorpusTiming traced = timeCorpus(/*traced=*/true, kRepeats);
  CorpusTrace trace = traceCorpusRun();
  std::size_t spanCount = trace.spans;
  double nsPerSpan = measureDisabledSpanNs();

  double overheadPct =
      100.0 * (static_cast<double>(spanCount) * nsPerSpan) / (disabled.bestMs * 1e6);
  bool identical = disabled.fingerprint == traced.fingerprint;

  std::printf("obs overhead — perfect corpus, 4 threads (spans counted at 1 thread)\n");
  std::printf("spans per corpus run:      %zu\n", spanCount);
  std::printf("disabled span cost:        %.3f ns\n", nsPerSpan);
  std::printf("untraced wall:             %.2f ms\n", disabled.bestMs);
  std::printf("traced wall:               %.2f ms\n", traced.bestMs);
  std::printf("est. disabled overhead:    %.4f%% (contract: <= %.1f%%)\n", overheadPct,
              kMaxOverheadPct);
  std::printf("traced results identical:  %s\n", identical ? "yes" : "NO");

  bench::BenchResult result;
  result.profileJson = std::move(trace.profileJson);
  result.addConfig("corpus", "perfect (Table 1/2 kernels), 4 threads");
  char preObs[32];
  std::snprintf(preObs, sizeof(preObs), "%.2f", kPreObsDefaultMs);
  result.addConfig("pre_obs_snapshot_wall_ms", preObs);
  {
    bench::Metric& m = result.add("spans_per_corpus_run", static_cast<double>(spanCount),
                                  bench::Direction::Exact);
    // Span placement follows the analysis structurally, but new span sites
    // land with every PR — record, don't gate.
    m.gated = false;
  }
  result.add("disabled_span_ns", nsPerSpan, bench::Direction::LowerIsBetter, 3.0, "ns").gated =
      false;
  result.add("untraced_wall_ms", disabled.bestMs, bench::Direction::LowerIsBetter, 3.0, "ms");
  result.add("traced_wall_ms", traced.bestMs, bench::Direction::LowerIsBetter, 3.0, "ms");
  {
    bench::Metric& m = result.add("estimated_disabled_overhead_pct", overheadPct,
                                  bench::Direction::LowerIsBetter, 10.0, "%");
    m.maxValue = kMaxOverheadPct;  // the hard <= 2% contract, baseline or not
  }
  if (!identical) result.fail("traced run diverged from untraced run");

  // ---- the daemon telemetry plane's share of a submit ----
  const double appendNs = measureEventAppendNs();
  const double observeNs = measureObserveNs();
  DaemonTiming submits = timeDaemonSubmits();
  if (!submits.ok) {
    result.fail("daemon telemetry timing failed");
    return result;
  }
  // Per submit: the event-log records it appends (begin/end, measured off a
  // live run) plus the three per-op latency histograms (wall/queue/handle);
  // the remaining status-total bumps are single relaxed fetch_adds, folded
  // into the observe term. The measured wall includes that time, so the
  // submit without telemetry is the wall minus it.
  constexpr double kObservesPerRequest = 3.0;
  const double telemetryNsPerSubmit =
      submits.eventsPerSubmit * appendNs + kObservesPerRequest * observeNs;
  const double telemetryOverheadPct =
      100.0 * telemetryNsPerSubmit / (submits.perSubmitMs * 1e6 - telemetryNsPerSubmit);

  std::printf("\ndaemon telemetry — socket submits, alternating sources\n");
  std::printf("event append cost:         %.1f ns\n", appendNs);
  std::printf("histogram observe cost:    %.2f ns\n", observeNs);
  std::printf("events per submit:         %.1f\n", submits.eventsPerSubmit);
  std::printf("submit wall:               %.3f ms\n", submits.perSubmitMs);
  std::printf("est. telemetry overhead:   %.4f%% (contract: <= %.1f%%)\n", telemetryOverheadPct,
              kMaxOverheadPct);

  result.add("event_append_ns", appendNs, bench::Direction::LowerIsBetter, 3.0, "ns").gated =
      false;
  result.add("histogram_observe_ns", observeNs, bench::Direction::LowerIsBetter, 3.0, "ns")
      .gated = false;
  result
      .add("events_per_submit", submits.eventsPerSubmit, bench::Direction::Exact)
      .gated = false;
  // Socket round-trip walls jitter with the scheduler — context, not a gate.
  result
      .add("daemon_submit_wall_ms", submits.perSubmitMs, bench::Direction::LowerIsBetter, 3.0,
           "ms")
      .gated = false;
  {
    bench::Metric& m = result.add("estimated_telemetry_overhead_pct", telemetryOverheadPct,
                                  bench::Direction::LowerIsBetter, 10.0, "%");
    m.maxValue = kMaxOverheadPct;  // telemetry adds at most 2% to a submit
  }
  return result;
}

const bench::Registration reg{{"obs_overhead", /*repetitions=*/1, /*warmup=*/0, run}};

}  // namespace
