// Unified metrics registry (panorama::obs pillar 2).
//
// Named counters and histograms with stable addresses: call sites resolve a
// metric once (mutex-guarded map lookup) and then update it in place — a
// counter with one relaxed atomic, a histogram under its own mutex. The
// registry absorbs the pre-existing ad-hoc stats structs — SummaryStats,
// QueryCache::Stats, the simplify memo — at the reporting boundary
// (publishCorpusMetrics in the analysis layer) and renders them through one
// machine-readable JSON dump plus the shared text renderers below, which
// replace the three near-identical formatting blocks the report layer and
// panorama_driver --stats used to duplicate.
#pragma once

#include <array>
#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <string_view>

namespace panorama::obs {

/// A monotonically increasing (or snapshot-assigned) integer metric.
class Counter {
 public:
  void add(std::uint64_t n = 1) { value_.fetch_add(n, std::memory_order_relaxed); }
  void set(std::uint64_t n) { value_.store(n, std::memory_order_relaxed); }
  std::uint64_t value() const { return value_.load(std::memory_order_relaxed); }

 private:
  std::atomic<std::uint64_t> value_{0};
};

/// A log2-bucketed histogram of non-negative integer samples (durations,
/// list lengths). Bucket b counts samples with bit_width(v) == b, so bucket
/// boundaries are powers of two; count/sum/min/max are exact. One mutex
/// guards the whole state, so a snapshot is always one consistent moment:
/// its buckets sum to its count.
class Histogram {
 public:
  static constexpr std::size_t kBuckets = 64;

  void observe(std::uint64_t v);

  struct Snapshot {
    std::uint64_t count = 0;
    std::uint64_t sum = 0;
    std::uint64_t min = 0;  ///< 0 when count == 0
    std::uint64_t max = 0;
    std::array<std::uint64_t, kBuckets> buckets{};

    double mean() const { return count == 0 ? 0.0 : static_cast<double>(sum) / count; }
  };
  Snapshot snapshot() const;
  void reset();

 private:
  mutable std::mutex mutex_;
  Snapshot state_;
};

/// The process-global name → metric map. Lookups intern the name; the
/// returned references stay valid for the process lifetime (reset() zeroes
/// values but never removes metrics).
class MetricsRegistry {
 public:
  static MetricsRegistry& global();

  Counter& counter(std::string_view name);
  Histogram& histogram(std::string_view name);

  /// The counter's current value, or nullopt when it was never created.
  std::optional<std::uint64_t> counterValue(std::string_view name) const;

  /// Zeroes every registered metric (names and addresses persist).
  void reset();

  /// {"counters": {name: value, ...}, "histograms": {name: {...}, ...}} with
  /// names in sorted order — the machine-readable dump behind --metrics.
  std::string toJson() const;
  bool writeJson(const std::string& path) const;

 private:
  mutable std::mutex mutex_;
  std::map<std::string, std::unique_ptr<Counter>, std::less<>> counters_;
  std::map<std::string, std::unique_ptr<Histogram>, std::less<>> histograms_;
};

/// Approximate q-quantile (q in [0, 1]) of a histogram snapshot,
/// interpolated linearly inside the log2 bucket the rank lands in and
/// clamped to the exact observed [min, max]. Zero when the histogram is
/// empty. This is what the registry JSON dump's p50/p95/p99 fields and the
/// daemon's per-op latency rows are derived from; the error bound is the
/// width of one power-of-two bucket.
double histogramQuantile(const Histogram::Snapshot& s, double q);

/// The shared renderer behind every "<label>: H hits / M misses (R% hit
/// rate), E entries, V evictions" line (query cache, simplify memo, …).
/// `rateDecimals` preserves the historical per-call-site rate formatting.
std::string renderCacheCounters(std::string_view label, std::uint64_t hits, std::uint64_t misses,
                                std::uint64_t entries, std::uint64_t evictions, int rateDecimals);

/// The shared renderer behind the "summary cost: …" line.
std::string renderSummaryCost(std::uint64_t blockSteps, std::uint64_t loopExpansions,
                              std::uint64_t callMappings, std::uint64_t peakListLength,
                              std::uint64_t garsCreated);

}  // namespace panorama::obs
