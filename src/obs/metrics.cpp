// Metrics registry implementation: interned counters/histograms, the JSON
// dump, and the shared stats-line renderers (see metrics.h).
#include "panorama/obs/metrics.h"

#include <bit>
#include <cstdio>

namespace panorama::obs {

void Histogram::observe(std::uint64_t v) {
  // bit_width(v) is 64 for v >= 2^63; fold that edge into the last bucket.
  const std::size_t b = std::bit_width(v);
  std::lock_guard<std::mutex> lock(mutex_);
  if (state_.count == 0 || v < state_.min) state_.min = v;
  if (v > state_.max) state_.max = v;
  ++state_.count;
  state_.sum += v;
  ++state_.buckets[b < kBuckets ? b : kBuckets - 1];
}

Histogram::Snapshot Histogram::snapshot() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return state_;
}

void Histogram::reset() {
  std::lock_guard<std::mutex> lock(mutex_);
  state_ = Snapshot{};
}

MetricsRegistry& MetricsRegistry::global() {
  static MetricsRegistry registry;
  return registry;
}

Counter& MetricsRegistry::counter(std::string_view name) {
  std::lock_guard<std::mutex> lock(mutex_);
  auto it = counters_.find(name);
  if (it == counters_.end())
    it = counters_.emplace(std::string(name), std::make_unique<Counter>()).first;
  return *it->second;
}

Histogram& MetricsRegistry::histogram(std::string_view name) {
  std::lock_guard<std::mutex> lock(mutex_);
  auto it = histograms_.find(name);
  if (it == histograms_.end())
    it = histograms_.emplace(std::string(name), std::make_unique<Histogram>()).first;
  return *it->second;
}

std::optional<std::uint64_t> MetricsRegistry::counterValue(std::string_view name) const {
  std::lock_guard<std::mutex> lock(mutex_);
  auto it = counters_.find(name);
  if (it == counters_.end()) return std::nullopt;
  return it->second->value();
}

void MetricsRegistry::reset() {
  std::lock_guard<std::mutex> lock(mutex_);
  for (auto& [name, c] : counters_) c->set(0);
  for (auto& [name, h] : histograms_) h->reset();
}

std::string MetricsRegistry::toJson() const {
  std::lock_guard<std::mutex> lock(mutex_);
  std::string out = "{\n  \"counters\": {";
  char buf[288];
  bool first = true;
  for (const auto& [name, c] : counters_) {
    std::snprintf(buf, sizeof(buf), "%s\n    \"%s\": %llu", first ? "" : ",", name.c_str(),
                  static_cast<unsigned long long>(c->value()));
    out += buf;
    first = false;
  }
  out += first ? "},\n" : "\n  },\n";
  out += "  \"histograms\": {";
  first = true;
  for (const auto& [name, h] : histograms_) {
    Histogram::Snapshot s = h->snapshot();
    std::snprintf(buf, sizeof(buf),
                  "%s\n    \"%s\": {\"count\": %llu, \"sum\": %llu, \"min\": %llu, "
                  "\"max\": %llu, \"mean\": %.2f, \"p50\": %.2f, \"p95\": %.2f, "
                  "\"p99\": %.2f, \"buckets\": [",
                  first ? "" : ",", name.c_str(), static_cast<unsigned long long>(s.count),
                  static_cast<unsigned long long>(s.sum), static_cast<unsigned long long>(s.min),
                  static_cast<unsigned long long>(s.max), s.mean(), histogramQuantile(s, 0.50),
                  histogramQuantile(s, 0.95), histogramQuantile(s, 0.99));
    out += buf;
    // Buckets trail-trimmed: emit up to the last non-zero log2 bucket.
    std::size_t last = 0;
    for (std::size_t b = 0; b < Histogram::kBuckets; ++b)
      if (s.buckets[b]) last = b + 1;
    for (std::size_t b = 0; b < last; ++b) {
      std::snprintf(buf, sizeof(buf), "%s%llu", b ? ", " : "",
                    static_cast<unsigned long long>(s.buckets[b]));
      out += buf;
    }
    out += "]}";
    first = false;
  }
  out += first ? "}\n" : "\n  }\n";
  out += "}\n";
  return out;
}

bool MetricsRegistry::writeJson(const std::string& path) const {
  FILE* f = std::fopen(path.c_str(), "w");
  if (!f) return false;
  std::string json = toJson();
  bool ok = std::fwrite(json.data(), 1, json.size(), f) == json.size();
  return std::fclose(f) == 0 && ok;
}

double histogramQuantile(const Histogram::Snapshot& s, double q) {
  if (s.count == 0) return 0.0;
  if (q <= 0.0) return static_cast<double>(s.min);
  if (q >= 1.0) return static_cast<double>(s.max);
  // Rank in (0, count]; the value is interpolated inside the bucket the
  // rank's cumulative count first reaches.
  double rank = q * static_cast<double>(s.count);
  if (rank < 1.0) rank = 1.0;
  std::uint64_t cum = 0;
  for (std::size_t b = 0; b < Histogram::kBuckets; ++b) {
    const std::uint64_t n = s.buckets[b];
    if (n == 0) continue;
    if (static_cast<double>(cum + n) >= rank) {
      // Bucket b holds samples with bit_width == b: [2^(b-1), 2^b - 1],
      // except bucket 0, which holds exactly the value 0.
      const double lo = b == 0 ? 0.0 : static_cast<double>(std::uint64_t{1} << (b - 1));
      const double hi = b == 0 ? 0.0 : static_cast<double>((std::uint64_t{1} << (b - 1)) * 2 - 1);
      const double frac = (rank - static_cast<double>(cum)) / static_cast<double>(n);
      double v = lo + frac * (hi - lo);
      if (v < static_cast<double>(s.min)) v = static_cast<double>(s.min);
      if (v > static_cast<double>(s.max)) v = static_cast<double>(s.max);
      return v;
    }
    cum += n;
  }
  return static_cast<double>(s.max);
}

std::string renderCacheCounters(std::string_view label, std::uint64_t hits, std::uint64_t misses,
                                std::uint64_t entries, std::uint64_t evictions, int rateDecimals) {
  const double total = static_cast<double>(hits + misses);
  const double rate = total == 0 ? 0.0 : static_cast<double>(hits) / total * 100.0;
  char buf[192];
  if (rateDecimals > 0) {
    std::snprintf(buf, sizeof(buf),
                  "%.*s: %llu hits / %llu misses (%.*f%% hit rate), %llu entries, %llu evictions",
                  static_cast<int>(label.size()), label.data(),
                  static_cast<unsigned long long>(hits), static_cast<unsigned long long>(misses),
                  rateDecimals, rate, static_cast<unsigned long long>(entries),
                  static_cast<unsigned long long>(evictions));
  } else {
    // Historical integer-percent form (truncated, not rounded).
    std::snprintf(buf, sizeof(buf),
                  "%.*s: %llu hits / %llu misses (%d%% hit rate), %llu entries, %llu evictions",
                  static_cast<int>(label.size()), label.data(),
                  static_cast<unsigned long long>(hits), static_cast<unsigned long long>(misses),
                  static_cast<int>(rate), static_cast<unsigned long long>(entries),
                  static_cast<unsigned long long>(evictions));
  }
  return std::string(buf);
}

std::string renderSummaryCost(std::uint64_t blockSteps, std::uint64_t loopExpansions,
                              std::uint64_t callMappings, std::uint64_t peakListLength,
                              std::uint64_t garsCreated) {
  char buf[192];
  std::snprintf(buf, sizeof(buf),
                "summary cost: %llu block steps, %llu loop expansions, %llu call mappings, "
                "peak list length %llu, %llu GARs created",
                static_cast<unsigned long long>(blockSteps),
                static_cast<unsigned long long>(loopExpansions),
                static_cast<unsigned long long>(callMappings),
                static_cast<unsigned long long>(peakListLength),
                static_cast<unsigned long long>(garsCreated));
  return std::string(buf);
}

}  // namespace panorama::obs
