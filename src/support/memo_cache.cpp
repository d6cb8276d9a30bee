#include "panorama/support/memo_cache.h"

#include "panorama/obs/metrics.h"

namespace panorama {

QueryCache& QueryCache::global() {
  static QueryCache cache;
  return cache;
}

void QueryCache::configure(std::size_t capacity) {
  clear();
  capacity_.store(capacity, std::memory_order_release);
}

std::string formatQueryCacheStats(const QueryCache::Stats& stats) {
  return obs::renderCacheCounters("query cache", stats.hits, stats.misses, stats.entries,
                                  stats.evictions, /*rateDecimals=*/1);
}

}  // namespace panorama
