// Elimination cache behind fourierMotzkinInfeasibleMemo (see the header for
// the canonical-form and exactness story).
//
// The cache is a ShardedMemo from the canonical word encoding of a
// (system, budget) pair to the verdict full elimination from that system
// produces. A chain walk (query system, then each intermediate system)
// stops at the first hit; on a terminal verdict every handle visited on the
// way is backpatched, so the whole chain answers in one lookup next time.
#include "panorama/predicate/fm_incremental.h"

#include <atomic>

namespace panorama {

namespace {

std::atomic<bool> gTierEnabled{true};

using Key = std::vector<std::uint64_t>;

/// A fixed bound, independent of the process memo capacity: `--no-cache`
/// leaves the eliminator's memo on (the tier switch gates it instead).
ShardedMemo<Key, Truth>& eliminationMemo() {
  static const std::atomic<std::size_t> capacity{std::size_t{1} << 17};
  static ShardedMemo<Key, Truth> memo(capacity);
  return memo;
}

Key encode(const std::vector<AffineForm>& system, const FmBudget& budget) {
  Key key;
  std::size_t words = 3;
  for (const AffineForm& f : system) words += 2 + f.coeffs.size() * 2;
  key.reserve(words);
  key.push_back(budget.maxConstraints);
  key.push_back(budget.maxVariables);
  key.push_back(system.size());
  for (const AffineForm& f : system) {
    key.push_back(static_cast<std::uint64_t>(f.constant));
    key.push_back(f.coeffs.size());
    for (const auto& [v, coeff] : f.coeffs) {
      key.push_back(v.value);
      key.push_back(static_cast<std::uint64_t>(coeff));
    }
  }
  return key;
}

}  // namespace

bool queryTierEnabled() { return gTierEnabled.load(std::memory_order_relaxed); }
void setQueryTierEnabled(bool on) { gTierEnabled.store(on, std::memory_order_relaxed); }

FmCacheStats fmEliminationStats() { return eliminationMemo().stats(); }

void clearFmEliminationCache() { eliminationMemo().clear(); }

Truth fourierMotzkinInfeasibleMemo(std::vector<AffineForm> system, const FmBudget& budget) {
  if (auto verdict = fmdetail::screen(system)) return *verdict;
  if (fmdetail::countVars(system) > budget.maxVariables) return Truth::Unknown;

  ShardedMemo<Key, Truth>& memo = eliminationMemo();
  std::vector<Key> chain;  // handles visited before the verdict was known
  Truth verdict = Truth::False;
  fmdetail::anonymizeVars(system);
  while (!system.empty()) {
    Key key = encode(system, budget);
    if (auto hit = memo.lookup(key)) {
      verdict = *hit;
      break;
    }
    chain.push_back(std::move(key));
    fmdetail::StepResult step = fmdetail::eliminateOne(std::move(system), budget);
    if (step.verdict) {
      verdict = *step.verdict;
      break;
    }
    system = std::move(step.next);
    fmdetail::anonymizeVars(system);
  }
  for (Key& key : chain) memo.store(std::move(key), verdict);
  return verdict;
}

}  // namespace panorama
