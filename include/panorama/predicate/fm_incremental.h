// Incremental Fourier-Motzkin (tier 2 of 2): memoized elimination keyed on
// hash-consed canonical constraint-system handles.
//
// Every system the eliminator visits — the query itself and each
// intermediate system one variable-elimination step produces — is
// canonicalized (tightened, sorted, deduplicated, variables densely renamed
// in an order-preserving way) and interned; the cache maps each handle to
// the verdict full elimination from that point yields. Near-identical query
// families (the `system + d <= -1` / `system + d >= 1` disequality probes,
// per-kernel copies of the same guard shapes) converge on shared canonical
// systems after a step or two, so one family member pays for the whole
// family's elimination suffix.
//
// Exactness: the order-preserving renaming is a bit-for-bit simulation of
// the eliminator (greedy choice, combination order, tightening, overflow
// and budget checks all depend only on relative variable order), so a
// memoized verdict is always the verdict `fourierMotzkinInfeasible` would
// produce on the same input, and entries never need invalidating.
#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "panorama/support/memo_cache.h"
#include "panorama/symbolic/constraint.h"

namespace panorama {

/// The two-level query tier (absdom pre-filter + memoized elimination), on
/// by default. It never changes a verdict, so it is a process setting like
/// the memo capacity, not an analysis option: whoever owns the process sets
/// it once — panorama_driver from `--no-prefilter`, in every mode — and
/// sessions never touch it. Tests and benches that compare tiered with
/// FM-only runs flip it and restore the default afterwards.
bool queryTierEnabled();
void setQueryTierEnabled(bool on);

/// Counters of the elimination cache (entries counts resident
/// canonical-system handles, bounded at 2^17).
using FmCacheStats = MemoStats;
FmCacheStats fmEliminationStats();

/// Drops every interned system and zeroes the counters (fresh corpus run).
void clearFmEliminationCache();

/// Memoizing front of `fourierMotzkinInfeasible`; verdict-identical to it
/// on every input (see the exactness note above).
Truth fourierMotzkinInfeasibleMemo(std::vector<AffineForm> system, const FmBudget& budget);

/// The eliminator's building blocks, shared between the classic entry point
/// and the memoized one so the two can never diverge.
namespace fmdetail {

/// Entry screen: tighten, answer on overflow/violated constants, drop
/// constant rows, then sort + dedup. nullopt means "run the elimination".
std::optional<Truth> screen(std::vector<AffineForm>& system);

/// Sort by (coeffs, constant) and remove exact duplicates.
void canonOrder(std::vector<AffineForm>& system);

std::size_t countVars(const std::vector<AffineForm>& system);

struct StepResult {
  std::optional<Truth> verdict;   ///< set when the step decided the system
  std::vector<AffineForm> next;   ///< otherwise: the reduced system, canonical
};

/// One greedy variable elimination with the classic budget/overflow checks.
StepResult eliminateOne(std::vector<AffineForm> system, const FmBudget& budget);

/// Order-preserving dense renaming of the variables to 0..n-1 (the memo's
/// canonical name space). Preserves the canonical sort order.
void anonymizeVars(std::vector<AffineForm>& system);

}  // namespace fmdetail

}  // namespace panorama
