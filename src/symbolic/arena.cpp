#include "panorama/symbolic/arena.h"

#include <algorithm>
#include <array>

#include "panorama/support/memo_cache.h"

namespace panorama {

namespace {

std::size_t hashTerms(std::span<const Term> terms, bool poisoned) {
  std::size_t h = poisoned ? 0x9e3779b9u : 0;
  for (const Term& t : terms) {
    h = h * 131 + static_cast<std::size_t>(t.coef);
    for (VarId v : t.vars) h = h * 131 + v.value;
  }
  return h;
}

std::size_t footprint(const detail::ExprNode& n) {
  std::size_t b = sizeof(detail::ExprNode) + n.terms.capacity() * sizeof(Term);
  for (const Term& t : n.terms) b += t.vars.capacity() * sizeof(VarId);
  return b;
}

}  // namespace

ExprRef internExpr(std::span<const Term> terms, bool poisoned) {
  const std::size_t h = hashTerms(terms, poisoned);
  return ExprRef(&ExprArena::global().intern(
      h,
      [&](const detail::ExprNode& n) {
        return n.hash == h && n.poisoned == poisoned &&
               std::equal(n.terms.begin(), n.terms.end(), terms.begin(), terms.end());
      },
      [&](detail::ExprNode& n, std::uint64_t id) {
        n.terms.assign(terms.begin(), terms.end());
        n.poisoned = poisoned;
        n.hash = h;
        n.id = id;
        return footprint(n);
      }));
}

namespace {

/// ExprRef::substitute results keyed on (expression id, variable, replacement
/// id), sized by the process memo capacity like the verdict cache.
ShardedMemo<std::array<std::uint64_t, 3>, ExprRef>& substituteMemo() {
  static ShardedMemo<std::array<std::uint64_t, 3>, ExprRef> memo(
      QueryCache::global().sharedCapacity());
  return memo;
}

}  // namespace

std::optional<ExprRef> substituteMemoLookup(const ExprRef& e, VarId v, const ExprRef& r) {
  return substituteMemo().lookup({e.id(), v.value, r.id()});
}

void substituteMemoStore(const ExprRef& e, VarId v, const ExprRef& r, const ExprRef& result) {
  substituteMemo().store({e.id(), v.value, r.id()}, result);
}

}  // namespace panorama
