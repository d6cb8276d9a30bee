#include "panorama/symbolic/constraint.h"

#include <algorithm>

#include "panorama/obs/metrics.h"
#include "panorama/obs/provenance.h"
#include "panorama/obs/trace.h"
#include "panorama/predicate/absdom.h"
#include "panorama/predicate/fm_incremental.h"
#include "panorama/support/memo_cache.h"

namespace panorama {

bool ConstraintSet::addExprLE0(const SymExpr& e) {
  auto f = AffineForm::fromExpr(e);
  if (!f) return false;
  add({std::move(*f), ConstraintKind::LE0});
  return true;
}

bool ConstraintSet::addExprEQ0(const SymExpr& e) {
  auto f = AffineForm::fromExpr(e);
  if (!f) return false;
  add({std::move(*f), ConstraintKind::EQ0});
  return true;
}

bool ConstraintSet::addExprNE0(const SymExpr& e) {
  auto f = AffineForm::fromExpr(e);
  if (!f) return false;
  add({std::move(*f), ConstraintKind::NE0});
  return true;
}

namespace {

/// Canonical key of the variable part for syntactic clash detection.
bool sameVarPart(const AffineForm& a, const AffineForm& b) { return a.coeffs == b.coeffs; }

/// Table-free rendering of one affine form ("2*v7 - v3 + 1"): the span args
/// on cold FM queries are built deep in the query layer, where no
/// SymbolTable is reachable, so variables print as their interned ids.
void appendAffine(std::string& out, const AffineForm& f) {
  bool first = true;
  for (const auto& [v, coeff] : f.coeffs) {
    if (coeff == 0) continue;
    if (first) {
      if (coeff < 0) out += '-';
    } else {
      out += coeff < 0 ? " - " : " + ";
    }
    const std::int64_t mag = coeff < 0 ? -coeff : coeff;
    if (mag != 1) {
      out += std::to_string(mag);
      out += '*';
    }
    out += 'v';
    out += std::to_string(v.value);
    first = false;
  }
  if (first) {
    out += std::to_string(f.constant);
  } else if (f.constant != 0) {
    out += f.constant < 0 ? " - " : " + ";
    out += std::to_string(f.constant < 0 ? -f.constant : f.constant);
  }
}

/// The whole constraint system, " && "-joined, capped so pathological sets
/// do not bloat the trace buffers. The empty system renders as "true", so a
/// profile's top queries always name their system.
std::string renderConstraints(const std::vector<LinearConstraint>& constraints) {
  if (constraints.empty()) return "true";
  constexpr std::size_t kMaxChars = 400;
  std::string out;
  for (const LinearConstraint& c : constraints) {
    if (!out.empty()) out += " && ";
    if (out.size() > kMaxChars) {
      out += "...";
      break;
    }
    appendAffine(out, c.form);
    switch (c.kind) {
      case ConstraintKind::LE0: out += " <= 0"; break;
      case ConstraintKind::EQ0: out += " = 0"; break;
      case ConstraintKind::NE0: out += " != 0"; break;
    }
    if (c.form.overflow) out += " [overflow]";
  }
  return out;
}

/// The one budget every ConstraintSet query hands the engine.
constexpr FmBudget kBudget{};

/// The calling thread's FM-feasibility key buffer (capacity reused across
/// queries), started with the family tag and the tier bit. The tier mode is
/// part of the key: the pre-filter may answer False (witness found) where
/// the classic engine answers Unknown, and raw verdicts must never leak
/// across modes (differential runs share the process-global cache).
std::vector<std::uint64_t>& startFmKey() {
  thread_local std::vector<std::uint64_t> key;
  key.clear();
  key.push_back(QueryCache::FmContradictory);
  key.push_back(queryTierEnabled() ? 1 : 0);
  return key;
}

/// The verdict cached under `key`, or on a miss `cold()`'s, stored. The
/// miss copies the key before anything can reuse the buffer it lives in.
template <class Cold>
Truth cachedFmVerdict(QueryCache& cache, const std::vector<std::uint64_t>& key, Cold cold) {
  if (auto hit = cache.lookup(key)) return *hit;
  QueryCache::Key owned(key.begin(), key.end());
  const Truth verdict = cold();
  cache.store(std::move(owned), verdict);
  return verdict;
}

void appendConstraintWords(std::vector<std::uint64_t>& key, ConstraintKind kind,
                           const AffineForm& form) {
  key.push_back(static_cast<std::uint64_t>(kind));
  key.push_back(form.overflow ? 1 : 0);
  key.push_back(static_cast<std::uint64_t>(form.constant));
  key.push_back(form.coeffs.size());
  for (const auto& [v, coeff] : form.coeffs) {
    key.push_back(v.value);
    key.push_back(static_cast<std::uint64_t>(coeff));
  }
}

/// Tier 2 dispatch: with the tier on, eliminations go through the memoizing
/// entry point (verdict-identical to the classic one by construction).
Truth fmDecide(std::vector<AffineForm> system) {
  return queryTierEnabled() ? fourierMotzkinInfeasibleMemo(std::move(system), kBudget)
                            : fourierMotzkinInfeasible(std::move(system), kBudget);
}

}  // namespace

Truth ConstraintSet::contradictory() const {
  // Memoized across the whole run: the verdict is a pure function of the
  // exact constraint vector and the tier mode (both encoded in the key), so
  // a cached answer is always the answer a cold evaluation would produce.
  QueryCache& cache = QueryCache::global();
  if (!cache.enabled()) return contradictoryUncached();
  std::vector<std::uint64_t>& key = startFmKey();
  for (const LinearConstraint& c : constraints_) appendConstraintWords(key, c.kind, c.form);
  return cachedFmVerdict(cache, key, [this] { return contradictoryUncached(); });
}

Truth ConstraintSet::contradictoryUncached() const {
  // Tier 1: the interval/congruence pre-filter. It either discharges the
  // query (exact mirror of the classic screening, or a verified integer
  // witness — never a weaker verdict) or declines, in which case the
  // precise engine below runs as the final authority.
  if (queryTierEnabled()) {
    static obs::Counter& attempts =
        obs::MetricsRegistry::global().counter("query.prefilter.attempts");
    static obs::Counter& hits = obs::MetricsRegistry::global().counter("query.prefilter.hits");
    static obs::Counter& fallbacks =
        obs::MetricsRegistry::global().counter("query.prefilter.fallbacks");
    attempts.add();
    obs::Span prefilterSpan("query.prefilter", "ConstraintSet::contradictory");
    if (prefilterSpan.active()) {
      prefilterSpan.arg("constraints", std::to_string(constraints_.size()));
      // Rendered like query.fm's, so every top query in a profile names its
      // system, even a preempted prefilter span that outranks the FM spans.
      prefilterSpan.arg("expr", renderConstraints(constraints_));
    }
    if (auto verdict = absdom::tryDischarge(constraints_, kBudget)) {
      hits.add();
      if (prefilterSpan.active()) prefilterSpan.arg("verdict", toString(*verdict));
      return *verdict;
    }
    fallbacks.add();
    if (prefilterSpan.active()) prefilterSpan.arg("verdict", "declined");
  }
  // Cold FM evaluations are traced (memoized verdicts skip this path).
  obs::Span span("query.fm", "ConstraintSet::contradictory");
  if (span.active()) {
    span.arg("constraints", std::to_string(constraints_.size()));
    span.arg("expr", renderConstraints(constraints_));
    if (std::string ctx = obs::ProvenanceScope::currentLabel(); !ctx.empty())
      span.arg("ctx", std::move(ctx));
  }
  Truth verdict = contradictoryCold();
  if (span.active()) span.arg("verdict", toString(verdict));
  return verdict;
}

Truth ConstraintSet::contradictoryCold() const {
  std::vector<AffineForm> system;
  std::vector<AffineForm> disequalities;
  system.reserve(constraints_.size() * 2);
  for (const LinearConstraint& c : constraints_) {
    if (c.form.overflow) return Truth::Unknown;
    switch (c.kind) {
      case ConstraintKind::LE0:
        system.push_back(c.form);
        break;
      case ConstraintKind::EQ0:
        system.push_back(c.form);
        system.push_back(c.form.scaled(-1));
        break;
      case ConstraintKind::NE0:
        disequalities.push_back(c.form);
        break;
    }
  }
  // Disequality handling. Syntactic clash first (`form == 0 ∧ form != 0`),
  // then — for a small number of disequalities — the semantic version: the
  // inequality system *entails* form == 0 while a NE forbids it.
  for (const AffineForm& d : disequalities) {
    for (const LinearConstraint& c : constraints_) {
      if (c.kind == ConstraintKind::EQ0 && sameVarPart(c.form, d) &&
          c.form.constant == d.constant)
        return Truth::True;
    }
    if (d.coeffs.empty() && d.constant == 0) return Truth::True;  // 0 != 0
  }
  if (disequalities.size() <= 4) {
    for (const AffineForm& d : disequalities) {
      if (d.coeffs.empty()) continue;
      // system ⊨ d == 0 iff both (d <= -1) and (d >= 1) are infeasible. A
      // bound whose constant would overflow leaves the step inconclusive.
      if (d.constant == INT64_MAX) continue;
      std::vector<AffineForm> lower = system;
      AffineForm dl = d;
      dl.constant += 1;  // d + 1 <= 0, i.e. d <= -1
      lower.push_back(std::move(dl));
      if (fmDecide(std::move(lower)) != Truth::True) continue;
      AffineForm du = d.scaled(-1);
      if (du.constant == INT64_MAX) continue;
      std::vector<AffineForm> upper = system;
      du.constant += 1;  // -d + 1 <= 0, i.e. d >= 1
      upper.push_back(std::move(du));
      if (fmDecide(std::move(upper)) == Truth::True)
        return Truth::True;  // pinned to the excluded value
    }
  }
  return fmDecide(std::move(system));
}

Truth ConstraintSet::impliesLE0(const SymExpr& e) const {
  // The negation of (e <= 0) over the integers: e >= 1, i.e. -e + 1 <= 0.
  // e's form and the negation live in reused per-thread forms.
  thread_local AffineForm form;
  thread_local AffineForm neg;
  if (!AffineForm::fromExprInto(e, form)) return Truth::Unknown;
  form.scaledInto(-1, neg);
  // -e + 1 is not representable: the entailment is inconclusive.
  if (neg.constant == INT64_MAX) return Truth::Unknown;
  neg.constant += 1;

  // The augmented set's key is this set's words plus the negation's, so a
  // hit copies nothing; only a miss builds the augmented set.
  auto cold = [&] {
    ConstraintSet augmented = *this;
    augmented.add({neg, ConstraintKind::LE0});
    return augmented.contradictoryUncached();
  };
  QueryCache& cache = QueryCache::global();
  Truth infeasible = Truth::Unknown;
  if (cache.enabled()) {
    std::vector<std::uint64_t>& key = startFmKey();
    for (const LinearConstraint& c : constraints_) appendConstraintWords(key, c.kind, c.form);
    appendConstraintWords(key, ConstraintKind::LE0, neg);
    infeasible = cachedFmVerdict(cache, key, cold);
  } else {
    infeasible = cold();
  }
  if (infeasible == Truth::True) return Truth::True;
  return Truth::Unknown;  // feasible negation does not refute entailment over all models
}

Truth ConstraintSet::impliesEQ0(const SymExpr& e) const {
  Truth a = impliesLE0(e);
  if (a != Truth::True) return Truth::Unknown;
  Truth b = impliesLE0(-e);
  if (b != Truth::True) return Truth::Unknown;
  return Truth::True;
}

}  // namespace panorama
