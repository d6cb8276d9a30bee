#include "panorama/symbolic/expr.h"

#include <algorithm>
#include <iterator>
#include <numeric>
#include <span>

#include "panorama/support/slot_scratch.h"
#include "panorama/symbolic/arena.h"

namespace panorama {

namespace {

/// Checked int64 arithmetic: nullopt on overflow.
std::optional<std::int64_t> checkedAdd(std::int64_t a, std::int64_t b) {
  std::int64_t r;
  if (__builtin_add_overflow(a, b, &r)) return std::nullopt;
  return r;
}

std::optional<std::int64_t> checkedMul(std::int64_t a, std::int64_t b) {
  std::int64_t r;
  if (__builtin_mul_overflow(a, b, &r)) return std::nullopt;
  return r;
}

/// The calling thread's candidate term list. Sorting a product's terms
/// permutes the slots' `vars` buffers, so every slot starts with room for a
/// monomial of 8 variables.
using TermScratch = SlotScratch<Term, &Term::vars, 8>;

/// Appends the term `coef * (no variables yet)` to `scratch`.
Term& pushTerm(TermScratch& scratch, std::int64_t coef) {
  Term& t = scratch.push();
  t.coef = coef;
  return t;
}

/// -1, 0 or 1 as monomial `a` orders before, like or after `b`: by degree,
/// then lexicographically by variable.
int monomialCompare(const std::vector<VarId>& a, const std::vector<VarId>& b) {
  if (a.size() != b.size()) return a.size() < b.size() ? -1 : 1;
  for (std::size_t k = 0; k < a.size(); ++k)
    if (a[k] != b[k]) return a[k] < b[k] ? -1 : 1;
  return 0;
}

ExprRef internCanonical(std::span<const Term> terms) {
  return internExpr(terms, /*poisoned=*/false);
}

/// Sorts and merges `terms` in place (poisoning on coefficient overflow),
/// drops zero coefficients and interns the result. Slots are only ever
/// swapped, never freed, so the scratch keeps its capacity.
ExprRef internNormalized(std::span<Term> terms) {
  std::sort(terms.begin(), terms.end(),
            [](const Term& a, const Term& b) { return monomialLess(a.vars, b.vars); });
  std::size_t merged = 0;
  for (std::size_t k = 0; k < terms.size(); ++k) {
    if (merged > 0 && terms[merged - 1].vars == terms[k].vars) {
      auto sum = checkedAdd(terms[merged - 1].coef, terms[k].coef);
      if (!sum) return ExprRef::poisoned();
      terms[merged - 1].coef = *sum;
    } else {
      std::swap(terms[merged++], terms[k]);
    }
  }
  std::size_t kept = 0;
  for (std::size_t k = 0; k < merged; ++k)
    if (terms[k].coef != 0) std::swap(terms[kept++], terms[k]);
  return internCanonical(terms.first(kept));
}

/// The single term `coef * vars` with every occurrence of `drop` removed
/// (`coef` is non-zero).
ExprRef monomial(std::int64_t coef, const std::vector<VarId>& vars, VarId drop) {
  TermScratch& scratch = TermScratch::local();
  Term& t = pushTerm(scratch, coef);
  for (VarId w : vars)
    if (w != drop) t.vars.push_back(w);
  return internCanonical(scratch.items());
}

}  // namespace

bool monomialLess(const std::vector<VarId>& a, const std::vector<VarId>& b) {
  return monomialCompare(a, b) < 0;
}

ExprRef::ExprRef() {
  static const detail::ExprNode* zero = internExpr({}, /*poisoned=*/false).node_;
  node_ = zero;
}

ExprRef ExprRef::constant(std::int64_t c) {
  if (c == 0) return ExprRef();
  TermScratch& scratch = TermScratch::local();
  pushTerm(scratch, c);
  return internCanonical(scratch.items());
}

ExprRef ExprRef::variable(VarId v) {
  TermScratch& scratch = TermScratch::local();
  pushTerm(scratch, 1).vars.push_back(v);
  return internCanonical(scratch.items());
}

ExprRef ExprRef::poisoned() {
  static const detail::ExprNode* node = internExpr({}, /*poisoned=*/true).node_;
  return ExprRef(node);
}

std::optional<std::int64_t> ExprRef::constantValue() const {
  if (!isConstant()) return std::nullopt;
  return node_->terms.empty() ? 0 : node_->terms[0].coef;
}

int ExprRef::degree() const {
  int d = 0;
  for (const Term& t : node_->terms) d = std::max(d, t.degree());
  return d;
}

bool ExprRef::containsVar(VarId v) const {
  for (const Term& t : node_->terms)
    if (std::find(t.vars.begin(), t.vars.end(), v) != t.vars.end()) return true;
  return false;
}

void ExprRef::collectVars(std::vector<VarId>& out) const {
  for (const Term& t : node_->terms) out.insert(out.end(), t.vars.begin(), t.vars.end());
  std::sort(out.begin(), out.end());
  out.erase(std::unique(out.begin(), out.end()), out.end());
}

std::int64_t ExprRef::affineCoeff(VarId v) const {
  for (const Term& t : node_->terms)
    if (t.vars.size() == 1 && t.vars[0] == v) return t.coef;
  return 0;
}

std::int64_t ExprRef::constantPart() const {
  for (const Term& t : node_->terms)
    if (t.vars.empty()) return t.coef;
  return 0;
}

ExprRef ExprRef::operator-() const { return mulConst(-1); }

ExprRef operator+(const ExprRef& a, const ExprRef& b) {
  if (a.isPoisoned() || b.isPoisoned()) return ExprRef::poisoned();
  if (a.isZero()) return b;
  if (b.isZero()) return a;
  // Both term lists are canonical, so merging them (adding the coefficients
  // of a shared monomial) yields the canonical sum.
  TermScratch& scratch = TermScratch::local();
  const std::vector<Term>& ta = a.terms();
  const std::vector<Term>& tb = b.terms();
  std::size_t i = 0;
  std::size_t j = 0;
  while (i < ta.size() || j < tb.size()) {
    const int c = i == ta.size()   ? 1
                  : j == tb.size() ? -1
                                   : monomialCompare(ta[i].vars, tb[j].vars);
    const Term& src = c <= 0 ? ta[i] : tb[j];
    std::int64_t coef = src.coef;
    if (c == 0) {
      auto sum = checkedAdd(ta[i].coef, tb[j].coef);
      if (!sum) return ExprRef::poisoned();
      coef = *sum;
    }
    if (coef != 0) {
      Term& t = pushTerm(scratch, coef);
      t.vars.assign(src.vars.begin(), src.vars.end());
    }
    if (c <= 0) ++i;
    if (c >= 0) ++j;
  }
  return internCanonical(scratch.items());
}

ExprRef operator-(const ExprRef& a, const ExprRef& b) { return a + (-b); }

ExprRef operator*(const ExprRef& a, const ExprRef& b) {
  if (a.isPoisoned() || b.isPoisoned()) return ExprRef::poisoned();
  TermScratch& scratch = TermScratch::local();
  for (const Term& ta : a.terms()) {
    for (const Term& tb : b.terms()) {
      auto coef = checkedMul(ta.coef, tb.coef);
      if (!coef) return ExprRef::poisoned();
      Term& t = pushTerm(scratch, *coef);
      std::merge(ta.vars.begin(), ta.vars.end(), tb.vars.begin(), tb.vars.end(),
                 std::back_inserter(t.vars));
    }
  }
  return internNormalized(scratch.items());
}

ExprRef ExprRef::mulConst(std::int64_t k) const {
  if (node_->poisoned) return poisoned();
  if (k == 0) return ExprRef();
  if (k == 1) return *this;
  TermScratch& scratch = TermScratch::local();
  for (const Term& t : node_->terms) {
    auto coef = checkedMul(t.coef, k);
    if (!coef) return poisoned();
    pushTerm(scratch, *coef).vars.assign(t.vars.begin(), t.vars.end());
  }
  // Scaling by a non-zero constant preserves order and uniqueness.
  return internCanonical(scratch.items());
}

std::optional<ExprRef> ExprRef::divExact(std::int64_t k) const {
  if (node_->poisoned || k == 0) return std::nullopt;
  TermScratch& scratch = TermScratch::local();
  for (const Term& t : node_->terms) {
    if (t.coef % k != 0) return std::nullopt;
    pushTerm(scratch, t.coef / k).vars.assign(t.vars.begin(), t.vars.end());
  }
  // Monomial keys are untouched, so the sorted invariant holds.
  return internCanonical(scratch.items());
}

std::int64_t ExprRef::coeffGcd() const {
  std::int64_t g = 0;
  for (const Term& t : node_->terms) g = std::gcd(g, t.coef);
  return g;
}

ExprRef ExprRef::substitute(VarId v, const ExprRef& replacement) const {
  if (node_->poisoned) return poisoned();
  if (!containsVar(v)) return *this;
  if (replacement.isPoisoned()) return poisoned();
  if (auto hit = substituteMemoLookup(*this, v, replacement)) return *hit;
  ExprRef result;
  for (const Term& t : node_->terms) {
    int power = static_cast<int>(std::count(t.vars.begin(), t.vars.end(), v));
    ExprRef piece = monomial(t.coef, t.vars, v);
    for (int p = 0; p < power; ++p) piece = piece * replacement;
    result = result + piece;
    if (result.isPoisoned()) return poisoned();
  }
  substituteMemoStore(*this, v, replacement, result);
  return result;
}

ExprRef ExprRef::substitute(const std::map<VarId, ExprRef>& replacements) const {
  // Simultaneous substitution: route every original variable through a fresh
  // copy of the term so replacements cannot feed each other.
  if (node_->poisoned) return poisoned();
  ExprRef result;
  for (const Term& t : node_->terms) {
    ExprRef piece = ExprRef::constant(t.coef);
    for (VarId w : t.vars) {
      auto it = replacements.find(w);
      piece = piece * (it != replacements.end() ? it->second : ExprRef::variable(w));
      if (piece.isPoisoned()) return poisoned();
    }
    result = result + piece;
    if (result.isPoisoned()) return poisoned();
  }
  return result;
}

std::optional<std::int64_t> ExprRef::evaluate(const Binding& binding) const {
  if (node_->poisoned) return std::nullopt;
  std::int64_t total = 0;
  for (const Term& t : node_->terms) {
    std::int64_t prod = t.coef;
    for (VarId v : t.vars) {
      auto it = binding.find(v);
      if (it == binding.end()) return std::nullopt;
      auto p = checkedMul(prod, it->second);
      if (!p) return std::nullopt;
      prod = *p;
    }
    auto s = checkedAdd(total, prod);
    if (!s) return std::nullopt;
    total = *s;
  }
  return total;
}

int ExprRef::compare(const ExprRef& a, const ExprRef& b) {
  if (a.node_ == b.node_) return 0;  // hash-consing: one node per value
  if (a.node_->poisoned != b.node_->poisoned) return a.node_->poisoned ? 1 : -1;
  const std::vector<Term>& ta = a.node_->terms;
  const std::vector<Term>& tb = b.node_->terms;
  if (ta.size() != tb.size()) return ta.size() < tb.size() ? -1 : 1;
  for (std::size_t i = 0; i < ta.size(); ++i) {
    if (ta[i].vars != tb[i].vars) return monomialLess(ta[i].vars, tb[i].vars) ? -1 : 1;
    if (ta[i].coef != tb[i].coef) return ta[i].coef < tb[i].coef ? -1 : 1;
  }
  return 0;
}

std::string ExprRef::str(const SymbolTable& symtab) const {
  if (node_->poisoned) return "<?>";
  if (node_->terms.empty()) return "0";
  std::string out;
  bool first = true;
  // Print highest-degree terms first for readability (storage is ascending),
  // but keep the ascending variable order within a degree.
  std::vector<const Term*> order;
  order.reserve(node_->terms.size());
  for (const Term& t : node_->terms) order.push_back(&t);
  std::stable_sort(order.begin(), order.end(),
                   [](const Term* a, const Term* b) { return a->degree() > b->degree(); });
  for (const Term* tp : order) {
    const Term& t = *tp;
    std::int64_t c = t.coef;
    if (first) {
      if (c < 0) out += '-';
    } else {
      out += c < 0 ? " - " : " + ";
    }
    first = false;
    std::int64_t mag = c < 0 ? -c : c;
    bool needCoef = mag != 1 || t.vars.empty();
    if (needCoef) out += std::to_string(mag);
    for (std::size_t k = 0; k < t.vars.size(); ++k) {
      if (needCoef || k > 0) out += '*';
      out += symtab.name(t.vars[k]);
    }
  }
  return out;
}

ExprRef operator+(const ExprRef& a, std::int64_t c) { return a + ExprRef::constant(c); }
ExprRef operator-(const ExprRef& a, std::int64_t c) { return a + ExprRef::constant(-c); }

}  // namespace panorama
