// Properties of the hash-consing arenas (symbolic/arena.h,
// predicate/arena.h), the atom table (predicate/intern.h) and the region
// table (region/region.h): handle and key equality must coincide with
// structural equality over randomized construction, equal values built
// through different routes must land on the same node or key, stored
// negations must equal freshly built ones, a region's stored validity must
// equal the one its dimensions give, and the occupancy counters must be
// consistent. The InternTableTest cases check
// the table they share (support/intern_table.h) directly, on test-only node
// types: one node per value under contention, the id layout, front-cache
// slot sharing and the occupancy counters.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cstdio>
#include <latch>
#include <map>
#include <random>
#include <set>
#include <thread>
#include <vector>

#include "panorama/predicate/arena.h"
#include "panorama/predicate/intern.h"
#include "panorama/predicate/predicate.h"
#include "panorama/region/gar.h"
#include "panorama/session/session.h"
#include "panorama/support/intern_table.h"
#include "panorama/support/memo_cache.h"
#include "panorama/symbolic/affine.h"
#include "panorama/symbolic/arena.h"
#include "panorama/symbolic/expr.h"

namespace panorama {
namespace {

/// Random expression built from a handful of variables by the public
/// constructors only — everything the analyzer itself can produce.
SymExpr randomExpr(std::mt19937& rng, int depth = 0) {
  std::uniform_int_distribution<int> leaf(0, 4);
  std::uniform_int_distribution<int> var(1, 4);
  std::uniform_int_distribution<int> c(-6, 6);
  if (depth >= 3 || leaf(rng) == 0) {
    return leaf(rng) < 2 ? SymExpr::constant(c(rng))
                         : SymExpr::variable(VarId{static_cast<std::uint32_t>(var(rng))});
  }
  SymExpr a = randomExpr(rng, depth + 1);
  SymExpr b = randomExpr(rng, depth + 1);
  switch (leaf(rng)) {
    case 0: return a + b;
    case 1: return a - b;
    case 2: return a * b;
    case 3: return a.mulConst(c(rng));
    default: return a + SymExpr::constant(c(rng));
  }
}

Pred randomPred(std::mt19937& rng) {
  std::uniform_int_distribution<int> shape(0, 5);
  Pred p = Pred::atom(Atom::le(randomExpr(rng), randomExpr(rng)));
  if (shape(rng) >= 2) p = p && Pred::atom(Atom::eq(randomExpr(rng), randomExpr(rng)));
  if (shape(rng) >= 4) p = p || Pred::atom(Atom::ne(randomExpr(rng), randomExpr(rng)));
  if (shape(rng) == 5) p = !p;
  return p;
}

/// Random atom of any of the four kinds, drawn from a small value space so
/// that equal atoms recur.
Atom randomAtom(std::mt19937& rng) {
  std::uniform_int_distribution<int> kind(0, 3);
  std::uniform_int_distribution<int> op(0, 6);
  std::uniform_int_distribution<int> small(0, 1);
  std::uniform_int_distribution<int> var(1, 4);
  auto e = [&] { return randomExpr(rng, /*depth=*/2); };
  const AtomArrayRef array{static_cast<std::uint32_t>(small(rng))};
  const VarId predKey{static_cast<std::uint32_t>(10 + small(rng))};
  switch (kind(rng)) {
    case 0: return Atom::rel(e(), static_cast<RelOp>(op(rng)));
    case 1: return Atom::logicalVar(VarId{static_cast<std::uint32_t>(var(rng))}, small(rng) == 1);
    case 2: return Atom::arrayPred(array, predKey, e(), e(), small(rng) == 1);
    default:
      return Atom::forallPred(array, predKey, VarId{5}, e(), e(), e(), e(), small(rng) == 1);
  }
}

bool sameFields(const Atom& a, const Atom& b) {
  return a.kind() == b.kind() && a.op() == b.op() && a.expr() == b.expr() &&
         a.logical() == b.logical() && a.logicalValue() == b.logicalValue() &&
         a.predArray() == b.predArray() && a.boundVar() == b.boundVar() &&
         a.predRhs() == b.predRhs() && a.forallLo() == b.forallLo() &&
         a.forallUp() == b.forallUp();
}

/// negated() rebuilt from scratch through the factories.
Atom referenceNegation(const Atom& a) {
  switch (a.kind()) {
    case Atom::Kind::LogVar: return Atom::logicalVar(a.logical(), !a.logicalValue());
    case Atom::Kind::ArrayPred:
      return Atom::arrayPred(a.predArray(), a.logical(), a.expr(), a.predRhs(),
                             !a.logicalValue());
    case Atom::Kind::Forall: return Atom::rel(SymExpr::poisoned(), RelOp::LE);
    case Atom::Kind::Rel: break;
  }
  switch (a.op()) {
    case RelOp::LE: return Atom::rel(-a.expr() + 1, RelOp::LE);
    case RelOp::EQ: return Atom::rel(a.expr(), RelOp::NE);
    case RelOp::NE: return Atom::rel(a.expr(), RelOp::EQ);
    case RelOp::RLT: return Atom::rel(-a.expr(), RelOp::RLE);
    case RelOp::RLE: return Atom::rel(-a.expr(), RelOp::RLT);
    case RelOp::REQ: return Atom::rel(a.expr(), RelOp::RNE);
    case RelOp::RNE: return Atom::rel(a.expr(), RelOp::REQ);
  }
  return a;  // unreachable
}

TEST(InternPropertyTest, ExprHandleEqualityIffStructuralEquality) {
  std::mt19937 rng(20260806);
  std::vector<SymExpr> pool;
  for (int k = 0; k < 400; ++k) pool.push_back(randomExpr(rng));
  for (std::size_t i = 0; i < pool.size(); ++i) {
    for (std::size_t j = i; j < pool.size(); ++j) {
      const bool structural = SymExpr::compare(pool[i], pool[j]) == 0;
      const bool handle = pool[i] == pool[j];
      ASSERT_EQ(structural, handle)
          << "i=" << i << " j=" << j << " — a distinct node pair compared structurally "
          << "equal (canonicalization leak) or an equal pair got two nodes";
      if (handle) {
        EXPECT_EQ(pool[i].id(), pool[j].id());
        EXPECT_EQ(pool[i].hashValue(), pool[j].hashValue());
      } else {
        EXPECT_NE(pool[i].id(), pool[j].id());
      }
    }
  }
}

TEST(InternPropertyTest, PredHandleEqualityIffStructuralEquality) {
  std::mt19937 rng(42);
  std::vector<Pred> pool;
  for (int k = 0; k < 150; ++k) pool.push_back(randomPred(rng));
  for (std::size_t i = 0; i < pool.size(); ++i) {
    for (std::size_t j = i; j < pool.size(); ++j) {
      const bool structural = Pred::compare(pool[i], pool[j]) == 0;
      const bool handle = pool[i] == pool[j];
      ASSERT_EQ(structural, handle) << "i=" << i << " j=" << j;
      if (handle) {
        EXPECT_EQ(pool[i].id(), pool[j].id());
      }
    }
  }
}

TEST(InternPropertyTest, EqualValuesThroughDifferentRoutesShareOneNode) {
  SymExpr x = SymExpr::variable(VarId{1});
  SymExpr y = SymExpr::variable(VarId{2});
  SymExpr z = SymExpr::variable(VarId{3});

  // Associativity / commutativity of the canonical form.
  EXPECT_EQ((x + y) + z, x + (y + z));
  EXPECT_EQ(x + y, y + x);
  EXPECT_EQ(x * y, y * x);
  // Doubling vs explicit coefficient vs scalar multiply.
  EXPECT_EQ(x + x, x.mulConst(2));
  EXPECT_EQ(x + x, x * SymExpr::constant(2));
  // Cancellation reaches the canonical zero (the default-constructed node).
  EXPECT_EQ(x - x, SymExpr::constant(0));
  EXPECT_EQ(x - x, SymExpr{});
  // Substitution routes: (x+y)[y := z] vs x + z.
  EXPECT_EQ((x + y).substitute(VarId{2}, z), x + z);

  // Predicate routes: conjunction order and double negation via simplify.
  Pred p = Pred::atom(Atom::le(x, y));
  Pred q = Pred::atom(Atom::le(y, z));
  EXPECT_EQ(p && q, q && p);
  EXPECT_EQ(p && Pred::makeTrue(), p);
  EXPECT_EQ(p || Pred::makeFalse(), p);
}

TEST(InternPropertyTest, AtomKeyEqualityIffStructuralEquality) {
  std::mt19937 rng(1995);
  std::vector<Atom> pool;
  for (int k = 0; k < 400; ++k) pool.push_back(randomAtom(rng));
  // Different routes to one atom: a comparison builder vs its relational
  // form, and an untightened LE form vs its tightened equivalent.
  SymExpr x = SymExpr::variable(VarId{1});
  SymExpr y = SymExpr::variable(VarId{2});
  pool.push_back(Atom::le(x, y));
  pool.push_back(Atom::rel(x - y, RelOp::LE));
  pool.push_back(Atom::rel(x.mulConst(2) - 1, RelOp::LE));
  pool.push_back(Atom::rel(x, RelOp::LE));
  pool.push_back(Atom::eq(x, y));
  pool.push_back(Atom::eq(y, x));
  std::size_t equalPairs = 0;
  for (std::size_t i = 0; i < pool.size(); ++i) {
    for (std::size_t j = i; j < pool.size(); ++j) {
      const bool structural = sameFields(pool[i], pool[j]);
      ASSERT_EQ(Atom::compare(pool[i], pool[j]) == 0, structural) << "i=" << i << " j=" << j;
      ASSERT_EQ(atomKey(pool[i]) == atomKey(pool[j]), structural) << "i=" << i << " j=" << j;
      ASSERT_EQ(pool[i] == pool[j], structural) << "i=" << i << " j=" << j;
      if (structural) {
        EXPECT_EQ(pool[i].hashValue(), pool[j].hashValue());
        if (i != j) ++equalPairs;
      }
    }
  }
  EXPECT_GT(equalPairs, 0u) << "the pool never repeated an atom";
  const std::size_t n = pool.size();
  EXPECT_EQ(pool[n - 6], pool[n - 5]);  // le(x, y) vs rel(x - y, LE)
  EXPECT_EQ(pool[n - 4], pool[n - 3]);  // 2x - 1 <= 0 vs x <= 0
  EXPECT_EQ(pool[n - 2], pool[n - 1]);  // x == y vs y == x
}

TEST(InternPropertyTest, RelKeepsTheTightLeFormItWasGiven) {
  // rel() skips the AffineForm round trip when tightening is a no-op; the
  // round trip must then reproduce the input handle exactly.
  std::mt19937 rng(314);
  for (int k = 0; k < 500; ++k) {
    SymExpr e = randomExpr(rng);
    auto form = AffineForm::fromExpr(e);
    if (!form) continue;
    form->tightenLE();
    ASSERT_FALSE(form->overflow);
    EXPECT_EQ(Atom::rel(e, RelOp::LE).expr(), form->toExpr()) << "k=" << k;
  }
}

TEST(InternPropertyTest, NegatedMatchesAFreshlyBuiltNegation) {
  std::mt19937 rng(1729);
  for (int k = 0; k < 600; ++k) {
    const Atom a = randomAtom(rng);
    const Atom reference = referenceNegation(a);
    const Atom first = a.negated();
    const Atom again = a.negated();
    ASSERT_TRUE(sameFields(first, reference)) << "k=" << k;
    ASSERT_TRUE(sameFields(again, reference)) << "k=" << k;
    EXPECT_EQ(atomKey(first), atomKey(reference));
    EXPECT_EQ(atomKey(again), atomKey(reference));
    if (a.kind() == Atom::Kind::Forall) {
      EXPECT_TRUE(first.isPoisoned());
    }
  }
  const AtomTableStats stats = atomTableStats();
  EXPECT_GT(stats.negations, 0u);
  EXPECT_LE(stats.negations, stats.distinct);
}

TEST(InternPropertyTest, AtomQueriesDoNotDependOnTheQueryCache) {
  // The stored negations feed atomImplies/atomsExhaustive whether or not
  // the verdict cache is on; the verdicts must agree either way, and on a
  // second, cache-hitting pass.
  std::mt19937 rng(2718);
  std::vector<std::pair<Atom, Atom>> pairs;
  for (int k = 0; k < 2000; ++k) pairs.emplace_back(randomAtom(rng), randomAtom(rng));
  using Verdicts = std::vector<std::array<Truth, 3>>;
  auto ask = [&] {
    Verdicts out;
    for (const auto& [a, b] : pairs)
      out.push_back({atomImplies(a, b), atomsExhaustive(a, b), atomsContradict(a, b)});
    return out;
  };
  QueryCache& cache = QueryCache::global();
  cache.configure(0);
  const Verdicts uncached = ask();
  cache.configure(QueryCache::kDefaultCapacity);
  const Verdicts cold = ask();
  const Verdicts warm = ask();
  EXPECT_EQ(uncached, cold);
  EXPECT_EQ(uncached, warm);
  EXPECT_GT(cache.stats().hits, 0u);
}

TEST(InternPropertyTest, RandomizedSubstituteMatchesHandleIdentity) {
  // substitute() is memoized at node level; the memo must be invisible:
  // repeating a substitution yields the identical handle, and equal inputs
  // give equal outputs regardless of which call populated the memo.
  std::mt19937 rng(7);
  for (int k = 0; k < 200; ++k) {
    SymExpr e = randomExpr(rng);
    SymExpr r = randomExpr(rng);
    VarId v{static_cast<std::uint32_t>(1 + (k % 4))};
    SymExpr first = e.substitute(v, r);
    SymExpr second = e.substitute(v, r);
    EXPECT_EQ(first, second);
    EXPECT_EQ(first.id(), second.id());
    if (!r.containsVar(v)) {
      EXPECT_FALSE(first.containsVar(v));
    }
  }
}

/// Random region of array 0 or 1, rank 1 or 2, drawn from a small value
/// space (unknown dims included) so that equal regions recur.
Region randomRegion(std::mt19937& rng) {
  std::uniform_int_distribution<int> small(0, 1);
  std::uniform_int_distribution<int> shape(0, 3);
  auto e = [&] { return randomExpr(rng, /*depth=*/2); };
  std::vector<SymRange> dims(1 + small(rng));
  for (SymRange& d : dims) {
    switch (shape(rng)) {
      case 0: d = SymRange::unknown(); break;
      case 1: d = SymRange::point(e()); break;
      case 2: d = SymRange::closed(e(), e()); break;
      default: d = SymRange{e(), e(), SymExpr::constant(2)}; break;
    }
  }
  return Region(ArrayId{static_cast<std::uint32_t>(small(rng))}, dims);
}

/// The validity conjunction, derived from the dimensions here.
Pred derivedValidity(const Region& r) {
  Pred p = Pred::makeTrue();
  for (const SymRange& d : r.dims()) p = p && d.validity();
  return p;
}

TEST(InternPropertyTest, RegionHandleEqualityIffStructuralEquality) {
  std::mt19937 rng(1995);
  std::vector<Region> pool;
  for (int k = 0; k < 300; ++k) pool.push_back(randomRegion(rng));
  for (std::size_t i = 0; i < pool.size(); ++i) {
    const Region& r = pool[i];
    EXPECT_EQ(r.validity(), derivedValidity(r)) << "i=" << i;
    EXPECT_EQ(r.hasUnknownDim(), std::any_of(r.dims().begin(), r.dims().end(),
                                             [](const SymRange& d) { return d.isUnknown(); }));
    for (std::size_t j = i; j < pool.size(); ++j) {
      const bool structural = pool[i].array() == pool[j].array() && pool[i].dims() == pool[j].dims();
      ASSERT_EQ(structural, pool[i] == pool[j]) << "i=" << i << " j=" << j;
      EXPECT_EQ(structural, pool[i].id() == pool[j].id()) << "i=" << i << " j=" << j;
    }
  }
}

TEST(InternPropertyTest, EqualRegionsThroughDifferentRoutesShareOneNode) {
  const ArrayId a{0};
  const SymExpr one = SymExpr::constant(1);
  const SymExpr n = SymExpr::variable(VarId{2});
  const SymExpr i = SymExpr::variable(VarId{1});
  auto closed = [](std::int64_t lo, std::int64_t up) {
    return SymRange::closed(SymExpr::constant(lo), SymExpr::constant(up));
  };

  // Substitution: A(i : n)[i := 1] is A(1 : n), by either overload.
  const Region direct(a, {SymRange::closed(one, n)});
  EXPECT_EQ(Region(a, {SymRange::closed(i, n)}).substituted(VarId{1}, one), direct);
  EXPECT_EQ(Region(a, {SymRange::closed(i, n)}).substituted({{VarId{1}, one}}), direct);
  // Replacing a dimension, and the union of two adjacent ranges.
  EXPECT_EQ(Region(a, {closed(1, 5), closed(1, 3)}).withDim(1, closed(1, 4)),
            Region(a, {closed(1, 5), closed(1, 4)}));
  const CmpCtx ctx{ConstraintSet{}};
  const std::optional<Region> merged =
      regionUnionPair(Region(a, {closed(1, 5)}), Region(a, {closed(6, 9)}), ctx);
  ASSERT_TRUE(merged.has_value());
  EXPECT_EQ(*merged, Region(a, {closed(1, 9)}));
  // An intersection piece, in both dimensions, and a subtraction piece.
  const RegionOpResult inter = regionIntersect(Region(a, {closed(1, 10), closed(1, 4)}),
                                               Region(a, {closed(5, 20), closed(2, 9)}), ctx);
  ASSERT_EQ(inter.pieces.size(), 1u);
  EXPECT_EQ(inter.pieces[0].region, Region(a, {closed(5, 10), closed(2, 4)}));
  const RegionOpResult diff =
      regionSubtract(Region(a, {closed(1, 10)}), Region(a, {closed(6, 10)}), ctx);
  ASSERT_EQ(diff.pieces.size(), 1u);
  EXPECT_EQ(diff.pieces[0].region, Region(a, {closed(1, 5)}));
  // Ω of a rank-2 array, and the "no region" a default GAR holds.
  EXPECT_EQ(Gar::omega(a, 2).region(), Region(a, {SymRange::unknown(), SymRange::unknown()}));
  EXPECT_EQ(Gar().region(), Region(ArrayId{}, {}));
  EXPECT_EQ(Region().validity(), Pred::makeTrue());
  // The stored validity is what §3 derives: Δ for Ω, True for a point.
  EXPECT_TRUE(Gar::omega(a, 1).region().validity().isUnknown());
  EXPECT_TRUE(Region(a, {SymRange::point(n)}).validity().isTrue());
  EXPECT_EQ(direct.validity(), Pred::atom(Atom::le(one, n)));
}

// A snapshot stores a region as its array and dims, and restoring it
// re-interns them: each restored region lands on the node the analysis
// built, so restoring into this process adds nothing to the region table.
TEST(InternPropertyTest, RestoredRegionsLandOnTheNodesTheAnalysisBuilt) {
  const std::string path = testing::TempDir() + "intern_region_restore.pano";
  const std::string source = R"(
      subroutine s(a, n, m)
      integer n, m, i, j
      real a(100, 100), t(100)
      do i = 1, n
        do j = 2, m
          t(j) = a(i, j - 1)
        enddo
        do j = 2, m
          a(i, j) = t(j)
        enddo
      enddo
      end
)";
  auto reports = [](const SessionResult& result) {
    std::string out;
    for (const SessionLoopResult& loop : result.loops) out += loop.report + loop.provenance;
    return out;
  };
  AnalysisOptions options;
  options.numThreads = 1;
  std::string report;
  {
    AnalysisSession first(options);
    const SessionResult cold = first.submit(source);
    ASSERT_TRUE(cold.ok) << cold.error;
    ASSERT_EQ(cold.loops.size(), 3u);
    report = reports(cold);
    ASSERT_TRUE(first.save(path).ok);
  }
  const std::size_t regions = RegionTable::global().stats().distinct;
  const std::size_t exprs = ExprArena::global().stats().distinct;
  AnalysisSession restored(options);
  const store::StoreResult r = restored.restore(path);
  ASSERT_TRUE(r.ok) << r.error;
  EXPECT_EQ(RegionTable::global().stats().distinct, regions);
  EXPECT_EQ(ExprArena::global().stats().distinct, exprs);
  const SessionResult warm = restored.submit(source);
  ASSERT_TRUE(warm.ok) << warm.error;
  EXPECT_EQ(reports(warm), report);
  EXPECT_EQ(RegionTable::global().stats().distinct, regions);
  std::remove(path.c_str());
}

TEST(InternPropertyTest, ArenaStatsAreConsistent) {
  // Force some occupancy, then check the counters' internal consistency
  // (exact values depend on every test that ran before in this process).
  std::mt19937 rng(99);
  for (int k = 0; k < 64; ++k) {
    SymExpr e = randomExpr(rng);
    (void)(e + SymExpr::constant(k));
    (void)randomPred(rng);
  }
  ExprArena::Stats es = ExprArena::global().stats();
  EXPECT_GT(es.distinct, 0u);
  EXPECT_GT(es.bytes, 0u);
  EXPECT_LE(es.minShard, es.maxShard);
  EXPECT_LE(es.maxShard, es.distinct);

  PredArena::Stats ps = PredArena::global().stats();
  EXPECT_GT(ps.distinct, 0u);
  EXPECT_GT(ps.bytes, 0u);
  EXPECT_LE(ps.minShard, ps.maxShard);
  EXPECT_LE(ps.maxShard, ps.distinct);

  const AtomTableStats as = atomTableStats();
  EXPECT_GT(as.distinct, 0u);
  EXPECT_GT(as.bytes, 0u);
  EXPECT_LE(as.negations, as.distinct);

  (void)Region(ArrayId{0}, {SymRange::point(SymExpr::variable(VarId{1}))});
  RegionTable::Stats rs = RegionTable::global().stats();
  EXPECT_GT(rs.distinct, 0u);
  EXPECT_GT(rs.bytes, 0u);
  EXPECT_LE(rs.minShard, rs.maxShard);
  EXPECT_LE(rs.maxShard, rs.distinct);

  // Interning an already-present value must not grow the arena.
  SymExpr x = SymExpr::variable(VarId{1});
  (void)(x + x);
  std::size_t before = ExprArena::global().stats().distinct;
  for (int k = 0; k < 32; ++k) (void)(x + x);
  EXPECT_EQ(ExprArena::global().stats().distinct, before);
  // Nor the atom table, nor asking for a stored negation again.
  const Atom a = Atom::le(x, SymExpr::constant(3));
  (void)a.negated();
  const AtomTableStats atomsBefore = atomTableStats();
  for (int k = 0; k < 32; ++k) (void)Atom::le(x, SymExpr::constant(3)).negated();
  EXPECT_EQ(atomTableStats().distinct, atomsBefore.distinct);
  EXPECT_EQ(atomTableStats().negations, atomsBefore.negations);
  // Nor the region table.
  const std::size_t regionsBefore = RegionTable::global().stats().distinct;
  for (int k = 0; k < 32; ++k) (void)Region(ArrayId{0}, {SymRange::point(x + x)});
  EXPECT_EQ(RegionTable::global().stats().distinct, regionsBefore + 1);
}

/// A test-only node: one integer value. Each test passes its own `Tag`, so
/// it gets a table of its own (one instance per node type), empty at start
/// however many tests ran before it in this process.
template <int Tag>
struct TestNode {
  std::uint64_t value = 0;
  std::uint64_t id = 0;
};

/// Interns `value` under the caller-chosen `hash`, so a test can steer
/// values into shards, buckets and front-cache slots.
template <int Tag>
const TestNode<Tag>& internValue(std::uint64_t value, std::size_t hash) {
  return InternTable<TestNode<Tag>>::global().intern(
      hash, [&](const TestNode<Tag>& n) { return n.value == value; },
      [&](TestNode<Tag>& n, std::uint64_t id) {
        n.value = value;
        n.id = id;
        return sizeof(TestNode<Tag>);
      });
}

/// A well-spread hash of a test value (splitmix64's finalizer).
std::size_t mixHash(std::uint64_t v) {
  v = (v ^ (v >> 30)) * 0xbf58476d1ce4e5b9ull;
  v = (v ^ (v >> 27)) * 0x94d049bb133111ebull;
  return static_cast<std::size_t>(v ^ (v >> 31));
}

/// Every id's low bits name the shard its hash picks, and each shard's
/// sequence numbers are exactly 0, 1, ..., n-1.
template <int Tag>
void expectIdLayout(const std::map<std::uint64_t, const TestNode<Tag>*>& nodes) {
  using Table = InternTable<TestNode<Tag>>;
  std::array<std::set<std::uint64_t>, Table::kShards> sequences;
  for (const auto& [value, node] : nodes) {
    const std::size_t shard = mixHash(value) % Table::kShards;
    EXPECT_EQ(node->id & (Table::kShards - 1), shard) << "value " << value;
    EXPECT_TRUE(sequences[shard].insert(node->id >> Table::kShardBits).second)
        << "two nodes share id " << node->id;
  }
  for (std::size_t s = 0; s < Table::kShards; ++s) {
    if (sequences[s].empty()) continue;
    EXPECT_EQ(*sequences[s].begin(), 0u) << "shard " << s;
    EXPECT_EQ(*sequences[s].rbegin(), sequences[s].size() - 1) << "shard " << s << " has a gap";
  }
}

TEST(InternTableTest, ConcurrentInternsYieldOneNodePerValue) {
  // Eight threads intern overlapping value ranges, each in its own order,
  // so inserts race lookups of the same value in every shard.
  constexpr int kThreads = 8;
  constexpr std::uint64_t kPerThread = 600;
  constexpr std::uint64_t kStride = 200;  // thread t covers [t*200, t*200+600)
  std::vector<std::vector<std::pair<std::uint64_t, const TestNode<1>*>>> seen(kThreads);
  std::latch start(kThreads);
  auto worker = [&](int t) {
    std::vector<std::uint64_t> values(kPerThread);
    for (std::uint64_t k = 0; k < kPerThread; ++k) values[k] = t * kStride + k;
    std::shuffle(values.begin(), values.end(), std::mt19937(t));
    start.arrive_and_wait();
    for (int round = 0; round < 2; ++round)
      for (std::uint64_t v : values) seen[t].emplace_back(v, &internValue<1>(v, mixHash(v)));
  };
  std::vector<std::thread> pool;
  for (int t = 0; t < kThreads; ++t) pool.emplace_back(worker, t);
  for (std::thread& th : pool) th.join();

  std::map<std::uint64_t, const TestNode<1>*> nodes;
  for (const auto& thread : seen) {
    for (const auto& [value, node] : thread) {
      EXPECT_EQ(node->value, value);
      const auto it = nodes.emplace(value, node).first;
      EXPECT_EQ(it->second, node) << "value " << value << " got two nodes";
    }
  }
  const std::size_t distinct = (kThreads - 1) * kStride + kPerThread;
  EXPECT_EQ(nodes.size(), distinct);
  EXPECT_EQ(InternTable<TestNode<1>>::global().stats().distinct, distinct);
  expectIdLayout<1>(nodes);
}

TEST(InternTableTest, ConcurrentRegionInternsYieldOneNodePerValue) {
  // Eight threads intern the same regions, each in its own order, into the
  // process's region table. Array ids no other test uses keep every value
  // new, so the inserts race.
  constexpr int kThreads = 8;
  constexpr std::uint32_t kValues = 300;
  auto region = [](std::uint32_t v) {
    const SymExpr lo = SymExpr::variable(VarId{1 + v % 7});
    const SymExpr up = lo + SymExpr::constant(v % 11);
    return Region(ArrayId{4000 + v / 5}, {SymRange::closed(lo, up), SymRange::point(lo)});
  };
  std::vector<std::vector<Region>> seen(kThreads, std::vector<Region>(kValues));
  const std::size_t before = RegionTable::global().stats().distinct;
  std::latch start(kThreads);
  auto worker = [&](int t) {
    std::vector<std::uint32_t> order(kValues);
    for (std::uint32_t v = 0; v < kValues; ++v) order[v] = v;
    std::shuffle(order.begin(), order.end(), std::mt19937(t));
    start.arrive_and_wait();
    for (std::uint32_t v : order) seen[t][v] = region(v);
  };
  std::vector<std::thread> pool;
  for (int t = 0; t < kThreads; ++t) pool.emplace_back(worker, t);
  for (std::thread& th : pool) th.join();

  for (int t = 1; t < kThreads; ++t)
    for (std::uint32_t v = 0; v < kValues; ++v)
      ASSERT_EQ(seen[t][v], seen[0][v]) << "value " << v << " got two nodes";
  EXPECT_EQ(RegionTable::global().stats().distinct, before + kValues);
  for (std::uint32_t v = 0; v < kValues; ++v) {
    EXPECT_EQ(seen[0][v].validity(), derivedValidity(seen[0][v])) << "value " << v;
    EXPECT_EQ(seen[0][v], region(v));
  }
}

TEST(InternTableTest, IdsCarryTheShardInTheLowBitsAndADenseSequence) {
  std::map<std::uint64_t, const TestNode<2>*> nodes;
  for (std::uint64_t v = 0; v < 500; ++v) nodes.emplace(v, &internValue<2>(v, mixHash(v)));
  expectIdLayout<2>(nodes);
  // A repeat finds the node it built, id unchanged.
  for (const auto& [value, node] : nodes) EXPECT_EQ(&internValue<2>(value, mixHash(value)), node);
}

TEST(InternTableTest, ValuesSharingAFrontSlotEachKeepTheirOwnNode) {
  // One hash for two different values: the same front-cache slot, shard and
  // bucket. Alternating lookups keep evicting each other's slot, and every
  // lookup must still answer with the looked-up value's own node.
  constexpr std::size_t kHash = 0x5eed;
  const TestNode<3>& a = internValue<3>(1, kHash);
  const TestNode<3>& b = internValue<3>(2, kHash);
  EXPECT_NE(&a, &b);
  EXPECT_NE(a.id, b.id);
  for (int k = 0; k < 100; ++k) {
    ASSERT_EQ(&internValue<3>(1, kHash), &a) << "lookup " << k;
    ASSERT_EQ(&internValue<3>(2, kHash), &b) << "lookup " << k;
  }
  EXPECT_EQ(InternTable<TestNode<3>>::global().stats().distinct, 2u);
}

TEST(InternTableTest, StatsCountDistinctValuesAndShardBalance) {
  using Table = InternTable<TestNode<4>>;
  // Shard s receives s + 1 values, each interned three times.
  std::size_t distinct = 0;
  for (std::size_t s = 0; s < Table::kShards; ++s) {
    for (std::size_t k = 0; k <= s; ++k, ++distinct) {
      const std::size_t hash = k * Table::kShards + s;
      for (int repeat = 0; repeat < 3; ++repeat) (void)internValue<4>(distinct, hash);
    }
  }
  // Bytes are the nodes plus the index: a chain pointer and (every hash is
  // distinct here) a map entry per value, and each shard's bucket array,
  // sized as a map with that shard's insertions sizes it.
  std::size_t bucketArrays = 0;
  for (std::size_t s = 0; s < Table::kShards; ++s) {
    Table::Index index;
    for (std::size_t k = 0; k <= s; ++k) index.try_emplace(k * Table::kShards + s);
    bucketArrays += index.bucket_count() * sizeof(void*);
  }
  const Table::Stats stats = Table::global().stats();
  EXPECT_EQ(stats.distinct, distinct);
  EXPECT_EQ(stats.bytes,
            distinct * (sizeof(TestNode<4>) + Table::kChainEntryBytes + Table::kBucketEntryBytes) +
                bucketArrays);
  EXPECT_EQ(stats.minShard, 1u);
  EXPECT_EQ(stats.maxShard, Table::kShards);
}

}  // namespace
}  // namespace panorama
