// Allocation regression test for the hit paths of the symbolic core: once a
// value is interned and a verdict cached, rebuilding the value or asking the
// query again must not touch the heap, and copying a GAR (two handles) must
// not either. This binary replaces the global
// operator new/delete with versions that count allocations per thread, so a
// hit path that starts building a heap candidate again fails here.
#include <gtest/gtest.h>

#include <array>
#include <cstddef>
#include <cstdint>
#include <cstdlib>
#include <functional>
#include <new>
#include <string>
#include <thread>
#include <vector>

#include "panorama/predicate/predicate.h"
#include "panorama/region/gar.h"
#include "panorama/symbolic/cmp.h"

namespace {

thread_local std::size_t tAllocations = 0;

void* countedAlloc(std::size_t n) {
  ++tAllocations;
  if (void* p = std::malloc(n == 0 ? 1 : n)) return p;
  throw std::bad_alloc();
}

void* countedAlignedAlloc(std::size_t n, std::align_val_t align) {
  ++tAllocations;
  const std::size_t a = static_cast<std::size_t>(align);
  if (void* p = std::aligned_alloc(a, (n + a - 1) / a * a)) return p;
  throw std::bad_alloc();
}

}  // namespace

void* operator new(std::size_t n) { return countedAlloc(n); }
void* operator new[](std::size_t n) { return countedAlloc(n); }
void* operator new(std::size_t n, std::align_val_t a) { return countedAlignedAlloc(n, a); }
void* operator new[](std::size_t n, std::align_val_t a) { return countedAlignedAlloc(n, a); }
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept { std::free(p); }

namespace panorama {
namespace {

constexpr int kRepeats = 1000;

/// The operands every case shares; built (and so allocated) up front.
struct Operands {
  SymbolTable tab;
  SymExpr I = SymExpr::variable(tab.intern("i"));
  SymExpr N = SymExpr::variable(tab.intern("n"));
  SymExpr M = SymExpr::variable(tab.intern("m"));
  Atom iLeN = Atom::le(I, N);
  Atom iGtN = Atom::gt(I, N);
  Atom iLeN3 = Atom::le(I, N + 3);
  Pred p = Pred::atom(Atom::le(I, N)) && Pred::atom(Atom::ge(I, SymExpr::constant(1)));
  Pred q = Pred::atom(Atom::le(N, M));
  Pred weak = Pred::atom(Atom::le(I, N + 3));
  ConstraintSet context = [this] {
    ConstraintSet cs;
    cs.addExprLE0(I - N);                     // i <= n
    cs.addExprLE0(SymExpr::constant(1) - I);  // i >= 1
    cs.addExprLE0(N - M);                     // n <= m
    return cs;
  }();
  CmpCtx ctx{context};
  ArrayId A{0};
  std::array<SymRange, 2> dims{SymRange::closed(I, N), SymRange::point(M)};
  Gar gar = Gar::make(p, Region(A, dims));
};

/// One hit path: its name and a call returning the handle or verdict it
/// produced, as a 64-bit word.
struct HitPath {
  std::string name;
  std::function<std::uint64_t()> call;
};

std::vector<HitPath> hitPaths(const Operands& o) {
  return {
      {"expr rebuild (sum)",
       [&o] { return (o.I.mulConst(5) + o.N.mulConst(3) - o.M + 11).id(); }},
      {"expr rebuild (product)", [&o] { return ((o.I + o.N) * (o.M + 1)).id(); }},
      {"Pred::atom", [&o] { return Pred::atom(Atom::le(o.I, o.N)).id(); }},
      {"Pred &&", [&o] { return (o.p && o.q).id(); }},
      {"atomsContradict",
       [&o] { return static_cast<std::uint64_t>(atomsContradict(o.iLeN, o.iGtN)); }},
      {"atomImplies",
       [&o] { return static_cast<std::uint64_t>(atomImplies(o.iLeN, o.iLeN3)); }},
      {"Pred::implies", [&o] { return static_cast<std::uint64_t>(o.p.implies(o.weak)); }},
      {"CmpCtx::le (entailed)",
       [&o] { return static_cast<std::uint64_t>(o.ctx.le(o.I, o.M + 2)); }},
      {"CmpCtx::le (undecided)",
       [&o] { return static_cast<std::uint64_t>(o.ctx.le(o.M, o.I)); }},
      {"ConstraintSet::impliesLE0",
       [&o] { return static_cast<std::uint64_t>(o.context.impliesLE0(o.I - o.M)); }},
      {"Region (re-intern)", [&o] { return Region(o.A, o.dims).id(); }},
      {"Gar::make", [&o] { return Gar::make(o.p, o.gar.region()).guard().id(); }},
      {"Gar copy",
       [&o] {
         const Gar copy = o.gar;
         return copy.guard().id() ^ copy.region().id();
       }},
  };
}

/// Runs every hit path once to warm it, then kRepeats more times, and
/// returns the calling thread's allocation count per path over the repeats
/// together with the last result of each.
struct HitRun {
  std::vector<std::size_t> allocations;
  std::vector<std::uint64_t> results;
};

HitRun runHitPaths(const std::vector<HitPath>& paths) {
  HitRun run;
  run.allocations.reserve(paths.size());
  run.results.reserve(paths.size());
  for (const HitPath& path : paths) {
    std::uint64_t result = path.call();  // warm-up: interns, caches, sizes buffers
    const std::size_t before = tAllocations;
    for (int k = 0; k < kRepeats; ++k) result = path.call();
    run.allocations.push_back(tAllocations - before);
    run.results.push_back(result);
  }
  return run;
}

TEST(AllocTest, HitPathsAllocateNothingAfterWarmUp) {
  ASSERT_TRUE(QueryCache::global().enabled());
  const Operands o;
  const std::vector<HitPath> paths = hitPaths(o);
  const HitRun run = runHitPaths(paths);
  for (std::size_t k = 0; k < paths.size(); ++k)
    EXPECT_EQ(run.allocations[k], 0u) << paths[k].name << " allocated on a hit";
  // The verdicts are the ones the queries call for, not leftovers.
  EXPECT_EQ(run.results[4], static_cast<std::uint64_t>(Truth::True));  // i <= n, i > n
  EXPECT_EQ(run.results[5], static_cast<std::uint64_t>(Truth::True));  // i <= n => i <= n+3
  EXPECT_EQ(run.results[6], static_cast<std::uint64_t>(Truth::True));
  EXPECT_EQ(run.results[7], static_cast<std::uint64_t>(Truth::True));
}

// A GarList owns one vector of two-handle members: copying it allocates
// that vector and nothing per member.
TEST(AllocTest, CopyingAGarListAllocatesOnlyItsMemberVector) {
  const Operands o;
  GarList list;
  list.add(o.gar);
  list.add(Gar::make(o.q, Region(o.A, {SymRange::closed(o.N, o.M), SymRange::point(o.I)})));
  list.add(Gar::omega(o.A, 2));
  ASSERT_EQ(list.size(), 3u);
  std::size_t members = GarList(list).size();  // warm-up
  const std::size_t before = tAllocations;
  for (int k = 0; k < kRepeats; ++k) members += GarList(list).size();
  EXPECT_EQ(tAllocations - before, static_cast<std::size_t>(kRepeats));
  EXPECT_EQ(members, 3u * (kRepeats + 1));
}

TEST(AllocTest, EveryThreadHitsAllocationFreeWithTheSameHandles) {
  ASSERT_TRUE(QueryCache::global().enabled());
  const Operands o;
  const std::vector<HitPath> paths = hitPaths(o);
  constexpr int kThreads = 4;
  std::vector<HitRun> runs(kThreads);
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t)
    threads.emplace_back([&runs, &paths, t] { runs[t] = runHitPaths(paths); });
  for (std::thread& th : threads) th.join();
  for (int t = 0; t < kThreads; ++t) {
    for (std::size_t k = 0; k < paths.size(); ++k)
      EXPECT_EQ(runs[t].allocations[k], 0u)
          << paths[k].name << " allocated on a hit in thread " << t;
    EXPECT_EQ(runs[t].results, runs[0].results) << "thread " << t;
  }
}

}  // namespace
}  // namespace panorama
