// The information-summary algorithms of §4.1: SUM_segment, SUM_bb,
// SUM_loop, SUM_call, realized as a memoizing analyzer over the HSG.
//
// All summaries are *entry-relative*: the symbolic variables appearing in a
// node's MOD/UE sets denote the values scalars hold when control enters
// that node. Scalar assignments are substituted on the fly during backward
// propagation (the paper's "scalar values ... substituted on the fly during
// the array information propagation"); anything unexpressible degrades to
// poisoned expressions and from there to Ω regions / Δ guards.
#pragma once

#include <array>
#include <atomic>
#include <cstdint>
#include <map>
#include <optional>
#include <set>
#include <unordered_map>

#include "panorama/hsg/hsg.h"
#include "panorama/region/gar.h"

namespace panorama {

/// Ablation switches — the T1/T2/T3 columns of Table 1 plus the quantified,
/// DE and GAR-simplifier switches — and two execution options. The §5.2
/// simplifier's CNF valves and Fourier-Motzkin budget are engine constants
/// (predicate.h, constraint.h), and the query tier is a process setting
/// (setQueryTierEnabled in fm_incremental.h).
struct AnalysisOptions {
  bool symbolicAnalysis = true;  ///< T1: symbolic bounds/subscripts + substitution
  bool ifConditions = true;      ///< T2: IF conditions become guards
  bool interprocedural = true;   ///< T3: CALL summaries instead of Ω
  bool quantified = false;       ///< §5.2 ∀-guard extension (MDG `RL`)
  /// §3.2.2 DE (downward-exposed use) sets, computed on demand: no verdict
  /// or report reads them, since the anti-dependence test uses UE_i. Only
  /// `panorama_driver --summaries`, the DE oracle tests and the ablation
  /// bench's "with DE sets" row turn them on. Off, every DE list
  /// (LoopSummary::deIter/de, ProcSummary::de) stays empty, and snapshots
  /// store those empty lists.
  bool computeDE = false;
  bool garSimplifier = true;     ///< ablation: GAR list cleanup

  // ----- execution options (the analysis scheduler) -----
  /// Analysis workers, calling thread included. 0 = hardware_concurrency().
  /// Every value runs the same task graph (1 runs it on the calling thread)
  /// and yields byte-identical reports.
  std::size_t numThreads = 0;
  /// Incremental sessions: reuse cached per-loop summaries and verdicts
  /// inside re-summarized procedures when the loop's statement subtree,
  /// declaration frame, and callee summary epochs are all unchanged (a
  /// verdict whose downstream exposure changed is re-analyzed).
  /// Execution-only (reports are byte-identical either way — the session
  /// excludes it from the options key); false restores procedure-granular
  /// reuse, kept as the bench_incremental comparison baseline.
  bool loopGranularReuse = true;
};

/// Everything the applications need about one DO loop.
struct LoopSummary {
  LoopBounds bounds;              ///< normalized header (index VarId, lo/up/step)
  bool boundsKnown = false;       ///< header lowered successfully
  bool prematureExit = false;
  GarList modIter;                ///< MOD_i  (in terms of the index variable)
  GarList ueIter;                 ///< UE_i
  GarList modBefore;              ///< MOD_{<i}
  GarList modAfter;               ///< MOD_{>i}
  GarList deIter;                 ///< DE_i: uses not followed by an in-iteration write
                                  ///< (empty unless options.computeDE)
  GarList mod;                    ///< expanded whole-loop MOD
  GarList ue;                     ///< expanded whole-loop UE
  GarList de;                     ///< expanded whole-loop DE (uses exposed at loop exit;
                                  ///< empty unless options.computeDE)
  GarList ueAfter;                ///< UE at the loop's exit edge (live-out probe)
  std::vector<VarId> bodyAssignedScalars;  ///< loop-variant scalars (incl. index)
};

/// Whole-procedure side effect. `mod`/`ue` cover formal and COMMON arrays
/// only (what a caller can observe); `modAll`/`ueAll` keep local arrays too
/// (what the main program / reports inspect).
struct ProcSummary {
  GarList mod;
  GarList ue;
  GarList de;  ///< downward-exposed uses (formal/COMMON arrays; empty unless computeDE)
  GarList modAll;
  GarList ueAll;
  std::vector<VarId> modifiedScalars;  ///< globals + formals the proc may write
};

/// Cost counters for the Figure 4 / ablation benches.
struct SummaryStats {
  std::size_t blockSteps = 0;
  std::size_t loopExpansions = 0;
  std::size_t callMappings = 0;
  std::size_t peakListLength = 0;
  std::size_t garsCreated = 0;
};

class SummaryAnalyzer {
 public:
  SummaryAnalyzer(const Program& program, SemaResult& sema, const Hsg& hsg,
                  AnalysisOptions options = {});

  /// MOD/UE of a whole procedure (memoized; callees computed on demand).
  const ProcSummary& procSummary(const Procedure& proc);

  /// Per-loop summaries become available once the enclosing procedure has
  /// been summarized. nullptr if unknown.
  const LoopSummary* loopSummary(const Stmt* doStmt) const;

  // ----- incremental-session support (see session/session.h) -----

  /// A procedure's memoized state as the session keeps it between submits
  /// (and a snapshot stores it): its summary and its loop summaries by DO
  /// walk index (collectDoLoops order), so the state refers to no statement
  /// object and seeds any procedure with the same DO walk.
  struct ProcSnapshot {
    std::optional<ProcSummary> summary;
    /// One entry per DO statement of the walk; empty for a loop the
    /// procedure's summarization did not reach (or has not yet).
    std::vector<std::optional<LoopSummary>> loops;
  };

  /// Moves the memoized state of `proc` (a procedure of this analyzer's
  /// program) out of its slot; the analyzer must not summarize `proc`
  /// afterwards.
  ProcSnapshot takeProcedure(const Procedure& proc);

  /// Moves `snapshot` into `proc`'s slot: procSummary hits the memo instead
  /// of recomputing, and sumLoop returns a seeded loop's whole-loop sets
  /// without re-expanding its body (the enclosing segment walk still
  /// overwrites ueAfter with this run's downstream exposure). The session
  /// seeds clean procedures whole and, inside re-summarized ones, the loop
  /// summaries of statement subtrees it proved unchanged — every nested DO
  /// of such a subtree alongside it. Walk indices past the procedure's DO
  /// walk are ignored.
  void seedProcedure(const Procedure& proc, ProcSnapshot snapshot);

  const AnalysisOptions& options() const { return options_; }
  /// This analyzer's ψ binding (§5.3); invalid unless options().quantified.
  /// Consumers building their own CmpCtx thread it through so ψ-guarded
  /// GARs keep their element-coordinate bounds.
  const PsiDims& psi() const { return psi_; }
  /// Snapshot of the cost counters (safe to call while analysis runs).
  SummaryStats stats() const;
  SemaResult& sema() { return *sema_; }
  const SemaResult& sema() const { return *sema_; }
  /// Re-points the analyzer at program/sema/hsg objects its own ones were
  /// moved into (the memo keys — procedure and statement addresses — live
  /// on the heap and survive the move).
  void rebind(const Program& program, SemaResult& sema, const Hsg& hsg);

  // ----- internal building blocks, exposed for white-box tests -----

  /// Folds one basic block backward through (mod, ue) — §4.1's SUM_bb plus
  /// the on-the-fly substitution of the step-2 note.
  void foldBlockBackward(const HsgNode& block, const ProcSymbols& sym, GarList& mod,
                         GarList& ue, GarList* de = nullptr);

  /// Lowers an array reference to a (point-per-dimension) region.
  Region lowerRef(const Expr& ref, const ProcSymbols& sym);

 private:
  struct NodeSets {
    GarList mod;
    GarList ue;
    GarList de;  ///< §3.2.2: downward-exposed uses (computeDE only)
  };

  void sumSegment(const HsgGraph& g, const ProcSymbols& sym, GarList& mod, GarList& ue,
                  GarList* de = nullptr);
  NodeSets sumLoop(const HsgNode& loop, const ProcSymbols& sym);
  NodeSets sumCall(const HsgNode& call, const ProcSymbols& sym);
  NodeSets sumCondensed(const HsgNode& node, const ProcSymbols& sym);

  /// Scalars (global VarIds) possibly written by a statement subtree, used
  /// to invalidate successor sets across compound nodes.
  void collectAssignedScalars(const std::vector<const Stmt*>& stmts, const ProcSymbols& sym,
                              std::vector<VarId>& out, bool throughCalls);

  /// Adds every array read inside `e` to `ue` (as guard-True point GARs).
  void addUses(const Expr& e, const ProcSymbols& sym, GarList& ue);

  SymExpr lowerValue(const Expr& e, const ProcSymbols& sym) const;
  Pred lowerGuard(const Expr& e, const ProcSymbols& sym);
  Pred lowerGuardBase(const Expr& e, const ProcSymbols& sym) const;

  // ----- §5.2/§5.3 quantified-guard extension (options_.quantified) -----

  /// The guarded-counter idiom: `kc = 0` immediately followed by
  /// `DO k = lo, up: IF (q(array(f(k)))) kc = kc + c` (c > 0), with the
  /// tested array stable at the tested element after its test. Then
  /// kc == 0 at loop exit ⟺ ∀k∈[lo,up]: ¬q.
  struct CounterIdiom {
    VarId counter;
    VarId index;
    SymExpr lo, up;
    Atom pred;  ///< the positive ArrayPred guarding the increment
  };

  /// Quantified-aware condition lowering: single-array comparisons become
  /// uninterpreted ArrayPred atoms instead of Δ.
  Pred lowerGuardQuantified(const Expr& e, const ProcSymbols& sym);
  /// Idiom lookup for a DO statement (cached per procedure); nullptr if the
  /// loop does not match.
  const CounterIdiom* counterIdiomFor(const Stmt* loop, const ProcSymbols& sym);
  /// Rewrites (counter == 0) guard atoms into the Forall fact; any other
  /// guard content naming the counter degrades to Δ.
  void applyCounterRewrite(GarList& list, const CounterIdiom& idiom) const;
  /// Invalidates quantified atoms whose array is in `written` (their values
  /// are not stable across the write): affected clauses drop to Δ.
  void taintQuantified(GarList& list, const std::vector<ArrayId>& written) const;
  /// Invalidates every quantified atom (used at call-boundary mapping).
  void taintAllQuantified(GarList& list) const;
  /// Rewrites [q(f(i)), A(f(i))] into [q(ψ1), A(f(i))] ahead of expansion,
  /// turning the per-iteration element condition into a §5.3 dimension
  /// predicate that expands exactly.
  void psiRewrite(GarList& list, VarId index) const;
  /// §5.2 induction-variable conversion: scalars incremented exactly once
  /// per iteration by a loop-invariant amount map to v + c*(i - lo).
  std::map<VarId, SymExpr> recognizeInductionVars(const Stmt& loop, const ProcSymbols& sym,
                                                  VarId index, const SymExpr& lo);

  /// The formal and global scalars `proc` may write (what escapes a call
  /// to it), walked from its statements and its callees' summaries;
  /// procSummary keeps the result in ProcSummary::modifiedScalars.
  std::vector<VarId> escapingScalars(const Procedure& proc);

  void poisonScalars(GarList& list, const std::vector<VarId>& vars) const;
  void note(const GarList& list);

  /// One procedure's memo. The constructor creates every slot and every
  /// loop entry, so analysis never inserts a key: it only fills values in.
  struct ProcSlot {
    ProcSnapshot memo;  ///< the part a session carries between submits
    /// DO-index variables (the fragment pre-symbolic-analysis compilers
    /// could reason about); filled for the T1-off ablation only.
    std::set<VarId> indexVars;
    std::map<const Stmt*, CounterIdiom> idioms;  ///< §5.2 counter idioms by DO
    bool idiomsScanned = false;
  };
  /// Where a DO statement's loop summary lives, and its index's reserved
  /// primed copy (the i' of MOD_{<i}).
  struct LoopAt {
    ProcSlot* slot;
    std::uint32_t walkIndex;
    VarId primed;
  };

  ProcSlot& slotOf(const Procedure& proc) { return slots_.at(&proc); }
  const ProcSlot& slotOf(const Procedure& proc) const { return slots_.at(&proc); }
  std::optional<LoopSummary>& loopEntry(const Stmt& doStmt);

  // Pointers, not references: ProgramAnalysis's move operations rebind()
  // them to the moved-to program/sema/hsg.
  const Program* program_;
  SemaResult* sema_;
  const Hsg* hsg_;
  AnalysisOptions options_;
  PsiDims psi_;  // this analyzer's §5.3 ψ binding (invalid unless quantified)
  /// The ArrayPred relation keys ap$lt, ap$le, ap$eq (quantified only).
  std::array<VarId, 3> apKeys_;
  CmpCtx ctx_;   // empty hypothesis context carrying psi_

  // Thread-safety (DESIGN.md §4.1): both maps are complete once the
  // constructor returns, so lookups never race with an insert, and the
  // constructor interns every symbol analysis needs, so analysis only reads
  // the symbol table. A slot has one writer, the task summarizing its
  // procedure; the scheduler spawns every task that reads a summary or a
  // loop summary (callers' summaries, the procedure's loops) after that
  // task has finished. Keys are procedure and statement addresses, which
  // live on the heap and survive rebind().
  std::unordered_map<const Procedure*, ProcSlot> slots_;
  std::unordered_map<const Stmt*, LoopAt> loopAt_;

  /// Cost counters, atomically updated so concurrent procedure analyses
  /// can share them; stats() snapshots into the plain SummaryStats.
  struct AtomicStats {
    std::atomic<std::size_t> blockSteps{0};
    std::atomic<std::size_t> loopExpansions{0};
    std::atomic<std::size_t> callMappings{0};
    std::atomic<std::size_t> peakListLength{0};
    std::atomic<std::size_t> garsCreated{0};
  };
  AtomicStats stats_;
};

}  // namespace panorama
