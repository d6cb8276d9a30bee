// The application layer (§3.2): array privatization and DO-loop
// parallelization on top of the GAR summaries.
//
//   * A written array is a privatization *candidate* in loop L when its
//     per-iteration writes do not involve L's index (different iterations
//     overwrite the same elements).
//   * A candidate is *privatizable* when UE_i ∩ MOD_{<i} = ∅ — no
//     loop-carried flow dependence reaches it.
//   * The loop is parallel when, after privatizing every privatizable array
//     (and iteration-private scalars), no loop-carried flow, output, or
//     anti dependence remains (§3.2.2's three tests, in that order).
#pragma once

#include "panorama/obs/provenance.h"
#include "panorama/summary/summary.h"

namespace panorama {

enum class LoopClass : std::uint8_t {
  Parallel,                    ///< parallel as written
  ParallelAfterPrivatization,  ///< parallel once the listed arrays are privatized
  Serial,                      ///< a dependence (or unknown) remains
};

const char* toString(LoopClass c);

struct ArrayPrivatization {
  ArrayId array;
  std::string name;        ///< array name as seen in the procedure
  bool written = false;    ///< appears in MOD_i
  bool candidate = false;  ///< §3.2.1 candidacy (index-free writes)
  bool privatizable = false;
  bool needsCopyOut = false;  ///< live after the loop: last-value copy required
  std::string reason;         ///< why (not) privatizable, for reports
};

struct ScalarInfo {
  VarId var;
  std::string name;
  bool privatizable = false;  ///< defined before any use in every iteration
  /// Recognized reduction accumulator: every occurrence in the loop is an
  /// accumulation `s = s op e` with a consistent op and e free of s. Such a
  /// scalar parallelizes with a reduction clause instead of privatization.
  bool reduction = false;
  char reductionOp = '+';
};

struct LoopAnalysis {
  const Stmt* loop = nullptr;
  std::string procName;
  int line = 0;
  bool boundsKnown = false;
  LoopClass classification = LoopClass::Serial;
  /// §3.2.2 dependence tests on the non-privatized remainder
  /// (True = provably absent).
  Truth noCarriedFlow = Truth::Unknown;
  Truth noCarriedOutput = Truth::Unknown;
  Truth noCarriedAnti = Truth::Unknown;
  std::vector<ArrayPrivatization> arrays;
  std::vector<ScalarInfo> scalars;
  std::string serialReason;
  /// The chain of evidence behind the classification (panorama::obs pillar
  /// 3): deterministic analysis facts, a pure function of the program (see
  /// obs/provenance.h).
  obs::DecisionTrail provenance;
};

class LoopParallelizer {
 public:
  explicit LoopParallelizer(SummaryAnalyzer& analyzer) : analyzer_(analyzer) {}

  /// Full analysis of one loop (its enclosing procedure must have been
  /// summarized).
  LoopAnalysis analyzeLoop(const Stmt& doStmt, const Procedure& proc);

 private:
  Truth intersectionEmpty(const GarList& a, const GarList& b, const CmpCtx& ctx) const;
  CmpCtx loopCtx(const LoopSummary& ls) const;
  void classifyScalars(const Stmt& doStmt, const Procedure& proc, LoopAnalysis& out);

  SummaryAnalyzer& analyzer_;
};

/// Renders a per-loop report (examples and benches share this).
std::string formatLoopAnalysis(const LoopAnalysis& la);

/// Renders the loop's decision trail — one indented line per evidence entry
/// (panorama_driver --explain).
std::string formatProvenance(const LoopAnalysis& la);

/// One-line digest of the trail: the classification plus the decisive
/// evidence (the failing test, the killing array, the exposed scalar).
/// Deterministic across thread counts and cache configurations.
std::string provenanceSummary(const LoopAnalysis& la);

}  // namespace panorama
