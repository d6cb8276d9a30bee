// Decision provenance (panorama::obs pillar 3).
//
// Every LoopAnalysis carries a DecisionTrail: the ordered chain of evidence
// that produced its classification — which array failed candidacy, which
// UE_i ∩ MOD_<i test could not be resolved (and what the two region lists
// were), which copy-out obligation demoted a privatization, which of the
// three §3.2.2 dependence tests stayed Unknown, which scalar is exposed.
// The --explain mode of panorama_driver renders trails; corpus_test asserts
// them for the Figure 1 examples.
//
// Only the privatization layer writes a trail, and only from the verdicts
// it computes, so a trail is a pure function of the analysis input:
// identical across thread counts, cache histories, warm and restored
// sessions. The query layers below never write one — a memoized verdict
// skips their cold path, so anything they reported would depend on which
// thread or session evaluated a query first.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "panorama/support/diagnostics.h"

namespace panorama::obs {

enum class EvidenceKind : std::uint8_t {
  NotSummarized,      ///< loop had no summary (condensed or unreachable)
  UnanalyzableHeader, ///< DO header not symbolically analyzable
  Candidacy,          ///< §3.2.1 index-free-writes candidacy of one array
  FlowTest,           ///< UE_i ∩ MOD_<i = ∅ for one candidate array
  CopyOutDemotion,    ///< last-value obligation demoted a privatization
  DependenceTest,     ///< §3.2.2 carried flow/output/anti test on the remainder
  ScalarExposed,      ///< scalar read before its iteration-local definition
  ScalarReduction,    ///< scalar recognized as a reduction accumulator
  Classification,     ///< the final verdict and its §3.2.2 inputs
};

const char* toString(EvidenceKind k);

/// One link in the chain: what was tested, about what, with which verdict.
struct Evidence {
  EvidenceKind kind = EvidenceKind::Classification;
  std::string subject;  ///< array/scalar/test name ("" for loop-level facts)
  Truth verdict = Truth::Unknown;
  std::string detail;  ///< human-readable explanation (may embed region text)
};

struct DecisionTrail {
  std::vector<Evidence> evidence;

  void add(EvidenceKind kind, std::string subject, Truth verdict, std::string detail = "") {
    evidence.push_back({kind, std::move(subject), verdict, std::move(detail)});
  }
  bool empty() const { return evidence.empty(); }

  /// The evidence entries of one kind (test helper).
  std::vector<const Evidence*> ofKind(EvidenceKind kind) const;
};

/// Names the test running on the calling thread for the scope's lifetime,
/// so cold query spans can say which test issued them. Scopes nest (the
/// previous label is restored); each loop analysis runs on exactly one pool
/// thread, so a thread-local label needs no locking.
class ProvenanceScope {
 public:
  explicit ProvenanceScope(std::string label);
  ~ProvenanceScope();

  ProvenanceScope(const ProvenanceScope&) = delete;
  ProvenanceScope& operator=(const ProvenanceScope&) = delete;

  /// The innermost scope's label ("" without one) — the guard context cold
  /// query spans attach so the cost profile can say which test paid for an
  /// expensive FM/implication evaluation.
  static std::string currentLabel();

 private:
  std::string prevLabel_;
};

}  // namespace panorama::obs
