// Decision-provenance support: trail helpers and the thread-local test
// label (see provenance.h for the evidence model).
#include "panorama/obs/provenance.h"

#include <utility>

namespace panorama::obs {

const char* toString(EvidenceKind k) {
  switch (k) {
    case EvidenceKind::NotSummarized: return "not-summarized";
    case EvidenceKind::UnanalyzableHeader: return "unanalyzable-header";
    case EvidenceKind::Candidacy: return "candidacy";
    case EvidenceKind::FlowTest: return "flow-test";
    case EvidenceKind::CopyOutDemotion: return "copy-out-demotion";
    case EvidenceKind::DependenceTest: return "dependence-test";
    case EvidenceKind::ScalarExposed: return "scalar-exposed";
    case EvidenceKind::ScalarReduction: return "scalar-reduction";
    case EvidenceKind::Classification: return "classification";
  }
  return "?";
}

std::vector<const Evidence*> DecisionTrail::ofKind(EvidenceKind kind) const {
  std::vector<const Evidence*> out;
  for (const Evidence& e : evidence)
    if (e.kind == kind) out.push_back(&e);
  return out;
}

namespace {

std::string& threadLabel() {
  thread_local std::string s;
  return s;
}

}  // namespace

ProvenanceScope::ProvenanceScope(std::string label)
    : prevLabel_(std::exchange(threadLabel(), std::move(label))) {}

ProvenanceScope::~ProvenanceScope() { threadLabel() = std::move(prevLabel_); }

std::string ProvenanceScope::currentLabel() { return threadLabel(); }

}  // namespace panorama::obs
