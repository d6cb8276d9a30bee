// Content fingerprints for procedure units (the incremental session's
// change-detection primitive). A fingerprint is a structural hash over a
// procedure's declarations and statement subtree that deliberately ignores
// SourceLoc, so reformatting or shifting a routine within its file does not
// dirty it — only a change to what the analyzer can observe does.
//
// Fingerprints are computed over the *pre-sema* AST (sema mutates ArrayRef
// nodes into Intrinsic nodes in place); AnalysisSession always hashes the
// freshly parsed program, so the same source text maps to the same
// fingerprint on every submit.
//
// Beyond the whole-procedure hash, fingerprintProcedureDetail() breaks a
// procedure into per-top-level-statement *items* — the granularity the
// session reuses loop summaries and verdicts at. A loop's summary and
// verdict depend on exactly:
//   * the procedure frame (params/decls/commons/paramConsts — they shape
//     ProcSymbols and hence every lowering), plus the set of DO index names
//     (the T1-off ablation keys on it);
//   * its own item subtree (loop summary + scalar classification);
//   * under options.quantified only, the immediately preceding item (the
//     §5.2 counter idiom inspects `body[k-1]`);
//   * the summaries of the procedures called in the subtree (keyed
//     separately, by epoch);
//   * for a loop that no other DO encloses, the UE set downstream of it
//     (ueAfter, the copy-out/live-out probe), which the session compares
//     after the procedure's walk instead of keying on the text after the
//     item.
// Each item therefore carries (hash, precedingHash) plus the callee names
// its subtree calls.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "panorama/ast/ast.h"

namespace panorama {

/// 64-bit FNV-1a structural hash. Equality of fingerprints is treated as
/// equality of procedure content (collisions are ignored, as everywhere
/// fingerprints are used for build avoidance).
using Fingerprint = std::uint64_t;

Fingerprint fingerprintProcedure(const Procedure& proc);

/// One top-level body statement of a procedure, as the session's loop-reuse
/// matcher sees it.
struct ItemFingerprint {
  Fingerprint hash = 0;           ///< structural hash of the statement subtree
  Fingerprint precedingHash = 0;  ///< previous item's hash (0 for the first)
  std::uint32_t loopCount = 0;    ///< DO statements in the subtree
  /// CALL targets in the subtree (sorted) — the procedures whose summaries
  /// this item's loop summaries and verdicts read.
  std::vector<std::string> callees;
};

struct ProcFingerprintDetail {
  Fingerprint whole = 0;  ///< == fingerprintProcedure(proc): the frame and the item hashes
  /// Declaration frame: name, isMain, params, decls, commons, paramConsts,
  /// plus the sorted set of DO index names of the whole body.
  Fingerprint frame = 0;
  std::vector<ItemFingerprint> items;  ///< one per top-level body statement
};

ProcFingerprintDetail fingerprintProcedureDetail(const Procedure& proc);

}  // namespace panorama
