// Per-item fingerprints (ast/fingerprint, DESIGN.md §4.9): the invariants
// the session's loop-granular matcher rests on. An item's (hash,
// precedingHash) must ignore line positions, an edit to item k must change
// item k's hash and nothing else but item k+1's preceding hash, and an
// item's callee set is its own subtree's.
#include <gtest/gtest.h>

#include <optional>
#include <string>
#include <vector>

#include "panorama/ast/fingerprint.h"
#include "panorama/frontend/parser.h"

namespace panorama {
namespace {

/// Three independent top-level nests plus a trailing assignment; `edited`
/// changes a constant inside nest `editedNest` (1-based, 0 = none) and
/// `comment` prepends a comment line that shifts every statement down one.
std::string kernSource(int editedNest, bool comment = false) {
  std::string src = "      subroutine kern(a, b, n)\n";
  src += "      integer n\n";
  src += "      real a(100,4)\n";
  src += "      real b(100,4)\n";
  src += "      real t\n";
  if (comment) src += "c shifted down by one line\n";
  for (int k = 1; k <= 3; ++k) {
    const int lbl = 10 * k;
    const std::string col = std::to_string(k);
    const std::string c = (k == editedNest) ? "3.0" : "1.0";
    src += "      do " + std::to_string(lbl) + " i = 1, n\n";
    src += "      t = a(i," + col + ") + " + c + "\n";
    src += "      b(i," + col + ") = t * 2.0\n";
    src += std::to_string(lbl) + "    continue\n";
  }
  src += "      b(1,1) = 0.0\n";
  src += "      end\n";
  return src;
}

const Procedure& parseKern(const std::string& src, std::optional<Program>& keepAlive) {
  DiagnosticEngine diags;
  keepAlive = parseProgram(src, diags);
  EXPECT_TRUE(keepAlive.has_value()) << diags.str();
  return keepAlive->procedures.front();
}

TEST(FingerprintDetailTest, ItemsIgnoreLineShifts) {
  std::optional<Program> a, b;
  const ProcFingerprintDetail plain = fingerprintProcedureDetail(parseKern(kernSource(0), a));
  const ProcFingerprintDetail shifted =
      fingerprintProcedureDetail(parseKern(kernSource(0, /*comment=*/true), b));

  EXPECT_EQ(plain.whole, shifted.whole);
  EXPECT_EQ(plain.frame, shifted.frame);
  ASSERT_EQ(plain.items.size(), shifted.items.size());
  ASSERT_EQ(plain.items.size(), 4u);  // three nests + trailing assignment
  for (std::size_t k = 0; k < plain.items.size(); ++k) {
    EXPECT_EQ(plain.items[k].hash, shifted.items[k].hash) << "item " << k;
    EXPECT_EQ(plain.items[k].precedingHash, shifted.items[k].precedingHash) << "item " << k;
  }
  EXPECT_EQ(plain.items[0].loopCount, 1u);
  EXPECT_EQ(plain.items[3].loopCount, 0u);
}

TEST(FingerprintDetailTest, EditChangesOnlyTheEditedItem) {
  std::optional<Program> a, b;
  const ProcFingerprintDetail base = fingerprintProcedureDetail(parseKern(kernSource(0), a));
  const ProcFingerprintDetail edited = fingerprintProcedureDetail(parseKern(kernSource(2), b));

  ASSERT_EQ(base.items.size(), edited.items.size());
  EXPECT_NE(base.whole, edited.whole);
  EXPECT_EQ(base.frame, edited.frame);  // declarations untouched

  // Item 1 (the second nest) carries the edit: its own hash changes, and no
  // other item's does, before or after it. The item after it sees a new
  // preceding hash (the quantified counter idiom reads it).
  EXPECT_EQ(base.items[0].hash, edited.items[0].hash);
  EXPECT_NE(base.items[1].hash, edited.items[1].hash);
  EXPECT_EQ(base.items[2].hash, edited.items[2].hash);
  EXPECT_EQ(base.items[3].hash, edited.items[3].hash);
  EXPECT_EQ(base.items[1].precedingHash, edited.items[1].precedingHash);
  EXPECT_NE(base.items[2].precedingHash, edited.items[2].precedingHash);
  EXPECT_EQ(base.items[3].precedingHash, edited.items[3].precedingHash);
}

TEST(FingerprintDetailTest, FrameHashCoversDeclarations) {
  std::optional<Program> a, b;
  std::string widened = kernSource(0);
  const std::string decl = "      real a(100,4)\n";
  widened.replace(widened.find(decl), decl.size(), "      real a(200,4)\n");
  const ProcFingerprintDetail base = fingerprintProcedureDetail(parseKern(kernSource(0), a));
  const ProcFingerprintDetail wide = fingerprintProcedureDetail(parseKern(widened, b));
  EXPECT_NE(base.frame, wide.frame);
  EXPECT_NE(base.whole, wide.whole);
}

TEST(FingerprintDetailTest, CalleesCoverTheSubtreeOnly) {
  const char* src = R"(
      subroutine kern(a, n)
      integer n
      real a(100)
      do 10 i = 1, n
      call first(a, i)
10    continue
      do 20 i = 1, n
      call second(a, i)
20    continue
      end
)";
  std::optional<Program> keep;
  const ProcFingerprintDetail detail = fingerprintProcedureDetail(parseKern(src, keep));
  ASSERT_EQ(detail.items.size(), 2u);
  // Each item's loop summaries and verdicts read only the summaries of what
  // its own subtree calls; what follows it reaches a verdict through
  // ueAfter alone, which the session re-checks after the walk.
  EXPECT_EQ(detail.items[0].callees, std::vector<std::string>{"first"});
  EXPECT_EQ(detail.items[1].callees, std::vector<std::string>{"second"});
}

}  // namespace
}  // namespace panorama
