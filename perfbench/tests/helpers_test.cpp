// Tests for the benchmark's own helpers: the percentile rule, the
// calibration interpolation, and the stationarity of the edit scripts.
// Run: ctest --test-dir .bench_build/perfbench (after building the
// perfbench_helpers_test target).
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <string>
#include <vector>

#include "bench.h"
#include "panorama/frontend/parser.h"

using namespace perfbench;

namespace {

int failures = 0;

void check(bool ok, const std::string& what) {
  if (!ok) {
    ++failures;
    std::fprintf(stderr, "FAIL: %s\n", what.c_str());
  }
}

bool near(double a, double b) { return std::fabs(a - b) < 1e-9 * std::max(1.0, std::fabs(b)); }

std::vector<std::string> lines(const std::string& text) {
  std::vector<std::string> out;
  std::size_t start = 0;
  while (start < text.size()) {
    std::size_t end = text.find('\n', start);
    if (end == std::string::npos) end = text.size();
    out.push_back(text.substr(start, end - start));
    start = end + 1;
  }
  return out;
}

/// True when `text` is `base` with exactly one line inserted.
bool baseplusOneLine(const std::string& base, const std::string& text) {
  const std::vector<std::string> b = lines(base), t = lines(text);
  if (t.size() != b.size() + 1) return false;
  std::size_t k = 0;
  while (k < b.size() && b[k] == t[k]) ++k;
  for (std::size_t i = k; i < b.size(); ++i)
    if (b[i] != t[i + 1]) return false;
  return true;
}

void testPercentileRule() {
  std::vector<double> v;
  for (int i = 1000; i >= 1; --i) v.push_back(i);  // unsorted on purpose
  check(percentile(v, 0.99) == 990, "p99 of 1..1000 is 990 (nearest rank)");
  check(percentile(v, 0.50) == 500, "p50 of 1..1000 is 500");
  std::size_t beyond = 0;
  for (double x : v) beyond += x > percentile(v, 0.99);
  check(beyond == 10 && samplesBeyond(1000, 0.99) == 10, "ten samples lie beyond p99 of 1000");
  check(percentileReportable(1000, 0.99), "1000 samples support a p99");
  check(!percentileReportable(999, 0.99), "999 samples leave only 9 beyond the p99");
  check(!percentileReportable(500, 0.99), "500 samples do not support a p99");
  check(percentileReportable(20, 0.50), "20 samples support a median");
  check(percentile({}, 0.5) == 0, "empty sample gives 0");
  check(percentile({7}, 0.99) == 7, "single sample is every percentile");
}

void testNormalization() {
  Timeline t;
  t.add(CalPoint{0, 2.0});
  t.add(CalPoint{100, 4.0});
  t.add(CalPoint{200, 1.0});
  check(near(t.refAt(50), 3.0), "reference interpolates between the surrounding calibrations");
  check(near(t.refAt(150), 2.5), "the second segment uses its own two calibrations");
  check(near(t.refAt(-10), 2.0) && near(t.refAt(500), 1.0), "outside the window clamps");
  check(near(t.refAt(100), 4.0), "at a calibration the reference is that calibration");
  check(near(t.scaleAt(50), kNominalRefMs / 3.0), "scale is nominal over measured");
  // A 20 ns span from 40 to 60 normalizes at its midpoint, 50.
  check(near(t.normalize(40, 20), 20 * kNominalRefMs / 3.0), "spans normalize at their midpoint");
  Timeline nominal;
  nominal.add(CalPoint{0, kNominalRefMs});
  nominal.add(CalPoint{1e9, kNominalRefMs});
  check(near(nominal.normalize(5e8, 1e6), 1e6), "at nominal speed a timing is unchanged");
}

void testEditWarmStationarity(std::uint64_t seed) {
  const Inputs in = buildInputs(Workload::EditWarm, seed, 1);
  std::vector<std::uint32_t> last(in.programs.size());
  for (std::uint32_t p = 0; p < in.programs.size(); ++p) last[p] = p;
  std::size_t seen[kEditKinds] = {};
  for (const ScriptOp& op : in.script) {
    const std::string& base = in.programs[op.program].base;
    const std::string& text = in.texts.text(op.textId);
    const EditKind kind = static_cast<EditKind>(op.kind);
    ++seen[op.kind];
    check(in.texts.program(op.textId) == op.program, "op text belongs to its program");
    switch (kind) {
      case EditKind::Revert:
      case EditKind::Restart:
        check(text == base, std::string(editKindName(kind)) + " restores the base byte for byte");
        break;
      case EditKind::Resubmit:
        check(op.textId == last[op.program], "resubmit repeats the session's previous text");
        break;
      default:
        check(baseplusOneLine(base, text),
              std::string(editKindName(kind)) + " is the base plus exactly one line");
    }
    check(text == base || baseplusOneLine(base, text), "every op is the base plus at most one edit");
    last[op.program] = op.textId;
  }
  for (std::size_t k = 0; k < kEditKinds; ++k)
    check(seen[k] > 0 && seen[k] == seen[0],
          std::string("edit kind ") + editKindName(static_cast<EditKind>(k)) +
              " occurs as often as every other");
  // Every distinct text parses, so no op can fail on its input.
  for (std::uint32_t id = 0; id < in.texts.size(); ++id) {
    panorama::DiagnosticEngine diags;
    check(panorama::parseProgram(in.texts.text(id), diags).has_value(),
          "text " + std::to_string(id) + " parses");
  }
}

void testDaemonScripts(std::uint64_t seed) {
  const Inputs in = buildInputs(Workload::DaemonMix, seed, 1);
  check(in.clients.size() == static_cast<std::size_t>(kDaemonClients), "one script per client");
  check(in.clients[0].size() == in.clients[1].size(), "clients run equally long scripts");
  for (const std::vector<ScriptOp>& script : in.clients) {
    std::size_t named = 0, cold = 0;
    for (const ScriptOp& op : script) {
      const DaemonOp kind = static_cast<DaemonOp>(op.kind);
      if (kind == DaemonOp::SubmitNamed || kind == DaemonOp::SubmitCold || kind == DaemonOp::Resubmit) {
        const std::string& base = in.programs[op.program].base;
        const std::string& text = in.texts.text(op.textId);
        check(text == base || baseplusOneLine(base, text), "daemon submit is the base plus at most one edit");
      }
      named += kind == DaemonOp::SubmitNamed;
      cold += kind == DaemonOp::SubmitCold;
    }
    check(named * kDaemonBlock == 23 * script.size() && cold * kDaemonBlock == 4 * script.size(),
          "every block holds the fixed op mix");
  }
  // The partner carries the lead client's ops in every segment.
  for (std::size_t start = 0; start < in.clients[0].size(); start += kDaemonSegment) {
    std::vector<std::pair<std::uint32_t, std::uint32_t>> lead, partner;
    for (std::size_t i = start; i < std::min(start + kDaemonSegment, in.clients[0].size()); ++i) {
      const ScriptOp& a = in.clients[0][i];
      const ScriptOp& b = in.clients[1][i];
      if (static_cast<DaemonOp>(a.kind) != DaemonOp::Resubmit) lead.push_back({a.kind, a.textId});
      if (static_cast<DaemonOp>(b.kind) != DaemonOp::Resubmit) partner.push_back({b.kind, b.textId});
    }
    std::sort(lead.begin(), lead.end());
    std::sort(partner.begin(), partner.end());
    check(lead == partner, "both clients run the same ops between two barriers");
  }
}

void testSeedsReplay() {
  const Inputs a = buildInputs(Workload::EditWarm, 42, 1);
  const Inputs b = buildInputs(Workload::EditWarm, 42, 1);
  bool same = a.script.size() == b.script.size() && a.texts.size() == b.texts.size();
  for (std::size_t i = 0; same && i < a.script.size(); ++i)
    same = a.script[i].kind == b.script[i].kind && a.script[i].program == b.script[i].program &&
           a.texts.text(a.script[i].textId) == b.texts.text(b.script[i].textId);
  check(same, "the same seed replays the same op sequence");
  const Inputs c = buildInputs(Workload::CorpusCold, 42, 1);
  std::size_t perProgram[kCorpusPrograms] = {};
  for (const ScriptOp& op : c.script) ++perProgram[op.program];
  bool balanced = true;
  for (std::size_t n : perProgram) balanced = balanced && n == perProgram[0];
  check(balanced, "corpus_cold runs every program equally often");
}

}  // namespace

int main() {
  testPercentileRule();
  testNormalization();
  for (std::uint64_t seed : {1ull, 2ull, 7919ull}) {
    testEditWarmStationarity(seed);
    testDaemonScripts(seed);
  }
  testSeedsReplay();
  if (failures) {
    std::fprintf(stderr, "%d check(s) failed\n", failures);
    return 1;
  }
  std::printf("perfbench helper tests passed\n");
  return 0;
}
