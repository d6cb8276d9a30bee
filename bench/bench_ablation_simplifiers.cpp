// Ablations for the design choices §3.1/§5.2 call out: the GAR simplifier,
// the Fourier-Motzkin fallback behind the predicate simplifier, and the
// on-the-fly substitution. For each configuration: does the corpus still
// privatize, how large do the GAR lists grow, and what does analysis cost?
#include "bench_util.h"
#include "harness.h"

using namespace panorama;
using namespace panorama::bench;

namespace {

struct AblationRow {
  const char* name;
  const char* slug;
  AnalysisOptions options;
};

BenchResult run() {
  AnalysisOptions full;
  AnalysisOptions noGarSimp;
  noGarSimp.garSimplifier = false;
  AnalysisOptions noT1;
  noT1.symbolicAnalysis = false;
  AnalysisOptions noT2;
  noT2.ifConditions = false;
  AnalysisOptions noT3;
  noT3.interprocedural = false;
  AnalysisOptions withDe;
  withDe.computeDE = true;
  AnalysisOptions withQuant;
  withQuant.quantified = true;

  const AblationRow rows[] = {
      {"full analysis", "full", full},
      {"no GAR simplifier", "no_gar_simplifier", noGarSimp},
      {"no symbolic analysis", "no_symbolic", noT1},
      {"no IF conditions", "no_if_conditions", noT2},
      {"no interprocedural", "no_interprocedural", noT3},
      {"with DE sets", "with_de_sets", withDe},
      {"+ quantified ext", "quantified_ext", withQuant},
  };

  std::printf("Ablations over the 12-loop Perfect corpus\n\n");
  std::printf("%-22s | privatized loops | GARs created | peak list | time ms\n", "configuration");
  std::printf("-----------------------+------------------+--------------+-----------+--------\n");

  BenchResult result;
  result.addConfig("corpus", "perfect (Table 1/2 kernels)");
  for (const AblationRow& row : rows) {
    int privatized = 0;
    std::size_t gars = 0;
    std::size_t peak = 0;
    auto t0 = std::chrono::steady_clock::now();
    for (const CorpusLoop& cl : perfectCorpus()) {
      LoadedKernel k = loadAndAnalyze(cl, row.options);
      if (!k.ok) continue;
      privatized += allListedPrivatizable(k.loop, cl);
      gars += k.pa.analyzer->stats().garsCreated;
      peak = std::max(peak, k.pa.analyzer->stats().peakListLength);
    }
    double ms = secondsSince(t0) * 1000;
    std::printf("%-22s |      %2d / 12     |   %10zu | %9zu | %6.1f\n", row.name, privatized,
                gars, peak, ms);
    const std::string slug = row.slug;
    result.add(slug + "_privatized_loops", privatized, Direction::Exact);
    result.add(slug + "_gars_created", static_cast<double>(gars), Direction::Exact);
    result.add(slug + "_peak_list", static_cast<double>(peak), Direction::Exact);
    // Per-config wall time is sub-10ms — far inside runner noise; recorded
    // for the table but never gated.
    result.add(slug + "_ms", ms, Direction::LowerIsBetter, 3.0, "ms").gated = false;
  }
  std::printf(
      "\nReading: without the GAR simplifier the lists (and analysis time) blow up\n"
      "while results survive only by luck of small kernels; dropping any of the\n"
      "T1/T2/T3 techniques loses privatizations — the paper's case for each.\n");
  return result;
}

const Registration reg{{"ablation_simplifiers", /*repetitions=*/1, /*warmup=*/0, run}};

}  // namespace
