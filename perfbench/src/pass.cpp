#include <cmath>
#include <cstdio>
#include <cstring>

#include "bench.h"
#include "panorama/obs/profile.h"
#include "panorama/obs/trace.h"

namespace perfbench {

namespace {

// Ops each workload's timed phase runs per requested second. Run length is
// a fixed op count, so a run does the same work however fast the machine
// is; these rates size it to about --seconds at nominal speed.
constexpr double kCorpusColdOpsPerSecond = 180;
constexpr double kEditWarmOpsPerSecond = 600;
constexpr double kDaemonMixOpsPerSecond = 700;
// Floor so the p99 always has at least ten samples beyond it.
constexpr std::size_t kMinOps = 1000;

std::size_t unitsFor(double opsPerSecond, int seconds, std::size_t opsPerUnit) {
  const double ops = std::max<double>(opsPerSecond * seconds, kMinOps);
  return static_cast<std::size_t>(std::ceil(ops / static_cast<double>(opsPerUnit)));
}

}  // namespace

Inputs buildInputs(Workload w, std::uint64_t seed, int seconds) {
  Inputs in;
  in.workload = w;
  in.programs = corpusPrograms();
  if (w != Workload::CorpusCold) in.programs.push_back(generatedProgram(seed));
  internBases(in.programs, in.texts);
  switch (w) {
    case Workload::CorpusCold:
      in.script = corpusColdScript(seed, unitsFor(kCorpusColdOpsPerSecond, seconds, kCorpusPrograms));
      break;
    case Workload::EditWarm:
      in.script = editWarmScript(
          in.programs, in.texts, seed,
          unitsFor(kEditWarmOpsPerSecond, seconds, in.programs.size() * kEditKinds));
      break;
    case Workload::DaemonMix: {
      const std::size_t segments =
          unitsFor(kDaemonMixOpsPerSecond, seconds, kDaemonSegment * kDaemonClients);
      in.clients.push_back(daemonClientScript(in.programs, in.texts, seed,
                                              segments * (kDaemonSegment / kDaemonBlock)));
      for (int c = 1; c < kDaemonClients; ++c)
        in.clients.push_back(daemonPartnerScript(in.clients[0], in.programs, in.texts,
                                                 seed * 1000003ull + static_cast<std::uint64_t>(c)));
      break;
    }
  }
  return in;
}

std::string encodePass(const PassResult& r) {
  WireOut w;
  w.u64(r.ok);
  w.str(r.error);
  w.f64(r.setupRawNs);
  w.f64(r.setupScale);
  w.u64(r.ops.size());
  w.raw(r.ops.data(), r.ops.size() * sizeof(OpRecord));
  w.u64(r.calibrations.size());
  w.raw(r.calibrations.data(), r.calibrations.size() * sizeof(CalWindow));
  w.f64(r.servingCpuNormNs);
  w.raw(r.layerNormNs, sizeof r.layerNormNs);
  w.f64(r.peakRssKb);
  w.u64(r.reports.size());
  for (const auto& [id, text] : r.reports) {
    w.u64(id);
    w.str(text);
  }
  w.u64(r.values.size());
  for (const auto& [name, v] : r.values) {
    w.str(name);
    w.f64(v);
  }
  return std::move(w.buffer());
}

PassResult decodePass(const std::string& bytes) {
  WireIn in(bytes);
  PassResult r;
  r.ok = in.u64() != 0;
  r.error = in.str();
  r.setupRawNs = in.f64();
  r.setupScale = in.f64();
  r.ops.resize(in.u64());
  in.raw(r.ops.data(), r.ops.size() * sizeof(OpRecord));
  r.calibrations.resize(in.u64());
  in.raw(r.calibrations.data(), r.calibrations.size() * sizeof(CalWindow));
  r.servingCpuNormNs = in.f64();
  in.raw(r.layerNormNs, sizeof r.layerNormNs);
  r.peakRssKb = in.f64();
  for (std::uint64_t n = in.u64(); n > 0; --n) {
    const auto id = static_cast<std::uint32_t>(in.u64());
    r.reports[id] = in.str();
  }
  for (std::uint64_t n = in.u64(); n > 0; --n) {
    std::string name = in.str();
    r.values[name] = in.f64();
  }
  return r;
}

void BenchTrace::add(std::uint64_t op, const char* name, double startNs, double durNs,
                     std::uint32_t tid) {
  std::lock_guard<std::mutex> lock(mutex_);
  spans_.push_back(Span{op, name, startNs, durNs, tid});
}

bool BenchTrace::write(const std::string& path) const {
  std::lock_guard<std::mutex> lock(mutex_);
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (!f) return false;
  const double t0 = spans_.empty() ? 0 : spans_.front().startNs;
  std::fputs("{\"traceEvents\": [", f);
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    std::fprintf(f,
                 "%s\n{\"name\": \"%s\", \"cat\": \"perfbench\", \"ph\": \"X\", \"ts\": %.3f, "
                 "\"dur\": %.3f, \"pid\": 1, \"tid\": %u, \"args\": {\"op\": %llu}}",
                 i ? "," : "", s.name, (s.startNs - t0) / 1e3, s.durNs / 1e3, s.tid,
                 static_cast<unsigned long long>(s.op));
  }
  std::fputs("\n], \"displayTimeUnit\": \"ns\"}\n", f);
  return std::fclose(f) == 0;
}

namespace {

constexpr const char* kReanalyzeCategory = "session.reanalyze";
constexpr const char* kFileSkipCategory = "session.file_skip";

/// Which Layer a library span category's self time is charged to.
int layerOf(const std::string& category) {
  static const std::pair<const char*, Layer> kMap[] = {
      {"frontend.sema", kSema},
      {"frontend.hsg", kHsg},
      {"summary.proc", kSummaryProc},
      {"summary.loop_expansion", kLoopExpansion},
      {"analysis.loop", kAnalysisLoop},
      {"deptest.loop", kDeptestLoop},
      {"query.fm", kQueryFm},
      {"query.implies", kQueryImplies},
      {"query.prefilter", kPrefilter},
      {kReanalyzeCategory, kReanalyze},
  };
  for (const auto& [name, layer] : kMap)
    if (category == name) return layer;
  return -1;
}

void addSelfTimes(const std::vector<panorama::obs::PhaseNode>& nodes, double* layerNs) {
  for (const panorama::obs::PhaseNode& n : nodes) {
    const int layer = layerOf(n.category);
    if (layer >= 0) layerNs[layer] += static_cast<double>(n.selfNs);
    addSelfTimes(n.children, layerNs);
  }
}

}  // namespace

void foldLibraryTrace(double* layerNs) {
  panorama::obs::Tracer& tracer = panorama::obs::Tracer::global();
  std::vector<panorama::obs::TraceEvent> events = tracer.snapshot();
  tracer.clear();
  // The session's spans share the category "session"; split them by name
  // so the reanalysis self time is its own layer.
  for (panorama::obs::TraceEvent& ev : events)
    if (std::strcmp(ev.category, "session") == 0)
      ev.category = ev.name == kReanalyzeCategory ? kReanalyzeCategory : kFileSkipCategory;
  addSelfTimes(panorama::obs::buildCostProfile(events).phases, layerNs);
}

}  // namespace perfbench
