// CostProfile construction and rendering (see profile.h for the model).
//
// The builder re-derives span nesting from timestamps alone: events are
// sorted by (tid, start ascending, duration descending) so that a parent
// always precedes its children even when a child shares the parent's start
// timestamp (the RAII destruction order publishes children first, which the
// raw buffer order reflects), and a containment stack then walks each
// thread's events linearly. Two spans on one thread either nest or are
// disjoint — Span is scope-bound — so containment is exact, not heuristic.
#include "panorama/obs/profile.h"

#include <algorithm>
#include <cstdio>
#include <map>
#include <memory>
#include <set>

#include "panorama/support/json.h"

namespace panorama::obs {

namespace {

bool isQueryCategory(std::string_view cat) { return cat.rfind("query.", 0) == 0; }

bool isLoopCategory(std::string_view cat) {
  return cat == "analysis.loop" || cat == "deptest.loop";
}

/// Mutable aggregation node with pointer-stable children (the containment
/// stack holds raw pointers across insertions).
struct Interim {
  std::string category;
  std::uint64_t count = 0;
  std::int64_t totalNs = 0;
  std::int64_t maxNs = 0;
  std::map<std::string, std::unique_ptr<Interim>> children;
};

Interim* childOf(std::map<std::string, std::unique_ptr<Interim>>& children,
                 const std::string& category) {
  std::unique_ptr<Interim>& slot = children[category];
  if (!slot) {
    slot = std::make_unique<Interim>();
    slot->category = category;
  }
  return slot.get();
}

PhaseNode finishNode(const Interim& in) {
  PhaseNode out;
  out.category = in.category;
  out.count = in.count;
  out.totalNs = in.totalNs;
  out.maxNs = in.maxNs;
  std::int64_t childNs = 0;
  for (const auto& [cat, child] : in.children) {
    (void)cat;
    out.children.push_back(finishNode(*child));
    childNs += out.children.back().totalNs;
  }
  out.selfNs = out.totalNs - childNs;
  std::stable_sort(out.children.begin(), out.children.end(),
                   [](const PhaseNode& a, const PhaseNode& b) {
                     return a.totalNs != b.totalNs ? a.totalNs > b.totalNs
                                                   : a.category < b.category;
                   });
  return out;
}

const std::string* argOf(const TraceEvent& ev, std::string_view key) {
  for (const auto& [k, v] : ev.args)
    if (k == key) return &v;
  return nullptr;
}

void appendMs(std::string& out, std::int64_t ns) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.3f", static_cast<double>(ns) / 1e6);
  out += buf;
}

void appendQuoted(std::string& out, std::string_view s) {
  out += '"';
  support::appendJsonEscaped(out, s);
  out += '"';
}

void renderPhaseText(std::string& out, const PhaseNode& node, int depth) {
  out.append(static_cast<std::size_t>(2 + 2 * depth), ' ');
  out += node.category;
  out += ": total ";
  appendMs(out, node.totalNs);
  out += " ms, self ";
  appendMs(out, node.selfNs);
  out += " ms, count " + std::to_string(node.count) + ", max ";
  appendMs(out, node.maxNs);
  out += " ms\n";
  for (const PhaseNode& child : node.children) renderPhaseText(out, child, depth + 1);
}

void renderPhaseJson(std::string& out, const PhaseNode& node) {
  out += "{\"category\": ";
  appendQuoted(out, node.category);
  out += ", \"count\": " + std::to_string(node.count);
  out += ", \"total_ns\": " + std::to_string(node.totalNs);
  out += ", \"self_ns\": " + std::to_string(node.selfNs);
  out += ", \"max_ns\": " + std::to_string(node.maxNs);
  out += ", \"children\": [";
  for (std::size_t k = 0; k < node.children.size(); ++k) {
    if (k) out += ", ";
    renderPhaseJson(out, node.children[k]);
  }
  out += "]}";
}

}  // namespace

CostProfile buildCostProfile(const std::vector<TraceEvent>& events,
                             const ProfileOptions& options) {
  CostProfile profile;
  profile.events = events.size();
  if (events.empty()) return profile;

  // Parent-before-child order: start ascending, then longer span first so a
  // child sharing its parent's start timestamp sorts after it.
  std::vector<const TraceEvent*> sorted;
  sorted.reserve(events.size());
  for (const TraceEvent& ev : events) sorted.push_back(&ev);
  std::stable_sort(sorted.begin(), sorted.end(), [](const TraceEvent* a, const TraceEvent* b) {
    if (a->tid != b->tid) return a->tid < b->tid;
    if (a->startNs != b->startNs) return a->startNs < b->startNs;
    return a->durNs > b->durNs;
  });

  std::int64_t minStart = sorted.front()->startNs;
  std::int64_t maxEnd = minStart;
  std::set<std::uint32_t> tids;

  std::map<std::string, std::unique_ptr<Interim>> roots;
  std::map<std::string, ProcCost> procs;
  std::map<std::pair<std::string, std::string>, LoopCost> loops;
  std::vector<QueryCost> queries;

  struct Frame {
    const TraceEvent* ev;
    std::int64_t endNs;
    Interim* node;
    ProcCost* proc;
    LoopCost* loop;
    bool insideQuery;
  };
  std::vector<Frame> stack;

  for (const TraceEvent* ev : sorted) {
    minStart = std::min(minStart, ev->startNs);
    maxEnd = std::max(maxEnd, ev->startNs + ev->durNs);
    tids.insert(ev->tid);

    while (!stack.empty() &&
           !(stack.back().ev->tid == ev->tid && ev->startNs >= stack.back().ev->startNs &&
             ev->startNs + ev->durNs <= stack.back().endNs))
      stack.pop_back();

    Frame frame;
    frame.ev = ev;
    frame.endNs = ev->startNs + ev->durNs;
    frame.proc = stack.empty() ? nullptr : stack.back().proc;
    frame.loop = stack.empty() ? nullptr : stack.back().loop;
    frame.insideQuery = !stack.empty() && stack.back().insideQuery;
    frame.node = childOf(stack.empty() ? roots : stack.back().node->children, ev->category);
    frame.node->count += 1;
    frame.node->totalNs += ev->durNs;
    frame.node->maxNs = std::max(frame.node->maxNs, ev->durNs);

    const std::string category = ev->category;
    if (category == "summary.proc") {
      ProcCost& pc = procs[ev->name];
      pc.name = ev->name;
      pc.summarySpans += 1;
      pc.summaryNs += ev->durNs;
      frame.proc = &pc;
    } else if (isLoopCategory(category) && frame.loop == nullptr) {
      // Only the outermost loop-category span attributes cost: deptest.loop
      // runs nested inside analysis.loop and must not double-count.
      const std::string& name = ev->name;
      std::size_t split = name.find(" DO ");
      std::string procName = split == std::string::npos ? std::string("?") : name.substr(0, split);
      std::string loopName =
          split == std::string::npos ? name : name.substr(split + 1);  // "DO var"
      LoopCost& lc = loops[{procName, loopName}];
      lc.proc = procName;
      lc.name = loopName;
      lc.count += 1;
      lc.totalNs += ev->durNs;
      ProcCost& pc = procs[procName];
      pc.name = procName;
      pc.loopSpans += 1;
      pc.loopNs += ev->durNs;
      frame.proc = &pc;
      frame.loop = &lc;
    }

    if (isQueryCategory(category)) {
      QueryCost qc;
      qc.kind = category;
      qc.name = ev->name;
      qc.durNs = ev->durNs;
      qc.tid = ev->tid;
      if (const std::string* a = argOf(*ev, "expr")) qc.expr = *a;
      if (const std::string* a = argOf(*ev, "ctx")) qc.context = *a;
      if (const std::string* a = argOf(*ev, "verdict")) qc.verdict = *a;
      queries.push_back(std::move(qc));
      if (!frame.insideQuery) {
        // A query issued from inside another query (implies → FM) already
        // counts inside its parent's duration.
        if (frame.proc) {
          frame.proc->coldQueries += 1;
          frame.proc->coldQueryNs += ev->durNs;
        }
        if (frame.loop) {
          frame.loop->coldQueries += 1;
          frame.loop->coldQueryNs += ev->durNs;
        }
      }
      frame.insideQuery = true;
    }

    stack.push_back(frame);
  }

  profile.wallNs = maxEnd - minStart;
  profile.threads = static_cast<std::uint32_t>(tids.size());

  for (const auto& [cat, node] : roots) {
    (void)cat;
    profile.phases.push_back(finishNode(*node));
  }
  std::stable_sort(profile.phases.begin(), profile.phases.end(),
                   [](const PhaseNode& a, const PhaseNode& b) {
                     return a.totalNs != b.totalNs ? a.totalNs > b.totalNs
                                                   : a.category < b.category;
                   });

  for (auto& [name, pc] : procs) {
    (void)name;
    profile.procedures.push_back(std::move(pc));
  }
  std::stable_sort(profile.procedures.begin(), profile.procedures.end(),
                   [](const ProcCost& a, const ProcCost& b) {
                     return a.totalNs() != b.totalNs() ? a.totalNs() > b.totalNs()
                                                       : a.name < b.name;
                   });

  for (auto& [key, lc] : loops) {
    (void)key;
    profile.loops.push_back(std::move(lc));
  }
  std::stable_sort(profile.loops.begin(), profile.loops.end(),
                   [](const LoopCost& a, const LoopCost& b) {
                     if (a.totalNs != b.totalNs) return a.totalNs > b.totalNs;
                     return a.proc != b.proc ? a.proc < b.proc : a.name < b.name;
                   });

  std::stable_sort(queries.begin(), queries.end(), [](const QueryCost& a, const QueryCost& b) {
    if (a.durNs != b.durNs) return a.durNs > b.durNs;
    if (a.kind != b.kind) return a.kind < b.kind;
    if (a.expr != b.expr) return a.expr < b.expr;
    return a.tid < b.tid;
  });
  if (queries.size() > options.topQueries) queries.resize(options.topQueries);
  profile.topQueries = std::move(queries);

  return profile;
}

std::string renderCostProfileText(const CostProfile& profile) {
  std::string out = "cost profile: wall ";
  appendMs(out, profile.wallNs);
  out += " ms, " + std::to_string(profile.threads) + " thread(s), " +
         std::to_string(profile.events) + " span(s)\n";

  out += "phases:\n";
  for (const PhaseNode& root : profile.phases) renderPhaseText(out, root, 0);

  if (!profile.procedures.empty()) {
    out += "procedures (by total ms):\n";
    for (const ProcCost& pc : profile.procedures) {
      out += "  " + pc.name + ": total ";
      appendMs(out, pc.totalNs());
      out += " ms (summary ";
      appendMs(out, pc.summaryNs);
      out += " ms x" + std::to_string(pc.summarySpans) + ", loops ";
      appendMs(out, pc.loopNs);
      out += " ms x" + std::to_string(pc.loopSpans) + "), cold queries " +
             std::to_string(pc.coldQueries) + " (";
      appendMs(out, pc.coldQueryNs);
      out += " ms)\n";
    }
  }

  if (!profile.loops.empty()) {
    out += "loops (by total ms):\n";
    for (const LoopCost& lc : profile.loops) {
      out += "  " + lc.proc + " " + lc.name + ": total ";
      appendMs(out, lc.totalNs);
      out += " ms x" + std::to_string(lc.count) + ", cold queries " +
             std::to_string(lc.coldQueries) + " (";
      appendMs(out, lc.coldQueryNs);
      out += " ms)\n";
    }
  }

  if (!profile.topQueries.empty()) {
    out += "top cold queries:\n";
    std::size_t rank = 1;
    for (const QueryCost& qc : profile.topQueries) {
      out += "  " + std::to_string(rank++) + ". [" + qc.kind + "] ";
      appendMs(out, qc.durNs);
      out += " ms";
      if (!qc.verdict.empty()) out += " -> " + qc.verdict;
      if (!qc.expr.empty()) out += "\n       expr: " + qc.expr;
      if (!qc.context.empty()) out += "\n       ctx:  " + qc.context;
      out += '\n';
    }
  }

  if (!profile.caches.empty()) {
    out += "caches:\n";
    for (const CacheLine& c : profile.caches) {
      char buf[64];
      std::snprintf(buf, sizeof(buf), "%.1f%%", c.hitRate() * 100.0);
      out += "  " + c.label + ": " + std::to_string(c.hits) + " hits / " +
             std::to_string(c.misses) + " misses (" + buf + "), " + std::to_string(c.entries) +
             " entries, " + std::to_string(c.evictions) + " evictions\n";
    }
  }

  for (const SessionReuse& s : profile.sessions) {
    out += "session epoch " + std::to_string(s.epoch) + (s.warm ? " (warm)" : " (cold)") +
           (s.fullInvalidation ? " full invalidation" : "") + ": " +
           std::to_string(s.procedures) + " procedure(s) -- " + std::to_string(s.unchanged) +
           " unchanged, " + std::to_string(s.modified) + " modified, " + std::to_string(s.added) +
           " added, " + std::to_string(s.removed) + " removed; dirty " + std::to_string(s.dirty) +
           "; summaries " + std::to_string(s.summariesReused) + " reused / " +
           std::to_string(s.summariesRecomputed) + " recomputed; loops " +
           std::to_string(s.loopsReused) + " reused / " + std::to_string(s.loopsRecomputed) +
           " recomputed\n";
    out += "  units: " + std::to_string(s.unitsCleanLoops) + " all-cached / " +
           std::to_string(s.unitsDirtyLoops) + " recomputed";
    if (s.loopSkips > 0 || s.partialUnits > 0)
      out += "; loop skips " + std::to_string(s.loopSkips) + " inside " +
             std::to_string(s.partialUnits) + " partial unit(s)";
    if (s.lineRemaps > 0) out += "; line remaps " + std::to_string(s.lineRemaps);
    if (s.summariesUnchanged > 0)
      out += "; summaries unchanged " + std::to_string(s.summariesUnchanged);
    if (s.ueAfterRecomputed > 0)
      out += "; ueAfter re-analyses " + std::to_string(s.ueAfterRecomputed);
    out += '\n';
    for (const InvalidationCause& c : s.invalidations) {
      out += "  invalidated " + c.unit + " [" + c.cause + "]";
      if (!c.detail.empty()) out += ": " + c.detail;
      out += '\n';
    }
    for (const LoopReuseCause& c : s.loopReuse) {
      out += "  loop reuse " + c.unit + " line " + std::to_string(c.line) + " [" + c.cause + "]";
      if (!c.detail.empty()) out += ": " + c.detail;
      out += '\n';
    }
  }

  return out;
}

std::string renderCostProfileJson(const CostProfile& profile) {
  std::string out = "{\n  \"schema_version\": 1,\n";
  out += "  \"wall_ns\": " + std::to_string(profile.wallNs) + ",\n";
  out += "  \"threads\": " + std::to_string(profile.threads) + ",\n";
  out += "  \"events\": " + std::to_string(profile.events) + ",\n";

  out += "  \"phases\": [";
  for (std::size_t k = 0; k < profile.phases.size(); ++k) {
    if (k) out += ", ";
    renderPhaseJson(out, profile.phases[k]);
  }
  out += "],\n";

  out += "  \"procedures\": [";
  for (std::size_t k = 0; k < profile.procedures.size(); ++k) {
    const ProcCost& pc = profile.procedures[k];
    if (k) out += ", ";
    out += "{\"name\": ";
    appendQuoted(out, pc.name);
    out += ", \"total_ns\": " + std::to_string(pc.totalNs());
    out += ", \"summary_spans\": " + std::to_string(pc.summarySpans);
    out += ", \"summary_ns\": " + std::to_string(pc.summaryNs);
    out += ", \"loop_spans\": " + std::to_string(pc.loopSpans);
    out += ", \"loop_ns\": " + std::to_string(pc.loopNs);
    out += ", \"cold_queries\": " + std::to_string(pc.coldQueries);
    out += ", \"cold_query_ns\": " + std::to_string(pc.coldQueryNs) + "}";
  }
  out += "],\n";

  out += "  \"loops\": [";
  for (std::size_t k = 0; k < profile.loops.size(); ++k) {
    const LoopCost& lc = profile.loops[k];
    if (k) out += ", ";
    out += "{\"proc\": ";
    appendQuoted(out, lc.proc);
    out += ", \"name\": ";
    appendQuoted(out, lc.name);
    out += ", \"count\": " + std::to_string(lc.count);
    out += ", \"total_ns\": " + std::to_string(lc.totalNs);
    out += ", \"cold_queries\": " + std::to_string(lc.coldQueries);
    out += ", \"cold_query_ns\": " + std::to_string(lc.coldQueryNs) + "}";
  }
  out += "],\n";

  out += "  \"top_queries\": [";
  for (std::size_t k = 0; k < profile.topQueries.size(); ++k) {
    const QueryCost& qc = profile.topQueries[k];
    if (k) out += ", ";
    out += "{\"kind\": ";
    appendQuoted(out, qc.kind);
    out += ", \"name\": ";
    appendQuoted(out, qc.name);
    out += ", \"dur_ns\": " + std::to_string(qc.durNs);
    out += ", \"tid\": " + std::to_string(qc.tid);
    out += ", \"expr\": ";
    appendQuoted(out, qc.expr);
    out += ", \"context\": ";
    appendQuoted(out, qc.context);
    out += ", \"verdict\": ";
    appendQuoted(out, qc.verdict);
    out += "}";
  }
  out += "],\n";

  out += "  \"caches\": [";
  for (std::size_t k = 0; k < profile.caches.size(); ++k) {
    const CacheLine& c = profile.caches[k];
    if (k) out += ", ";
    out += "{\"label\": ";
    appendQuoted(out, c.label);
    out += ", \"hits\": " + std::to_string(c.hits);
    out += ", \"misses\": " + std::to_string(c.misses);
    out += ", \"entries\": " + std::to_string(c.entries);
    out += ", \"evictions\": " + std::to_string(c.evictions) + "}";
  }
  out += "],\n";

  out += "  \"sessions\": [";
  for (std::size_t k = 0; k < profile.sessions.size(); ++k) {
    const SessionReuse& s = profile.sessions[k];
    if (k) out += ", ";
    out += "{\"epoch\": " + std::to_string(s.epoch);
    out += std::string(", \"warm\": ") + (s.warm ? "true" : "false");
    out += std::string(", \"full_invalidation\": ") + (s.fullInvalidation ? "true" : "false");
    out += ", \"procedures\": " + std::to_string(s.procedures);
    out += ", \"unchanged\": " + std::to_string(s.unchanged);
    out += ", \"modified\": " + std::to_string(s.modified);
    out += ", \"added\": " + std::to_string(s.added);
    out += ", \"removed\": " + std::to_string(s.removed);
    out += ", \"dirty\": " + std::to_string(s.dirty);
    out += ", \"summaries_reused\": " + std::to_string(s.summariesReused);
    out += ", \"summaries_recomputed\": " + std::to_string(s.summariesRecomputed);
    out += ", \"summaries_unchanged\": " + std::to_string(s.summariesUnchanged);
    out += ", \"loops_reused\": " + std::to_string(s.loopsReused);
    out += ", \"loops_recomputed\": " + std::to_string(s.loopsRecomputed);
    out += ", \"loop_skips\": " + std::to_string(s.loopSkips);
    out += ", \"units_partial\": " + std::to_string(s.partialUnits);
    out += ", \"units_clean_loops\": " + std::to_string(s.unitsCleanLoops);
    out += ", \"units_dirty_loops\": " + std::to_string(s.unitsDirtyLoops);
    out += ", \"line_remaps\": " + std::to_string(s.lineRemaps);
    out += ", \"ue_after_recomputed\": " + std::to_string(s.ueAfterRecomputed);
    out += ", \"invalidations\": [";
    for (std::size_t c = 0; c < s.invalidations.size(); ++c) {
      if (c) out += ", ";
      out += "{\"unit\": ";
      appendQuoted(out, s.invalidations[c].unit);
      out += ", \"cause\": ";
      appendQuoted(out, s.invalidations[c].cause);
      out += ", \"detail\": ";
      appendQuoted(out, s.invalidations[c].detail);
      out += "}";
    }
    out += "], \"loop_reuse\": [";
    for (std::size_t c = 0; c < s.loopReuse.size(); ++c) {
      if (c) out += ", ";
      out += "{\"unit\": ";
      appendQuoted(out, s.loopReuse[c].unit);
      out += ", \"line\": " + std::to_string(s.loopReuse[c].line);
      out += ", \"cause\": ";
      appendQuoted(out, s.loopReuse[c].cause);
      out += ", \"detail\": ";
      appendQuoted(out, s.loopReuse[c].detail);
      out += "}";
    }
    out += "]}";
  }
  out += "]\n}\n";
  return out;
}

}  // namespace panorama::obs
