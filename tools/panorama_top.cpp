// Live terminal dashboard for the analysis daemon (DESIGN.md §4.10).
//
//   panorama_top SOCKET [--interval-ms=N] [--once] [--json] [--timeout-ms=N]
//
// Polls the daemon's status/metrics/tail ops over one connection and
// repaints a single screen every interval (default 1000 ms): a header with
// uptime, connection/request/submit/error/slow totals, pool queue depth,
// arena occupancy and cache hit rate; one row per live named session; one
// row per request op with count and p50/p95/p99/max wall latency plus a
// log2-bucket sparkline; and a recent-events pane fed by cursor-based tail
// reads (so events are never double-counted across refreshes).
//
// `--once` paints a single frame (no screen clearing) and exits — with
// `--json` it instead emits one machine-readable document
//   {"status":<status response>,"metrics":<metrics response>,
//    "tail":<tail response>}
// which is what the daemon smoke test round-trips against a live daemon.
//
// Exit codes: 0 success, 2 usage/transport error.
#include <unistd.h>

#include <algorithm>
#include <charconv>
#include <chrono>
#include <cstdio>
#include <deque>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "panorama/store/protocol.h"
#include "panorama/support/json.h"

using namespace panorama;
using support::JsonValue;

namespace {

int usage() {
  std::fprintf(stderr,
               "usage: panorama_top SOCKET [--interval-ms=N] [--once] [--json]\n"
               "                           [--timeout-ms=N]\n");
  return 2;
}

bool parseCount(std::string_view value, std::size_t& out) {
  std::size_t parsed = 0;
  const char* end = value.data() + value.size();
  auto [ptr, ec] = std::from_chars(value.data(), end, parsed);
  if (value.empty() || ec != std::errc() || ptr != end) return false;
  out = parsed;
  return true;
}

/// One request/response exchange; the raw payload lands in `raw`. Returns
/// nullopt after printing a transport diagnostic.
std::optional<JsonValue> roundTrip(int fd, const std::string& request, std::string& raw) {
  std::string error;
  if (!store::writeFrame(fd, request, &error)) {
    std::fprintf(stderr, "panorama_top: %s\n", error.c_str());
    return std::nullopt;
  }
  store::FrameStatus st = store::readFrame(fd, raw, &error);
  if (st != store::FrameStatus::Ok) {
    std::fprintf(stderr, "panorama_top: %s\n",
                 st == store::FrameStatus::Eof ? "daemon closed the connection" : error.c_str());
    return std::nullopt;
  }
  std::optional<JsonValue> response = JsonValue::parse(raw, &error);
  if (!response || !response->isObject()) {
    std::fprintf(stderr, "panorama_top: malformed response: %s\n", error.c_str());
    return std::nullopt;
  }
  return response;
}

double numberOr(const JsonValue* v, double fallback) {
  return v && v->isNumber() ? v->asNumber() : fallback;
}

double pathNumber(const JsonValue& obj, std::string_view a, std::string_view b) {
  const JsonValue* inner = obj.find(a);
  return inner && inner->isObject() ? numberOr(inner->find(b), 0) : 0;
}

/// Unicode sparkline over the histogram's trail-trimmed log2 buckets,
/// scaled to the fullest bucket.
std::string sparkline(const JsonValue& buckets) {
  static const char* kLevels[] = {"▁", "▂", "▃", "▄",
                                  "▅", "▆", "▇", "█"};
  double peak = 0;
  for (const JsonValue& b : buckets.items()) peak = std::max(peak, numberOr(&b, 0));
  std::string out;
  if (peak <= 0) return out;
  for (const JsonValue& b : buckets.items()) {
    const double v = numberOr(&b, 0);
    int level = v <= 0 ? 0 : 1 + static_cast<int>(v / peak * 6.999);
    if (level > 7) level = 7;
    out += v <= 0 ? " " : kLevels[level];
  }
  return out;
}

/// "submit" from "daemon.op.submit.wall_us", or empty when `name` is not a
/// per-op wall histogram.
std::string opOfWallHistogram(const std::string& name) {
  const std::string prefix = "daemon.op.";
  const std::string suffix = ".wall_us";
  if (name.size() <= prefix.size() + suffix.size()) return {};
  if (name.compare(0, prefix.size(), prefix) != 0) return {};
  if (name.compare(name.size() - suffix.size(), suffix.size(), suffix) != 0) return {};
  return name.substr(prefix.size(), name.size() - prefix.size() - suffix.size());
}

/// One human line per event object: "[ ts] kind  k=v k=v ...".
std::string renderEvent(const JsonValue& ev) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "[%10.3f] ", numberOr(ev.find("ts_ms"), 0) / 1000.0);
  std::string line = buf;
  const JsonValue* kind = ev.find("kind");
  line += kind && kind->isString() ? kind->asString() : "?";
  while (line.size() < 27) line += ' ';
  for (const auto& [key, value] : ev.members()) {
    if (key == "seq" || key == "ts_ms" || key == "kind") continue;
    line += ' ';
    line += key;
    line += '=';
    if (value.isString()) {
      line += value.asString();
    } else if (value.isNumber()) {
      std::snprintf(buf, sizeof(buf), "%g", value.asNumber());
      line += buf;
    }
  }
  if (line.size() > 110) {
    line.resize(107);
    line += "...";
  }
  return line;
}

void renderFrame(const JsonValue& status, const JsonValue& metrics,
                 const std::deque<std::string>& events, const std::string& socketPath) {
  std::printf("panorama daemon @ %s — up %.1f s\n", socketPath.c_str(),
              numberOr(status.find("uptime_ms"), 0) / 1000.0);
  std::printf(
      "conns %g active / %g total   requests %g   submits %g   errors %g   slow %g\n",
      pathNumber(status, "connections", "active"), pathNumber(status, "connections", "total"),
      numberOr(status.find("requests"), 0), numberOr(status.find("submits"), 0),
      numberOr(status.find("errors"), 0), numberOr(status.find("slow_requests"), 0));
  const JsonValue* caches = status.find("caches");
  const JsonValue* qc = caches && caches->isObject() ? caches->find("query_cache") : nullptr;
  const JsonValue* arenas = status.find("arenas");
  const JsonValue* expr = arenas && arenas->isObject() ? arenas->find("expr") : nullptr;
  const JsonValue* pred = arenas && arenas->isObject() ? arenas->find("pred") : nullptr;
  const JsonValue* atom = arenas && arenas->isObject() ? arenas->find("atom") : nullptr;
  const JsonValue* region = arenas && arenas->isObject() ? arenas->find("region") : nullptr;
  std::printf(
      "pool %g threads, queue %g   arena expr %.1f KB / pred %.1f KB / atom %.1f KB"
      " / region %.1f KB   qcache %.1f%% hit\n",
      pathNumber(status, "pool", "threads"), pathNumber(status, "pool", "queue_depth"),
      (expr ? numberOr(expr->find("bytes"), 0) : 0) / 1024.0,
      (pred ? numberOr(pred->find("bytes"), 0) : 0) / 1024.0,
      (atom ? numberOr(atom->find("bytes"), 0) : 0) / 1024.0,
      (region ? numberOr(region->find("bytes"), 0) : 0) / 1024.0,
      (qc ? numberOr(qc->find("hit_rate"), 0) : 0) * 100.0);

  const JsonValue* sessions = status.find("sessions");
  if (sessions && sessions->isArray() && !sessions->items().empty()) {
    std::printf("named sessions:\n");
    for (const JsonValue& s : sessions->items()) {
      const JsonValue* name = s.find("name");
      std::printf("  %-24s epoch %-6g units %-5g symbols %-7g file_skips %g\n",
                  name && name->isString() ? name->asString().c_str() : "?",
                  numberOr(s.find("epoch"), 0), numberOr(s.find("units"), 0),
                  numberOr(s.find("symbols"), 0), numberOr(s.find("file_skips"), 0));
    }
  }

  std::printf("per-op wall latency (us):\n");
  std::printf("  %-10s %8s %8s %8s %8s %10s  %s\n", "op", "count", "p50", "p95", "p99", "max",
              "log2 buckets");
  const JsonValue* registry = metrics.find("registry");
  const JsonValue* histograms =
      registry && registry->isObject() ? registry->find("histograms") : nullptr;
  if (histograms && histograms->isObject()) {
    for (const auto& [name, h] : histograms->members()) {
      const std::string op = opOfWallHistogram(name);
      if (op.empty() || !h.isObject()) continue;
      const JsonValue* buckets = h.find("buckets");
      std::printf("  %-10s %8.0f %8.0f %8.0f %8.0f %10.0f  %s\n", op.c_str(),
                  numberOr(h.find("count"), 0), numberOr(h.find("p50"), 0),
                  numberOr(h.find("p95"), 0), numberOr(h.find("p99"), 0),
                  numberOr(h.find("max"), 0),
                  buckets && buckets->isArray() ? sparkline(*buckets).c_str() : "");
    }
  }

  std::printf("recent events:\n");
  for (const std::string& line : events) std::printf("  %s\n", line.c_str());
  std::fflush(stdout);
}

}  // namespace

int main(int argc, char** argv) {
  std::string socketPath;
  std::size_t intervalMs = 1000;
  std::size_t timeoutMs = 0;
  bool once = false;
  bool json = false;
  for (int k = 1; k < argc; ++k) {
    std::string_view arg = argv[k];
    if (arg.rfind("--interval-ms=", 0) == 0) {
      if (!parseCount(arg.substr(14), intervalMs)) return usage();
    } else if (arg.rfind("--timeout-ms=", 0) == 0) {
      if (!parseCount(arg.substr(13), timeoutMs)) return usage();
    } else if (arg == "--once") {
      once = true;
    } else if (arg == "--json") {
      json = true;
    } else if (!arg.empty() && arg[0] == '-') {
      return usage();
    } else if (socketPath.empty()) {
      socketPath = std::string(arg);
    } else {
      return usage();
    }
  }
  if (socketPath.empty()) return usage();
  if (json && !once) {
    std::fprintf(stderr, "panorama_top: --json requires --once\n");
    return 2;
  }

  std::string error;
  int fd = store::connectUnixSocket(socketPath, &error, static_cast<int>(timeoutMs));
  if (fd < 0) {
    std::fprintf(stderr, "panorama_top: %s\n", error.c_str());
    return 2;
  }
  if (timeoutMs > 0 && !store::setSocketTimeout(fd, static_cast<int>(timeoutMs), &error)) {
    std::fprintf(stderr, "panorama_top: %s\n", error.c_str());
    ::close(fd);
    return 2;
  }

  std::uint64_t requestId = 1;
  std::uint64_t cursor = 0;
  std::deque<std::string> events;  // rendered, newest last
  bool firstFrame = true;
  for (;;) {
    std::string statusRaw, metricsRaw, tailRaw;
    const std::string idStatus = std::to_string(requestId++);
    const std::string idMetrics = std::to_string(requestId++);
    const std::string idTail = std::to_string(requestId++);
    std::optional<JsonValue> status =
        roundTrip(fd, "{\"id\":" + idStatus + ",\"op\":\"status\"}", statusRaw);
    if (!status) break;
    std::optional<JsonValue> metrics =
        roundTrip(fd, "{\"id\":" + idMetrics + ",\"op\":\"metrics\"}", metricsRaw);
    if (!metrics) break;
    std::optional<JsonValue> tail = roundTrip(
        fd, "{\"id\":" + idTail + ",\"op\":\"tail\",\"cursor\":" + std::to_string(cursor) +
                ",\"max\":100}",
        tailRaw);
    if (!tail) break;

    const JsonValue* next = tail->find("next_cursor");
    if (next && next->isNumber()) cursor = static_cast<std::uint64_t>(next->asNumber());
    const JsonValue* tailEvents = tail->find("events");
    if (tailEvents && tailEvents->isArray())
      for (const JsonValue& ev : tailEvents->items()) {
        events.push_back(renderEvent(ev));
        if (events.size() > 10) events.pop_front();
      }

    if (json) {
      std::printf("{\"status\":%s,\"metrics\":%s,\"tail\":%s}\n", statusRaw.c_str(),
                  metricsRaw.c_str(), tailRaw.c_str());
      ::close(fd);
      return 0;
    }
    if (!once) {
      // Home + clear-to-end: a flicker-free single-screen repaint.
      std::printf(firstFrame ? "\x1b[2J\x1b[H" : "\x1b[H\x1b[J");
      firstFrame = false;
    }
    renderFrame(*status, *metrics, events, socketPath);
    if (once) {
      ::close(fd);
      return 0;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(intervalMs));
  }
  ::close(fd);
  return 2;
}
