// Tracer implementation: per-thread locked buffers and the Chrome
// trace-event JSON exporter (see trace.h for the concurrency contract).
#include "panorama/obs/trace.h"

#include <algorithm>
#include <chrono>
#include <cstdio>

#include "panorama/support/json.h"

namespace panorama::obs {

namespace {

std::int64_t steadyNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

}  // namespace

Tracer& Tracer::global() {
  static Tracer tracer;
  return tracer;
}

void Tracer::enable() {
  if (!enabled_.load(std::memory_order_relaxed)) epochNs_ = steadyNs();
  enabled_.store(true, std::memory_order_relaxed);
}

void Tracer::disable() { enabled_.store(false, std::memory_order_relaxed); }

void Tracer::clear() {
  std::lock_guard<std::mutex> lock(buffersMutex_);
  buffers_.clear();
  // Threads holding a buffer from the old generation re-register lazily.
  generation_.fetch_add(1, std::memory_order_relaxed);
  epochNs_ = steadyNs();
}

std::int64_t Tracer::nowNs() const { return steadyNs() - epochNs_; }

void Tracer::ThreadBuffer::append(TraceEvent ev) {
  ev.tid = tid;
  std::lock_guard<std::mutex> lock(mutex);
  events.push_back(std::move(ev));
}

Tracer::ThreadBuffer& Tracer::localBuffer() {
  struct Local {
    std::uint64_t generation = 0;
    std::shared_ptr<ThreadBuffer> buffer;
  };
  thread_local Local local;
  std::uint64_t gen = generation_.load(std::memory_order_relaxed);
  if (!local.buffer || local.generation != gen) {
    auto fresh = std::make_shared<ThreadBuffer>();
    std::lock_guard<std::mutex> lock(buffersMutex_);
    fresh->tid = static_cast<std::uint32_t>(buffers_.size() + 1);
    buffers_.push_back(fresh);
    local.buffer = std::move(fresh);
    local.generation = gen;
  }
  return *local.buffer;
}

std::vector<TraceEvent> Tracer::snapshot() const {
  std::vector<std::shared_ptr<ThreadBuffer>> buffers;
  {
    std::lock_guard<std::mutex> lock(buffersMutex_);
    buffers = buffers_;
  }
  std::vector<TraceEvent> out;
  for (const auto& buffer : buffers) {
    std::lock_guard<std::mutex> lock(buffer->mutex);
    out.insert(out.end(), buffer->events.begin(), buffer->events.end());
  }
  std::stable_sort(out.begin(), out.end(), [](const TraceEvent& a, const TraceEvent& b) {
    return a.tid != b.tid ? a.tid < b.tid : a.startNs < b.startNs;
  });
  return out;
}

std::size_t Tracer::eventCount() const {
  std::size_t n = 0;
  std::lock_guard<std::mutex> lock(buffersMutex_);
  for (const auto& buffer : buffers_) {
    std::lock_guard<std::mutex> eventsLock(buffer->mutex);
    n += buffer->events.size();
  }
  return n;
}

std::string Tracer::chromeTraceJson() const {
  std::vector<TraceEvent> events = snapshot();
  std::string out = "{\"displayTimeUnit\": \"ns\", \"traceEvents\": [";
  char buf[128];
  for (std::size_t k = 0; k < events.size(); ++k) {
    const TraceEvent& ev = events[k];
    out += k == 0 ? "\n" : ",\n";
    out += "  {\"ph\": \"X\", \"pid\": 1, \"tid\": ";
    std::snprintf(buf, sizeof(buf), "%u, \"ts\": %.3f, \"dur\": %.3f, ", ev.tid,
                  static_cast<double>(ev.startNs) / 1000.0, static_cast<double>(ev.durNs) / 1000.0);
    out += buf;
    out += "\"cat\": \"";
    support::appendJsonEscaped(out, ev.category);
    out += "\", \"name\": \"";
    support::appendJsonEscaped(out, ev.name);
    out += '"';
    if (!ev.args.empty()) {
      out += ", \"args\": {";
      for (std::size_t a = 0; a < ev.args.size(); ++a) {
        if (a) out += ", ";
        out += '"';
        support::appendJsonEscaped(out, ev.args[a].first);
        out += "\": \"";
        support::appendJsonEscaped(out, ev.args[a].second);
        out += '"';
      }
      out += '}';
    }
    out += '}';
  }
  out += "\n]}\n";
  return out;
}

bool Tracer::writeChromeTrace(const std::string& path) const {
  FILE* f = std::fopen(path.c_str(), "w");
  if (!f) return false;
  std::string json = chromeTraceJson();
  bool ok = std::fwrite(json.data(), 1, json.size(), f) == json.size();
  return std::fclose(f) == 0 && ok;
}

void Span::arg(std::string_view key, std::string value) {
  if (event_) event_->args.emplace_back(std::string(key), std::move(value));
}

void Span::begin(const char* category, std::string_view name) {
  TraceEvent& event = event_.emplace();
  event.category = category;
  event.name = std::string(name);
  event.startNs = Tracer::global().nowNs();
}

void Span::end() {
  Tracer& tracer = Tracer::global();
  TraceEvent& event = *event_;
  event.durNs = tracer.nowNs() - event.startNs;
  // A span that straddles clear() measures against a re-based epoch and can
  // come out negative; clamp so consumers (profile builder, Chrome export)
  // never see a negative duration.
  if (event.durNs < 0) event.durNs = 0;
  // A span that straddles disable() is still recorded: the buffer always
  // accepts; only *construction* consults the enabled flag.
  tracer.localBuffer().append(std::move(event));
  event_.reset();
}

}  // namespace panorama::obs
