// Structured tracing for the analysis pipeline (panorama::obs pillar 1).
//
// A Span is an RAII scope that records one timed event — category, name,
// optional string args — into a per-thread buffer of the process-global
// Tracer. The design is driven by two requirements:
//
//   * Near-free when disabled. The enabled flag is a single atomic held by
//     the Tracer; a disabled Span's constructor is one relaxed load and a
//     branch, its destructor one branch. No allocation, no clock read, no
//     buffer touch. bench_obs_overhead asserts the end-to-end cost stays
//     within the 2% contract documented in DESIGN.md.
//   * Safe under the thread pool. Each thread appends to its own buffer,
//     a deque under a mutex that only that thread's appends and the
//     readers take, so appends on different threads never contend, and
//     snapshot()/writeChromeTrace() may run concurrently with active spans
//     (they observe a prefix of each thread's events).
//
// The export format is Chrome trace-event JSON ("X" complete events), so a
// corpus run opens directly in chrome://tracing or Perfetto.
//
// Span taxonomy (see DESIGN.md §"Observability"):
//   corpus.run / corpus.kernel              driver-level units of work
//   frontend.parse / frontend.sema / frontend.hsg
//   summary.proc                            §4.1 summary construction
//   summary.loop_expansion                  expandByIndex of one loop
//   analysis.loop                           one LoopParallelizer::analyzeLoop
//   deptest.loop                            conventional-test filter
//   query.fm / query.implies                cold symbolic queries (cache misses)
//   query.prefilter                         abstract-domain tier attempts (§4.6)
#pragma once

#include <atomic>
#include <cstdint>
#include <deque>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

namespace panorama::obs {

/// One completed span. `args` is a flat key/value list rendered into the
/// Chrome event's "args" object.
struct TraceEvent {
  const char* category = "";  ///< static-storage category string
  std::string name;
  std::vector<std::pair<std::string, std::string>> args;
  std::int64_t startNs = 0;  ///< relative to the Tracer's epoch
  std::int64_t durNs = 0;
  std::uint32_t tid = 0;  ///< display thread id (buffer registration order)
};

/// The process-global span sink. enable()/disable() gate collection; clear()
/// drops collected events and must not race with span construction (call it
/// between runs, as the driver and benches do).
class Tracer {
 public:
  static Tracer& global();

  void enable();
  void disable();
  bool enabled() const { return enabled_.load(std::memory_order_relaxed); }

  /// Drops every buffered event and detaches live thread buffers (threads
  /// re-register lazily on their next span). Quiescent use only.
  void clear();

  /// Merged copy of every recorded event, ordered by (tid, start time).
  std::vector<TraceEvent> snapshot() const;
  std::size_t eventCount() const;

  /// Chrome trace-event JSON: {"traceEvents": [...], "displayTimeUnit": "ns"}.
  std::string chromeTraceJson() const;
  /// Writes chromeTraceJson() to `path`; false on I/O failure.
  bool writeChromeTrace(const std::string& path) const;

  // ----- internal, used by Span (public for the white-box tests) -----

  /// One thread's event stream. Owned jointly by the registering thread
  /// (thread_local shared_ptr) and the Tracer, so neither thread exit nor
  /// clear() can dangle the other side.
  struct ThreadBuffer {
    std::uint32_t tid = 0;
    mutable std::mutex mutex;  ///< guards events: the owner's appends, readers
    std::deque<TraceEvent> events;

    void append(TraceEvent ev);
  };

  /// The calling thread's buffer for the current generation (registering it
  /// on first use after enable()/clear()).
  ThreadBuffer& localBuffer();

  /// Monotonic nanoseconds since the epoch recorded at enable().
  std::int64_t nowNs() const;

 private:
  std::atomic<bool> enabled_{false};
  std::atomic<std::uint64_t> generation_{1};
  std::int64_t epochNs_ = 0;  ///< steady_clock at enable(); written quiescently

  mutable std::mutex buffersMutex_;
  std::vector<std::shared_ptr<ThreadBuffer>> buffers_;
};

/// RAII span. Construction snapshots the clock and destruction publishes the
/// event — both only when tracing is enabled at construction time. A
/// disabled span never constructs its event, so the hot paths pay one flag
/// load and branch per span site.
class Span {
 public:
  Span(const char* category, std::string_view name) {
    if (Tracer::global().enabled()) begin(category, name);
  }
  ~Span() {
    if (event_) end();
  }

  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

  /// Attaches a key/value pair to the event (no-op when inactive, so arg
  /// values should be built behind active() when they are costly).
  void arg(std::string_view key, std::string value);
  bool active() const { return event_.has_value(); }

 private:
  void begin(const char* category, std::string_view name);
  void end();

  std::optional<TraceEvent> event_;  ///< engaged while the span is active
};

}  // namespace panorama::obs
