// Live service telemetry (panorama::obs pillar 4, DESIGN.md §4.10): the
// bounded structured event log behind the daemon's `tail` op, its JSONL
// post-mortem sink, and the periodic self-snapshot records.
//
// The EventLog is a fixed-capacity ring of pre-rendered JSON records under
// one mutex. An append takes the lock, numbers the record, and renders it
// into its ring slot; a tail takes the same lock and copies the records it
// returns. The daemon appends two records per submit and none for most
// other requests, so the lock is rarely contended, and a reader never sees
// a half-written record.
// When the ring wraps, the oldest records are overwritten: the log is a
// flight recorder, not a queue, and consumers that fall behind observe an
// explicit `dropped` count instead of backpressure.
//
// Readers are cursor-based: a cursor is the next sequence number the caller
// has not seen, `tail(cursor, max)` returns records in sequence order
// starting there, and the returned `nextCursor` feeds the next call. Records
// overwritten before the reader arrived are counted as dropped (the cursor
// skips them), so a tail never returns a gap it did not report.
//
// Every record is one JSON object, rendered at append time:
//   {"seq":N,"ts_ms":T,"kind":"...", <event fields>}
// with ts_ms milliseconds since the log's construction (the daemon start).
// One record per line is exactly the JSONL format the daemon's
// `--event-log=FILE` sink writes.
#pragma once

#include <cstdint>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

namespace panorama::obs {

/// The daemon's event taxonomy (DESIGN.md §4.10).
enum class EventKind {
  ConnOpen,     ///< a client connection was accepted
  ConnClose,    ///< a client connection ended (any reason)
  SubmitBegin,  ///< a submit op started analysis
  SubmitEnd,    ///< a submit op finished (fields: epoch, dirty-cone size, …)
  Error,        ///< a request was answered with a structured error
  SlowRequest,  ///< a request exceeded the --slow-ms threshold
  Snapshot,     ///< periodic self-sample from the telemetry thread
};

/// Stable wire name ("conn_open", "submit_end", …).
const char* eventKindName(EventKind kind);

/// Builder for an event's extra JSON fields. Produces the `,"k":v,...`
/// suffix EventLog::append splices into the record envelope.
class EventFields {
 public:
  EventFields& num(std::string_view key, std::uint64_t value);
  EventFields& num(std::string_view key, std::int64_t value);
  EventFields& real(std::string_view key, double value);  ///< rendered %.3f
  EventFields& str(std::string_view key, std::string_view value);

  std::string take() { return std::move(text_); }

 private:
  std::string text_;
};

class EventLog {
 public:
  static constexpr std::size_t kDefaultCapacity = 4096;

  /// Keeps the last `capacity` records (minimum 1).
  explicit EventLog(std::size_t capacity = kDefaultCapacity);

  /// Appends one event and returns its sequence number. `fields` is an
  /// EventFields::take() suffix (or empty). Safe from any thread,
  /// concurrently with tail().
  std::uint64_t append(EventKind kind, std::string_view fields = {});

  struct Tail {
    std::vector<std::string> events;  ///< rendered records, sequence order
    std::uint64_t nextCursor = 0;     ///< pass to the next tail() call
    std::uint64_t dropped = 0;        ///< records lost between cursor and events
  };
  /// Records with sequence >= cursor, at most `maxEvents` of them.
  Tail tail(std::uint64_t cursor, std::size_t maxEvents) const;

  /// Total records ever appended — also the cursor value that reads only
  /// records appended after this call.
  std::uint64_t appended() const;
  std::size_t capacity() const { return ring_.size(); }

  /// Milliseconds since construction — the clock behind every ts_ms field.
  double uptimeMs() const;

 private:
  const std::int64_t epochNs_;  ///< steady_clock at construction
  mutable std::mutex mutex_;
  /// Record `seq` lives in ring_[seq % capacity] until it is overwritten;
  /// slots keep their string buffers, so a full ring appends without
  /// allocating.
  std::vector<std::string> ring_;
  std::uint64_t appended_ = 0;  ///< the next record's sequence number
};

}  // namespace panorama::obs
