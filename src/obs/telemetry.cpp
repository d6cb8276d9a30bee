// Event-log implementation: a ring of rendered records under one mutex
// (see telemetry.h for the cursor protocol).
#include "panorama/obs/telemetry.h"

#include <charconv>
#include <chrono>
#include <cstdio>

#include "panorama/support/json.h"

namespace panorama::obs {

namespace {

std::int64_t steadyNowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// Appends the decimal rendering of an integer (std::to_chars, no
/// temporary string; 24 chars hold any 64-bit value).
template <class Int>
void appendDecimal(std::string& out, Int value) {
  char buf[24];
  out.append(buf, std::to_chars(buf, buf + sizeof(buf), value).ptr);
}

}  // namespace

const char* eventKindName(EventKind kind) {
  switch (kind) {
    case EventKind::ConnOpen: return "conn_open";
    case EventKind::ConnClose: return "conn_close";
    case EventKind::SubmitBegin: return "submit_begin";
    case EventKind::SubmitEnd: return "submit_end";
    case EventKind::Error: return "error";
    case EventKind::SlowRequest: return "slow_request";
    case EventKind::Snapshot: return "snapshot";
  }
  return "unknown";
}

EventFields& EventFields::num(std::string_view key, std::uint64_t value) {
  text_.reserve(text_.size() + key.size() + 24);
  text_ += ",\"";
  text_ += key;
  text_ += "\":";
  appendDecimal(text_, value);
  return *this;
}

EventFields& EventFields::num(std::string_view key, std::int64_t value) {
  text_.reserve(text_.size() + key.size() + 25);
  text_ += ",\"";
  text_ += key;
  text_ += "\":";
  appendDecimal(text_, value);
  return *this;
}

EventFields& EventFields::real(std::string_view key, double value) {
  char buf[48];
  std::snprintf(buf, sizeof(buf), ",\"%.*s\":%.3f", static_cast<int>(key.size()), key.data(),
                value);
  text_ += buf;
  return *this;
}

EventFields& EventFields::str(std::string_view key, std::string_view value) {
  text_ += ",\"";
  text_ += key;
  text_ += "\":\"";
  support::appendJsonEscaped(text_, value);
  text_ += '"';
  return *this;
}

EventLog::EventLog(std::size_t capacity)
    : epochNs_(steadyNowNs()), ring_(capacity > 0 ? capacity : 1) {}

double EventLog::uptimeMs() const {
  return static_cast<double>(steadyNowNs() - epochNs_) / 1e6;
}

std::uint64_t EventLog::appended() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return appended_;
}

std::uint64_t EventLog::append(EventKind kind, std::string_view fields) {
  const std::string_view kindName = eventKindName(kind);
  std::lock_guard<std::mutex> lock(mutex_);
  const std::uint64_t seq = appended_++;
  // ts_ms: milliseconds with three decimals, rounded to the microsecond.
  const std::int64_t us = (steadyNowNs() - epochNs_ + 500) / 1000;
  std::string& json = ring_[seq % ring_.size()];
  json.clear();
  json += "{\"seq\":";
  appendDecimal(json, seq);
  json += ",\"ts_ms\":";
  appendDecimal(json, us / 1000);
  const char frac[4] = {'.', static_cast<char>('0' + us / 100 % 10),
                        static_cast<char>('0' + us / 10 % 10), static_cast<char>('0' + us % 10)};
  json.append(frac, sizeof(frac));
  json += ",\"kind\":\"";
  json += kindName;
  json += '"';
  json += fields;
  json += '}';
  return seq;
}

EventLog::Tail EventLog::tail(std::uint64_t cursor, std::size_t maxEvents) const {
  Tail t;
  std::lock_guard<std::mutex> lock(mutex_);
  // Records older than one full ring lap are gone.
  const std::uint64_t oldest = appended_ > ring_.size() ? appended_ - ring_.size() : 0;
  std::uint64_t s = cursor;
  if (s < oldest) {
    t.dropped = oldest - s;
    s = oldest;
  }
  for (; s < appended_ && t.events.size() < maxEvents; ++s)
    t.events.push_back(ring_[s % ring_.size()]);
  t.nextCursor = s;
  return t;
}

}  // namespace panorama::obs
