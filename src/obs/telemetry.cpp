// Event-log implementation: wait-free-claim ring, records published under
// per-slot spin latches (see telemetry.h for the protocol and for why the
// latch is hand-rolled instead of std::atomic<shared_ptr>).
#include "panorama/obs/telemetry.h"

#include <charconv>
#include <chrono>
#include <cstdio>
#include <thread>

#include "panorama/support/json.h"

namespace panorama::obs {

namespace {

std::int64_t steadyNowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

std::size_t roundUpPow2(std::size_t n) {
  std::size_t p = 2;
  while (p < n) p <<= 1;
  return p;
}

/// Appends the decimal rendering of an integer (std::to_chars, no
/// temporary string; 24 chars hold any 64-bit value).
template <class Int>
void appendDecimal(std::string& out, Int value) {
  char buf[24];
  out.append(buf, std::to_chars(buf, buf + sizeof(buf), value).ptr);
}

}  // namespace

namespace {

/// Scoped hold of a slot's spin latch. The held window is one shared_ptr
/// move or copy, so contention is momentary; yield keeps a preempted
/// holder from starving the spinner.
class SlotLatch {
 public:
  explicit SlotLatch(std::atomic<bool>& busy) : busy_(busy) {
    while (busy_.exchange(true, std::memory_order_acquire)) std::this_thread::yield();
  }
  ~SlotLatch() { busy_.store(false, std::memory_order_release); }
  SlotLatch(const SlotLatch&) = delete;
  SlotLatch& operator=(const SlotLatch&) = delete;

 private:
  std::atomic<bool>& busy_;
};

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
    : capacity_(roundUpPow2(capacity)),
      mask_(capacity_ - 1),
      slots_(new Slot[capacity_]),
      epochNs_(steadyNowNs()) {}

double EventLog::uptimeMs() const {
  return static_cast<double>(steadyNowNs() - epochNs_) / 1e6;
}

std::uint64_t EventLog::append(EventKind kind, std::string fields) {
  // Claim first so concurrent appends serialize on nothing but the
  // fetch-add; the slot is published whenever this writer's rendering is
  // done. A tail that arrives in between sees the claim as "in flight" and
  // stops its scan there.
  const std::uint64_t seq = head_.fetch_add(1, std::memory_order_acq_rel);
  auto rec = std::make_shared<Rec>();
  rec->seq = seq;
  // ts_ms: milliseconds with three decimals, rounded to the microsecond.
  const std::int64_t us = (steadyNowNs() - epochNs_ + 500) / 1000;
  const std::string_view kindName = eventKindName(kind);
  std::string& json = rec->json;
  json.reserve(64 + kindName.size() + fields.size());
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
  Slot& slot = slots_[seq & mask_];
  {
    SlotLatch latch(slot.busy);
    // A writer preempted for a whole ring lap must not bury the newer record
    // a later append already published here: tails would stop at this slot
    // for good. Its own record was lapped, so tails count it as dropped.
    if (!slot.rec || slot.rec->seq < seq) slot.rec = std::move(rec);
  }
  return seq;
}

EventLog::Tail EventLog::tail(std::uint64_t cursor, std::size_t maxEvents) const {
  Tail t;
  const std::uint64_t head = head_.load(std::memory_order_acquire);
  std::uint64_t s = cursor;
  // Records older than one full ring lap are gone by construction.
  if (head > capacity_ && s < head - capacity_) {
    t.dropped += (head - capacity_) - s;
    s = head - capacity_;
  }
  for (; s < head && t.events.size() < maxEvents; ++s) {
    const Slot& slot = slots_[s & mask_];
    std::shared_ptr<const Rec> rec;
    {
      SlotLatch latch(slot.busy);
      rec = slot.rec;
    }
    if (!rec || rec->seq < s) break;  // claimed but not yet published: stop, retry next tail
    if (rec->seq > s) {
      ++t.dropped;  // overwritten between the head read and this slot read
      continue;
    }
    t.events.push_back(rec->json);
  }
  t.nextCursor = s;
  return t;
}

}  // namespace panorama::obs
