// A per-thread buffer for building a candidate value (an expression's terms,
// a predicate's clauses) before it is interned. Its slots, and each slot's
// inner vector capacity, are reused across calls, so rebuilding a value that
// is already interned allocates nothing.
//
// Guard rail: every operation fills the buffer and interns it inside one
// function, and nothing it calls in between may take the buffer again
// (local() empties it). A miss copies out of the buffer before anything else.
#pragma once

#include <cstddef>
#include <span>
#include <vector>

namespace panorama {

/// Slots of `T`, each owning the inner vector `T::*Inner`; a new slot
/// reserves `kInnerReserve` elements there. Slots are only ever appended or
/// swapped, never freed, so their capacity survives sorting and compaction.
template <class T, auto Inner, std::size_t kInnerReserve = 0>
class SlotScratch {
 public:
  /// The calling thread's buffer, emptied.
  static SlotScratch& local() {
    thread_local SlotScratch scratch;
    scratch.size_ = 0;
    return scratch;
  }

  /// Appends a slot with an empty inner vector; its other fields keep their
  /// previous values. Invalidates earlier references into the buffer.
  T& push() {
    if (size_ == slots_.size()) (slots_.emplace_back().*Inner).reserve(kInnerReserve);
    T& slot = slots_[size_++];
    (slot.*Inner).clear();
    return slot;
  }

  std::span<T> items() { return {slots_.data(), size_}; }

 private:
  std::vector<T> slots_;
  std::size_t size_ = 0;
};

}  // namespace panorama
