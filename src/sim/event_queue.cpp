#include "sim/event_queue.hpp"

#include <algorithm>
#include <stdexcept>

namespace switchml::sim {

std::uint32_t EventQueue::grow_slab() {
  if (slot_count_ >= kStreamBit) throw_slab_full();
  const std::uint32_t slot = slot_count_++;
  if ((slot >> kChunkShift) >= chunks_.size())
    chunks_.push_back(std::make_unique<Record[]>(kChunkSize));
  return slot;
}

void EventQueue::grow_ring(Stream& st) {
  // Doubles (from 16 entries) and unwraps the queued entries to the front;
  // a ring never shrinks.
  const std::uint32_t capacity = std::max<std::uint32_t>(16, 2 * st.capacity);
  auto ring = std::make_unique_for_overwrite<Entry[]>(capacity);
  for (std::uint32_t i = 0; i < st.size; ++i)
    ring[i] = st.ring[(st.head + i) & (st.capacity - 1)];
  st.ring = std::move(ring);
  st.capacity = capacity;
  st.head = 0;
}

void EventQueue::throw_seq_overflow() {
  throw std::overflow_error(
      "EventQueue: sequence counter exhausted (~1.1e12 schedules without the queue ever "
      "draining) — split the run, or widen the seq field");
}

void EventQueue::throw_slab_full() {
  throw std::overflow_error(
      "EventQueue: more than 2^23 plain events and timers pending at once — the slot index "
      "no longer fits the heap key's 23 slot bits");
}

void EventQueue::throw_too_many_streams() {
  throw std::overflow_error(
      "EventQueue: more than 2^23 streams — the stream index no longer fits the heap key's "
      "23 stream bits");
}

void EventQueue::throw_inert_drift() {
  throw std::logic_error(
      "EventQueue: inert event count exceeds queue size — the cancelled/daemon bookkeeping "
      "has drifted (double cancel accounting bug?)");
}

} // namespace switchml::sim
