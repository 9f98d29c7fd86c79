// EventQueue is header-inline except for the parts of push that do not
// depend on the callable's type: the queue is on the innermost simulator
// loop and its hot methods must inline into callers without LTO, but
// push(Time, F&&) is instantiated once per scheduled callable type, so
// its type-independent tail and its cold arena growth live here, once.
#include "sim/event_queue.h"

namespace tibfit::sim {

std::uint32_t EventQueue::grow_arena() {
    const auto slot = static_cast<std::uint32_t>(slots_.size());
    slots_.emplace_back();
    return slot;
}

EventId EventQueue::commit_push(Time at, std::uint32_t slot) {
    Slot& s = slots_[slot];
    if (!s.action) {
        free_.push_back(slot);
        throw std::invalid_argument("EventQueue::push: empty action");
    }
    assert(slot <= kSlotMask && "arena exceeded 2^24 concurrent events");
    const EventId key = (next_seq_++ << kSlotBits) | slot;
    s.key = key;
    heap_push(Entry{at, key});
    ++live_;
    return key;
}

}  // namespace tibfit::sim
