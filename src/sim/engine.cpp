#include "sim/engine.h"

namespace bismark::sim {

void EventHandle::cancel() {
  if (engine_ != nullptr) engine_->cancel_slot(slot_, gen_);
}

bool EventHandle::active() const {
  return engine_ != nullptr && engine_->slot_active(slot_, gen_);
}

Engine::Engine(TimePoint start) : now_(start) {}

void Engine::reset(TimePoint start) {
  // Every live event sits in the heap (nothing can be mid-fire here), so
  // releasing the heap's slots drops all pending work. Slab capacity and
  // the free list survive for the next shard.
  for (const std::uint32_t idx : heap_) {
    Slot& s = slots_[idx];
    s.fn.reset();
    ++s.gen;  // handles issued before the reset go inert
    s.pos = kPosFree;
    s.next_free = free_head_;
    free_head_ = idx;
  }
  heap_.clear();
  now_ = start;
  next_seq_ = 0;
  executed_ = 0;
  scheduled_ = 0;
  cancelled_ = 0;
  queue_peak_ = 0;
  cb_inline_ = 0;
  cb_heap_ = 0;
}

std::uint32_t Engine::arm(TimePoint when, Duration period) {
  std::uint32_t idx;
  if (free_head_ != kNoSlot) {
    idx = free_head_;
    free_head_ = slots_[idx].next_free;
  } else {
    idx = static_cast<std::uint32_t>(slots_.size());
    slots_.emplace_back();
  }
  Slot& s = slots_[idx];
  s.when = when;
  s.seq = next_seq_++;
  s.period = period;
  ++scheduled_;
  heap_push(idx);
  return idx;
}

void Engine::release_slot(std::uint32_t idx) {
  Slot& s = slots_[idx];
  s.fn.reset();
  ++s.gen;
  s.pos = kPosFree;
  s.next_free = free_head_;
  free_head_ = idx;
}

bool Engine::slot_active(std::uint32_t idx, std::uint32_t gen) const {
  if (idx >= slots_.size()) return false;
  const Slot& s = slots_[idx];
  return s.gen == gen && s.pos != kPosFree && s.pos != kPosFiringCancelled;
}

void Engine::cancel_slot(std::uint32_t idx, std::uint32_t gen) {
  if (idx >= slots_.size()) return;
  Slot& s = slots_[idx];
  if (s.gen != gen) return;  // already fired, cancelled, or reset away
  if (s.pos == kPosFiring) {
    // Cancelled from inside its own callback: suppress the re-arm. Only a
    // periodic event had anything pending left to cancel.
    s.pos = kPosFiringCancelled;
    if (s.period.ms > 0) ++cancelled_;
    return;
  }
  if (s.pos == kPosFiringCancelled || s.pos == kPosFree) return;
  heap_remove(idx);
  release_slot(idx);
  ++cancelled_;
}

void Engine::heap_push(std::uint32_t idx) {
  slots_[idx].pos = static_cast<std::uint32_t>(heap_.size());
  heap_.push_back(idx);
  sift_up(heap_.size() - 1);
  if (heap_.size() > queue_peak_) queue_peak_ = heap_.size();
}

void Engine::heap_remove(std::uint32_t idx) {
  const std::size_t i = slots_[idx].pos;
  const std::uint32_t last = heap_.back();
  heap_.pop_back();
  if (i < heap_.size()) {
    heap_[i] = last;
    slots_[last].pos = static_cast<std::uint32_t>(i);
    sift_down(i);
    sift_up(slots_[last].pos);
  }
}

void Engine::sift_up(std::size_t i) {
  const std::uint32_t idx = heap_[i];
  while (i > 0) {
    const std::size_t parent = (i - 1) / 2;
    if (!before(idx, heap_[parent])) break;
    heap_[i] = heap_[parent];
    slots_[heap_[i]].pos = static_cast<std::uint32_t>(i);
    i = parent;
  }
  heap_[i] = idx;
  slots_[idx].pos = static_cast<std::uint32_t>(i);
}

void Engine::sift_down(std::size_t i) {
  const std::uint32_t idx = heap_[i];
  const std::size_t n = heap_.size();
  while (true) {
    std::size_t child = 2 * i + 1;
    if (child >= n) break;
    if (child + 1 < n && before(heap_[child + 1], heap_[child])) ++child;
    if (!before(heap_[child], idx)) break;
    heap_[i] = heap_[child];
    slots_[heap_[i]].pos = static_cast<std::uint32_t>(i);
    i = child;
  }
  heap_[i] = idx;
  slots_[idx].pos = static_cast<std::uint32_t>(i);
}

void Engine::fire_top() {
  // Pop the root without a full remove: the fired slot leaves the heap.
  const std::uint32_t idx = heap_[0];
  const std::uint32_t last = heap_.back();
  heap_.pop_back();
  if (!heap_.empty()) {
    heap_[0] = last;
    slots_[last].pos = 0;
    sift_down(0);
  }
  Slot* s = &slots_[idx];
  s->pos = kPosFiring;
  now_ = s->when;
  const bool repeating = s->period.ms > 0;
  // Run the callback from the stack: it may schedule events, which can grow
  // the slab and relocate slots while it executes.
  EventFn fn = std::move(s->fn);
  fn(now_);
  ++executed_;
  s = &slots_[idx];  // re-resolve: the slab may have reallocated
  if (repeating && s->pos == kPosFiring) {
    // Re-arm in place: same slot and closure, next deadline, fresh seq so
    // events the callback just scheduled for that instant still fire first.
    s->fn = std::move(fn);
    s->when = now_ + s->period;
    s->seq = next_seq_++;
    ++scheduled_;
    heap_push(idx);
  } else {
    release_slot(idx);
  }
}

bool Engine::step() {
  if (heap_.empty()) return false;
  fire_top();
  return true;
}

std::size_t Engine::run_until(TimePoint end) {
  std::size_t n = 0;
  // The heap never holds cancelled events, so the root's deadline is the
  // true next event time: nothing past `end` can slip through, and `now_`
  // never overshoots the horizon.
  while (!heap_.empty() && slots_[heap_[0]].when <= end) {
    fire_top();
    ++n;
  }
  if (now_ < end) now_ = end;
  return n;
}

}  // namespace bismark::sim
