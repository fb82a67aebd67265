// Discrete-event simulation engine.
//
// Drives every home, device, probe schedule and outage process in virtual
// time. Six months of a 126-home deployment runs in seconds because only
// events are simulated — there is no per-tick work.
//
// The scheduler is built for the sharded runner's hot path: events live in
// a slab arena (free-list recycled, retained across reset() so one worker
// engine serves many shards without reallocating), an indexed binary heap
// of slot ids keeps ordering with 4-byte sift moves, and callbacks are
// stored in a small-buffer-optimised EventFn — scheduling a lambda with a
// modest capture performs no heap allocation at all. Cancellation is a
// generation-tagged handle: O(log n) removal straight out of the heap, no
// shared_ptr control block per event, and a cancelled periodic event's
// closure state is destroyed immediately. Periodic events re-arm in place
// (same slot, bumped deadline and sequence number), so a six-month probe
// cadence never re-captures its closure.
#pragma once

#include <cstddef>
#include <cstdint>
#include <new>
#include <type_traits>
#include <utility>
#include <vector>

#include "core/time.h"
#include "obs/trace.h"

namespace bismark::sim {

class Engine;

/// Type-erased, move-only event callback with small-buffer optimisation.
/// Callables up to kInlineBytes that are nothrow-move-constructible are
/// stored in place; anything larger falls back to a single heap cell. The
/// stored callable may take (TimePoint fire_time) or no arguments.
class EventFn {
 public:
  /// Sized to the largest hot-path capture (the traffic generator's
  /// transfer continuation) so steady-state scheduling never allocates.
  static constexpr std::size_t kInlineBytes = 88;

  EventFn() = default;
  EventFn(const EventFn&) = delete;
  EventFn& operator=(const EventFn&) = delete;
  EventFn(EventFn&& other) noexcept { move_from(other); }
  EventFn& operator=(EventFn&& other) noexcept {
    if (this != &other) {
      reset();
      move_from(other);
    }
    return *this;
  }
  ~EventFn() { reset(); }

  /// Store `f`; returns true when it fit the inline buffer (no allocation).
  template <typename F>
  bool emplace(F&& f) {
    using Fn = std::decay_t<F>;
    static_assert(std::is_invocable_v<Fn&, TimePoint> || std::is_invocable_v<Fn&>,
                  "event callbacks must be callable as fn(TimePoint) or fn()");
    reset();
    if constexpr (sizeof(Fn) <= kInlineBytes && alignof(Fn) <= alignof(std::max_align_t) &&
                  std::is_nothrow_move_constructible_v<Fn>) {
      ::new (static_cast<void*>(buf_)) Fn(std::forward<F>(f));
      ops_ = InlineOps<Fn>();
      return true;
    } else {
      ::new (static_cast<void*>(buf_)) Fn*(new Fn(std::forward<F>(f)));
      ops_ = HeapOps<Fn>();
      return false;
    }
  }

  void operator()(TimePoint t) { ops_->invoke(buf_, t); }
  void reset() {
    if (ops_ != nullptr) {
      ops_->destroy(buf_);
      ops_ = nullptr;
    }
  }
  [[nodiscard]] explicit operator bool() const { return ops_ != nullptr; }

 private:
  struct Ops {
    void (*invoke)(void*, TimePoint);
    /// Move-construct the callable into `to` and destroy it at `from`.
    void (*relocate)(void* from, void* to) noexcept;
    void (*destroy)(void*) noexcept;
  };

  template <typename Fn>
  static void Call(Fn& f, TimePoint t) {
    if constexpr (std::is_invocable_v<Fn&, TimePoint>) {
      f(t);
    } else {
      (void)t;
      f();
    }
  }

  template <typename Fn>
  static const Ops* InlineOps() {
    static constexpr Ops ops{
        [](void* p, TimePoint t) { Call(*static_cast<Fn*>(p), t); },
        [](void* from, void* to) noexcept {
          ::new (to) Fn(std::move(*static_cast<Fn*>(from)));
          static_cast<Fn*>(from)->~Fn();
        },
        [](void* p) noexcept { static_cast<Fn*>(p)->~Fn(); }};
    return &ops;
  }

  template <typename Fn>
  static const Ops* HeapOps() {
    static constexpr Ops ops{
        [](void* p, TimePoint t) { Call(**static_cast<Fn**>(p), t); },
        [](void* from, void* to) noexcept { ::new (to) Fn*(*static_cast<Fn**>(from)); },
        [](void* p) noexcept { delete *static_cast<Fn**>(p); }};
    return &ops;
  }

  void move_from(EventFn& other) noexcept {
    ops_ = other.ops_;
    if (ops_ != nullptr) {
      ops_->relocate(other.buf_, buf_);
      other.ops_ = nullptr;
    }
  }

  alignas(std::max_align_t) std::byte buf_[kInlineBytes];
  const Ops* ops_{nullptr};
};

/// Handle to a scheduled event; lets the owner cancel it. Generation-tagged:
/// a handle whose event already fired (one-shots), was cancelled, or was
/// dropped by reset() goes inert — cancel() on it is a no-op even if the
/// arena slot has been recycled for a new event. Handles must not outlive
/// the engine that issued them.
class EventHandle {
 public:
  EventHandle() = default;

  /// Cancel the event (no-op if it already fired or was never armed).
  void cancel();
  [[nodiscard]] bool active() const;

 private:
  friend class Engine;
  EventHandle(Engine* engine, std::uint32_t slot, std::uint32_t gen)
      : engine_(engine), slot_(slot), gen_(gen) {}
  Engine* engine_{nullptr};
  std::uint32_t slot_{0};
  std::uint32_t gen_{0};
};

/// The event loop. Callbacks may schedule further events freely.
class Engine {
 public:
  explicit Engine(TimePoint start);

  /// Return to a pristine state at `start`: pending events dropped (their
  /// callbacks destroyed, their handles deactivated), clocks and counters
  /// zeroed. The arena slab and heap capacity are retained, so a worker
  /// thread reuses one engine across many shards without reallocating.
  void reset(TimePoint start);

  [[nodiscard]] TimePoint now() const { return now_; }

  /// Schedule `fn` at absolute time `when` (clamped to now if in the past).
  /// `fn` may take the fire time as a TimePoint or nothing.
  template <typename F>
  EventHandle schedule_at(TimePoint when, F&& fn) {
    const std::uint32_t idx = arm(when < now_ ? now_ : when, Duration{0});
    note_storage(slots_[idx].fn.emplace(std::forward<F>(fn)));
    return EventHandle(this, idx, slots_[idx].gen);
  }

  /// Schedule `fn` after a relative delay.
  template <typename F>
  EventHandle schedule_after(Duration delay, F&& fn) {
    return schedule_at(now_ + delay, std::forward<F>(fn));
  }

  /// Schedule `fn(fire_time)` every `period`, starting at now + phase.
  /// Cancelling the returned handle stops the repetition and destroys the
  /// closure immediately. The event re-arms in place: one stored closure
  /// for the lifetime of the series, not one per firing.
  template <typename F>
  EventHandle schedule_every(Duration period, F&& fn, Duration phase = Duration{0}) {
    const std::uint32_t idx = arm(now_ + phase, period);
    note_storage(slots_[idx].fn.emplace(std::forward<F>(fn)));
    return EventHandle(this, idx, slots_[idx].gen);
  }

  /// Run until the queue empties or simulated time reaches `end` (events
  /// at exactly `end` still fire; `now()` never advances past `end`).
  /// Returns events executed.
  std::size_t run_until(TimePoint end);

  /// Run a single event; returns false if the queue is empty.
  bool step();

  [[nodiscard]] std::size_t pending() const { return heap_.size(); }
  [[nodiscard]] std::uint64_t executed() const { return executed_; }
  /// Events ever enqueued (including schedule_every re-arms).
  [[nodiscard]] std::uint64_t scheduled() const { return scheduled_; }
  /// Events deactivated by cancel() before they could fire (counted at
  /// cancel time — cancelled events leave the queue immediately).
  [[nodiscard]] std::uint64_t cancelled() const { return cancelled_; }

  // Queue/arena instrumentation since the last reset(). queue_peak and the
  // callback-storage counts are deterministic per simulated workload.
  [[nodiscard]] std::size_t queue_peak() const { return queue_peak_; }
  [[nodiscard]] std::uint64_t callbacks_inline() const { return cb_inline_; }
  [[nodiscard]] std::uint64_t callbacks_heap() const { return cb_heap_; }

  /// Attach a flight recorder; every executed event is then traced with
  /// its simulated fire time. The engine does not own the recorder. The
  /// per-event recording compiles out entirely under BISMARK_OBS=OFF.
  void set_recorder(obs::FlightRecorder* recorder) { recorder_ = recorder; }

 private:
  friend class EventHandle;

  // `pos` sentinels (real heap indices stay far below these).
  static constexpr std::uint32_t kPosFree = 0xFFFFFFFFu;
  static constexpr std::uint32_t kPosFiring = 0xFFFFFFFEu;
  static constexpr std::uint32_t kPosFiringCancelled = 0xFFFFFFFDu;
  static constexpr std::uint32_t kNoSlot = 0xFFFFFFFFu;

  struct Slot {
    EventFn fn;
    TimePoint when{};
    std::uint64_t seq{0};       // FIFO tiebreak for simultaneous events
    Duration period{0};         // > 0ms: re-arm in place after firing
    std::uint32_t gen{0};       // bumped on release; stale handles go inert
    std::uint32_t pos{kPosFree};  // index into heap_, or a kPos* sentinel
    std::uint32_t next_free{kNoSlot};
  };

  std::uint32_t arm(TimePoint when, Duration period);
  void release_slot(std::uint32_t idx);
  void fire_top();
  void cancel_slot(std::uint32_t idx, std::uint32_t gen);
  [[nodiscard]] bool slot_active(std::uint32_t idx, std::uint32_t gen) const;
  void note_storage(bool stored_inline) {
    if (stored_inline) {
      ++cb_inline_;
    } else {
      ++cb_heap_;
    }
  }

  [[nodiscard]] bool before(std::uint32_t a, std::uint32_t b) const {
    const Slot& sa = slots_[a];
    const Slot& sb = slots_[b];
    if (sa.when != sb.when) return sa.when < sb.when;
    return sa.seq < sb.seq;
  }
  void heap_push(std::uint32_t idx);
  void heap_remove(std::uint32_t idx);
  void sift_up(std::size_t i);
  void sift_down(std::size_t i);

  TimePoint now_;
  std::vector<Slot> slots_;          // the event arena (slab + free list)
  std::vector<std::uint32_t> heap_;  // indexed binary min-heap of slot ids
  std::uint32_t free_head_{kNoSlot};
  std::uint64_t next_seq_{0};
  std::uint64_t executed_{0};
  std::uint64_t scheduled_{0};
  std::uint64_t cancelled_{0};
  std::size_t queue_peak_{0};
  std::uint64_t cb_inline_{0};
  std::uint64_t cb_heap_{0};
  obs::FlightRecorder* recorder_{nullptr};
};

}  // namespace bismark::sim
