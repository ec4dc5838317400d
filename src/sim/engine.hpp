// Discrete-event simulation engine: a cancellable, deterministic event queue
// driving virtual time.
//
// Determinism: events with equal timestamps fire in schedule order (a strictly
// increasing sequence number breaks ties), so a simulation with a fixed seed
// replays the exact same trace every run (DESIGN.md invariant 8).
//
// Throughput (DESIGN.md §13): the pending set lives in a calendar queue (a
// hashed timing wheel with an active-window min-heap) instead of a binary
// heap, cancelled timers are removed lazily and compacted in bulk once stale
// entries outnumber live ones, and event callbacks are stored in a pooled
// small-buffer arena so scheduling performs no heap allocation for captures
// up to EventFn::kInlineBytes.
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <deque>
#include <exception>
#include <new>
#include <type_traits>
#include <utility>
#include <vector>

#include "sim/assert.hpp"
#include "sim/time.hpp"

namespace cpe::sim {

/// Handle to a scheduled event.  Cheap to copy; stale handles (already fired
/// or cancelled) are detected via a generation counter, so cancel() is always
/// safe to call.
struct EventId {
  std::uint32_t slot = kInvalidSlot;
  std::uint32_t gen = 0;

  static constexpr std::uint32_t kInvalidSlot = 0xffffffffu;
  [[nodiscard]] bool valid() const noexcept { return slot != kInvalidSlot; }
};

namespace detail {

/// Type-erased event callback with small-buffer storage.  Captures up to
/// kInlineBytes live inline in the engine's slot arena (recycled with the
/// slot, so the steady-state schedule/fire cycle never touches the heap);
/// larger or throwing-move captures fall back to a single heap node whose
/// pointer is stored in the buffer.
class EventFn {
 public:
  static constexpr std::size_t kInlineBytes = 48;

  EventFn() noexcept = default;
  EventFn(const EventFn&) = delete;
  EventFn& operator=(const EventFn&) = delete;
  EventFn(EventFn&& o) noexcept { move_from(o); }
  EventFn& operator=(EventFn&& o) noexcept {
    if (this != &o) {
      reset();
      move_from(o);
    }
    return *this;
  }
  ~EventFn() { reset(); }

  template <class F>
  void emplace(F&& f) {
    using D = std::decay_t<F>;
    static_assert(std::is_invocable_r_v<void, D&>,
                  "event callback must be invocable as void()");
    reset();
    if constexpr (sizeof(D) <= kInlineBytes &&
                  alignof(D) <= alignof(std::max_align_t) &&
                  std::is_nothrow_move_constructible_v<D>) {
      ::new (static_cast<void*>(buf_)) D(std::forward<F>(f));
      ops_ = &kInlineOps<D>;
    } else {
      D* p = new D(std::forward<F>(f));
      std::memcpy(buf_, &p, sizeof(p));
      ops_ = &kHeapOps<D>;
    }
  }

  void reset() noexcept {
    if (ops_ != nullptr) {
      ops_->destroy(buf_);
      ops_ = nullptr;
    }
  }

  [[nodiscard]] explicit operator bool() const noexcept {
    return ops_ != nullptr;
  }

  void operator()() {
    CPE_ASSERT(ops_ != nullptr);
    ops_->invoke(buf_);
  }

 private:
  struct Ops {
    void (*invoke)(void*);
    void (*relocate)(void* from, void* to) noexcept;
    void (*destroy)(void*) noexcept;
  };

  template <class D>
  static const Ops kInlineOps;
  template <class D>
  static const Ops kHeapOps;

  template <class D>
  static D* heap_ptr(void* buf) noexcept {
    D* p;
    std::memcpy(&p, buf, sizeof(p));
    return p;
  }

  void move_from(EventFn& o) noexcept {
    if (o.ops_ != nullptr) {
      ops_ = o.ops_;
      ops_->relocate(o.buf_, buf_);
      o.ops_ = nullptr;
    }
  }

  const Ops* ops_ = nullptr;
  alignas(std::max_align_t) std::byte buf_[kInlineBytes];
};

template <class D>
inline const EventFn::Ops EventFn::kInlineOps = {
    /*invoke=*/[](void* p) { (*static_cast<D*>(p))(); },
    /*relocate=*/
    [](void* from, void* to) noexcept {
      D* f = static_cast<D*>(from);
      ::new (to) D(std::move(*f));
      f->~D();
    },
    /*destroy=*/[](void* p) noexcept { static_cast<D*>(p)->~D(); },
};

template <class D>
inline const EventFn::Ops EventFn::kHeapOps = {
    /*invoke=*/[](void* buf) { (*heap_ptr<D>(buf))(); },
    /*relocate=*/
    [](void* from, void* to) noexcept { std::memcpy(to, from, sizeof(D*)); },
    /*destroy=*/[](void* buf) noexcept { delete heap_ptr<D>(buf); },
};

/// One pending (or stale) occupant of the calendar queue.
struct Entry {
  Time t;
  std::uint64_t seq;
  std::uint32_t slot;
  std::uint32_t gen;
};

/// Comparator giving std::push_heap/pop_heap a min-heap on (t, seq): "a fires
/// after b".  The seq tiebreak is what preserves determinism invariant 8.
struct EntryAfter {
  [[nodiscard]] bool operator()(const Entry& a, const Entry& b) const noexcept {
    return a.t != b.t ? a.t > b.t : a.seq > b.seq;
  }
};

/// Calendar queue (hashed timing wheel) over Entry, ordered by (t, seq).
///
/// Entries are hashed into buckets by virtual bucket number floor(t/width)
/// modulo the bucket count.  The *active window* is one virtual bucket wide;
/// its due entries are kept in a small binary heap (cur_heap_) which resolves
/// both the within-window order and the FIFO tiebreak at equal timestamps —
/// so the determinism argument reduces to the binary-heap one.  Invariant:
/// whenever cur_heap_ is non-empty its top is the global minimum; every
/// bucketed entry has t >= bucket_top_ (pushes below bucket_top_ go straight
/// into the heap, which is safe because the engine never schedules into the
/// past).  A full fruitless lap of the wheel falls back to a direct search
/// for the minimum and re-anchors the window there, so sparse queues skip
/// empty years in O(buckets) instead of sweeping time.
class CalendarQueue {
 public:
  void push(Entry e);

  /// Smallest entry, or nullptr when empty.  Positions the active window.
  [[nodiscard]] const Entry* peek();

  /// Remove and return the smallest entry.  Pre: !empty().
  Entry pop();

  [[nodiscard]] std::size_t size() const noexcept { return count_; }
  [[nodiscard]] bool empty() const noexcept { return count_ == 0; }

  /// Best-effort peek at the *next* minimum after a pop, without positioning
  /// work: non-null only while the active-window heap is non-empty.  Used by
  /// Engine::step to prefetch the next event's slot while the current
  /// callback runs.
  [[nodiscard]] const Entry* next_hint() const noexcept {
    return cur_heap_.empty() ? nullptr : cur_heap_.data();
  }

  /// In-place bulk removal of entries failing `alive`; never allocates, so
  /// it is callable from noexcept paths (Engine::cancel's compaction).
  template <class Pred>
  void retain(Pred alive) noexcept {
    const auto filter = [&](std::vector<Entry>& v) noexcept {
      std::size_t w = 0;
      for (std::size_t r = 0; r < v.size(); ++r) {
        if (alive(v[r])) v[w++] = v[r];
      }
      count_ -= v.size() - w;
      v.resize(w);
    };
    filter(cur_heap_);
    std::make_heap(cur_heap_.begin(), cur_heap_.end(), EntryAfter{});
    for (std::vector<Entry>& b : buckets_) filter(b);
    filter(overflow_);
    std::make_heap(overflow_.begin(), overflow_.end(), EntryAfter{});
  }

 private:
  // Virtual buckets past this never index the wheel: their timestamps are so
  // far out (t/width >= 2^62) that double->uint64 conversion would be lossy
  // or undefined.  They wait in overflow_ until a direct search adopts one.
  static constexpr double kMaxVirtualBucket = 4.6e18;
  static constexpr std::size_t kMinBuckets = 16;

  void init_if_needed();
  /// floor(t / width_) as the window bounds see it.  Pre: t * inv_width_ <
  /// kMaxVirtualBucket.
  [[nodiscard]] std::uint64_t virtual_bucket(Time t) const noexcept;
  /// Route one entry to the heap, a bucket, or overflow.  No bookkeeping.
  void place(Entry e);
  /// Park a far-future entry in the overflow min-heap.
  void push_overflow(Entry e);
  /// Move overflow entries now due before bucket_top_ into cur_heap_ —
  /// mandatory after any window advance, or pops could go back in time.
  void adopt_due_overflow();
  [[nodiscard]] Time estimate_width(const std::vector<Entry>& all) const;
  /// Ensure cur_heap_ holds the global minimum; false when the queue is
  /// empty.  Sweeps the wheel forward, with a direct-search fallback after a
  /// fruitless lap.
  bool position();
  /// Move entries due in the active window from its bucket into cur_heap_.
  /// Returns true when the heap is non-empty afterwards.
  bool sweep_bucket();
  void rebuild(std::size_t nbuckets);
  void maybe_grow();
  void maybe_shrink();

  std::vector<std::vector<Entry>> buckets_;
  std::vector<Entry> cur_heap_;   // min-heap (EntryAfter) of the active window
  std::vector<Entry> overflow_;   // min-heap: t too far for the wheel mapping
  std::size_t mask_ = 0;          // buckets_.size() - 1 (power of two)
  Time width_ = 1.0;              // virtual bucket width in seconds
  Time inv_width_ = 1.0;          // 1/width_: place() multiplies, not divides
  std::uint64_t vcur_ = 0;        // virtual bucket of the active window
  Time bucket_top_ = 0;           // exclusive upper bound of the window
  std::size_t count_ = 0;
};

}  // namespace detail

class Engine {
 public:
  Engine() = default;
  Engine(const Engine&) = delete;
  Engine& operator=(const Engine&) = delete;

  /// Current simulated time in seconds.
  [[nodiscard]] Time now() const noexcept { return now_; }

  /// Schedule `fn` to run at absolute time `t` (>= now()).  Callables whose
  /// captures fit EventFn::kInlineBytes are stored inline in the recycled
  /// slot arena: no heap allocation in steady state.
  template <class F>
  EventId schedule_at(Time t, F&& fn) {
    if (t < now_) t = now_;
    const std::uint32_t slot = alloc_slot();
    try {
      slots_[slot].fn.emplace(std::forward<F>(fn));
      return commit_slot(slot, t);
    } catch (...) {
      slots_[slot].fn.reset();
      free_slots_.push_back(slot);
      throw;
    }
  }

  /// Schedule `fn` to run `dt` seconds from now.  Negative delays are clamped
  /// to "immediately" (still after the current event completes).
  template <class F>
  EventId schedule_in(Time dt, F&& fn) {
    return schedule_at(now_ + (dt > 0 ? dt : 0), std::forward<F>(fn));
  }

  /// Cancel a scheduled event.  No-op when the event already fired, was
  /// already cancelled, or `id` is invalid.  Never allocates: the free list's
  /// capacity is grown in lock-step with the slot arena.
  void cancel(EventId id) noexcept;

  /// True while the event is scheduled and not yet fired or cancelled.
  [[nodiscard]] bool pending(EventId id) const noexcept;

  /// Number of scheduled events not yet fired or cancelled.
  [[nodiscard]] std::size_t pending_count() const noexcept { return live_; }

  /// Run one event.  Returns false when the queue is empty.
  bool step();

  /// Run until the queue drains or `max_events` fired; returns events fired.
  /// Throws Error if `max_events` is hit (runaway-simulation guard).
  std::size_t run(std::size_t max_events = kDefaultEventBudget);

  /// Run until simulated time would exceed `t` (events at exactly `t` fire).
  /// Returns events fired.  Time advances to `t` even if the queue drains.
  std::size_t run_until(Time t, std::size_t max_events = kDefaultEventBudget);

  /// Record an asynchronous failure (e.g. an exception escaping a detached
  /// coroutine).  The next step()/run() call rethrows it.
  void report_failure(std::exception_ptr e) noexcept { failures_.push_back(e); }

  static constexpr std::size_t kDefaultEventBudget = 500'000'000;

 private:
  struct Slot {
    std::uint32_t gen = 0;
    detail::EventFn fn;
  };

  // Compaction trigger: once cancelled-but-unpopped queue entries outnumber
  // live ones (and exceed a floor that keeps tiny queues out of the game),
  // sweep them all in one O(pending) pass.  Bounds queue memory at 2x live.
  static constexpr std::size_t kCompactFloor = 64;

  std::uint32_t alloc_slot();
  EventId commit_slot(std::uint32_t slot, Time t);
  void compact_queue() noexcept;
  void rethrow_pending_failure();

  Time now_ = 0;
  std::uint64_t next_seq_ = 0;
  std::size_t live_ = 0;
  std::size_t dead_ = 0;  // stale entries still occupying the queue
  std::vector<Slot> slots_;
  std::vector<std::uint32_t> free_slots_;
  detail::CalendarQueue queue_;
  std::deque<std::exception_ptr> failures_;

  friend struct EngineTestPeer;  // tests poke slot generations (wraparound)
};

}  // namespace cpe::sim
