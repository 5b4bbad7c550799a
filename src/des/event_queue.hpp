// Pending-event calendar for the discrete-event simulator.
//
// A binary min-heap of plain (time, seq, slot) entries keyed on (time,
// insertion sequence number). The sequence tie-break makes simultaneous
// events fire in scheduling order, which keeps every simulation
// deterministic given a seed — a property the replication methodology of
// §4.1 and all regression tests rely on. The callables live beside the
// heap in a slot pool with a free list, so once the heap and the pool have
// grown to a run's peak pending count, an event whose closure fits inline
// is scheduled and fired without a heap allocation.
#pragma once

#include <cstddef>
#include <cstdint>
#include <cstring>
#include <functional>
#include <new>
#include <type_traits>
#include <utility>
#include <vector>

namespace nashlb::des {

/// Simulation clock time, in model seconds.
using SimTime = double;

/// An event body: a move-only callable that receives the firing time.
/// A closure of at most kInlineBytes whose move cannot throw is stored in
/// place; a larger one is boxed on the heap. A std::function is copied
/// in, and an empty one gives an empty EventFn, which fires as a no-op.
class EventFn {
 public:
  static constexpr std::size_t kInlineBytes = 48;

  /// True when an F is stored without a heap allocation. The library's
  /// own closures static_assert this at their call sites.
  template <class F>
  static constexpr bool fits_inline =
      sizeof(F) <= kInlineBytes && alignof(F) <= alignof(std::max_align_t) &&
      std::is_nothrow_move_constructible_v<F>;

  EventFn() noexcept = default;

  template <class F, class D = std::decay_t<F>,
            class = std::enable_if_t<!std::is_same_v<D, EventFn> &&
                                     std::is_invocable_v<D&, SimTime>>>
  EventFn(F&& f) {  // NOLINT(google-explicit-constructor): closures convert
    if constexpr (IsStdFunction<D>::value) {
      if (!f) return;
    }
    if constexpr (fits_inline<D>) {
      ::new (static_cast<void*>(buf_)) D(std::forward<F>(f));
      ops_ = &Inline<D>::kOps;
    } else {
      ::new (static_cast<void*>(buf_)) D*(new D(std::forward<F>(f)));
      ops_ = &Boxed<D>::kOps;
    }
  }

  EventFn(EventFn&& other) noexcept { steal(other); }
  EventFn& operator=(EventFn&& other) noexcept {
    if (this != &other) {
      reset();
      steal(other);
    }
    return *this;
  }
  EventFn(const EventFn&) = delete;
  EventFn& operator=(const EventFn&) = delete;
  ~EventFn() { reset(); }

  [[nodiscard]] explicit operator bool() const noexcept {
    return ops_ != nullptr;
  }

  /// Calls the stored callable; the EventFn must not be empty.
  void operator()(SimTime t) { ops_->call(buf_, t); }

 private:
  struct Ops {
    void (*call)(unsigned char* buf, SimTime t);
    /// Moves the callable into raw storage and ends the source; null when
    /// copying the bytes does that.
    void (*relocate)(unsigned char* to, unsigned char* from) noexcept;
    /// Null when the stored object needs no destruction.
    void (*destroy)(unsigned char* buf) noexcept;
  };

  template <class T>
  struct IsStdFunction : std::false_type {};
  template <class R, class... A>
  struct IsStdFunction<std::function<R(A...)>> : std::true_type {};

  template <class D>
  struct Inline {
    static D* get(unsigned char* buf) noexcept {
      return std::launder(reinterpret_cast<D*>(buf));
    }
    static void call(unsigned char* buf, SimTime t) { (*get(buf))(t); }
    static void relocate(unsigned char* to, unsigned char* from) noexcept {
      ::new (static_cast<void*>(to)) D(std::move(*get(from)));
      get(from)->~D();
    }
    static void destroy(unsigned char* buf) noexcept { get(buf)->~D(); }
    static constexpr Ops kOps{
        &call, std::is_trivially_copyable_v<D> ? nullptr : &relocate,
        std::is_trivially_destructible_v<D> ? nullptr : &destroy};
  };

  template <class D>
  struct Boxed {
    static D* get(unsigned char* buf) noexcept {
      return *std::launder(reinterpret_cast<D**>(buf));
    }
    static void call(unsigned char* buf, SimTime t) { (*get(buf))(t); }
    static void destroy(unsigned char* buf) noexcept { delete get(buf); }
    static constexpr Ops kOps{&call, nullptr, &destroy};
  };

  void reset() noexcept {
    if (ops_ != nullptr && ops_->destroy != nullptr) ops_->destroy(buf_);
    ops_ = nullptr;
  }

  void steal(EventFn& other) noexcept {
    ops_ = std::exchange(other.ops_, nullptr);
    if (ops_ == nullptr) return;
    if (ops_->relocate != nullptr) {
      ops_->relocate(buf_, other.buf_);
    } else {
      std::memcpy(buf_, other.buf_, kInlineBytes);
    }
  }

  // Raw storage, read only while ops_ is set.
  alignas(std::max_align_t) unsigned char buf_[kInlineBytes];
  const Ops* ops_ = nullptr;
};

/// An event taken off the calendar: its time and its body.
struct Event {
  SimTime time = 0.0;
  EventFn fn;
};

/// The calendar itself. Not thread-safe: a simulation is a single logical
/// timeline (parallel experiments run whole simulators per thread instead).
class EventQueue {
 public:
  /// Schedules `fn` at absolute time `time`.
  void push(SimTime time, EventFn&& fn);

  [[nodiscard]] bool empty() const noexcept { return heap_.empty(); }
  [[nodiscard]] std::size_t size() const noexcept { return heap_.size(); }

  /// Removes and returns the next event (time order, FIFO on ties);
  /// throws std::logic_error when empty.
  Event pop();

 private:
  struct Entry {
    SimTime time;
    std::uint64_t seq;
    std::size_t slot;  // index into slots_
  };

  std::vector<Entry> heap_;
  std::vector<EventFn> slots_;
  std::vector<std::size_t> free_;  // unoccupied indices into slots_
  std::uint64_t next_seq_ = 0;
};

}  // namespace nashlb::des
