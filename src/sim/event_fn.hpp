// Allocation-free callables for simulator events.
//
// EventFn is the closure type every scheduling layer hands to the event
// engine: a small-buffer-optimized, move-only void() callable with NO heap
// fallback. std::function — the previous event closure — silently
// heap-allocates any capture larger than two pointers (~16 bytes on
// libstdc++), which put a malloc/free pair on every scheduled event that
// captured more. EventFn instead carries 48 bytes of inline storage — enough
// for every scheduling call site in the tree (`this` plus a few indices, a
// fault spec by value, or a whole std::function; no closure captures a
// packet, which the pipe it is in owns) — and rejects anything larger AT
// COMPILE TIME, so a capture that would re-introduce the allocation is a
// build error at the offending call site, not a silent perf regression.
//
// Stream events (a link delivery, a NIC RX completion) capture nothing: a
// stream's handler, a StreamFn, is given once when the stream is opened,
// and each event carries only a 64-bit arg (a delivery's seq) for it.
//
// EventFn contract:
//   - capacity: sizeof(F) <= 48, alignof(F) <= 16, F nothrow-move-
//     constructible. EventFn::fits<F>() exposes the gate; a callable that
//     fails it selects a deleted constructor overload.
//   - move-only: moving transfers the callable (source becomes empty); the
//     wrapped callable's destructor runs exactly once, on whichever EventFn
//     currently holds it.
//   - lvalue callables are copied in (so a std::function can still be
//     re-scheduled from itself, e.g. a self-re-arming tick); rvalues are
//     moved in, so move-only captures (unique_ptr) work.
#pragma once

#include <cstddef>
#include <cstdint>
#include <new>
#include <type_traits>
#include <utility>

namespace switchml::sim {

class EventFn {
public:
  static constexpr std::size_t kInlineBytes = 48;
  static constexpr std::size_t kInlineAlign = 16;

  // Compile-time gate: true when F can live in the inline buffer.
  template <typename F>
  static constexpr bool fits() {
    using D = std::decay_t<F>;
    return sizeof(D) <= kInlineBytes && alignof(D) <= kInlineAlign &&
           std::is_nothrow_move_constructible_v<D>;
  }

  EventFn() = default;

  template <typename F>
    requires(!std::is_same_v<std::decay_t<F>, EventFn> &&
             std::is_invocable_r_v<void, std::decay_t<F>&> && fits<F>())
  // NOLINTNEXTLINE(google-explicit-constructor): implicit by design — every
  // schedule_* call site passes a bare lambda.
  EventFn(F&& f) : vt_(&kVTableFor<std::decay_t<F>>) {
    ::new (static_cast<void*>(buf_)) std::decay_t<F>(std::forward<F>(f));
  }

  // Oversized / overaligned / throwing-move capture: compile error. Shrink
  // the capture list or park the payload behind a pointer the caller owns —
  // an EventFn must never heap-allocate.
  template <typename F>
    requires(!std::is_same_v<std::decay_t<F>, EventFn> &&
             std::is_invocable_r_v<void, std::decay_t<F>&> && !fits<F>())
  EventFn(F&&) = delete;

  EventFn(EventFn&& other) noexcept { move_from(other); }
  EventFn& operator=(EventFn&& other) noexcept {
    if (this != &other) {
      reset();
      move_from(other);
    }
    return *this;
  }
  EventFn(const EventFn&) = delete;
  EventFn& operator=(const EventFn&) = delete;
  ~EventFn() { reset(); }

  // Constructs a callable in place (destroying any current one): the
  // allocation-free equivalent of assignment from a lambda, used by the
  // event slab to build the closure directly in its record instead of
  // relocating a temporary EventFn.
  template <typename F>
    requires(!std::is_same_v<std::decay_t<F>, EventFn> &&
             std::is_invocable_r_v<void, std::decay_t<F>&> && fits<F>())
  void emplace(F&& f) {
    reset();
    ::new (static_cast<void*>(buf_)) std::decay_t<F>(std::forward<F>(f));
    vt_ = &kVTableFor<std::decay_t<F>>;
  }

  [[nodiscard]] explicit operator bool() const { return vt_ != nullptr; }

  // Invokes the wrapped callable; must be non-empty.
  void operator()() { vt_->invoke(buf_); }

  // Destroys the wrapped callable (if any), leaving the EventFn empty.
  void reset() noexcept {
    if (vt_ != nullptr) {
      vt_->destroy(buf_);
      vt_ = nullptr;
    }
  }

private:
  struct VTable {
    void (*invoke)(void*);
    void (*relocate)(void* dst, void* src) noexcept; // move-construct + destroy src
    void (*destroy)(void*) noexcept;
  };

  template <typename F>
  static void invoke_impl(void* p) {
    (*std::launder(static_cast<F*>(p)))();
  }
  template <typename F>
  static void relocate_impl(void* dst, void* src) noexcept {
    F* s = std::launder(static_cast<F*>(src));
    ::new (dst) F(std::move(*s));
    s->~F();
  }
  template <typename F>
  static void destroy_impl(void* p) noexcept {
    std::launder(static_cast<F*>(p))->~F();
  }

  template <typename F>
  static constexpr VTable kVTableFor{&invoke_impl<F>, &relocate_impl<F>, &destroy_impl<F>};

  void move_from(EventFn& other) noexcept {
    vt_ = other.vt_;
    if (vt_ != nullptr) {
      vt_->relocate(buf_, other.buf_);
      other.vt_ = nullptr;
    }
  }

  const VTable* vt_ = nullptr;
  alignas(kInlineAlign) unsigned char buf_[kInlineBytes];
};

// A stream's handler: a void(std::uint64_t) callable, stored once per stream
// and called with each entry's arg. Its capture must be trivially copyable
// and at most 16 bytes (`this` plus a pointer or an index), which a
// constraint checks at compile time: the engine copies the handler out of
// its stream table for each call, so a handler may open streams while it
// runs.
class StreamFn {
public:
  static constexpr std::size_t kInlineBytes = 16;

  template <typename F>
    requires(!std::is_same_v<std::decay_t<F>, StreamFn> &&
             std::is_invocable_r_v<void, const std::decay_t<F>&, std::uint64_t> &&
             std::is_trivially_copyable_v<std::decay_t<F>> &&
             sizeof(std::decay_t<F>) <= kInlineBytes &&
             alignof(std::decay_t<F>) <= alignof(std::uint64_t))
  // NOLINTNEXTLINE(google-explicit-constructor): implicit by design — every
  // open_stream call site passes a bare lambda.
  StreamFn(F&& f) : invoke_(&invoke_impl<std::decay_t<F>>) {
    ::new (static_cast<void*>(buf_)) std::decay_t<F>(std::forward<F>(f));
  }

  void operator()(std::uint64_t arg) const { invoke_(buf_, arg); }

private:
  template <typename F>
  static void invoke_impl(const void* p, std::uint64_t arg) {
    (*std::launder(static_cast<const F*>(p)))(arg);
  }

  void (*invoke_)(const void*, std::uint64_t);
  alignas(std::uint64_t) unsigned char buf_[kInlineBytes];
};

} // namespace switchml::sim
