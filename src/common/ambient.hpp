// Ambient scoped pointer, one per thread, shared by the observers that
// instrumentation points find without plumbing (MetricsRegistry, TraceSink,
// SpanLedger).
//
// `T` derives from Ambient<T>. T::current() is the innermost installed T, or
// nullptr; it is an inline read of one thread-local pointer, so a hot-path
// check with nothing installed costs one load and a branch. T::Scope installs
// a pointer for its lifetime and restores the previous one on destruction, so
// scopes nest; Scope(nullptr) masks an outer pointer.
#pragma once

namespace switchml {

template <class T>
class Ambient {
public:
  [[nodiscard]] static T* current() { return current_; }

  // RAII installer; nests (the previous pointer is restored on destruction).
  class Scope {
  public:
    explicit Scope(T* ptr) : prev_(current_) { current_ = ptr; }
    ~Scope() { current_ = prev_; }
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

  private:
    T* prev_;
  };

private:
  static inline thread_local T* current_ = nullptr;
};

} // namespace switchml
