// The packets in a FIFO pipe: one link direction's ledger or one NIC lane's
// queue, addressed by running position (a link's position is the record's
// seq).
//
// Entries live in fixed chunks of kChunk. A power-of-two ring of chunk
// pointers maps a position's chunk (pos / kChunk) to its storage, so at(pos)
// is one pointer load plus the entry. A queued entry never moves: a chunk
// stays where it was allocated, and only the pointer ring grows (doubling,
// one pointer per chunk in use, never shrunk). A chunk that pop_front
// empties is kept as one of at most kSpares spares and refilled by the next
// push that opens a chunk, so a rolling pipe allocates nothing. Spares past
// the cap are freed: a pipe that kept every chunk it ever used would hold
// its peak, and memory follows the packets in flight instead.
//
// Positions are never rewound. clear() destroys every entry and leaves head
// at tail, so a position handed out before it stays below head. With
// _GLIBCXX_ASSERTIONS defined (the sanitizer build) a position outside
// [head, tail) aborts, as an out-of-range std::deque index does there.
#pragma once

#include <cstddef>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <new>
#include <utility>

namespace switchml::net {

template <typename T>
class PipeFifo {
public:
  static constexpr std::uint64_t kChunk = 16;
  static constexpr std::size_t kSpares = 2;

  PipeFifo() = default;
  // A moved-from pipe is empty at position 0.
  PipeFifo(PipeFifo&& other) noexcept
      : map_(std::move(other.map_)),
        mask_(std::exchange(other.mask_, 0)),
        head_(std::exchange(other.head_, 0)),
        tail_(std::exchange(other.tail_, 0)),
        n_spares_(std::exchange(other.n_spares_, 0)) {
    for (std::size_t i = 0; i < n_spares_; ++i) spares_[i] = other.spares_[i];
  }
  PipeFifo(const PipeFifo&) = delete;
  PipeFifo& operator=(const PipeFifo&) = delete;
  PipeFifo& operator=(PipeFifo&&) = delete;
  ~PipeFifo() {
    clear();
    if (tail_ % kChunk != 0) free_chunk(chunk(tail_ / kChunk)); // kept by clear()
    for (std::size_t i = 0; i < n_spares_; ++i) free_chunk(spares_[i]);
  }

  [[nodiscard]] bool empty() const { return head_ == tail_; }
  // The front entry's position, and the position the next push takes.
  [[nodiscard]] std::uint64_t head() const { return head_; }
  [[nodiscard]] std::uint64_t tail() const { return tail_; }

  T& front() { return at(head_); }
  T& at(std::uint64_t pos) {
#ifdef _GLIBCXX_ASSERTIONS
    if (pos - head_ >= tail_ - head_) out_of_range(pos);
#endif
    return chunk(pos / kChunk)[pos % kChunk];
  }

  // Constructs an entry at position tail() and returns it.
  template <typename... Args>
  T& emplace_back(Args&&... args) {
    const bool opens_chunk = tail_ % kChunk == 0;
    if (opens_chunk) open_chunk(tail_ / kChunk);
    T* entry = &chunk(tail_ / kChunk)[tail_ % kChunk];
    try {
      ::new (static_cast<void*>(entry)) T(std::forward<Args>(args)...);
    } catch (...) {
      if (opens_chunk) release(chunk(tail_ / kChunk));
      throw;
    }
    ++tail_;
    return *entry;
  }

  void pop_front() {
    std::destroy_at(&front());
    if (++head_ % kChunk == 0) release(chunk(head_ / kChunk - 1));
  }

  // Destroys every entry; the position stays where it was.
  void clear() {
    while (!empty()) pop_front();
  }

private:
  static T* allocate_chunk() { return std::allocator<T>{}.allocate(kChunk); }
  static void free_chunk(T* storage) { std::allocator<T>{}.deallocate(storage, kChunk); }

  // The storage of chunk `c` (the positions [c * kChunk, (c + 1) * kChunk)).
  T*& chunk(std::uint64_t c) { return map_[c & mask_]; }

  [[noreturn]] void out_of_range(std::uint64_t pos) const {
    std::fprintf(stderr, "PipeFifo: position %llu outside [%llu, %llu)\n",
                 static_cast<unsigned long long>(pos), static_cast<unsigned long long>(head_),
                 static_cast<unsigned long long>(tail_));
    std::abort();
  }

  // Maps chunk `c`, the one after the last chunk in use, to a spare or a new
  // chunk, doubling the pointer ring first when every slot of it is in use.
  void open_chunk(std::uint64_t c) {
    const std::uint64_t first = head_ / kChunk;
    if (!map_ || c - first > mask_) {
      const std::uint64_t size = map_ ? 2 * (mask_ + 1) : 8;
      auto grown = std::make_unique<T*[]>(size);
      for (std::uint64_t k = first; k < c; ++k) grown[k & (size - 1)] = chunk(k);
      map_ = std::move(grown);
      mask_ = size - 1;
    }
    chunk(c) = n_spares_ != 0 ? spares_[--n_spares_] : allocate_chunk();
  }

  void release(T* storage) {
    if (n_spares_ < kSpares)
      spares_[n_spares_++] = storage;
    else
      free_chunk(storage);
  }

  // Chunks in use: those holding positions [head_, tail_), plus the chunk
  // tail_ points into when it is not the first position of one.
  std::unique_ptr<T*[]> map_;
  std::uint64_t mask_ = 0; // pointer ring size - 1
  std::uint64_t head_ = 0;
  std::uint64_t tail_ = 0;
  T* spares_[kSpares] = {};
  std::size_t n_spares_ = 0;
};

} // namespace switchml::net
