// Programmable-switch dataplane model.
//
// This captures the RMT/Tofino constraints the paper designs around
// (§3.1, Appendix B) and enforces them at runtime so the SwitchML switch
// program provably fits the hardware's execution model:
//
//  * state lives in register arrays of integer words (no floats, no division);
//  * each register array can be accessed AT MOST ONCE per packet, with a
//    single read-modify-write;
//  * arrays are assigned to pipeline stages, and data dependencies must flow
//    forward: within one packet, accesses must touch non-decreasing stages;
//  * the widest memory access is 64 bits, which SwitchML exploits by packing
//    the two pool versions into the two 32-bit halves of one word so a single
//    access can, e.g., set a bitmap bit for one pool and clear the alternate
//    pool's bit (Appendix B).
//
// Violating any constraint throws — a stand-in for "the P4 compiler rejects
// the program".
#pragma once

#include <cstdint>
#include <stdexcept>
#include <string>
#include <type_traits>
#include <vector>

namespace switchml::dp {

class Pipeline;

// A stateful array of 64-bit registers pinned to one pipeline stage.
class RegisterArray {
public:
  RegisterArray(Pipeline& pipeline, std::string name, int stage, std::size_t size);
  ~RegisterArray();
  RegisterArray(const RegisterArray&) = delete;
  RegisterArray& operator=(const RegisterArray&) = delete;

  [[nodiscard]] const std::string& name() const { return name_; }
  [[nodiscard]] int stage() const { return stage_; }
  [[nodiscard]] std::size_t size() const { return slots_.size(); }
  [[nodiscard]] std::size_t bytes() const { return slots_.size() * sizeof(std::uint64_t); }

  // The single allowed access for the current packet: an atomic
  // read-modify-write implemented by the stage's ALU. `alu` receives the old
  // value and returns the new one; the OLD value is returned to the program
  // (Tofino register actions can export one word). Integer-only by
  // construction. The ALU is a template parameter so the switch program's
  // lambdas inline here: as a std::function their 32-byte captures would
  // heap-allocate on every access. The access checks run on every call.
  template <typename Alu>
    requires std::is_invocable_r_v<std::uint64_t, Alu&, std::uint64_t>
  std::uint64_t rmw(std::size_t index, Alu&& alu) {
    check_access(index);
    std::uint64_t& word = slots_[index];
    const std::uint64_t old = word;
    word = alu(old);
    return old;
  }

  // Read-only access (still counts as the one access for this packet).
  std::uint64_t read(std::size_t index);

  // Out-of-band reset, as done by the control plane between jobs (not part of
  // per-packet processing).
  void control_plane_fill(std::uint64_t value);

private:
  void check_access(std::size_t index);

  Pipeline& pipeline_;
  std::string name_;
  int stage_;
  std::vector<std::uint64_t> slots_;
  std::uint64_t last_epoch_ = 0; // epoch of the most recent access
};

// Tracks per-packet access legality and aggregate statistics.
class Pipeline {
public:
  explicit Pipeline(int num_stages) : num_stages_(num_stages) {
    if (num_stages < 1) throw std::invalid_argument("Pipeline: need at least one stage");
  }

  [[nodiscard]] int num_stages() const { return num_stages_; }

  // Must be called once per packet before any register access.
  void begin_packet() {
    ++epoch_;
    current_stage_ = -1;
    ++packets_;
  }

  [[nodiscard]] std::uint64_t epoch() const { return epoch_; }
  [[nodiscard]] std::uint64_t packets_processed() const { return packets_; }
  [[nodiscard]] std::uint64_t register_accesses() const { return accesses_; }

  // Total dataplane SRAM consumed by registered arrays.
  [[nodiscard]] std::size_t register_bytes() const { return register_bytes_; }

private:
  friend class RegisterArray;

  void note_array(const RegisterArray& array, int stage, std::size_t bytes) {
    if (stage < 0 || stage >= num_stages_)
      throw std::invalid_argument("RegisterArray '" + array.name() + "': stage out of range");
    register_bytes_ += bytes;
  }

  // Control plane freed an array (e.g. a tenant job was evicted).
  void release_array(std::size_t bytes) { register_bytes_ -= bytes; }

  void note_access(int stage) {
    if (stage < current_stage_)
      throw std::logic_error(
          "dataplane constraint violated: register access flows backwards in the pipeline "
          "(stage " +
          std::to_string(stage) + " after stage " + std::to_string(current_stage_) + ")");
    current_stage_ = stage;
    ++accesses_;
  }

  int num_stages_;
  std::uint64_t epoch_ = 0;
  int current_stage_ = -1;
  std::uint64_t packets_ = 0;
  std::uint64_t accesses_ = 0;
  std::size_t register_bytes_ = 0;
};

// --- helpers for the two-halves register layout -----------------------------

// The two pool versions share one 64-bit word: version 0 occupies bits
// [0, 32), version 1 bits [32, 64).
constexpr std::uint64_t half_get(std::uint64_t word, int ver) {
  return (word >> (ver * 32)) & 0xFFFFFFFFull;
}

constexpr std::uint64_t half_set(std::uint64_t word, int ver, std::uint64_t value32) {
  const int shift = ver * 32;
  const std::uint64_t mask = 0xFFFFFFFFull << shift;
  return (word & ~mask) | ((value32 & 0xFFFFFFFFull) << shift);
}

// Interprets a 32-bit half as a signed two's-complement integer (the switch
// ALU operates on integers; gradients are fixed-point int32).
constexpr std::int32_t half_as_i32(std::uint64_t word, int ver) {
  return static_cast<std::int32_t>(static_cast<std::uint32_t>(half_get(word, ver)));
}

constexpr std::uint64_t half_store_i32(std::uint64_t word, int ver, std::int32_t v) {
  return half_set(word, ver, static_cast<std::uint32_t>(v));
}

} // namespace switchml::dp
