// Packet representation shared by the SwitchML data path and the baseline
// transports.
//
// Wire-size accounting follows the paper (§3.4, §5.5): a SwitchML update
// packet carrying k=32 32-bit elements is 180 bytes on the wire
// (Ethernet 14 + IPv4 20 + UDP 8 + SwitchML 10 + 128 payload), and the
// MTU-sized variant carrying 366 elements is 1516 bytes.
#pragma once

#include <cstdint>
#include <vector>

#include "common/int_telemetry.hpp"

namespace switchml::net {

using NodeId = std::uint32_t;
constexpr NodeId kBroadcast = 0xFFFFFFFF;

enum class PacketKind : std::uint8_t {
  SmlUpdate,       // worker -> switch model-update piece (Algorithm 2/4)
  SmlResult,       // switch -> worker aggregated piece (multicast or unicast)
  SmlSyncQuery,    // worker -> switch slot-state probe (recovery escalation)
  SmlSyncResponse, // switch -> worker slot-state snapshot (epoch, counts, seen)
  SmlRescue,       // worker -> switch re-contribution of a completed phase
  Segment,         // reliable byte-stream data segment (baselines)
  Ack,             // reliable byte-stream cumulative acknowledgment
  Raw,             // anything else
};

// Fixed header sizes in bytes (Ethernet + IPv4 + L4 + app header).
constexpr std::uint32_t kSmlHeaderBytes = 52;   // 14 + 20 + 8 + 10
constexpr std::uint32_t kSegmentHeaderBytes = 54; // 14 + 20 + 20 (TCP-like)
constexpr std::uint32_t kAckWireBytes = 64;     // minimum Ethernet frame

// Which host transport carried (or will carry) a packet. The reference
// implementation ships two transports: the DPDK/UDP datapath (per-packet
// software cost, 180-byte packets) and RDMA UC (message-level work queues,
// NIC-side segmentation, loss left to SwitchML's own slot protocol). The
// kind is stamped on every SwitchML packet by its sender so wire accounting
// and the switch's echoes stay consistent end to end.
enum class TransportKind : std::uint8_t { kUdp, kRdmaUc };

// RDMA-UC (RoCEv2) framing: the NIC segments one message into path-MTU
// chunks, each framed as Eth 14 + IPv4 20 + UDP 8 + BTH 12 + ICRC 4. The
// 10-byte SwitchML header rides once per message, in front of the payload.
constexpr std::uint32_t kRdmaMtuBytes = 4096;
constexpr std::uint32_t kRdmaSegmentHeaderBytes = 58;
constexpr std::uint32_t kRdmaAppHeaderBytes = 10;

// Messages this large keep the RDMA transport wire-bound at 100 Gbps (the
// paper's RDMA prototype aggregates 1024-element messages).
constexpr std::uint32_t kRdmaElemsPerMessage = 1024;

#ifdef SWITCHML_DEFAULT_TRANSPORT_RDMA
constexpr TransportKind kDefaultTransport = TransportKind::kRdmaUc;
#else
constexpr TransportKind kDefaultTransport = TransportKind::kUdp;
#endif

// "No claim at this version" marker for SmlSyncResponse's sync_off fields.
constexpr std::uint64_t kNoClaimOff = ~0ull;

// Default SwitchML payload geometry (§3.4): k = 32 elements per packet.
constexpr std::uint32_t kDefaultElemsPerPacket = 32;
// MTU-sized variant (§5.5): 366 elements in a 1516-byte frame.
constexpr std::uint32_t kMtuElemsPerPacket = 366;

struct Packet {
  PacketKind kind = PacketKind::Raw;
  NodeId src = 0;
  NodeId dst = 0;
  std::uint8_t job = 0; // multi-tenant pool selector (§6)
  // Transport that framed this packet; determines wire_bytes() for the
  // SwitchML kinds. Like int_mode it is transport metadata, outside the
  // end-to-end checksum. The switch copies it onto results and sync replies
  // so the return path is framed like the request path.
  TransportKind transport = TransportKind::kUdp;

  // --- SwitchML header (SmlUpdate / SmlResult) ---
  std::uint16_t wid = 0;  // worker id
  std::uint8_t ver = 0;   // single-bit pool version (Algorithm 3/4)
  std::uint32_t idx = 0;  // aggregator slot index
  std::uint64_t off = 0;  // element offset into the model update
  // Switch incarnation number, bumped by every dataplane restart and stamped
  // on every result/sync packet the switch emits. Rides otherwise-unused bits
  // of the 10-byte SwitchML header, so it does not change wire_bytes().
  std::uint32_t epoch = 0;

  // --- SmlSyncResponse payload: the switch's view of one slot -------------
  // Per-version mod-n counter, the offset of the version's current claim
  // (kNoClaimOff when count == 0), and the querying worker's seen bits
  // (bit 0 = version 0, bit 1 = version 1).
  std::uint32_t sync_count0 = 0;
  std::uint32_t sync_count1 = 0;
  std::uint64_t sync_off0 = 0;
  std::uint64_t sync_off1 = 0;
  std::uint8_t sync_seen = 0;

  // --- reliable transport header (Segment / Ack) ---
  std::uint32_t stream = 0;
  std::uint64_t seq = 0;     // first payload byte (Segment) / cumulative ack (Ack)
  std::uint32_t seg_len = 0; // payload bytes carried by a Segment

  // --- payload accounting ---
  std::uint32_t elem_count = 0; // vector elements carried (SmlUpdate/SmlResult)
  std::uint8_t elem_bytes = 4;  // wire bytes per element (4 = int32, 2 = fp16)

  // Optional real data. Empty in timing-only runs, where only the size
  // accounting above matters.
  std::vector<std::int32_t> values; // SwitchML integer payload
  std::vector<float> fvalues;       // baseline float payload

  // --- in-band telemetry (SmlUpdate / SmlResult / SmlRescue) --------------
  // inttel::kMode*: off (default), phantom (stamped, zero wire bytes), or
  // on-wire (stamped, honestly charged below). The stack is the encoded
  // shim + hop records; hops append via inttel::append_record. Both fields
  // are excluded from the checksum — INT metadata mutates at every hop, so
  // (like a real INT deployment's hop-by-hop headers) it sits outside the
  // end-to-end integrity check.
  std::uint8_t int_mode = inttel::kModeOff;
  std::vector<std::uint8_t> int_stack;

  // Wire bytes the telemetry stack adds: zero unless in on-wire mode and
  // non-empty.
  [[nodiscard]] std::uint32_t int_wire_bytes() const {
    if (int_mode != inttel::kModeOnWire) return 0;
    return inttel::stack_wire_bytes(int_stack);
  }

  // §3.4: "A simple checksum can be used to detect corruption and discard
  // corrupted packets." seal() computes it at the sender; verify()
  // recomputes it at the receiver. Wire corruption (bit flips injected by
  // Link::set_corrupt_filter) makes verify() fail, and the receiver treats
  // the packet as lost.
  //
  // Coverage: kind, wid, ver, idx, off, job, elem_count, epoch, the sync_*
  // fields, every value and the value count. The rest is outside it: src,
  // dst, transport, the int_* telemetry fields, elem_bytes and the
  // reliable-transport fields (segments are never sealed). The hash is
  // 64-bit FNV-1a over 64-bit words, each covered field in exactly one word
  // and the values two to a word. Each step h = (h ^ w) * P (P odd) is a
  // bijection in both h and w, so ANY change confined to one word — e.g.
  // any number of flipped bits in one field, or in one pair of values — is
  // always detected.
  std::uint64_t checksum = 0;
  void seal() { checksum = compute_checksum(); }
  [[nodiscard]] bool verify() const { return checksum == compute_checksum(); }

  [[nodiscard]] std::uint32_t wire_bytes() const;

  // The header of an answer to `from` (a result, or a sync response): its
  // job, wid, ver, idx, off, element count and width, INT mode and
  // transport. The responder fills in src, dst, epoch and the payload.
  [[nodiscard]] static Packet reply(PacketKind kind, const Packet& from) {
    Packet r;
    r.kind = kind;
    r.job = from.job;
    r.transport = from.transport;
    r.wid = from.wid;
    r.ver = from.ver;
    r.idx = from.idx;
    r.off = from.off;
    r.elem_count = from.elem_count;
    r.elem_bytes = from.elem_bytes;
    r.int_mode = from.int_mode;
    return r;
  }

private:
  [[nodiscard]] std::uint64_t compute_checksum() const;
};

const char* to_string(PacketKind k);

} // namespace switchml::net
