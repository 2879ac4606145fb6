#include "net/packet.hpp"

#include <algorithm>

namespace switchml::net {

namespace {
// RDMA-UC message framing: SwitchML header + payload + telemetry as ONE
// message, segmented by the NIC into path-MTU chunks that each pay the
// RoCE per-segment framing. INT still composes: on-wire telemetry grows
// the message (and can spill it into one more segment), exactly as the
// UDP path charges it inside the packet.
std::uint32_t rdma_message_wire_bytes(std::uint32_t payload) {
  const std::uint32_t nseg = (payload + kRdmaMtuBytes - 1) / kRdmaMtuBytes;
  return payload + std::max<std::uint32_t>(nseg, 1) * kRdmaSegmentHeaderBytes;
}
} // namespace

std::uint32_t Packet::wire_bytes() const {
  switch (kind) {
    case PacketKind::SmlUpdate:
    case PacketKind::SmlResult:
    case PacketKind::SmlRescue:
      if (transport == TransportKind::kRdmaUc)
        return rdma_message_wire_bytes(kRdmaAppHeaderBytes + elem_count * elem_bytes +
                                       int_wire_bytes());
      return kSmlHeaderBytes + elem_count * elem_bytes + int_wire_bytes();
    case PacketKind::SmlSyncQuery:
    case PacketKind::SmlSyncResponse:
      // Headers only. UDP: minimum Ethernet frame; RDMA: a one-segment
      // message carrying just the SwitchML header.
      if (transport == TransportKind::kRdmaUc)
        return rdma_message_wire_bytes(kRdmaAppHeaderBytes);
      return kAckWireBytes;
    case PacketKind::Segment:
      return kSegmentHeaderBytes + seg_len;
    case PacketKind::Ack:
      return kAckWireBytes;
    case PacketKind::Raw:
      return std::max<std::uint32_t>(kAckWireBytes, kSegmentHeaderBytes + seg_len);
  }
  return kAckWireBytes;
}

std::uint64_t Packet::compute_checksum() const {
  // 64-bit FNV-1a, one step per word (layout in packet.hpp: one field per
  // word, two values per word, the value count in the header words).
  std::uint64_t h = 14695981039346656037ull;
  auto mix = [&h](std::uint64_t w) { h = (h ^ w) * 1099511628211ull; };
  auto u64 = [](auto v) { return static_cast<std::uint64_t>(v); };
  auto bits = [](std::int32_t v) -> std::uint64_t { return static_cast<std::uint32_t>(v); };
  mix(u64(kind) | u64(ver) << 8 | u64(wid) << 16 | u64(idx) << 32);
  mix(u64(job) | u64(sync_seen) << 8 | u64(values.size()) << 16);
  mix(u64(elem_count) | u64(epoch) << 32);
  mix(u64(sync_count0) | u64(sync_count1) << 32);
  mix(off);
  mix(sync_off0);
  mix(sync_off1);
  const std::size_t n = values.size();
  std::size_t i = 0;
  for (; i + 1 < n; i += 2) mix(bits(values[i]) | bits(values[i + 1]) << 32);
  if (i < n) mix(bits(values[i]));
  return h;
}

const char* to_string(PacketKind k) {
  switch (k) {
    case PacketKind::SmlUpdate: return "SmlUpdate";
    case PacketKind::SmlResult: return "SmlResult";
    case PacketKind::SmlSyncQuery: return "SmlSyncQuery";
    case PacketKind::SmlSyncResponse: return "SmlSyncResponse";
    case PacketKind::SmlRescue: return "SmlRescue";
    case PacketKind::Segment: return "Segment";
    case PacketKind::Ack: return "Ack";
    case PacketKind::Raw: return "Raw";
  }
  return "?";
}

} // namespace switchml::net
