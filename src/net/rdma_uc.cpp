#include "net/rdma_uc.hpp"

#include <algorithm>
#include <stdexcept>

#include "common/metrics.hpp"
#include "common/tracing.hpp"

namespace switchml::net {

namespace {
// Message payload as the NIC sees it: SwitchML header + elements + on-wire
// telemetry. Sync queries/responses are header-only messages.
std::uint32_t payload_of(const Packet& p) {
  switch (p.kind) {
    case PacketKind::SmlUpdate:
    case PacketKind::SmlResult:
    case PacketKind::SmlRescue:
      return kRdmaAppHeaderBytes + p.elem_count * p.elem_bytes + p.int_wire_bytes();
    default:
      return kRdmaAppHeaderBytes;
  }
}
} // namespace

RdmaUcChannel::RdmaUcChannel(sim::Simulation& simulation, std::string name, NodeId owner,
                             HostNic& nic, const RdmaUcParams& params)
    : sim_(simulation), name_(std::move(name)), owner_(owner), nic_(nic), params_(params) {
  if (params.doorbell_batch < 1)
    throw std::invalid_argument("RdmaUcChannel: doorbell_batch must be >= 1");
  busy_.assign(static_cast<std::size_t>(nic_.cores()), 0);
  rx_stream0_ = simulation.open_streams(static_cast<std::uint32_t>(nic_.cores()));
  if (auto* reg = MetricsRegistry::current()) {
    const std::string p = name_ + ".rdma.";
    reg->add_counter(p + "wqes_posted", [this] { return counters_.wqes_posted; });
    reg->add_counter(p + "doorbells", [this] { return counters_.doorbells; });
    reg->add_counter(p + "cqes_polled", [this] { return counters_.cqes_polled; });
    reg->add_counter(p + "wire_segments", [this] { return counters_.wire_segments; });
    reg->add_counter(p + "payload_bytes", [this] { return counters_.payload_bytes; });
  }
}

std::uint32_t RdmaUcChannel::segments_of(const Packet& p) const {
  const std::uint32_t payload = payload_of(p);
  return std::max<std::uint32_t>(1, (payload + kRdmaMtuBytes - 1) / kRdmaMtuBytes);
}

Time RdmaUcChannel::occupy(int lane, Time cost) {
  // Same shape as HostNic::occupy, with the host's straggler slowdown applied
  // to the CPU cost (cost-neutral at exactly 1.0, like the NIC model).
  if (nic_.slowdown() != 1.0)
    cost = static_cast<Time>(static_cast<double>(cost) * nic_.slowdown());
  auto& b = busy_.at(static_cast<std::size_t>(lane));
  const Time start = std::max(sim_.now(), b);
  b = start + cost;
  total_busy_ += cost;
  return b;
}

Time RdmaUcChannel::tx_ready(int lane, const Packet& p) {
  const std::uint32_t nseg = segments_of(p);
  ++counters_.wqes_posted;
  counters_.wire_segments += nseg;
  counters_.payload_bytes += payload_of(p);
  if (++posts_since_doorbell_ >= static_cast<std::uint64_t>(params_.doorbell_batch)) {
    posts_since_doorbell_ = 0;
    ++counters_.doorbells;
  }
  // One WQE per message, doorbell amortized over the posting batch; the NIC
  // does the segmentation, so no per-byte (or per-segment) CPU term.
  const Time cost = static_cast<Time>(static_cast<double>(params_.wqe_post) +
                                      static_cast<double>(params_.doorbell) /
                                          static_cast<double>(params_.doorbell_batch));
  const Time wire = occupy(lane, cost) + params_.tx_latency;
  trace::emit(trace::kCatTransport, sim_.now(), owner_, "wqe_post", {"lane", lane},
              {"segs", nseg}, {"bytes", p.wire_bytes()});
  return wire;
}

void RdmaUcChannel::rx_process(int lane, const Packet& p, sim::EventFn deliver) {
  ++counters_.cqes_polled;
  trace::emit(trace::kCatTransport, sim_.now(), owner_, "cqe", {"lane", lane},
              {"segs", segments_of(p)}, {"bytes", p.wire_bytes()});
  const Time done = occupy(lane, params_.cqe_poll);
  sim_.schedule_on(rx_stream0_ + static_cast<sim::StreamId>(lane), done + params_.rx_latency,
                   std::move(deliver));
}

std::unique_ptr<Channel> make_channel(sim::Simulation& simulation, const std::string& name,
                                      NodeId owner, TransportKind kind, HostNic& nic,
                                      const RdmaUcParams& rdma) {
  if (kind == TransportKind::kRdmaUc)
    return std::make_unique<RdmaUcChannel>(simulation, name, owner, nic, rdma);
  return std::make_unique<UdpChannel>(nic);
}

} // namespace switchml::net
