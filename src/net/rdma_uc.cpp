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

RdmaUc::RdmaUc(const std::string& name, NodeId owner, const RdmaUcParams& params)
    : owner_(owner), params_(params) {
  if (params.doorbell_batch < 1) throw std::invalid_argument("RdmaUc: doorbell_batch must be >= 1");
  if (auto* reg = MetricsRegistry::current()) {
    const std::string p = name + ".rdma.";
    reg->add_counter(p + "wqes_posted", [this] { return counters_.wqes_posted; });
    reg->add_counter(p + "doorbells", [this] { return counters_.doorbells; });
    reg->add_counter(p + "cqes_polled", [this] { return counters_.cqes_polled; });
    reg->add_counter(p + "wire_segments", [this] { return counters_.wire_segments; });
    reg->add_counter(p + "payload_bytes", [this] { return counters_.payload_bytes; });
  }
}

std::uint32_t RdmaUc::segments_of(const Packet& p) {
  const std::uint32_t payload = payload_of(p);
  return std::max<std::uint32_t>(1, (payload + kRdmaMtuBytes - 1) / kRdmaMtuBytes);
}

Time RdmaUc::post(int lane, const Packet& p, Time now) {
  const std::uint32_t nseg = segments_of(p);
  ++counters_.wqes_posted;
  counters_.wire_segments += nseg;
  counters_.payload_bytes += payload_of(p);
  if (++posts_since_doorbell_ >= static_cast<std::uint64_t>(params_.doorbell_batch)) {
    posts_since_doorbell_ = 0;
    ++counters_.doorbells;
  }
  trace::emit(trace::kCatTransport, now, owner_, "wqe_post", {"lane", lane}, {"segs", nseg},
              {"bytes", p.wire_bytes()});
  return static_cast<Time>(static_cast<double>(params_.wqe_post) +
                           static_cast<double>(params_.doorbell) /
                               static_cast<double>(params_.doorbell_batch));
}

Time RdmaUc::reap(int lane, const Packet& p, Time now) {
  ++counters_.cqes_polled;
  trace::emit(trace::kCatTransport, now, owner_, "cqe", {"lane", lane}, {"segs", segments_of(p)},
              {"bytes", p.wire_bytes()});
  return params_.cqe_poll;
}

} // namespace switchml::net
