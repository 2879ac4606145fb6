// Figure 8: TAT when aggregating native int32 tensors (no scaling or
// conversion), float32 tensors (scale + convert on the worker), and
// half-precision float16 tensors (half the wire bytes, switch-side table
// conversion), for SwitchML and Gloo, with line-rate references.
//
// Methodology: we measure the REAL conversion cost of the §5.5 pipeline
// (float32 -> scale -> int32 -> htonl, and the reverse) on this machine's
// CPU, then charge it to the simulated workers' NIC cores as per-byte work —
// exactly where the paper's SSE/AVX conversion runs (inside the DPDK
// processing loop). Shape to reproduce: float32 is indistinguishable from
// int32 because the conversion rides idle core headroom, and float16 halves
// the TAT.
#include <chrono>
#include <cstdio>

#include "bench_util.hpp"
#include "quant/fixed_point.hpp"

using namespace switchml;
using namespace switchml::bench;

namespace {

// Real measured cost of the full wire pipeline, in ns per tensor byte.
double conversion_ns_per_byte() {
  const std::size_t n = 1 << 22;
  std::vector<float> x(n, 1.2345f);
  std::vector<std::int32_t> q(n);
  const auto t0 = std::chrono::steady_clock::now();
  quant::quantize(x, 1e6, q);
  quant::htonl_inplace(q);
  quant::ntohl_inplace(q);
  quant::dequantize(q, 1e6, x);
  const auto t1 = std::chrono::steady_clock::now();
  const double ns = std::chrono::duration<double, std::nano>(t1 - t0).count();
  // Half the pipeline runs on the TX path, half on RX; report per direction.
  return ns / 2.0 / (static_cast<double>(n) * 4.0);
}

} // namespace

int main(int argc, char** argv) {
  const BenchScale scale = BenchScale::from_args(argc, argv, 4'000'000, 2);
  const BitsPerSecond rate = gbps(10);
  const int workers = 8;

  std::printf("=== Figure 8: TAT by data type (10 Gbps, 8 workers, %.1f MB tensor) ===\n",
              static_cast<double>(scale.tensor_elems) * 4 / 1e6);

  MetricsSidecar sidecar("fig8_datatypes_metrics.json");
  const TimelineRequest timeline_req = TimelineRequest::from_args(argc, argv, msec(1));
  BenchReport report("fig8_datatypes", argc, argv);
  const double conv = conversion_ns_per_byte();
  // SwitchML with `wire_elem_bytes` per element on the wire. The per-byte
  // conversion work rides the per-packet processing loop, so it is charged
  // to the NIC cores.
  const auto switchml = [&](std::uint8_t wire_elem_bytes, double conv_ns_per_byte,
                            const std::string& label) {
    core::ClusterConfig cfg = core::ClusterConfig::for_rate(rate, workers);
    cfg.wire_elem_bytes = wire_elem_bytes;
    cfg.nic.per_byte_tx += conv_ns_per_byte;
    cfg.nic.per_byte_rx += conv_ns_per_byte;
    return measure_switchml(cfg, scale, {&sidecar, label, &timeline_req});
  };

  // int32 native: identical wire format, no conversion work.
  const auto int32_r = switchml(4, 0.0, "int32.switchml");
  // float32: same wire format + the measured conversion cost per byte on the
  // worker cores.
  const auto f32_r = switchml(4, conv, "float32.switchml");
  // float16: half the payload bytes on the wire (conversion cost included;
  // halves are produced by the same vectorized loop).
  const auto f16_r = switchml(2, conv, "float16.switchml");

  const auto gloo = measure_baseline(BaselineKind::GlooRing, rate, workers, scale, 0.0,
                                     {&sidecar, "float32.gloo", &timeline_req});

  // int32/gloo TATs are sim-deterministic; the float paths fold in the
  // host-measured conversion cost, so they get the loose tolerance.
  report.add("int32.switchml.tat_ms", int32_r.tat_ms);
  report.add("float32.switchml.tat_ms", f32_r.tat_ms, BenchReport::kLooseTol);
  report.add("float16.switchml.tat_ms", f16_r.tat_ms, BenchReport::kLooseTol);
  report.add("float32.gloo.tat_ms", gloo.tat_ms);
  report.add("conversion_ns_per_byte", conv, BenchReport::kLooseTol);

  const double line_ms =
      collectives::tat_seconds_at(
          collectives::switchml_ate_rate(rate, net::kDefaultElemsPerPacket),
          scale.tensor_elems) * 1e3;
  const double line16_ms =
      collectives::tat_seconds_at(
          collectives::switchml_ate_rate(rate, net::kDefaultElemsPerPacket, 2),
          scale.tensor_elems) * 1e3;

  Table table({"data type", "SwitchML [ms]", "Gloo [ms]", "line rate [ms]"});
  table.add_row({"int32", Table::num(int32_r.tat_ms), Table::num(gloo.tat_ms),
                 Table::num(line_ms)});
  table.add_row({"float32", Table::num(f32_r.tat_ms), Table::num(gloo.tat_ms),
                 Table::num(line_ms)});
  table.add_row({"float16 (SwitchML 16)", Table::num(f16_r.tat_ms), "-",
                 Table::num(line16_ms)});
  std::printf("%s", table.to_string().c_str());
  std::printf("(measured conversion cost: %.3f ns/byte/direction; float32 overhead vs int32: "
              "%.1f%%)\n",
              conv, (f32_r.tat_ms / int32_r.tat_ms - 1.0) * 100);
  const std::string written = sidecar.write();
  if (!written.empty()) std::printf("telemetry sidecar: %s\n", written.c_str());
  const std::string rep = report.write();
  if (!rep.empty()) std::printf("bench report: %s\n", rep.c_str());
  return 0;
}
