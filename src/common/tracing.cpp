#include "common/tracing.hpp"

#include <cstdio>
#include <fstream>
#include <sstream>
#include <stdexcept>

#include "common/json.hpp"
#include "common/log.hpp"

namespace switchml::trace {

namespace {

TraceSink*& ambient_sink() {
  thread_local TraceSink* current = nullptr;
  return current;
}

constexpr const char* kCategoryNames[kCategoryCount] = {"switch", "worker", "link", "transport",
                                                        "fault",  "flow"};

// Index of the lowest set bit; events carry exactly one category bit.
int cat_index(unsigned cat) {
  for (int i = 0; i < static_cast<int>(kCategoryCount); ++i)
    if (cat & (1u << i)) return i;
  return 0;
}

} // namespace

unsigned parse_mask(std::string_view names) {
  unsigned mask = 0;
  std::size_t pos = 0;
  while (pos <= names.size()) {
    const std::size_t comma = names.find(',', pos);
    const std::string_view tok =
        names.substr(pos, comma == std::string_view::npos ? names.size() - pos : comma - pos);
    pos = comma == std::string_view::npos ? names.size() + 1 : comma + 1;
    if (tok.empty()) continue;
    if (tok == "all") {
      mask |= kCatAll;
      continue;
    }
    bool found = false;
    for (unsigned i = 0; i < kCategoryCount; ++i) {
      if (tok == kCategoryNames[i]) {
        mask |= 1u << i;
        found = true;
        break;
      }
    }
    if (!found)
      throw std::invalid_argument("unknown trace category '" + std::string(tok) +
                                  "' (expected switch, worker, link, transport, fault, flow, "
                                  "or all)");
  }
  return mask;
}

const char* category_name(unsigned cat) { return kCategoryNames[cat_index(cat)]; }

TraceSink::TraceSink(std::size_t capacity, unsigned mask) : mask_(mask), capacity_(capacity) {
  events_.reserve(capacity_);
}

void TraceSink::record(unsigned cat, Time ts, std::uint32_t node, const char* name, Arg a0,
                       Arg a1, Arg a2) {
  if (events_.size() >= capacity_) {
    ++drops_[cat_index(cat)];
    return;
  }
  events_.push_back(Event{ts, node, cat, name, a0, a1, a2, 0, FlowPhase::kNone});
}

void TraceSink::record_flow(unsigned cat, Time ts, std::uint32_t node, const char* name,
                            std::uint64_t flow_id, FlowPhase phase) {
  if (events_.size() >= capacity_) {
    ++drops_[cat_index(cat)];
    return;
  }
  events_.push_back(Event{ts, node, cat, name, {}, {}, {}, flow_id, phase});
}

void TraceSink::register_actor(std::uint32_t id, std::string name) {
  for (auto& [aid, aname] : actors_) {
    if (aid == id) {
      aname = std::move(name);
      return;
    }
  }
  actors_.emplace_back(id, std::move(name));
}

std::uint64_t TraceSink::drops(unsigned cat) const { return drops_[cat_index(cat)]; }

std::uint64_t TraceSink::total_drops() const {
  std::uint64_t total = 0;
  for (std::uint64_t d : drops_) total += d;
  return total;
}

std::string TraceSink::chrome_json() const {
  std::ostringstream out;
  out << "{\"traceEvents\":[";
  bool first = true;
  // thread_name metadata rows first so viewers label every tid.
  for (const auto& [id, name] : actors_) {
    if (!first) out << ',';
    first = false;
    out << "{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":1,\"tid\":" << id
        << ",\"args\":{\"name\":" << json::quote(name) << "}}";
  }
  char ts_buf[32];
  for (const Event& e : events_) {
    if (!first) out << ',';
    first = false;
    // Chrome trace timestamps are microseconds; keep ns resolution as a
    // fractional part.
    std::snprintf(ts_buf, sizeof(ts_buf), "%.3f", static_cast<double>(e.ts) / 1e3);
    if (e.flow != FlowPhase::kNone) {
      // Flow events bind by (cat, name, id) and render as arrows between the
      // actors they touch; "bp":"e" attaches the terminating step to the
      // enclosing slice the way Perfetto expects.
      const char ph = e.flow == FlowPhase::kStart ? 's' : e.flow == FlowPhase::kStep ? 't' : 'f';
      out << "{\"name\":" << json::quote(e.name) << ",\"ph\":\"" << ph
          << "\",\"id\":" << e.flow_id << ",\"pid\":1,\"tid\":" << e.node << ",\"ts\":" << ts_buf
          << ",\"cat\":\"" << kCategoryNames[cat_index(e.cat)] << '"';
      if (ph == 'f') out << ",\"bp\":\"e\"";
      out << "}";
      continue;
    }
    out << "{\"name\":" << json::quote(e.name) << ",\"ph\":\"i\",\"s\":\"t\",\"pid\":1,\"tid\":"
        << e.node << ",\"ts\":" << ts_buf << ",\"cat\":\""
        << kCategoryNames[cat_index(e.cat)] << "\",\"args\":{";
    bool first_arg = true;
    for (const Arg* a : {&e.a0, &e.a1, &e.a2}) {
      if (a->key == nullptr) continue;
      if (!first_arg) out << ',';
      first_arg = false;
      out << json::quote(a->key) << ':' << a->value;
    }
    out << "}}";
  }
  out << "],\"otherData\":{";
  for (unsigned i = 0; i < kCategoryCount; ++i) {
    if (i != 0) out << ',';
    out << "\"dropped_" << kCategoryNames[i] << "\":" << drops_[i];
  }
  out << "}}";
  if (total_drops() > 0 && log_level() <= LogLevel::Warn) {
    LogLine warn(LogLevel::Warn);
    warn << "TraceSink: exported trace is truncated — " << total_drops()
         << " event(s) dropped at capacity " << capacity_ << " (";
    for (unsigned i = 0, n = 0; i < kCategoryCount; ++i) {
      if (drops_[i] == 0) continue;
      if (n++ != 0) warn << ", ";
      warn << kCategoryNames[i] << ": " << drops_[i];
    }
    warn << "); raise the sink capacity or narrow the category mask";
  }
  return out.str();
}

void TraceSink::write_chrome_json(const std::string& path) const {
  std::ofstream out(path, std::ios::trunc);
  if (!out) throw std::runtime_error("TraceSink: cannot open '" + path + "' for writing");
  out << chrome_json() << '\n';
}

TraceSink* TraceSink::current() { return ambient_sink(); }

TraceSink::Scope::Scope(TraceSink* sink) : prev_(ambient_sink()) { ambient_sink() = sink; }

TraceSink::Scope::~Scope() { ambient_sink() = prev_; }

} // namespace switchml::trace
