#include "common/tracing.hpp"

#include <fstream>
#include <stdexcept>

#include "common/json.hpp"
#include "common/log.hpp"

namespace switchml::trace {

namespace {

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

TraceSink::TraceSink(std::size_t capacity, unsigned mask)
    : mask_(mask & kCatAll), capacity_(capacity) {
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
  // One json::Value per event, dumped straight away between the envelope's
  // two literal halves: a tree of every event would hold ~1.6 KB per event,
  // some 18x the 88-byte Event the sink buffers.
  std::string out = "{\"traceEvents\":[";
  bool first = true;
  const auto append = [&out, &first](const json::Value& event) {
    if (!first) out += ',';
    first = false;
    out += event.dump();
  };
  // thread_name metadata rows first so viewers label every tid.
  for (const auto& [id, name] : actors_)
    append(json::Object{{"name", "thread_name"}, {"ph", "M"}, {"pid", 1},
                        {"tid", std::int64_t{id}}, {"args", json::Object{{"name", name}}}});
  for (const Event& e : events_) {
    // Flow events bind by (cat, name, id) and render as arrows between the
    // actors they touch; "bp":"e" attaches the terminating step to the
    // enclosing slice the way Perfetto expects. Everything else is an
    // instant event carrying its args.
    const bool flow = e.flow != FlowPhase::kNone;
    json::Value row(json::Object{});
    row.set("name", e.name);
    if (flow) {
      row.set("ph", e.flow == FlowPhase::kStart ? "s" : e.flow == FlowPhase::kStep ? "t" : "f");
      row.set("id", static_cast<std::int64_t>(e.flow_id));
    } else {
      row.set("ph", "i");
      row.set("s", "t");
    }
    row.set("pid", 1);
    row.set("tid", std::int64_t{e.node});
    // Chrome trace timestamps are microseconds; keep ns resolution as a
    // fractional part.
    row.set("ts", static_cast<double>(e.ts) / 1e3);
    row.set("cat", kCategoryNames[cat_index(e.cat)]);
    if (e.flow == FlowPhase::kEnd) row.set("bp", "e");
    if (!flow) {
      json::Value args(json::Object{});
      for (const Arg* a : {&e.a0, &e.a1, &e.a2})
        if (a->key != nullptr) args.set(a->key, a->value);
      row.set("args", std::move(args));
    }
    append(row);
  }
  json::Value other(json::Object{});
  for (unsigned i = 0; i < kCategoryCount; ++i)
    other.set(std::string("dropped_") + kCategoryNames[i], static_cast<std::int64_t>(drops_[i]));
  out += "],\"otherData\":";
  out += other.dump();
  out += '}';
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
  return out;
}

void TraceSink::write_chrome_json(const std::string& path) const {
  std::ofstream out(path, std::ios::trunc);
  if (!out) throw std::runtime_error("TraceSink: cannot open '" + path + "' for writing");
  out << chrome_json() << '\n';
}

} // namespace switchml::trace
