#include "dataplane/pipeline.hpp"

namespace switchml::dp {

RegisterArray::RegisterArray(Pipeline& pipeline, std::string name, int stage, std::size_t size)
    : pipeline_(pipeline), name_(std::move(name)), stage_(stage), slots_(size, 0) {
  pipeline_.note_array(*this, stage, bytes());
}

RegisterArray::~RegisterArray() { pipeline_.release_array(bytes()); }

void RegisterArray::check_access(std::size_t index) {
  if (index >= slots_.size())
    throw std::out_of_range("RegisterArray '" + name_ + "': index " + std::to_string(index) +
                            " out of range (size " + std::to_string(slots_.size()) + ")");
  if (last_epoch_ == pipeline_.epoch())
    throw std::logic_error("dataplane constraint violated: register array '" + name_ +
                           "' accessed twice for one packet");
  last_epoch_ = pipeline_.epoch();
  pipeline_.note_access(stage_);
}

std::uint64_t RegisterArray::read(std::size_t index) {
  check_access(index);
  return slots_[index];
}

void RegisterArray::control_plane_fill(std::uint64_t value) {
  for (auto& s : slots_) s = value;
}

} // namespace switchml::dp
