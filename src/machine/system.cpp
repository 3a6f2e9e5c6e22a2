#include "machine/system.hpp"

namespace xd::machine {

System::System(const SystemConfig& cfg) : cfg_(cfg), links_(cfg) {
  for (unsigned i = 0; i < cfg.chassis_count; ++i) {
    chassis_.push_back(std::make_unique<Chassis>(cfg.chassis, i, links_));
  }
}

void System::tick() {
  for (auto& c : chassis_) c->tick();
  links_.tick_interchassis();
}

unsigned System::total_fpgas() const {
  unsigned n = 0;
  for (const auto& c : chassis_) n += c->node_count();
  return n;
}

}  // namespace xd::machine
