#include "machine/chassis.hpp"

#include "machine/system.hpp"

namespace xd::machine {

Chassis::Chassis(const ChassisConfig& cfg, unsigned index)
    : cfg_(cfg), index_(index), links_(nullptr), slot_(0) {
  SystemConfig alone;
  alone.chassis = cfg;
  alone.chassis_count = 1;
  own_ = std::make_unique<LinkChain>(alone);
  links_ = own_.get();
  add_nodes();
}

Chassis::Chassis(const ChassisConfig& cfg, unsigned index, LinkChain& links)
    : cfg_(cfg), index_(index), links_(&links), slot_(index) {
  require(links.nodes_per_chassis() == cfg.nodes &&
              index < links.chassis_count(),
          "chassis does not fit its link chain");
  add_nodes();
}

void Chassis::add_nodes() {
  for (unsigned i = 0; i < cfg_.nodes; ++i) {
    nodes_.push_back(
        std::make_unique<ComputeNode>(cfg_.node, index_ * cfg_.nodes + i));
  }
}

void Chassis::tick() {
  for (auto& n : nodes_) n->tick();
  links_->tick_chassis(slot_);
}

}  // namespace xd::machine
