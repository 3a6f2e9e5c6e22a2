// Full reconfigurable-system model: multiple chassis connected by RapidArray
// external switches (Sec 6.4.2: a typical XD1 installation has 12 chassis,
// 4 GB/s between chassis). No library path builds a System: its users are
// tests/test_machine.cpp and perfbench's traced `sharded` probe, which
// times building one. The multi-chassis projection bench and the
// chassis-scaling example project from a single-FPGA engine and
// model/projections.hpp without one, and the host shard scheduler
// (host/shard.hpp) builds a machine::LinkChain on its own, without the
// nodes and their memories; SystemConfig (here) and ChassisConfig
// (chassis.hpp) describe the topology for all of them. Every link of the installation — each chassis's RocketIO pairs and the
// inter-chassis links — lives in one machine::LinkChain the System owns
// (links()).
//
// Tick-ordering contract (pinned by tests/test_machine.cpp):
// One System::tick() is one design-clock cycle for every component, advanced
// in a fixed order — each chassis in index order (its nodes, then its
// forward links, then its backward links), then the inter-chassis links in
// index order. Consequences consumers may rely on:
//   - No channel has credit before its first tick; nothing crosses any link
//     in the cycle before the system first ticks.
//   - Every link (intra- and inter-chassis) advances in lockstep: after N
//     System::tick()s each reports cycles() == N.
//   - Producers tick before the links that would carry their output (nodes
//     before chassis links, chassis before inter-chassis links), so a word
//     produced in cycle t can be offered to its outgoing link in cycle t
//     (tick-then-transfer). A same-cycle produce->forward across a chassis
//     boundary is therefore allowed, never ambiguous: the inter-chassis
//     link accrues its cycle-t credit after all chassis-side producers ran.
//   - Transfers at coarser granularity (LinkChain::drive_leg moves a whole
//     panel per leg, costed in closed form rather than ticked) are
//     store-and-forward: a leg completes on the hop's channel before the
//     next hop starts.
#pragma once

#include <memory>
#include <vector>

#include "machine/chassis.hpp"

namespace xd::machine {

struct SystemConfig {
  ChassisConfig chassis;
  unsigned chassis_count = 12;
  double interchassis_bytes_per_s = 4.0 * kGB;  ///< Sec 6.4.2
};

class System {
 public:
  explicit System(const SystemConfig& cfg);
  System(const System&) = delete;
  System& operator=(const System&) = delete;

  /// Advance one design-clock cycle in the documented order: all chassis
  /// (nodes, forward links, backward links) first, then the inter-chassis
  /// links — producers always tick before the links that carry their
  /// output. See the header comment for the full contract.
  void tick();

  unsigned chassis_count() const { return static_cast<unsigned>(chassis_.size()); }
  Chassis& chassis(unsigned i) { return *chassis_.at(i); }

  /// Total FPGAs across the installation (the `l` of Sec 5.2 at full scale).
  unsigned total_fpgas() const;

  /// Link between chassis i and i+1.
  mem::Channel& chassis_link(unsigned i) { return links_.chassis_link(i); }

  /// Every link of the installation; the chassis use its channels.
  LinkChain& links() { return links_; }

  const SystemConfig& config() const { return cfg_; }

 private:
  SystemConfig cfg_;
  LinkChain links_;  // declared before chassis_, which borrow its channels
  std::vector<std::unique_ptr<Chassis>> chassis_;
};

}  // namespace xd::machine
