// Chassis model: six compute blades whose FPGAs are chained through
// RocketIO multi-gigabit transceivers (Sec 3.1.2). The hierarchical GEMM
// design (Sec 5.2) maps its linear FPGA array onto this chain; only node 0
// touches DRAM, and C results flow back along the same links.
//
// The links themselves belong to a machine::LinkChain: a standalone chassis
// owns a one-chassis chain, a chassis inside a machine::System borrows its
// segment of the system's chain.
#pragma once

#include <memory>
#include <vector>

#include "machine/link_chain.hpp"
#include "machine/node.hpp"
#include "mem/channel.hpp"

namespace xd::machine {

struct ChassisConfig {
  NodeConfig node;
  unsigned nodes = 6;  ///< blades per chassis in XD1
  /// Sustained FPGA-to-FPGA bandwidth over the RocketIO links. The paper only
  /// needs ~73 MB/s of it for GEMM; XD1's MGT links provide on the order of
  /// 2 GB/s per direction.
  double link_bytes_per_s = 2.0 * kGB;
};

class Chassis {
 public:
  /// A standalone chassis: the links of a one-chassis installation.
  explicit Chassis(const ChassisConfig& cfg, unsigned index = 0);
  /// Chassis `index` of `links`, whose RocketIO channels it uses; `links`
  /// must outlive the chassis.
  Chassis(const ChassisConfig& cfg, unsigned index, LinkChain& links);

  void tick();

  unsigned node_count() const { return static_cast<unsigned>(nodes_.size()); }
  ComputeNode& node(unsigned i) { return *nodes_.at(i); }

  /// Link carrying traffic from node i to node i+1 (forward, A/B stream) and
  /// back (C results); modeled as one full-duplex channel per direction.
  mem::Channel& forward_link(unsigned i) {
    return links_->forward_link(slot_, i);
  }
  mem::Channel& backward_link(unsigned i) {
    return links_->backward_link(slot_, i);
  }

  unsigned index() const { return index_; }

 private:
  void add_nodes();

  ChassisConfig cfg_;
  unsigned index_;
  std::unique_ptr<LinkChain> own_;  ///< standalone chassis only
  LinkChain* links_;
  unsigned slot_;  ///< this chassis's index within *links_
  std::vector<std::unique_ptr<ComputeNode>> nodes_;
};

}  // namespace xd::machine
