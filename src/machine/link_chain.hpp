// Link-chain topology: the FPGA-to-FPGA transport of an installation with no
// node memory attached (Sec 3.1.2 / 6.4).
//
// Global FPGA positions 0..fpgas-1 walk each chassis's RocketIO chain in
// order; hop p joins positions p and p+1. Within a chassis a hop has its own
// full-duplex pair of channels (forward carries operands away from node 0,
// backward carries results home). A hop that crosses a chassis boundary is
// the single RapidArray inter-chassis link, which both directions share —
// they contend, exactly like the projection's shared switch.
//
// The chain is the one place two rules live: which channel carries hop p in
// each direction (hop()), and the store-and-forward transfer leg with its
// per-channel busy bookkeeping (drive_leg()). A leg is costed in closed form,
// ceil(words / rate) cycles (Sec 5.2 / 6.4), and posted to its channel in
// one bulk step, so its host cost does not grow with its length.
// machine::System owns one for its chassis links; host::ShardScheduler
// builds one per op at the engine clock, which costs a few channels rather
// than a whole machine.
#pragma once

#include <cstddef>
#include <vector>

#include "common/util.hpp"
#include "mem/channel.hpp"

namespace xd::machine {

struct SystemConfig;  // machine/system.hpp

class LinkChain {
 public:
  /// Throws ConfigError unless the chassis and node counts are >= 1 and
  /// both link rates and the node clock are finite and positive (a zero
  /// rate would make a leg take forever).
  static void validate(const SystemConfig& cfg);

  /// The links of `cfg`'s installation, with words/cycle rates taken at its
  /// node clock. Validates `cfg`.
  explicit LinkChain(const SystemConfig& cfg);

  unsigned chassis_count() const { return chassis_count_; }
  unsigned nodes_per_chassis() const { return nodes_; }
  unsigned fpgas() const { return chassis_count_ * nodes_; }

  /// RocketIO channel from node i to node i+1 of chassis c, and back.
  /// Throws std::out_of_range for a link the chassis does not have.
  mem::Channel& forward_link(unsigned c, unsigned i);
  mem::Channel& backward_link(unsigned c, unsigned i);
  /// RapidArray channel between chassis c and c+1.
  mem::Channel& chassis_link(unsigned c) { return xlinks_.at(c).ch; }

  /// Channel carrying hop p (positions p -> p+1) in one direction. A hop
  /// crossing a chassis boundary returns the inter-chassis link for both.
  mem::Channel& hop(unsigned p, bool forward) {
    return hop_link(p, forward).ch;
  }

  /// Drive one store-and-forward leg of `words` over hop p, ready at cycle
  /// `ready`. The leg takes leg_ticks(words, rate) cycles and posts them,
  /// with its words, to the hop's channel in one Channel::advance. The
  /// count does not depend on credit an earlier leg left behind: the
  /// channel's burst (rate + 2 words) lets a greedy whole-word drain
  /// finish within the ceil in exact arithmetic, which summing a double
  /// rate per tick can miss by an ulp. Legs on one channel are serialized:
  /// a leg starts at max(ready, the channel's previous leg end). Returns
  /// the cycle the leg completes; throws SimError if that cycle does not
  /// fit in a u64.
  u64 drive_leg(unsigned p, bool forward, std::size_t words, u64 ready);

  /// Cycles a leg of `words` takes at `rate` words/cycle: 0 for no words,
  /// else ceil(words / rate). Throws SimError if the count does not fit in
  /// a u64 (a vanishing but positive rate).
  static u64 leg_ticks(std::size_t words, double rate);

  /// Tick chassis c's links: its forward links, then its backward links.
  void tick_chassis(unsigned c);
  /// Tick the inter-chassis links in index order.
  void tick_interchassis();

  /// Words moved over intra-chassis (RocketIO) and inter-chassis links.
  double link_words() const;
  double interchassis_words() const;

 private:
  struct Link {
    mem::Channel ch;
    u64 busy = 0;  ///< cycle the channel's last driven leg ended
  };

  Link& hop_link(unsigned p, bool forward);
  std::size_t intra_index(unsigned c, unsigned i) const;

  unsigned chassis_count_;
  unsigned nodes_;
  std::vector<Link> fwd_;     ///< chassis-major, nodes-1 per chassis
  std::vector<Link> bwd_;     ///< same layout as fwd_
  std::vector<Link> xlinks_;  ///< chassis_count - 1
};

}  // namespace xd::machine
