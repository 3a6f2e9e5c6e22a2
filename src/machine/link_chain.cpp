#include "machine/link_chain.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "machine/system.hpp"

namespace xd::machine {

namespace {

bool positive_finite(double v) { return std::isfinite(v) && v > 0.0; }

}  // namespace

void LinkChain::validate(const SystemConfig& cfg) {
  require(cfg.chassis_count >= 1, "link chain: needs at least one chassis");
  require(cfg.chassis.nodes >= 1,
          "link chain: needs at least one node per chassis");
  require(positive_finite(cfg.chassis.link_bytes_per_s),
          cat("link chain: RocketIO bandwidth must be positive, got ",
              cfg.chassis.link_bytes_per_s, " B/s"));
  require(positive_finite(cfg.interchassis_bytes_per_s),
          cat("link chain: inter-chassis bandwidth must be positive, got ",
              cfg.interchassis_bytes_per_s, " B/s"));
  require(positive_finite(cfg.chassis.node.clock_mhz),
          cat("link chain: node clock must be positive, got ",
              cfg.chassis.node.clock_mhz, " MHz"));
}

LinkChain::LinkChain(const SystemConfig& cfg)
    : chassis_count_(cfg.chassis_count), nodes_(cfg.chassis.nodes) {
  validate(cfg);
  const double clock_hz = cfg.chassis.node.clock_mhz * 1e6;
  const double wpc =
      mem::Channel::words_per_cycle_for(cfg.chassis.link_bytes_per_s, clock_hz);
  const double xwpc = mem::Channel::words_per_cycle_for(
      cfg.interchassis_bytes_per_s, clock_hz);
  const std::size_t per_chassis = nodes_ - 1;
  fwd_.reserve(chassis_count_ * per_chassis);
  bwd_.reserve(chassis_count_ * per_chassis);
  for (unsigned c = 0; c < chassis_count_; ++c) {
    for (unsigned i = 0; i + 1 < nodes_; ++i) {
      fwd_.push_back(Link{mem::Channel(wpc, cat("chassis", c, ".fwd", i))});
      bwd_.push_back(Link{mem::Channel(wpc, cat("chassis", c, ".bwd", i))});
    }
  }
  xlinks_.reserve(chassis_count_ - 1);
  for (unsigned c = 0; c + 1 < chassis_count_; ++c)
    xlinks_.push_back(Link{mem::Channel(xwpc, cat("syslink", c))});
}

std::size_t LinkChain::intra_index(unsigned c, unsigned i) const {
  if (c >= chassis_count_ || i + 1 >= nodes_) {
    throw std::out_of_range(cat("link chain: no RocketIO link ", i,
                                " in chassis ", c));
  }
  return static_cast<std::size_t>(c) * (nodes_ - 1) + i;
}

mem::Channel& LinkChain::forward_link(unsigned c, unsigned i) {
  return fwd_[intra_index(c, i)].ch;
}

mem::Channel& LinkChain::backward_link(unsigned c, unsigned i) {
  return bwd_[intra_index(c, i)].ch;
}

LinkChain::Link& LinkChain::hop_link(unsigned p, bool forward) {
  const unsigned c = p / nodes_;
  const unsigned i = p % nodes_;
  if (i + 1 == nodes_) return xlinks_.at(c);
  const std::size_t at = intra_index(c, i);
  return forward ? fwd_[at] : bwd_[at];
}

u64 LinkChain::drive_leg(unsigned p, bool forward, std::size_t words,
                         u64 ready) {
  Link& link = hop_link(p, forward);
  mem::Channel& ch = link.ch;
  const u64 start = std::max(ready, link.busy);
  const u64 min_ticks =
      words > 0 ? static_cast<u64>(std::ceil(static_cast<double>(words) /
                                             ch.rate()))
                : 0;
  std::size_t moved = 0;
  u64 ticks = 0;
  while (moved < words || ticks < min_ticks) {
    ch.tick();
    ++ticks;
    while (moved < words && ch.can_transfer(1.0)) {
      ch.transfer(1.0);
      ++moved;
    }
  }
  link.busy = start + ticks;
  return link.busy;
}

void LinkChain::tick_chassis(unsigned c) {
  const std::size_t first = static_cast<std::size_t>(c) * (nodes_ - 1);
  const std::size_t end = first + (nodes_ - 1);
  for (std::size_t i = first; i < end; ++i) fwd_[i].ch.tick();
  for (std::size_t i = first; i < end; ++i) bwd_[i].ch.tick();
}

void LinkChain::tick_interchassis() {
  for (Link& l : xlinks_) l.ch.tick();
}

double LinkChain::link_words() const {
  double w = 0.0;
  for (const Link& l : fwd_) w += l.ch.words_transferred();
  for (const Link& l : bwd_) w += l.ch.words_transferred();
  return w;
}

double LinkChain::interchassis_words() const {
  double w = 0.0;
  for (const Link& l : xlinks_) w += l.ch.words_transferred();
  return w;
}

}  // namespace xd::machine
