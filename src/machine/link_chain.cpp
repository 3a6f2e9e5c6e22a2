#include "machine/link_chain.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <stdexcept>
#include <string>

#include "machine/system.hpp"

namespace xd::machine {

namespace {

bool positive_finite(double v) { return std::isfinite(v) && v > 0.0; }

}  // namespace

void LinkChain::validate(const SystemConfig& cfg) {
  require(cfg.chassis_count >= 1, "link chain: needs at least one chassis");
  require(cfg.chassis.nodes >= 1,
          "link chain: needs at least one node per chassis");
  // Messages are built only on failure: the scheduler validates per op.
  if (!positive_finite(cfg.chassis.link_bytes_per_s)) {
    throw ConfigError(
        cat("link chain: RocketIO bandwidth must be positive, got ",
            cfg.chassis.link_bytes_per_s, " B/s"));
  }
  if (!positive_finite(cfg.interchassis_bytes_per_s)) {
    throw ConfigError(
        cat("link chain: inter-chassis bandwidth must be positive, got ",
            cfg.interchassis_bytes_per_s, " B/s"));
  }
  if (!positive_finite(cfg.chassis.node.clock_mhz)) {
    throw ConfigError(cat("link chain: node clock must be positive, got ",
                          cfg.chassis.node.clock_mhz, " MHz"));
  }
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
  // Names by std::to_string, not cat(): the scheduler builds a chain per
  // op, and an ostringstream per channel name dominated that build.
  for (unsigned c = 0; c < chassis_count_; ++c) {
    const std::string chassis = "chassis" + std::to_string(c);
    for (unsigned i = 0; i + 1 < nodes_; ++i) {
      const std::string index = std::to_string(i);
      fwd_.push_back(Link{mem::Channel(wpc, chassis + ".fwd" + index)});
      bwd_.push_back(Link{mem::Channel(wpc, chassis + ".bwd" + index)});
    }
  }
  xlinks_.reserve(chassis_count_ - 1);
  for (unsigned c = 0; c + 1 < chassis_count_; ++c)
    xlinks_.push_back(Link{mem::Channel(xwpc, "syslink" + std::to_string(c))});
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

u64 LinkChain::leg_ticks(std::size_t words, double rate) {
  if (words == 0) return 0;
  const double ticks = std::ceil(static_cast<double>(words) / rate);
  // 2^64: the first double a u64 cannot hold. `!(<)` also catches NaN.
  if (!(ticks < 0x1p64)) {
    throw SimError(cat("link chain: a leg of ", words, " words at ", rate,
                       " words/cycle takes more than 2^64 cycles"));
  }
  return static_cast<u64>(ticks);
}

u64 LinkChain::drive_leg(unsigned p, bool forward, std::size_t words,
                         u64 ready) {
  Link& link = hop_link(p, forward);
  const u64 start = std::max(ready, link.busy);
  const u64 ticks = leg_ticks(words, link.ch.rate());
  if (ticks > std::numeric_limits<u64>::max() - start) {
    throw SimError(cat("link chain: a leg of ", ticks, " cycles from cycle ",
                       start, " ends past cycle 2^64"));
  }
  link.ch.advance(ticks, static_cast<double>(words));
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
