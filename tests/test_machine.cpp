// Machine-model tests: the area/clock model must reproduce the paper's
// reported configurations exactly (Tables 2/3/4, Fig 9) and extrapolate
// sensibly.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <limits>
#include <vector>

#include "machine/area.hpp"
#include "machine/chassis.hpp"
#include "machine/device.hpp"
#include "machine/link_chain.hpp"
#include "machine/node.hpp"
#include "machine/system.hpp"

using namespace xd;
using machine::AreaModel;
using machine::ComputeNode;
using machine::LinkChain;
using machine::SystemConfig;
using machine::NodeConfig;

TEST(Device, Catalog) {
  const auto vp50 = machine::xc2vp50();
  EXPECT_EQ(vp50.slices, 23616u);
  EXPECT_EQ(vp50.io_pins, 852u);
  EXPECT_EQ(vp50.bram_words(), 4ull * 1024 * 1024 / 64);
  const auto vp100 = machine::xc2vp100();
  EXPECT_EQ(vp100.slices, 44096u);
  EXPECT_EQ(machine::device_by_name("XC2VP100").slices, 44096u);
  EXPECT_THROW(machine::device_by_name("XC7V2000T"), ConfigError);
}

TEST(AreaModel, Table2Constants) {
  AreaModel area;
  EXPECT_EQ(area.cores().adder_slices, 892u);
  EXPECT_EQ(area.cores().multiplier_slices, 835u);
  EXPECT_EQ(area.cores().adder_stages, 14u);
  EXPECT_EQ(area.cores().multiplier_stages, 11u);
  EXPECT_DOUBLE_EQ(area.cores().clock_mhz, 170.0);
  EXPECT_EQ(area.reduction_circuit_slices(), 1658u);
}

TEST(AreaModel, Table3DesignAreas) {
  AreaModel area;
  const auto dot = area.dot_design(2);
  EXPECT_EQ(dot.slices, 5210u);  // Table 3 Level 1 row
  EXPECT_DOUBLE_EQ(dot.clock_mhz, 170.0);
  const auto mxv = area.mxv_tree_design(4);
  EXPECT_EQ(mxv.slices, 9669u);  // Table 3 Level 2 row
  EXPECT_DOUBLE_EQ(mxv.clock_mhz, 170.0);

  const auto vp50 = machine::xc2vp50();
  EXPECT_NEAR(dot.fraction_of(vp50), 0.22, 0.005);
  EXPECT_NEAR(mxv.fraction_of(vp50), 0.41, 0.005);
}

TEST(AreaModel, Table4Xd1Designs) {
  AreaModel area;
  const auto mxv = area.mxv_design_xd1(4);
  EXPECT_EQ(mxv.slices, 13772u);  // Table 4 Level 2 row
  EXPECT_DOUBLE_EQ(mxv.clock_mhz, 164.0);
  const auto mm = area.mm_design_xd1(8);
  EXPECT_EQ(mm.slices, 21029u);  // Table 4 Level 3 row
  EXPECT_DOUBLE_EQ(mm.clock_mhz, 130.0);

  const auto vp50 = machine::xc2vp50();
  EXPECT_NEAR(mxv.fraction_of(vp50), 0.58, 0.005);
  EXPECT_NEAR(mm.fraction_of(vp50), 0.89, 0.005);
}

TEST(AreaModel, Fig9ClockDegradation) {
  AreaModel area;
  EXPECT_DOUBLE_EQ(area.mm_clock_mhz(1), 155.0);
  EXPECT_DOUBLE_EQ(area.mm_clock_mhz(10), 125.0);
  EXPECT_EQ(area.mm_design(1).slices, 2158u);
  EXPECT_EQ(area.mm_design(10).slices, 21580u);
  // Monotone degradation.
  for (unsigned k = 2; k <= 10; ++k) {
    EXPECT_LT(area.mm_clock_mhz(k), area.mm_clock_mhz(k - 1));
  }
}

TEST(AreaModel, MaxPEs) {
  AreaModel area;
  const auto vp50 = machine::xc2vp50();
  EXPECT_EQ(area.max_mm_pes(vp50, /*with_xd1_interface=*/false), 10u);
  EXPECT_EQ(area.max_mm_pes(vp50, /*with_xd1_interface=*/true), 8u);
  const auto vp100 = machine::xc2vp100();
  EXPECT_GE(area.max_mm_pes(vp100, false), 19u);  // ~2x the VP50
}

TEST(AreaModel, ProjectedPEsForImprovedUnits) {
  AreaModel area;
  const auto vp50 = machine::xc2vp50();
  const auto vp100 = machine::xc2vp100();
  // Implied by the paper's quoted chassis projections (Sec 6.4.1).
  EXPECT_EQ(area.projected_pes(vp50, 1600), 15u);
  EXPECT_EQ(area.projected_pes(vp100, 1600), 28u);
  EXPECT_EQ(area.projected_pes(vp50, 2000), 12u);
}

TEST(Node, StructureAndBandwidth) {
  NodeConfig cfg;
  cfg.clock_mhz = 164.0;
  ComputeNode node(cfg);
  EXPECT_EQ(node.sram_bank_count(), 4u);
  EXPECT_EQ(node.sram_total_words(), 16ull * 1024 * 1024 / 8);
  EXPECT_DOUBLE_EQ(node.clock_mhz(), 164.0);

  // Stream one word from each bank per cycle: achieved SRAM bandwidth is the
  // paper's 5.9 GB/s (4 banks x 9 bytes... modeled as 8-byte words: 5.25;
  // with the parity byte the hardware moves 5.9 — we check the word rate).
  for (int cyc = 0; cyc < 1000; ++cyc) {
    node.tick();
    for (unsigned b = 0; b < 4; ++b) node.sram(b).read(0);
  }
  EXPECT_NEAR(node.sram_achieved_bytes_per_s(), 4.0 * 8 * 164e6, 1e6);
}

TEST(Node, DmaStagesThroughRapidArray) {
  NodeConfig cfg;
  cfg.clock_mhz = 164.0;
  cfg.dram_bytes_per_s = 1.3e9;  // the measured Table 4 staging rate
  cfg.dram_words = 1 << 16;
  ComputeNode node(cfg);
  node.dram().storage().load(0, std::vector<u64>(4096, 7));
  node.dma().start(node.dram().storage(), 0, node.sram(0).storage(), 0, 4096);
  u64 cycles = 0;
  while (node.dma().active()) {
    node.tick();
    ++cycles;
    ASSERT_LT(cycles, 100'000u);
  }
  // 4096 words * 8 B at 1.3 GB/s at 164 MHz -> ~4135 cycles.
  const double expect = 4096.0 / (1.3e9 / (8 * 164e6));
  EXPECT_NEAR(static_cast<double>(cycles), expect, expect * 0.02);
}

TEST(Chassis, SixNodesRingLinks) {
  machine::ChassisConfig cfg;
  machine::Chassis ch(cfg);
  EXPECT_EQ(ch.node_count(), 6u);
  EXPECT_NO_THROW(ch.forward_link(4));
  EXPECT_NO_THROW(ch.backward_link(0));
  EXPECT_THROW(ch.forward_link(5), std::out_of_range);
  ch.tick();
  EXPECT_TRUE(ch.forward_link(0).can_transfer(1.0));
}

TEST(System, TwelveChassisInstallation) {
  machine::SystemConfig cfg;
  cfg.chassis.node.dram_words = 1024;  // keep the test allocation small
  cfg.chassis.node.sram_bank_words = 1024;
  machine::System sys(cfg);
  EXPECT_EQ(sys.chassis_count(), 12u);
  EXPECT_EQ(sys.total_fpgas(), 72u);
  sys.tick();
  EXPECT_NO_THROW(sys.chassis_link(10));
  EXPECT_THROW(sys.chassis_link(11), std::out_of_range);
}

#include "machine/status_regs.hpp"

TEST(StatusRegisters, HandshakeCostsLinkRoundTrips) {
  NodeConfig cfg;
  cfg.dram_words = 1024;
  ComputeNode node(cfg);
  machine::StatusRegisters regs(node, /*round_trip_cycles=*/40);

  u64 cycles = regs.host_write(machine::StatusRegisters::Reg::ProblemSize, 1024);
  EXPECT_GE(cycles, 40u);
  EXPECT_EQ(regs.fpga_read(machine::StatusRegisters::Reg::ProblemSize), 1024u);

  regs.fpga_write(machine::StatusRegisters::Reg::Status,
                  machine::StatusRegisters::kStatusDone);
  u64 v = 0;
  regs.host_read(machine::StatusRegisters::Reg::Status, v);
  EXPECT_EQ(v, machine::StatusRegisters::kStatusDone);
  EXPECT_EQ(regs.host_accesses(), 2u);
}

TEST(StatusRegisters, PollUntilDoneAndBudget) {
  NodeConfig cfg;
  cfg.dram_words = 1024;
  ComputeNode node(cfg);
  machine::StatusRegisters regs(node, 40);
  regs.fpga_write(machine::StatusRegisters::Reg::Status,
                  machine::StatusRegisters::kStatusBusy);
  // Never completes: budget trips.
  EXPECT_THROW(regs.host_poll_until(machine::StatusRegisters::kStatusDone, 100,
                                    5000),
               SimError);
  // Completes immediately once the design raises Done.
  regs.fpga_write(machine::StatusRegisters::Reg::Status,
                  machine::StatusRegisters::kStatusDone);
  const u64 cycles = regs.host_poll_until(
      machine::StatusRegisters::kStatusDone, 100, 5000);
  EXPECT_GE(cycles, 40u);
  EXPECT_LT(cycles, 200u);
}

TEST(StatusRegisters, HandshakeOverheadIsNegligibleVsGemv) {
  // Sec 6.2's protocol: a handful of register accesses around a 262k-cycle
  // computation — the control overhead the paper silently absorbs.
  NodeConfig cfg;
  cfg.dram_words = 1024;
  ComputeNode node(cfg);
  machine::StatusRegisters regs(node, 40);
  u64 overhead = 0;
  overhead += regs.host_write(machine::StatusRegisters::Reg::ProblemSize, 1024);
  overhead += regs.host_write(machine::StatusRegisters::Reg::Command,
                              machine::StatusRegisters::kCmdInit);
  regs.fpga_write(machine::StatusRegisters::Reg::Status,
                  machine::StatusRegisters::kStatusDone);
  overhead += regs.host_poll_until(machine::StatusRegisters::kStatusDone, 200,
                                   100000);
  EXPECT_LT(static_cast<double>(overhead), 0.01 * 262144.0);
}

TEST(System, TickAdvancesEveryLinkInLockstepAfterProducers) {
  // The tick-ordering contract of machine/system.hpp: no channel has credit
  // before the system's first tick, and after N ticks every link — intra-
  // and inter-chassis — reports exactly N cycles.
  machine::SystemConfig cfg;
  cfg.chassis_count = 3;
  cfg.chassis.nodes = 2;
  cfg.chassis.node.dram_words = 1024;
  cfg.chassis.node.sram_bank_words = 1024;
  machine::System sys(cfg);

  EXPECT_FALSE(sys.chassis(0).forward_link(0).can_transfer(1.0));
  EXPECT_FALSE(sys.chassis_link(0).can_transfer(1.0));

  for (int t = 0; t < 5; ++t) sys.tick();
  for (unsigned c = 0; c < sys.chassis_count(); ++c) {
    auto& ch = sys.chassis(c);
    for (unsigned i = 0; i + 1 < ch.node_count(); ++i) {
      EXPECT_EQ(ch.forward_link(i).cycles(), 5u);
      EXPECT_EQ(ch.backward_link(i).cycles(), 5u);
    }
  }
  for (unsigned c = 0; c + 1 < sys.chassis_count(); ++c)
    EXPECT_EQ(sys.chassis_link(c).cycles(), 5u);

  // Credit has accrued: a word can now cross any link in either layer.
  EXPECT_TRUE(sys.chassis(1).forward_link(0).can_transfer(1.0));
  EXPECT_TRUE(sys.chassis_link(1).can_transfer(1.0));
}

// ---- link chain ------------------------------------------------------------

namespace {

SystemConfig chain_config(unsigned chassis, unsigned nodes) {
  SystemConfig cfg;
  cfg.chassis_count = chassis;
  cfg.chassis.nodes = nodes;
  return cfg;
}

}  // namespace

TEST(LinkChain, HopMappingSharesTheInterChassisLinkBetweenDirections) {
  // 3 chassis x 2 nodes: hops 1 and 3 cross chassis boundaries.
  LinkChain chain(chain_config(3, 2));
  EXPECT_EQ(chain.fpgas(), 6u);
  EXPECT_EQ(&chain.hop(0, true), &chain.forward_link(0, 0));
  EXPECT_EQ(&chain.hop(0, false), &chain.backward_link(0, 0));
  EXPECT_NE(&chain.hop(0, true), &chain.hop(0, false));
  EXPECT_EQ(&chain.hop(1, true), &chain.chassis_link(0));
  EXPECT_EQ(&chain.hop(1, false), &chain.chassis_link(0));
  EXPECT_EQ(&chain.hop(2, true), &chain.forward_link(1, 0));
  EXPECT_EQ(&chain.hop(3, false), &chain.chassis_link(1));

  // The default installation: 12 chassis of 6, every sixth hop crosses.
  LinkChain full(chain_config(12, 6));
  for (unsigned p = 0; p + 1 < full.fpgas(); ++p) {
    const unsigned c = p / 6;
    if (p % 6 == 5) {
      EXPECT_EQ(&full.hop(p, true), &full.chassis_link(c)) << "hop " << p;
      EXPECT_EQ(&full.hop(p, false), &full.chassis_link(c)) << "hop " << p;
    } else {
      EXPECT_EQ(&full.hop(p, true), &full.forward_link(c, p % 6));
      EXPECT_EQ(&full.hop(p, false), &full.backward_link(c, p % 6));
    }
  }
  EXPECT_THROW(full.chassis_link(11), std::out_of_range);
  EXPECT_THROW(full.forward_link(0, 5), std::out_of_range);
  EXPECT_THROW(full.hop(71, true), std::out_of_range);
}

TEST(LinkChain, LegsOnOneChannelSerializeAndCostCeilWordsOverRate) {
  LinkChain chain(chain_config(2, 2));
  const double rate = chain.hop(0, true).rate();
  const u64 leg = static_cast<u64>(std::ceil(100.0 / rate));

  EXPECT_EQ(chain.drive_leg(0, true, 100, 0), leg);
  // Same channel: waits for the first leg, whatever its own ready time.
  EXPECT_EQ(chain.drive_leg(0, true, 100, 0), 2 * leg);
  EXPECT_EQ(chain.drive_leg(0, true, 100, 5 * leg), 6 * leg);
  // The backward RocketIO channel is a separate resource.
  EXPECT_EQ(chain.drive_leg(0, false, 100, 0), leg);
  // The inter-chassis link is one resource for both directions.
  const double xrate = chain.chassis_link(0).rate();
  const u64 xleg = static_cast<u64>(std::ceil(64.0 / xrate));
  EXPECT_EQ(chain.drive_leg(1, true, 64, 0), xleg);
  EXPECT_EQ(chain.drive_leg(1, false, 64, 0), 2 * xleg);

  EXPECT_EQ(chain.link_words(), 400.0);
  EXPECT_EQ(chain.interchassis_words(), 128.0);
}

namespace {

/// The per-cycle tick loop LinkChain::drive_leg ran before it computed legs
/// in closed form, kept here as the reference the closed form must match:
/// tick the channel, moving whole words greedily, until the panel has
/// crossed and ceil(words / rate) cycles have elapsed.
struct TickLoopLink {
  mem::Channel ch;
  u64 busy = 0;

  u64 drive_leg(std::size_t words, u64 ready) {
    const u64 start = std::max(ready, busy);
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
    busy = start + ticks;
    return busy;
  }
};

/// A leg where the tick loop took one cycle more than ceil(words / rate).
struct Overshoot {
  std::size_t words;
  u64 loop_ticks;
  u64 closed_ticks;
};

/// Drives one leg of `words` on hop p of `chain` and on `ref`, both ready
/// at `ready`, and checks the closed form against the loop: ticks, words,
/// channel cycles and busy. The loop may overshoot the ceil by one cycle
/// only where words / rate is an exact integer (summing `rate` fell an ulp
/// short of it); those legs go to `overshoots`. Returns false once the two
/// have diverged, after which their busy times legitimately differ.
bool expect_leg_matches(LinkChain& chain, unsigned p, TickLoopLink& ref,
                        std::size_t words, u64 ready, bool in_step,
                        std::vector<Overshoot>& overshoots) {
  mem::Channel& ch = chain.hop(p, true);
  const double rate = ch.rate();
  const double q = static_cast<double>(words) / rate;
  const u64 ceil_ticks = words > 0 ? static_cast<u64>(std::ceil(q)) : 0;
  const u64 cycles0 = ch.cycles();
  const double words0 = ch.words_transferred();
  const u64 ref_cycles0 = ref.ch.cycles();
  const u64 ref_start = std::max(ready, ref.busy);

  const u64 closed_end = chain.drive_leg(p, true, words, ready);
  const u64 closed_ticks = ch.cycles() - cycles0;
  const u64 loop_end = ref.drive_leg(words, ready);
  const u64 loop_ticks = ref.ch.cycles() - ref_cycles0;

  const auto where = [&] {
    return cat("rate ", rate, " words ", words, " ready ", ready);
  };
  EXPECT_EQ(closed_ticks, ceil_ticks) << where();
  EXPECT_EQ(ch.words_transferred() - words0, static_cast<double>(words))
      << where();
  EXPECT_EQ(ref.ch.words_transferred(), ch.words_transferred()) << where();
  EXPECT_EQ(loop_end, ref_start + loop_ticks) << where();
  if (loop_ticks == closed_ticks) {
    if (in_step) {
      EXPECT_EQ(closed_end, loop_end) << where();
      EXPECT_EQ(ch.cycles(), ref.ch.cycles()) << where();
    }
    return in_step;
  }
  EXPECT_EQ(loop_ticks, closed_ticks + 1) << where();
  EXPECT_EQ(std::ceil(q), q) << "the loop overshot off an integer: "
                             << where();
  overshoots.push_back({words, loop_ticks, closed_ticks});
  return false;
}

SystemConfig chain_at(double clock_mhz, double link_bytes_per_s,
                      double xlink_bytes_per_s) {
  SystemConfig cfg = chain_config(2, 2);  // hop 0 RocketIO, hop 1 crosses
  cfg.chassis.node.clock_mhz = clock_mhz;
  cfg.chassis.link_bytes_per_s = link_bytes_per_s;
  cfg.interchassis_bytes_per_s = xlink_bytes_per_s;
  return cfg;
}

/// Bytes/s that give `wpc` words per cycle at 100 MHz.
double bytes_for_wpc(double wpc) { return wpc * kWordBytes * 100e6; }

}  // namespace

TEST(LinkChain, ClosedFormLegMatchesTheTickLoop) {
  // Rates: the XD1 RocketIO (2 GB/s) and inter-chassis (4 GB/s) links at
  // the 130, 164 and 180 MHz engine clocks, then integral and fractional
  // rates (including one below a word per cycle).
  std::vector<SystemConfig> configs;
  for (double mhz : {130.0, 164.0, 180.0})
    configs.push_back(chain_at(mhz, 2.0 * kGB, 4.0 * kGB));
  configs.push_back(chain_at(100.0, bytes_for_wpc(1.0), bytes_for_wpc(3.0)));
  configs.push_back(chain_at(100.0, bytes_for_wpc(0.3), bytes_for_wpc(2.5)));
  configs.push_back(chain_at(100.0, bytes_for_wpc(0.7), bytes_for_wpc(1.37)));

  // Overshoots here are checked leg by leg; the sweep below counts them.
  std::vector<Overshoot> grid_overshoots;
  for (const SystemConfig& cfg : configs) {
    for (unsigned p : {0u, 1u}) {
      const double rate = LinkChain(cfg).hop(p, true).rate();
      // Words: 0, 1, the three counts from floor(m * rate) up, which
      // straddle m cycles' worth (at 180 MHz, m = 18 is exactly 25 words),
      // and 10^5.
      std::vector<std::size_t> words = {0, 1, 2, 100000};
      for (double m : {1.0, 2.0, 3.0, 7.0, 18.0, 25.0, 100.0, 900.0}) {
        const auto at = static_cast<std::size_t>(std::floor(m * rate));
        for (std::size_t w : {at, at + 1, at + 2})
          if (w > 0) words.push_back(w);
      }
      // Leftover credit from earlier legs of 0 (fresh), 1, 7 and 333
      // words; the leg under test ready before the channel frees (ready 0)
      // or after it (busy + 11).
      for (std::size_t prior : {0u, 1u, 7u, 333u}) {
        for (bool ready_first : {true, false}) {
          for (std::size_t w : words) {
            LinkChain chain(cfg);
            TickLoopLink ref{mem::Channel(rate, "ref")};
            const bool in_step =
                prior == 0 || expect_leg_matches(chain, p, ref, prior, 0,
                                                 true, grid_overshoots);
            const u64 ready = ready_first ? 0 : ref.busy + 11;
            expect_leg_matches(chain, p, ref, w, ready, in_step,
                               grid_overshoots);
          }
        }
      }
    }
  }
  // Fresh RocketIO channels, every leg of 1..20000 words. At 180 MHz the
  // rate is 25/18 words/cycle, and the loop overshot at every multiple of
  // 25 words; at 130 and 164 MHz it never did.
  for (double mhz : {130.0, 164.0, 180.0}) {
    const SystemConfig cfg = chain_at(mhz, 2.0 * kGB, 4.0 * kGB);
    const double rate = LinkChain(cfg).hop(0, true).rate();
    std::vector<Overshoot> found;
    for (std::size_t w = 1; w <= 20000; ++w) {
      LinkChain chain(cfg);
      TickLoopLink ref{mem::Channel(rate, "ref")};
      expect_leg_matches(chain, 0, ref, w, 0, true, found);
    }
    if (mhz != 180.0) {
      EXPECT_TRUE(found.empty()) << mhz << " MHz: " << found.size();
      continue;
    }
    ASSERT_EQ(found.size(), 800u);
    for (std::size_t i = 0; i < found.size(); ++i)
      EXPECT_EQ(found[i].words, 25 * (i + 1));
    EXPECT_EQ(found[73].words, 1850u);
    EXPECT_EQ(found[73].loop_ticks, 1333u);
    EXPECT_EQ(found[73].closed_ticks, 1332u);
  }
}

TEST(LinkChain, VanishingRateLegsReturnAtOnceOrThrow) {
  // 1e-3 B/s is 7.4e-13 words/cycle at 170 MHz: the tick loop would have
  // run ~1.4e13 times for ten words. The closed form answers at once.
  SystemConfig slow = chain_config(2, 2);
  slow.chassis.link_bytes_per_s = 1e-3;
  LinkChain chain(slow);
  mem::Channel& ch = chain.hop(0, true);
  const u64 want = static_cast<u64>(std::ceil(10.0 / ch.rate()));
  EXPECT_GT(want, u64{1} << 40);
  EXPECT_EQ(chain.drive_leg(0, true, 10, 0), want);
  EXPECT_EQ(ch.cycles(), want);
  EXPECT_EQ(ch.words_transferred(), 10.0);
  // The same count, from a ready cycle it would carry past 2^64.
  const u64 late = std::numeric_limits<u64>::max() - want + 1;
  EXPECT_THROW(chain.drive_leg(0, false, 10, late), SimError);
  EXPECT_EQ(chain.drive_leg(0, false, 10, late - 1),
            std::numeric_limits<u64>::max());

  // At 1e-300 B/s, ceil(words / rate) is inf: no u64 holds it.
  SystemConfig vanishing = chain_config(2, 2);
  vanishing.chassis.link_bytes_per_s = 1e-300;
  LinkChain gone(vanishing);
  EXPECT_THROW(gone.drive_leg(0, true, 10, 0), SimError);
  EXPECT_EQ(gone.drive_leg(0, true, 0, 7), 7u);  // no words, no cycles
  // Finite but past 2^64 throws too.
  EXPECT_THROW(LinkChain::leg_ticks(10, 1e-20), SimError);
  EXPECT_EQ(LinkChain::leg_ticks(0, 1e-300), 0u);
}

TEST(LinkChain, ChannelNamesArePinned) {
  // Channel errors name the link; the per-op chain build keeps the names.
  LinkChain chain(chain_config(3, 3));
  EXPECT_EQ(chain.forward_link(0, 0).name(), "chassis0.fwd0");
  EXPECT_EQ(chain.backward_link(0, 0).name(), "chassis0.bwd0");
  EXPECT_EQ(chain.forward_link(2, 1).name(), "chassis2.fwd1");
  EXPECT_EQ(chain.backward_link(1, 1).name(), "chassis1.bwd1");
  EXPECT_EQ(chain.chassis_link(0).name(), "syslink0");
  EXPECT_EQ(chain.chassis_link(1).name(), "syslink1");
  LinkChain full(chain_config(12, 6));
  EXPECT_EQ(full.forward_link(11, 4).name(), "chassis11.fwd4");
  EXPECT_EQ(full.chassis_link(10).name(), "syslink10");
}

TEST(LinkChain, RejectsDegenerateTopologyRatesAndClock) {
  const double nan = std::numeric_limits<double>::quiet_NaN();
  auto with = [](auto edit) {
    SystemConfig cfg = chain_config(3, 2);
    edit(cfg);
    return cfg;
  };
  EXPECT_NO_THROW(LinkChain::validate(chain_config(3, 2)));
  EXPECT_THROW(LinkChain::validate(with([](auto& c) { c.chassis_count = 0; })),
               ConfigError);
  EXPECT_THROW(LinkChain::validate(with([](auto& c) { c.chassis.nodes = 0; })),
               ConfigError);
  EXPECT_THROW(LinkChain::validate(
                   with([](auto& c) { c.chassis.link_bytes_per_s = 0.0; })),
               ConfigError);
  EXPECT_THROW(LinkChain::validate(
                   with([](auto& c) { c.interchassis_bytes_per_s = -1.0; })),
               ConfigError);
  EXPECT_THROW(LinkChain::validate(
                   with([](auto& c) { c.chassis.node.clock_mhz = 0.0; })),
               ConfigError);
  EXPECT_THROW(LinkChain::validate(
                   with([&](auto& c) { c.chassis.node.clock_mhz = nan; })),
               ConfigError);
  // The constructor validates too, and so does a System built on the chain.
  const SystemConfig zero_link =
      with([](auto& c) { c.chassis.link_bytes_per_s = 0.0; });
  EXPECT_THROW(LinkChain chain(zero_link), ConfigError);
  EXPECT_THROW(machine::System sys(zero_link), ConfigError);
}

TEST(System, LinksAreTheSystemsLinkChain) {
  machine::SystemConfig cfg;
  cfg.chassis_count = 3;
  cfg.chassis.nodes = 2;
  machine::System sys(cfg);
  LinkChain& links = sys.links();
  EXPECT_EQ(links.fpgas(), sys.total_fpgas());
  for (unsigned c = 0; c < sys.chassis_count(); ++c) {
    EXPECT_EQ(&sys.chassis(c).forward_link(0), &links.forward_link(c, 0));
    EXPECT_EQ(&sys.chassis(c).backward_link(0), &links.backward_link(c, 0));
    EXPECT_THROW(sys.chassis(c).forward_link(1), std::out_of_range);
  }
  for (unsigned c = 0; c + 1 < sys.chassis_count(); ++c)
    EXPECT_EQ(&sys.chassis_link(c), &links.chassis_link(c));
  // A leg driven on the chain shows on the system's own link counters.
  links.drive_leg(1, true, 10, 0);
  EXPECT_EQ(sys.chassis_link(0).words_transferred(), 10.0);
}

TEST(System, BuildingTheDefaultInstallationTouchesNoNodeMemory) {
  // 72 nodes describe ~5.6 GiB of SRAM and DRAM; none of it is allocated
  // until a design writes to it.
  machine::System sys(machine::SystemConfig{});
  EXPECT_EQ(sys.total_fpgas(), 72u);
  ComputeNode& last = sys.chassis(11).node(5);
  EXPECT_FALSE(last.dram().storage().allocated());
  EXPECT_FALSE(last.sram(3).storage().allocated());
  EXPECT_EQ(last.dram().storage().words(), 8ull * 1024 * 1024);
}
