// Memory-hierarchy model tests: capacities, port discipline, bandwidth
// throttling and DMA staging times.
#include <gtest/gtest.h>

#include <cmath>
#include <string>
#include <vector>

#include "machine/device.hpp"
#include "mem/bram.hpp"
#include "mem/channel.hpp"
#include "mem/dma.hpp"
#include "mem/dram.hpp"
#include "mem/hierarchy.hpp"
#include "mem/memory.hpp"
#include "mem/sram_bank.hpp"

using namespace xd;
using mem::Channel;
using mem::DmaEngine;
using mem::Dram;
using mem::SramBank;
using mem::WordMemory;

TEST(WordMemory, ReadWriteAndBounds) {
  WordMemory m(16, "t");
  m.write(3, 77);
  EXPECT_EQ(m.read(3), 77u);
  EXPECT_THROW(m.read(16), SimError);
  EXPECT_THROW(m.write(100, 0), SimError);
  EXPECT_EQ(m.words_read(), 1u);
  EXPECT_EQ(m.words_written(), 1u);
}

TEST(WordMemory, BulkLoadDumpNotCounted) {
  WordMemory m(8, "t");
  m.load(2, {1, 2, 3});
  EXPECT_EQ(m.dump(2, 3), (std::vector<u64>{1, 2, 3}));
  EXPECT_EQ(m.total_traffic_words(), 0u);  // host-side init is free
  EXPECT_THROW(m.load(7, {1, 2}), ConfigError);
  EXPECT_THROW(m.dump(7, 2), ConfigError);
}

TEST(WordMemory, StorageIsAllocatedOnFirstWrite) {
  // A 64 MB DRAM slice costs nothing until something is written to it.
  WordMemory m(8ull * 1024 * 1024, "big");
  EXPECT_FALSE(m.allocated());
  EXPECT_EQ(m.words(), 8ull * 1024 * 1024);
  EXPECT_EQ(m.bytes(), 64ull * 1024 * 1024);
  EXPECT_EQ(m.read(12345), 0u);
  EXPECT_EQ(m.dump(100, 3), (std::vector<u64>{0, 0, 0}));
  EXPECT_FALSE(m.allocated());  // reads and dumps stay lazy
  EXPECT_EQ(m.words_read(), 1u);

  m.write(7, 42);
  EXPECT_TRUE(m.allocated());
  EXPECT_EQ(m.read(7), 42u);
  EXPECT_EQ(m.read(8), 0u);  // the rest of the memory is still zero
}

TEST(WordMemory, LoadAndFillAllocate) {
  WordMemory loaded(16, "l");
  loaded.load(4, {9, 8});
  EXPECT_TRUE(loaded.allocated());
  EXPECT_EQ(loaded.dump(3, 4), (std::vector<u64>{0, 9, 8, 0}));

  WordMemory filled(4, "f");
  filled.fill(5);
  EXPECT_TRUE(filled.allocated());
  EXPECT_EQ(filled.dump(0, 4), (std::vector<u64>{5, 5, 5, 5}));
}

TEST(WordMemory, BoundsChecksHoldBeforeAllocation) {
  // The capacity, not the (still empty) storage, bounds every access, with
  // the same errors an allocated memory gives.
  WordMemory m(16, "t");
  EXPECT_THROW(m.read(16), SimError);
  EXPECT_THROW(m.write(16, 1), SimError);
  EXPECT_THROW(m.load(15, {1, 2}), ConfigError);
  EXPECT_THROW(m.dump(15, 2), ConfigError);
  EXPECT_FALSE(m.allocated());
  try {
    m.read(20);
    FAIL() << "read past the end did not throw";
  } catch (const SimError& e) {
    EXPECT_EQ(std::string(e.what()),
              "out-of-bounds access to t: addr 20 of 16 words");
  }
}

TEST(Channel, SustainedRateEnforced) {
  Channel c(0.5, "t");  // one word every two cycles
  int transferred = 0;
  for (int cyc = 0; cyc < 100; ++cyc) {
    c.tick();
    if (c.can_transfer(1.0)) {
      c.transfer(1.0);
      ++transferred;
    }
  }
  EXPECT_EQ(transferred, 50);
  EXPECT_NEAR(c.utilization(), 1.0, 1e-9);
}

TEST(Channel, CreditDoesNotBankUnbounded) {
  Channel c(1.0, "t");  // burst cap defaults to rate + 2
  for (int cyc = 0; cyc < 100; ++cyc) c.tick();
  EXPECT_TRUE(c.can_transfer(3.0));
  EXPECT_FALSE(c.can_transfer(3.5));  // idle bandwidth is not banked
}

TEST(Channel, OverSubscriptionThrows) {
  Channel c(1.0, "t");
  c.tick();
  c.transfer(1.0);
  EXPECT_THROW(c.transfer(1.0), SimError);
}

TEST(Channel, WordsPerCycleConversion) {
  // 5.9 GB/s at 164 MHz ~= 4.497 words/cycle (the Table 4 GEMV numbers).
  const double wpc = Channel::words_per_cycle_for(5.9e9, 164e6);
  EXPECT_NEAR(wpc, 5.9e9 / (8.0 * 164e6), 1e-12);
  Channel c(wpc, "t");
  for (int cyc = 0; cyc < 1000; ++cyc) {
    c.tick();
    while (c.can_transfer(1.0)) c.transfer(1.0);
  }
  EXPECT_NEAR(c.achieved_bytes_per_s(164e6), 5.9e9, 0.01e9);
}

TEST(SramBank, OnePortEachPerCycle) {
  SramBank b(64, "t");
  b.tick();
  b.write(0, 5);
  EXPECT_THROW(b.write(1, 6), SimError);  // one write port
  EXPECT_EQ(b.read(0), 5u);
  EXPECT_THROW(b.read(1), SimError);  // one read port
  b.tick();  // ports reopen
  EXPECT_NO_THROW(b.read(0));
  EXPECT_NO_THROW(b.write(1, 7));
}

TEST(SramBank, PeakBandwidthIsTwoWordsPerCycle) {
  SramBank b(64, "t");
  for (int cyc = 0; cyc < 100; ++cyc) {
    b.tick();
    b.read(0);
    b.write(1, 0);
  }
  EXPECT_NEAR(b.achieved_bytes_per_s(130e6), SramBank::peak_bytes_per_s(130e6),
              1.0);
  EXPECT_NEAR(SramBank::peak_bytes_per_s(130e6), 2.08e9, 0.01e9);
}

TEST(Dram, LinkThrottlesAccesses) {
  Dram d(128, 0.25, "t");  // one word every four cycles
  int reads = 0;
  for (int cyc = 0; cyc < 100; ++cyc) {
    d.tick();
    if (d.can_read()) {
      d.read(0);
      ++reads;
    }
  }
  EXPECT_EQ(reads, 25);
}

TEST(Dma, StagingTimeMatchesBandwidth) {
  // Stage 1024 words over a 0.99 words/cycle link (Table 4's GEMV staging):
  // ~1034 cycles expected.
  WordMemory src(2048, "src");
  WordMemory dst(2048, "dst");
  for (std::size_t i = 0; i < 1024; ++i) src.load(i, {i * 3 + 1});
  Channel link(0.99, "link");
  DmaEngine dma(link, /*port_cap=*/4);
  dma.start(src, 0, dst, 0, 1024);
  u64 cycles = 0;
  while (dma.active()) {
    link.tick();
    dma.tick();
    ++cycles;
    ASSERT_LT(cycles, 10'000u);
  }
  EXPECT_NEAR(static_cast<double>(cycles), 1024.0 / 0.99, 8.0);
  EXPECT_EQ(dst.dump(0, 1024), src.dump(0, 1024));
}

TEST(Dma, PortCapLimitsBurst) {
  WordMemory src(64, "src");
  WordMemory dst(64, "dst");
  Channel link(16.0, "fat-link");  // faster than the ports
  DmaEngine dma(link, /*port_cap=*/4);
  dma.start(src, 0, dst, 0, 32);
  u64 cycles = 0;
  while (dma.active()) {
    link.tick();
    dma.tick();
    ++cycles;
  }
  EXPECT_EQ(cycles, 8u);  // 32 words / 4 per cycle
}

TEST(Dma, CountersResetPerTransfer) {
  // Regression: start() used to keep the previous transfer's moved_ and
  // busy_cycles_, so a reused engine reported cumulative totals and the
  // second transfer's words_moved() never matched its size.
  WordMemory src(64, "src");
  WordMemory dst(64, "dst");
  Channel link(4.0, "link");
  DmaEngine dma(link);
  for (int pass = 0; pass < 2; ++pass) {
    dma.start(src, 0, dst, 0, 32);
    u64 cycles = 0;
    while (dma.active()) {
      link.tick();
      dma.tick();
      ++cycles;
    }
    EXPECT_EQ(dma.words_moved(), 32u) << "pass " << pass;
    EXPECT_EQ(dma.busy_cycles(), cycles) << "pass " << pass;
  }
}

TEST(Dma, OverlappingForwardCopyGetsMemmoveSemantics) {
  // Regression: a same-memory transfer whose destination starts inside the
  // source range (dst > src) used to re-read already-written words — the
  // word-by-word forward copy smeared src[0..3] across the whole range.
  WordMemory m(64, "m");
  for (std::size_t i = 0; i < 16; ++i) m.load(i, {100 + i});
  Channel link(2.0, "link");  // slow link: the overlap spans many cycles
  DmaEngine dma(link);
  dma.start(m, 0, m, 4, 16);  // shift [0, 16) up by 4
  while (dma.active()) {
    link.tick();
    dma.tick();
  }
  for (std::size_t i = 0; i < 16; ++i) {
    EXPECT_EQ(m.read(4 + i), 100 + i) << "offset " << i;
  }
  EXPECT_EQ(dma.words_moved(), 16u);
}

TEST(Dma, OverlapShiftDownStaysForward) {
  // dst < src overlap is safe front-to-back; make sure the reverse path
  // does not kick in and corrupt it.
  WordMemory m(64, "m");
  for (std::size_t i = 0; i < 16; ++i) m.load(4 + i, {200 + i});
  Channel link(3.0, "link");
  DmaEngine dma(link);
  dma.start(m, 4, m, 0, 16);  // shift [4, 20) down by 4
  while (dma.active()) {
    link.tick();
    dma.tick();
  }
  for (std::size_t i = 0; i < 16; ++i) {
    EXPECT_EQ(m.read(i), 200 + i) << "offset " << i;
  }
}

TEST(Hierarchy, Table1Constants) {
  const auto cray = mem::cray_xd1();
  EXPECT_EQ(cray.level(mem::Level::A).name, "BRAM");
  EXPECT_NEAR(cray.level(mem::Level::A).bytes, 522.0 * 1024, 1.0);
  EXPECT_NEAR(cray.level(mem::Level::A).bytes_per_s, 209e9, 1e6);
  EXPECT_NEAR(cray.level(mem::Level::B).bytes, 16.0 * 1024 * 1024, 1.0);
  EXPECT_NEAR(cray.level(mem::Level::B).bytes_per_s, 12.8e9, 1e6);
  EXPECT_NEAR(cray.level(mem::Level::C).bytes, 8.0 * 1024 * 1024 * 1024, 1.0);
  EXPECT_NEAR(cray.level(mem::Level::C).bytes_per_s, 3.2e9, 1e6);

  const auto src = mem::src_mapstation();
  EXPECT_NEAR(src.level(mem::Level::B).bytes, 24.0 * 1024 * 1024, 1.0);
  EXPECT_NEAR(src.level(mem::Level::C).bytes_per_s, 1.4e9, 1e6);
}

TEST(BramBudget, AllocateReleaseAndCapacity) {
  mem::BramBudget b(1000, "test");
  b.allocate("x", 600);
  EXPECT_EQ(b.used_words(), 600u);
  EXPECT_TRUE(b.fits(400));
  EXPECT_FALSE(b.fits(401));
  EXPECT_THROW(b.allocate("y", 401), ConfigError);
  EXPECT_TRUE(b.try_allocate("y", 400));
  EXPECT_FALSE(b.try_allocate("z", 1));
  b.release("x");
  EXPECT_EQ(b.free_words(), 600u);
  EXPECT_THROW(b.release("x"), ConfigError);
  EXPECT_THROW(b.allocate("y", 1), ConfigError);  // duplicate name
}

TEST(BramBudget, MaxSquareBlockEdgeMatchesFig9Choice) {
  // XC2VP50: ~4 Mb BRAM = 65536 words; the largest m with 2 m^2 <= capacity
  // is 181, and the paper picks the power-of-two m = 128 below it.
  mem::BramBudget b(machine::xc2vp50());
  EXPECT_EQ(b.capacity_words(), 65536u);
  EXPECT_EQ(b.max_square_block_edge(), 181u);
  EXPECT_GE(b.max_square_block_edge(), 128u);
}

TEST(BramBudget, ReportListsRegions) {
  mem::BramBudget b(100, "dev");
  b.allocate("alpha", 10);
  b.allocate("beta", 20);
  const auto rep = b.report();
  EXPECT_NE(rep.find("alpha: 10"), std::string::npos);
  EXPECT_NE(rep.find("beta: 20"), std::string::npos);
  EXPECT_NE(rep.find("30/100"), std::string::npos);
}
