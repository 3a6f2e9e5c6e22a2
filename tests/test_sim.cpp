// sim::Trace, the cycle-level event sink that the reduction circuit and
// telemetry sessions emit into: ring-buffer retention, filtering and
// rendering, and the reduction circuit's lifecycle events.
#include <gtest/gtest.h>

#include <optional>
#include <string>

#include "fp/softfloat.hpp"
#include "reduce/reduction_circuit.hpp"
#include "sim/trace.hpp"

using namespace xd;

TEST(Trace, RingBufferCapsRetention) {
  sim::Trace t(4);
  for (u64 c = 0; c < 10; ++c) t.emit(c, "src", "e");
  EXPECT_EQ(t.events().size(), 4u);
  EXPECT_EQ(t.total_emitted(), 10u);
  EXPECT_EQ(t.events().front().cycle, 6u);
}

TEST(Trace, FilterAndRender) {
  sim::Trace t;
  t.emit(1, "alpha", "one");
  t.emit(2, "beta", "two");
  t.emit(3, "alphabet", "three");
  EXPECT_EQ(t.filter("alpha").size(), 2u);
  EXPECT_EQ(t.count_containing("two"), 1u);
  const auto s = t.render();
  EXPECT_NE(s.find("2  beta  two"), std::string::npos);
  t.clear();
  EXPECT_TRUE(t.events().empty());
}

TEST(Trace, ReductionCircuitEmitsLifecycleEvents) {
  sim::Trace trace;
  reduce::ReductionCircuit c;
  c.attach_trace(&trace);
  // Stream enough uniform sets to force at least one swap and emissions.
  const std::size_t sets = 30, s = 20;
  std::size_t done = 0, si = 0, ei = 0;
  u64 guard = 0;
  while (done < sets) {
    std::optional<reduce::Input> in;
    if (si < sets) in = reduce::Input{fp::to_bits(1.0), ei + 1 == s};
    const bool consumed = c.cycle(in);
    if (in && consumed && ++ei == s) {
      ei = 0;
      ++si;
    }
    if (c.take_result()) ++done;
    ASSERT_LT(++guard, 100'000u);
  }
  EXPECT_GE(trace.count_containing("swap"), 2u);
  EXPECT_EQ(trace.count_containing("emit"), sets);
  EXPECT_EQ(trace.count_containing("stall"), 0u);
}
