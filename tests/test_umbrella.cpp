// The umbrella header must compile standalone and expose the full API.
#include <gtest/gtest.h>

#include "xdblas.hpp"

#include "common/random.hpp"

using namespace xd;

TEST(Umbrella, EndToEndThroughSingleInclude) {
  Rng rng(1);
  host::Context ctx;
  const auto u = rng.vector(64);
  EXPECT_NEAR(ctx.runtime().run(host::OpDesc::dot(u, u)).values.at(0),
              host::ref_dot(u, u), 1e-10);

  reduce::ReductionCircuit circuit;
  EXPECT_EQ(circuit.adders_used(), 1u);

  const auto point = model::gemm_sc05(64, 8, 8);
  EXPECT_DOUBLE_EQ(point.words_per_cycle, 3.0);
}

TEST(Umbrella, GemmAutoPanelEdge) {
  // n = 96 is not a multiple of the default b = 512; gemm picks b = 96.
  Rng rng(2);
  const host::ContextConfig cfg;
  host::Runtime rt(cfg);
  EXPECT_EQ(host::choose_panel_edge(cfg, 96), 96u);
  const auto a = rng.matrix(96, 96);
  const auto b = rng.matrix(96, 96);
  const auto out = rt.run(host::OpDesc::gemm(a, b, 96));
  EXPECT_LT(host::max_abs_diff(out.values, host::ref_gemm(a, b, 96)), 1e-9);
  // n = 40: multiple of m = 8, b = 40 works.
  EXPECT_EQ(host::choose_panel_edge(cfg, 40), 40u);
  // n = 12: not a multiple of m = 8 in any legal b.
  EXPECT_THROW(host::choose_panel_edge(cfg, 12), ConfigError);
}
