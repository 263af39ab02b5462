#include "noc/config.hpp"

#include <gtest/gtest.h>

#include <optional>
#include <sstream>
#include <utility>

#include "common/parse.hpp"

namespace nocalloc::noc {
namespace {

TEST(SimConfigParse, EmptyInputKeepsDefaults) {
  std::istringstream in("");
  const SimConfig cfg = parse_sim_config(in);
  EXPECT_EQ(cfg.topology, TopologyKind::kMesh8x8);
  EXPECT_EQ(cfg.vcs_per_class, 1u);
  EXPECT_EQ(cfg.spec, SpecMode::kPessimistic);
  EXPECT_EQ(cfg.buffer_depth, 8u);
}

TEST(SimConfigParse, ParsesAllKeys) {
  std::istringstream in(
      "# full config\n"
      "topology = fbfly\n"
      "vcs_per_class = 4\n"
      "vc_alloc = wf\n"
      "vc_arb = m\n"
      "sw_alloc = sep_of\n"
      "sw_arb = m\n"
      "spec = spec_gnt\n"
      "buffer_depth = 16\n"
      "pattern = tornado\n"
      "injection_rate = 0.35\n"
      "ugal_threshold = 5\n"
      "warmup_cycles = 100\n"
      "measure_cycles = 200\n"
      "drain_cycles = 300\n"
      "seed = 99\n");
  const SimConfig cfg = parse_sim_config(in);
  EXPECT_EQ(cfg.topology, TopologyKind::kFbfly4x4);
  EXPECT_EQ(cfg.vcs_per_class, 4u);
  EXPECT_EQ(cfg.vc_alloc, AllocatorKind::kWavefront);
  EXPECT_EQ(cfg.vc_arb, ArbiterKind::kMatrix);
  EXPECT_EQ(cfg.sw_alloc, AllocatorKind::kSeparableOutputFirst);
  EXPECT_EQ(cfg.sw_arb, ArbiterKind::kMatrix);
  EXPECT_EQ(cfg.spec, SpecMode::kConservative);
  EXPECT_EQ(cfg.buffer_depth, 16u);
  EXPECT_EQ(cfg.pattern, TrafficPattern::kTornado);
  EXPECT_DOUBLE_EQ(cfg.injection_rate, 0.35);
  EXPECT_EQ(cfg.ugal_threshold, 5u);
  EXPECT_EQ(cfg.warmup_cycles, 100u);
  EXPECT_EQ(cfg.measure_cycles, 200u);
  EXPECT_EQ(cfg.drain_cycles, 300u);
  EXPECT_EQ(cfg.seed, 99u);
}

TEST(SimConfigParse, InlineCommentsAndWhitespace) {
  std::istringstream in("  topology=ring   # trailing comment\n\n"
                        "\tseed =  7\n");
  const SimConfig cfg = parse_sim_config(in);
  EXPECT_EQ(cfg.topology, TopologyKind::kRing16);
  EXPECT_EQ(cfg.seed, 7u);
}

TEST(SimConfigParse, RoundTripsThroughToConfigString) {
  std::istringstream in("topology = torus\nvcs_per_class = 2\nspec = nonspec\n");
  const SimConfig cfg = parse_sim_config(in);
  std::istringstream again(to_config_string(cfg));
  const SimConfig reparsed = parse_sim_config(again);
  EXPECT_EQ(to_config_string(reparsed), to_config_string(cfg));
}

TEST(SimConfigParse, RejectsUnknownKey) {
  std::istringstream in("frobnicate = 3\n");
  EXPECT_DEATH(parse_sim_config(in), "unknown config key 'frobnicate'");
  // A plausible-looking misspelling names itself instead of a source line.
  std::istringstream misspelt("num_cycles_warmup = 100\n");
  EXPECT_DEATH(parse_sim_config(misspelt),
               "unknown config key 'num_cycles_warmup'");
}

TEST(SimConfigParse, RejectsBadValuesNamingKeyAndValue) {
  // Each bad value names its key, the value, and what was expected.
  const std::pair<const char*, const char*> cases[] = {
      {"topology = hypercube\n",
       "bad value 'hypercube' for config key 'topology' \\(expected mesh"},
      {"vc_alloc = islip\n", "bad value 'islip' for config key 'vc_alloc'"},
      {"sw_alloc = max\n", "bad value 'max' for config key 'sw_alloc'"},
      {"vc_arb = lottery\n", "bad value 'lottery' for config key 'vc_arb'"},
      {"spec = maybe\n", "bad value 'maybe' for config key 'spec'"},
      {"pattern = hotspot\n",
       "bad value 'hotspot' for config key 'pattern'"},
      {"buffer_depth = eight\n",
       "bad value 'eight' for config key 'buffer_depth' \\(expected an "
       "integer >= 1\\)"},
      {"buffer_depth = 0\n", "bad value '0' for config key 'buffer_depth'"},
      {"vcs_per_class = 0\n",
       "bad value '0' for config key 'vcs_per_class'"},
      {"measure_cycles = 0\n",
       "bad value '0' for config key 'measure_cycles' \\(expected an "
       "integer >= 1\\)"},
      {"seed = -1\n", "bad value '-1' for config key 'seed'"},
      {"warmup_cycles = 1e3\n",
       "bad value '1e3' for config key 'warmup_cycles'"},
      {"check_invariants = yes\n",
       "bad value 'yes' for config key 'check_invariants'"},
      {"injection_rate = fast\n",
       "bad value 'fast' for config key 'injection_rate' \\(expected a "
       "number >= 0\\)"},
      {"injection_rate = -0.1\n",
       "bad value '-0.1' for config key 'injection_rate'"},
  };
  for (const auto& [text, message] : cases) {
    SCOPED_TRACE(text);
    std::istringstream in(text);
    EXPECT_DEATH(parse_sim_config(in), message);
  }
}

// The whole-string numeric parsers shared with the command-line tools.
TEST(NumericParse, AcceptsWholeNumbersOnly) {
  EXPECT_EQ(parse_size("42"), std::optional<std::size_t>(42));
  EXPECT_EQ(parse_size("1", 1), std::optional<std::size_t>(1));
  EXPECT_EQ(parse_size("0", 1), std::nullopt);
  EXPECT_EQ(parse_size("18446744073709551615"),
            std::optional<std::size_t>(18446744073709551615ull));
  for (const char* bad : {"", "abc", "2abc", "-1", "-0", "+2", " 3", "3 ",
                          "1.5", "18446744073709551616"}) {
    EXPECT_EQ(parse_size(bad), std::nullopt) << "'" << bad << "'";
  }
  EXPECT_EQ(parse_rate("0.05"), std::optional<double>(0.05));
  EXPECT_EQ(parse_rate("0"), std::optional<double>(0.0));
  for (const char* bad : {"", "abc", "0.2x", "-0.2", "+0.2", " 0.1", "nan",
                          "inf", "1e999", "0.1,"}) {
    EXPECT_EQ(parse_rate(bad), std::nullopt) << "'" << bad << "'";
  }
}

TEST(SimConfig, RejectsShapesBeyondOneWord) {
  // The torus partition is M=2 x R=4 x C, so C=9 gives V = 72 > 64; the
  // abort names V and P instead of running on a hidden fallback.
  SimConfig cfg;
  cfg.topology = TopologyKind::kTorus8x8;
  cfg.vcs_per_class = 9;
  EXPECT_DEATH(SimInstance{cfg},
               "V = 2\\*4\\*9 = 72 VCs per port and P = 5 ports");
  // The largest representable torus shape (V = 64) still builds.
  cfg.vcs_per_class = 8;
  SimInstance ok(cfg);
  EXPECT_EQ(ok.network().router(0).vcs(), 64u);
}

TEST(ApplyOverride, OverridesSingleKey) {
  SimConfig cfg;
  apply_override(cfg, "injection_rate=0.42");
  EXPECT_DOUBLE_EQ(cfg.injection_rate, 0.42);
}

TEST(ApplyOverride, RejectsMissingEquals) {
  SimConfig cfg;
  EXPECT_DEATH(apply_override(cfg, "injection_rate 0.42"),
               "config entry 'injection_rate 0.42' is not of the form "
               "key=value");
}

TEST(SimConfigParse, BaseConfigIsLayered) {
  SimConfig base;
  base.vcs_per_class = 4;
  std::istringstream in("seed = 5\n");
  const SimConfig cfg = parse_sim_config(in, base);
  EXPECT_EQ(cfg.vcs_per_class, 4u);  // untouched keys keep the base value
  EXPECT_EQ(cfg.seed, 5u);
}

TEST(SimConfigParse, ParsedConfigRunsEndToEnd) {
  std::istringstream in(
      "topology = mesh\n"
      "injection_rate = 0.05\n"
      "warmup_cycles = 500\n"
      "measure_cycles = 1000\n"
      "drain_cycles = 1000\n");
  const SimResult r = run_simulation(parse_sim_config(in));
  EXPECT_GT(r.packets_measured, 50u);
  EXPECT_FALSE(r.saturated);
}

}  // namespace
}  // namespace nocalloc::noc
