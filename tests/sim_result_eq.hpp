// Exact SimResult comparison, shared by the tests that run one simulation
// two ways (restored vs uninterrupted, cached vs cold, checked vs
// unchecked, kernel vs reference path).
#pragma once

#include <gtest/gtest.h>

#include "noc/sim.hpp"

namespace nocalloc::noc {

/// Deterministic simulations: every field must match exactly, doubles
/// included (identical operations in identical order). One EXPECT per
/// field, so a failure names the field that moved.
inline void expect_identical(const SimResult& got, const SimResult& want) {
  EXPECT_EQ(got.avg_packet_latency, want.avg_packet_latency);
  EXPECT_EQ(got.avg_network_latency, want.avg_network_latency);
  EXPECT_EQ(got.p99_packet_latency, want.p99_packet_latency);
  EXPECT_EQ(got.packets_measured, want.packets_measured);
  EXPECT_EQ(got.offered_flit_rate, want.offered_flit_rate);
  EXPECT_EQ(got.accepted_flit_rate, want.accepted_flit_rate);
  EXPECT_EQ(got.saturated, want.saturated);
  EXPECT_EQ(got.spec_grants_used, want.spec_grants_used);
  EXPECT_EQ(got.misspeculations, want.misspeculations);
  EXPECT_EQ(got.ugal_nonminimal_fraction, want.ugal_nonminimal_fraction);
  EXPECT_EQ(got.cycles_simulated, want.cycles_simulated);
  EXPECT_EQ(got.router_steps_total, want.router_steps_total);
  EXPECT_EQ(got.router_steps_skipped, want.router_steps_skipped);
  EXPECT_EQ(got.arena_high_water, want.arena_high_water);
}

}  // namespace nocalloc::noc
