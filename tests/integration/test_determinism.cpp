// Harness-level determinism: the event-driven scheduler (DESIGN.md §12)
// must reproduce the serial reference run bit-for-bit — every per-round
// sample and every floating-point aggregate — for every algorithm in the
// suite, at every configuration, including quiescence, where the executed
// set shrinks but must shrink identically under both engines (profile
// call counts included).
#include <gtest/gtest.h>

#include <cstdint>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "common/trace_format.hpp"
#include "harness/runner.hpp"

namespace glap::harness {
namespace {

ExperimentConfig small_config(Algorithm algorithm) {
  ExperimentConfig config;
  config.algorithm = algorithm;
  config.pm_count = 80;
  config.vm_ratio = 2;
  config.warmup_rounds = 60;
  config.rounds = 40;
  config.seed = 7;
  config.fit_glap_phases_to_warmup();
  // Profiler phase *counts* are part of the determinism contract
  // (DESIGN.md §10.4); wall-clock is not and is never compared.
  config.observability.profile = true;
  return config;
}

/// The deterministic half of the phase profile: (label, calls) pairs,
/// in report order (wall-clock time is host-dependent and left out).
std::vector<std::pair<std::string, std::uint64_t>> deterministic_profile(
    const RunResult& result) {
  std::vector<std::pair<std::string, std::uint64_t>> out;
  for (const auto& phase : result.profile)
    out.emplace_back(phase.label, phase.calls);
  return out;
}

void expect_identical(const RunResult& a, const RunResult& b,
                      const char* what) {
  EXPECT_EQ(a.total_migrations, b.total_migrations) << what;
  EXPECT_EQ(a.migration_energy_j, b.migration_energy_j) << what;
  EXPECT_EQ(a.total_energy_j, b.total_energy_j) << what;
  EXPECT_EQ(a.slavo, b.slavo) << what;
  EXPECT_EQ(a.slalm, b.slalm) << what;
  EXPECT_EQ(a.slav, b.slav) << what;
  EXPECT_EQ(a.messages, b.messages) << what;
  EXPECT_EQ(a.bytes, b.bytes) << what;
  EXPECT_EQ(a.final_active_pms, b.final_active_pms) << what;
  EXPECT_EQ(a.final_overloaded_pms, b.final_overloaded_pms) << what;
  EXPECT_EQ(a.final_bfd_bins, b.final_bfd_bins) << what;
  EXPECT_EQ(deterministic_profile(a), deterministic_profile(b)) << what;
  ASSERT_EQ(a.rounds.size(), b.rounds.size()) << what;
  for (std::size_t r = 0; r < a.rounds.size(); ++r) {
    EXPECT_EQ(a.rounds[r].active_pms, b.rounds[r].active_pms)
        << what << " round " << r;
    EXPECT_EQ(a.rounds[r].overloaded_pms, b.rounds[r].overloaded_pms)
        << what << " round " << r;
    EXPECT_EQ(a.rounds[r].migrations_cum, b.rounds[r].migrations_cum)
        << what << " round " << r;
    EXPECT_EQ(a.rounds[r].migrations_round, b.rounds[r].migrations_round)
        << what << " round " << r;
    EXPECT_EQ(a.rounds[r].migration_energy_j, b.rounds[r].migration_energy_j)
        << what << " round " << r;
    EXPECT_EQ(a.rounds[r].quiescent_pms, b.rounds[r].quiescent_pms)
        << what << " round " << r;
  }
}

class DeterminismTest : public ::testing::TestWithParam<Algorithm> {};

TEST_P(DeterminismTest, EventEngineMatchesSerialBitForBit) {
  ExperimentConfig config = small_config(GetParam());
  const RunResult serial = run_experiment(config);

  config.event_engine = true;
  const RunResult event = run_experiment(config);
  expect_identical(serial, event, "event");
}

TEST_P(DeterminismTest, EventEngineMatchesSerialUnderQuiescence) {
  ExperimentConfig config = small_config(GetParam());
  config.glap.quiescence.enabled = true;
  config.glap.quiescence.idle_rounds = 4;
  config.glap.quiescence.demand_epsilon = 0.10;
  const RunResult serial = run_experiment(config);

  config.event_engine = true;
  const RunResult event = run_experiment(config);
  expect_identical(serial, event, "event+quiescence");
}

INSTANTIATE_TEST_SUITE_P(Algorithms, DeterminismTest,
                         ::testing::Values(Algorithm::kGlap, Algorithm::kGrmp,
                                           Algorithm::kEcoCloud,
                                           Algorithm::kPabfd),
                         [](const auto& info) {
                           return std::string(to_string(info.param));
                         });

// Satellite contract for the quiescence engine: a run long enough for PMs
// to converge and park, with churn and demand drift supplying gossip /
// demand / migration re-activations, must stay field-identical between
// the serial and event engines AND must actually exercise the park/wake
// cycle (otherwise this test would pass vacuously).
TEST(Determinism, QuiescentPmsAreReactivatedIdenticallyUnderBothEngines) {
  ExperimentConfig config = small_config(Algorithm::kGlap);
  config.rounds = 80;
  config.glap.quiescence.enabled = true;
  config.glap.quiescence.idle_rounds = 3;
  config.glap.quiescence.demand_epsilon = 0.10;
  config.churn.enabled = true;
  config.churn.departure_prob = 0.003;
  config.churn.arrival_prob = 0.05;
  const RunResult serial = run_experiment(config);

  config.event_engine = true;
  const RunResult event = run_experiment(config);
  expect_identical(serial, event, "event+quiescence+churn");

  std::uint32_t peak = 0;
  bool woke = false;
  for (std::size_t r = 0; r < serial.rounds.size(); ++r) {
    peak = std::max(peak, serial.rounds[r].quiescent_pms);
    if (r > 0 &&
        serial.rounds[r].quiescent_pms < serial.rounds[r - 1].quiescent_pms)
      woke = true;
  }
  EXPECT_GT(peak, 0u) << "no PM ever parked — the scenario is too noisy";
  EXPECT_TRUE(woke) << "no parked PM was ever re-activated";
}

// ---- Network model (DESIGN.md §13.3) ------------------------------------
// Message ids — and with them every loss decision and queueing outcome —
// are assigned in executed interaction order, which the serial and event
// engines share. The contract extends expect_identical with the
// network-model totals.

void expect_identical_net(const RunResult& a, const RunResult& b,
                          const char* what) {
  expect_identical(a, b, what);
  EXPECT_EQ(a.net_sends, b.net_sends) << what;
  EXPECT_EQ(a.net_delivered, b.net_delivered) << what;
  EXPECT_EQ(a.net_delayed, b.net_delayed) << what;
  EXPECT_EQ(a.net_dropped_loss, b.net_dropped_loss) << what;
  EXPECT_EQ(a.net_dropped_congestion, b.net_dropped_congestion) << what;
}

class NetworkDeterminismTest : public ::testing::TestWithParam<Algorithm> {};

TEST_P(NetworkDeterminismTest, EventEngineMatchesSerialWithNetworkAndLoss) {
  ExperimentConfig config = small_config(GetParam());
  config.network.enabled = true;
  config.network.loss_rate = 0.01;
  const RunResult serial = run_experiment(config);
  EXPECT_GT(serial.net_sends, 0u) << "network model saw no traffic";

  config.event_engine = true;
  const RunResult event = run_experiment(config);
  expect_identical_net(serial, event, "event+network");
}

INSTANTIATE_TEST_SUITE_P(Algorithms, NetworkDeterminismTest,
                         ::testing::Values(Algorithm::kGlap, Algorithm::kGrmp,
                                           Algorithm::kEcoCloud),
                         [](const auto& info) {
                           return std::string(to_string(info.param));
                         });

TEST(Determinism, NetworkRunIsReproducible) {
  ExperimentConfig config = small_config(Algorithm::kGlap);
  config.network.enabled = true;
  config.network.loss_rate = 0.01;
  const RunResult a = run_experiment(config);
  const RunResult b = run_experiment(config);
  expect_identical_net(a, b, "repeat+network");
  EXPECT_GT(a.net_dropped_loss, 0u) << "1% loss never fired";
}

TEST(Determinism, MoreThanOneEngineThreadIsRejected) {
  // Every simulation runs on one thread; the retired wave-parallel
  // setting must fail loudly instead of silently running serial.
  ExperimentConfig config = small_config(Algorithm::kGlap);
  config.engine_threads = 2;
  try {
    run_experiment(config);
    FAIL() << "engine_threads = 2 was accepted";
  } catch (const precondition_error& e) {
    EXPECT_NE(std::string(e.what()).find("wave-parallel engine was removed"),
              std::string::npos)
        << e.what();
  }
}

TEST(Determinism, EventEngineMatchesSerialWithNetworkAndQuiescence) {
  // Quiescence + network exercises the deferred-exchange machinery: a
  // delayed reply must block the initiator's park vote and the kNetwork
  // wake must fire identically under both engines. Loss alone cannot
  // defer, so force queueing delays with a starved uplink.
  ExperimentConfig config = small_config(Algorithm::kGlap);
  config.rounds = 60;
  config.network.enabled = true;
  config.network.loss_rate = 0.005;
  config.glap.quiescence.enabled = true;
  config.glap.quiescence.idle_rounds = 4;
  config.glap.quiescence.demand_epsilon = 0.10;
  const RunResult serial = run_experiment(config);

  config.event_engine = true;
  const RunResult event = run_experiment(config);
  expect_identical_net(serial, event, "event+network+quiescence");
}

// ---- trace-byte determinism (DESIGN.md §10.6) ---------------------------
// The GTB binary trace is written through the same round-commit path as
// JSONL, so its bytes — not just the decoded events — are part of the
// determinism contract: the serial and event engines must produce
// identical files, with or without sampling.

std::string captured_trace(ExperimentConfig config) {
  std::ostringstream sink;
  config.observability.trace_sink = &sink;
  config.observability.trace_format = trace::Format::kGtb;
  run_experiment(config);
  return sink.str();
}

TEST(Determinism, GtbTraceBytesIdenticalAcrossEngines) {
  const ExperimentConfig config = small_config(Algorithm::kGlap);
  const std::string serial = captured_trace(config);
  ASSERT_GT(serial.size(), trace::kGtbHeaderBytes);

  ExperimentConfig event = config;
  event.event_engine = true;
  EXPECT_EQ(serial, captured_trace(event)) << "event";
}

TEST(Determinism, SampledGtbTraceBytesIdenticalAcrossEngines) {
  // Sampling keeps a pure-hash subset, so the surviving byte stream must
  // also be engine-independent — and a strict subset of the full trace.
  ExperimentConfig config = small_config(Algorithm::kGlap);
  config.observability.trace_sample_shuffle = 0.25;
  const std::string serial = captured_trace(config);

  ExperimentConfig event = config;
  event.event_engine = true;
  EXPECT_EQ(serial, captured_trace(event)) << "event+sampling";

  ExperimentConfig full = config;
  full.observability.trace_sample_shuffle = 1.0;
  EXPECT_LT(serial.size(), captured_trace(full).size())
      << "0.25 shuffle keep did not shrink the trace";
}

}  // namespace
}  // namespace glap::harness
