// Harness-level determinism (DESIGN.md §12.3): every algorithm in the
// suite, at every configuration below, reproduces a committed golden bit
// for bit — every per-round sample, every floating-point aggregate, the
// network totals and the profiler's call counts. The goldens were
// recorded on the serial reference loop, which visited every active node
// in hash-rank order; the event loop that replaced it must execute the
// same node sequence, which is what the "...MatchesSerial..." names
// below still assert. Quiescence shrinks the executed set, and the
// goldens pin that it shrinks the same way.
//
// Regenerate after an intentional behaviour change (from the repo root):
//
//   GLAP_UPDATE_GOLDEN=1 ./build/tests/test_integration --gtest_filter='*Determinism*'
#include <gtest/gtest.h>

#include <algorithm>
#include <cinttypes>
#include <cstdint>
#include <cstdio>
#include <sstream>
#include <string>

#include "common/trace_format.hpp"
#include "harness/runner.hpp"
#include "support/golden.hpp"

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
  // (DESIGN.md §10.4); wall-clock is not and is never recorded.
  config.observability.profile = true;
  return config;
}

void line(std::string* out, const char* key, std::uint64_t value) {
  char buf[96];
  std::snprintf(buf, sizeof buf, "%s %" PRIu64 "\n", key, value);
  *out += buf;
}

void line(std::string* out, const char* key, double value) {
  char buf[96];
  std::snprintf(buf, sizeof buf, "%s %.17g\n", key, value);
  *out += buf;
}

/// Every field the determinism contract covers, one per line: doubles as
/// %.17g (round-trips exactly), profile phases as (label, calls) in report
/// order, then one line per evaluation round.
std::string render(const RunResult& r) {
  std::string out;
  line(&out, "total_migrations", r.total_migrations);
  line(&out, "migration_energy_j", r.migration_energy_j);
  line(&out, "total_energy_j", r.total_energy_j);
  line(&out, "slavo", r.slavo);
  line(&out, "slalm", r.slalm);
  line(&out, "slav", r.slav);
  line(&out, "messages", r.messages);
  line(&out, "bytes", r.bytes);
  line(&out, "final_active_pms", std::uint64_t{r.final_active_pms});
  line(&out, "final_overloaded_pms", std::uint64_t{r.final_overloaded_pms});
  line(&out, "final_bfd_bins", std::uint64_t{r.final_bfd_bins});
  line(&out, "net_sends", r.net_sends);
  line(&out, "net_delivered", r.net_delivered);
  line(&out, "net_delayed", r.net_delayed);
  line(&out, "net_dropped_loss", r.net_dropped_loss);
  line(&out, "net_dropped_congestion", r.net_dropped_congestion);
  for (const auto& phase : r.profile)
    line(&out, ("profile " + phase.label).c_str(), phase.calls);
  for (const RoundSample& s : r.rounds) {
    char buf[192];
    std::snprintf(buf, sizeof buf,
                  "round %u active %u overloaded %u migrations_cum %" PRIu64
                  " migrations_round %u migration_energy_j %.17g"
                  " quiescent %u\n",
                  s.round, s.active_pms, s.overloaded_pms, s.migrations_cum,
                  s.migrations_round, s.migration_energy_j, s.quiescent_pms);
    out += buf;
  }
  return out;
}

std::string golden_path(const std::string& name) {
  return std::string(GLAP_TESTS_DIR) + "/integration/golden/determinism/" +
         name;
}

/// Compares the run's rendered fields against golden `<name>.txt`. May
/// ASSERT or GTEST_SKIP: call it last.
void expect_golden(const RunResult& result, const std::string& name) {
  testing_support::expect_matches_golden(
      golden_path(name + ".txt"), render(result),
      "simulated fields or profile call counts changed; if intentional, "
      "regenerate with GLAP_UPDATE_GOLDEN=1");
}

std::string param_name(Algorithm algorithm) {
  return std::string(to_string(algorithm));
}

class DeterminismTest : public ::testing::TestWithParam<Algorithm> {};

TEST_P(DeterminismTest, EventEngineMatchesSerialBitForBit) {
  expect_golden(run_experiment(small_config(GetParam())),
                param_name(GetParam()));
}

TEST_P(DeterminismTest, EventEngineMatchesSerialUnderQuiescence) {
  ExperimentConfig config = small_config(GetParam());
  config.glap.quiescence.enabled = true;
  config.glap.quiescence.idle_rounds = 4;
  config.glap.quiescence.demand_epsilon = 0.10;
  expect_golden(run_experiment(config),
                param_name(GetParam()) + "_quiescence");
}

INSTANTIATE_TEST_SUITE_P(Algorithms, DeterminismTest,
                         ::testing::Values(Algorithm::kGlap, Algorithm::kGrmp,
                                           Algorithm::kEcoCloud,
                                           Algorithm::kPabfd),
                         [](const auto& info) {
                           return param_name(info.param);
                         });

// A run long enough for PMs to converge and park, with churn and demand
// drift supplying gossip / demand / migration re-activations. Besides the
// golden it must actually exercise the park/wake cycle, or the golden
// would pin nothing about re-activation.
TEST(Determinism, QuiescentPmsAreReactivatedIdenticallyUnderBothEngines) {
  ExperimentConfig config = small_config(Algorithm::kGlap);
  config.rounds = 80;
  config.glap.quiescence.enabled = true;
  config.glap.quiescence.idle_rounds = 3;
  config.glap.quiescence.demand_epsilon = 0.10;
  config.churn.enabled = true;
  config.churn.departure_prob = 0.003;
  config.churn.arrival_prob = 0.05;
  const RunResult result = run_experiment(config);

  std::uint32_t peak = 0;
  bool woke = false;
  for (std::size_t r = 0; r < result.rounds.size(); ++r) {
    peak = std::max(peak, result.rounds[r].quiescent_pms);
    if (r > 0 &&
        result.rounds[r].quiescent_pms < result.rounds[r - 1].quiescent_pms)
      woke = true;
  }
  EXPECT_GT(peak, 0u) << "no PM ever parked — the scenario is too noisy";
  EXPECT_TRUE(woke) << "no parked PM was ever re-activated";
  expect_golden(result, "GLAP_quiescence_churn");
}

// ---- Network model (DESIGN.md §13.3) ------------------------------------
// Message ids — and with them every loss decision and queueing outcome —
// are assigned in executed interaction order, so the network totals in
// the goldens pin that order too.

class NetworkDeterminismTest : public ::testing::TestWithParam<Algorithm> {};

TEST_P(NetworkDeterminismTest, EventEngineMatchesSerialWithNetworkAndLoss) {
  ExperimentConfig config = small_config(GetParam());
  config.network.enabled = true;
  config.network.loss_rate = 0.01;
  const RunResult result = run_experiment(config);
  EXPECT_GT(result.net_sends, 0u) << "network model saw no traffic";
  expect_golden(result, param_name(GetParam()) + "_network");
}

INSTANTIATE_TEST_SUITE_P(Algorithms, NetworkDeterminismTest,
                         ::testing::Values(Algorithm::kGlap, Algorithm::kGrmp,
                                           Algorithm::kEcoCloud),
                         [](const auto& info) {
                           return param_name(info.param);
                         });

TEST(Determinism, NetworkRunIsReproducible) {
  ExperimentConfig config = small_config(Algorithm::kGlap);
  config.network.enabled = true;
  config.network.loss_rate = 0.01;
  const RunResult a = run_experiment(config);
  const RunResult b = run_experiment(config);
  EXPECT_EQ(render(a), render(b));
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
  // wake must fire at the recorded point.
  ExperimentConfig config = small_config(Algorithm::kGlap);
  config.rounds = 60;
  config.network.enabled = true;
  config.network.loss_rate = 0.005;
  config.glap.quiescence.enabled = true;
  config.glap.quiescence.idle_rounds = 4;
  config.glap.quiescence.demand_epsilon = 0.10;
  expect_golden(run_experiment(config), "GLAP_network_quiescence");
}

// ---- trace-byte determinism (DESIGN.md §10.6) ---------------------------
// The GTB binary trace is written through the same round-commit path as
// JSONL, so its bytes — not just the decoded events — are part of the
// determinism contract, with or without sampling.

std::string captured_trace(ExperimentConfig config) {
  std::ostringstream sink;
  config.observability.trace_sink = &sink;
  config.observability.trace_format = trace::Format::kGtb;
  run_experiment(config);
  return sink.str();
}

void expect_trace_golden(const std::string& bytes, const std::string& name) {
  testing_support::expect_matches_golden(
      golden_path(name + ".gtb"), bytes,
      "GTB trace bytes changed; if intentional, regenerate with "
      "GLAP_UPDATE_GOLDEN=1");
}

TEST(Determinism, GtbTraceBytesIdenticalAcrossEngines) {
  const std::string trace = captured_trace(small_config(Algorithm::kGlap));
  ASSERT_GT(trace.size(), trace::kGtbHeaderBytes);
  expect_trace_golden(trace, "GLAP_trace");
}

TEST(Determinism, SampledGtbTraceBytesIdenticalAcrossEngines) {
  // Sampling keeps a pure-hash subset, so the surviving byte stream is
  // pinned too — and must be a strict subset of the full trace.
  ExperimentConfig config = small_config(Algorithm::kGlap);
  config.observability.trace_sample_shuffle = 0.25;
  const std::string sampled = captured_trace(config);

  ExperimentConfig full = config;
  full.observability.trace_sample_shuffle = 1.0;
  EXPECT_LT(sampled.size(), captured_trace(full).size())
      << "0.25 shuffle keep did not shrink the trace";
  expect_trace_golden(sampled, "GLAP_trace_sampled");
}

}  // namespace
}  // namespace glap::harness
