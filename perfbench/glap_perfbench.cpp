// Benchmark driver for the GLAP simulator. perfbench/run.py spawns one
// process per measurement so that each process's peak RSS belongs to one
// workload cell; every subcommand prints JSON lines on stdout.
//
//   glap_perfbench fingerprint
//       compiler, build type and hot-check setting of this binary.
//   glap_perfbench sim <workload> <algorithm> <seed> <budget_s> <min_reps>
//                      <setups_per_rep> <traced 0|1>
//       Times set-up calls (the same cell with 0 warmup and 1 evaluation
//       round) and full runs through harness::run_experiment, and prints
//       each run's result fields for the digest. Each repetition is a full
//       run followed by setups_per_rep warm set-up calls, so the set-up
//       samples spread over the whole budget. With traced=1 every run
//       is followed by the same run with the profile and metric registry
//       on (its result must digest identically). min_reps=0 sets the cell
//       up once and exits: its peak RSS is the set-up's alone.
//   glap_perfbench layers <workload> <seed>
//       Bench-side spans around direct calls into each module's public
//       functions (qlearn, core::QTablePair, sim::Engine::step,
//       net::NetworkModel::round_trip, cloud::DataCenter, trace demand).
//
// glap-lint: allow-file(wall-clock): a benchmark times calls by design;
// readings are printed, never fed back into simulation state.
#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <fstream>
#include <memory>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "cloud/datacenter.hpp"
#include "common/rng.hpp"
#include "core/qtable_pair.hpp"
#include "harness/runner.hpp"
#include "net/network_model.hpp"
#include "qlearn/qtable.hpp"
#include "sim/engine.hpp"
#include "sim/protocol.hpp"
#include "trace/google_synth.hpp"

#ifndef GLAP_PERFBENCH_BUILD_TYPE
#define GLAP_PERFBENCH_BUILD_TYPE "unknown"
#endif

namespace {

using namespace glap;
using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

/// Reads a "Key:  <n> kB" line from /proc/self/status, in MiB.
double proc_status_mib(const char* key) {
  std::ifstream in("/proc/self/status");
  std::string line;
  const std::size_t len = std::strlen(key);
  while (std::getline(in, line))
    if (line.compare(0, len, key) == 0 && line.size() > len &&
        line[len] == ':')
      return std::atof(line.c_str() + len + 1) / 1024.0;
  return 0.0;
}

// ---- workloads ----------------------------------------------------------

harness::Algorithm parse_algorithm(std::string_view name) {
  if (name == "glap") return harness::Algorithm::kGlap;
  if (name == "grmp") return harness::Algorithm::kGrmp;
  if (name == "ecocloud") return harness::Algorithm::kEcoCloud;
  if (name == "pabfd") return harness::Algorithm::kPabfd;
  std::fprintf(stderr, "unknown algorithm '%.*s'\n",
               static_cast<int>(name.size()), name.data());
  std::exit(2);
}

/// The BENCH_scale stable-heavy demand mix: most VMs sit inside the
/// quiescence epsilon band, so the event engine parks most of the fleet.
void stable_heavy_mix(trace::GoogleSynthConfig& workload) {
  workload.w_stable = 0.70;
  workload.w_diurnal = 0.15;
  workload.w_random_walk = 0.10;
  workload.w_bursty = 0.04;
  workload.w_spike = 0.01;
}

/// The lossy-net-1k fabric: the message-level network model with 1% loss
/// per leg on the default 32-PM racks.
net::NetworkConfig lossy_fabric() {
  net::NetworkConfig network;
  network.enabled = true;
  network.loss_rate = 0.01;
  return network;
}

/// One cell of a workload. Every cell runs the serial reference engine
/// (engine_threads = 1); only fleet-10k switches to the event engine.
harness::ExperimentConfig workload_config(std::string_view workload,
                                          harness::Algorithm algorithm,
                                          std::uint64_t seed) {
  harness::ExperimentConfig config;
  config.algorithm = algorithm;
  config.seed = seed;
  config.vm_ratio = 2;
  config.engine_threads = 1;
  if (workload == "paper-500") {
    config.pm_count = 500;
    config.warmup_rounds = 700;
    config.rounds = 720;
  } else if (workload == "fleet-10k") {
    config.pm_count = 10'000;
    config.warmup_rounds = 20;
    config.rounds = 100;
    stable_heavy_mix(config.workload);
    config.event_engine = true;
    config.glap.quiescence.enabled = true;
    config.glap.quiescence.demand_epsilon = 0.15;
    config.glap.quiescence.idle_rounds = 8;
  } else if (workload == "lossy-net-1k") {
    config.pm_count = 1000;
    config.warmup_rounds = 150;
    config.rounds = 150;
    config.network = lossy_fabric();
  } else if (workload == "baselines-2k") {
    config.pm_count = 2000;
    config.warmup_rounds = 700;
    config.rounds = 720;
  } else {
    std::fprintf(stderr, "unknown workload '%.*s'\n",
                 static_cast<int>(workload.size()), workload.data());
    std::exit(2);
  }
  config.fit_glap_phases_to_warmup();
  return config;
}

/// The same cell cut to its set-up: fleet, demand streams, placement,
/// engine and protocol install, plus one evaluation round.
harness::ExperimentConfig setup_config(harness::ExperimentConfig config) {
  config.warmup_rounds = 0;
  config.rounds = 1;
  config.fit_glap_phases_to_warmup();
  return config;
}

// ---- JSON output ----------------------------------------------------------

void print_double(const char* key, double v) {
  std::printf("\"%s\":%.17g,", key, v);
}
void print_u64(const char* key, std::uint64_t v) {
  std::printf("\"%s\":%llu,", key, static_cast<unsigned long long>(v));
}
void print_series(const char* key, const std::vector<harness::RoundSample>& rounds,
                  std::uint32_t harness::RoundSample::*field) {
  std::printf("\"%s\":[", key);
  for (std::size_t i = 0; i < rounds.size(); ++i)
    std::printf("%s%u", i == 0 ? "" : ",", rounds[i].*field);
  std::printf("]");
}

/// The simulation outputs the digest covers (run.py hashes them).
void print_result_fields(const harness::RunResult& r) {
  std::printf("\"result\":{");
  print_u64("total_migrations", r.total_migrations);
  print_u64("final_active_pms", r.final_active_pms);
  print_u64("final_overloaded_pms", r.final_overloaded_pms);
  print_double("slavo", r.slavo);
  print_double("slalm", r.slalm);
  print_double("slav", r.slav);
  print_double("total_energy_j", r.total_energy_j);
  print_double("migration_energy_j", r.migration_energy_j);
  print_u64("messages", r.messages);
  print_u64("bytes", r.bytes);
  print_u64("net_sends", r.net_sends);
  print_u64("net_delivered", r.net_delivered);
  print_u64("net_delayed", r.net_delayed);
  print_u64("net_dropped_loss", r.net_dropped_loss);
  print_u64("net_dropped_congestion", r.net_dropped_congestion);
  print_series("active_pms", r.rounds, &harness::RoundSample::active_pms);
  std::printf(",");
  print_series("overloaded_pms", r.rounds, &harness::RoundSample::overloaded_pms);
  std::printf(",");
  print_series("migrations_round", r.rounds,
               &harness::RoundSample::migrations_round);
  std::printf("}");
}

/// Profile wall times, deterministic call counts and registry counters of
/// a traced run.
void print_trace_fields(const harness::RunResult& r) {
  std::printf(",\"profile\":{");
  bool first = true;
  for (const auto& phase : r.profile) {
    std::printf("%s\"%s\":{\"calls\":%llu,\"wall_ns\":%llu}",
                first ? "" : ",", phase.label.c_str(),
                static_cast<unsigned long long>(phase.calls),
                static_cast<unsigned long long>(phase.wall_ns));
    first = false;
  }
  std::printf("},\"counters\":{");
  const char* names[] = {
      "learning.train_cycles",      "learning.merges",
      "consolidation.exchanges",    "consolidation.pi_in_rejects",
      "consolidation.capacity_rejects", "cyclon.shuffles",
      "dc.migrations",              "dc.power_transitions",
      "netmodel.sends",             "netmodel.delivered",
      "netmodel.delayed",           "netmodel.dropped_loss",
      "netmodel.dropped_congestion"};
  first = true;
  for (const char* name : names) {
    std::printf("%s\"%s\":%llu", first ? "" : ",", name,
                static_cast<unsigned long long>(
                    r.metrics ? r.metrics->counter(name)->value() : 0));
    first = false;
  }
  std::printf("},\"mean_quiescent_pms\":%.17g", r.mean_quiescent_pms());
}

int cmd_fingerprint() {
#if defined(__GNUC__) && !defined(__clang__)
  const char* compiler = "gcc " __VERSION__;
#else
  const char* compiler = __VERSION__;  // clang's names itself
#endif
  std::printf("{\"compiler\":\"%s\",\"build_type\":\"%s\",\"checks\":%s}\n",
              compiler, GLAP_PERFBENCH_BUILD_TYPE,
#ifdef GLAP_NO_HOT_CHECKS
              "false"
#else
              "true"
#endif
  );
  return 0;
}

// ---- sim: set-up calls and full runs ----------------------------------------

/// One set-up call. The first in a process is `cold`: it also pays for
/// fresh pages from the kernel, which later calls reuse from the heap.
void time_setup(const harness::ExperimentConfig& config, bool cold) {
  const auto start = Clock::now();
  const harness::RunResult result = harness::run_experiment(config);
  const double s = seconds_since(start);
  if (result.rounds.size() != config.rounds) std::abort();
  std::printf("{\"event\":\"setup\",\"cold\":%s,\"seconds\":%.9f}\n",
              cold ? "true" : "false", s);
  std::fflush(stdout);
}

/// One full run; a run that throws is reported, not retried.
void time_run(const harness::ExperimentConfig& config, bool traced) {
  harness::ExperimentConfig cfg = config;
  cfg.observability.profile = traced;
  cfg.observability.metrics = traced;
  const auto start = Clock::now();
  try {
    const harness::RunResult result = harness::run_experiment(cfg);
    const double s = seconds_since(start);
    std::printf("{\"event\":\"run\",\"traced\":%s,\"seconds\":%.9f,",
                traced ? "true" : "false", s);
    print_u64("rounds", cfg.warmup_rounds + cfg.rounds);
    print_u64("pm_count", cfg.pm_count);
    print_result_fields(result);
    if (traced) print_trace_fields(result);
    std::printf("}\n");
  } catch (const std::exception& e) {
    std::printf("{\"event\":\"run_error\",\"traced\":%s}\n",
                traced ? "true" : "false");
    std::fprintf(stderr, "run_experiment threw: %s\n", e.what());
  }
  std::fflush(stdout);
}

int cmd_sim(int argc, char** argv) {
  if (argc != 9) {
    std::fprintf(stderr,
                 "usage: glap_perfbench sim <workload> <algorithm> <seed> "
                 "<budget_s> <min_reps> <setups_per_rep> <traced>\n");
    return 2;
  }
  const harness::ExperimentConfig config = workload_config(
      argv[2], parse_algorithm(argv[3]), std::strtoull(argv[4], nullptr, 10));
  const double budget_s = std::atof(argv[5]);
  const int min_reps = std::atoi(argv[6]);
  const int setups_per_rep = std::atoi(argv[7]);
  const bool traced = std::atoi(argv[8]) != 0;
  const harness::ExperimentConfig setup = setup_config(config);

  const auto start = Clock::now();
  time_setup(setup, /*cold=*/true);
  // Peak RSS of a process that has only set the cell up.
  std::printf("{\"event\":\"setup_rss\",\"mib\":%.6f}\n",
              proc_status_mib("VmHWM"));
  // Each repetition is a full run followed by warm set-up calls; a new
  // repetition starts while at least half of it fits in the budget, so
  // the process ends within half a repetition of the budget.
  int reps = 0;
  double last_rep_s = 0.0;
  while (reps < min_reps ||
         (reps > 0 && seconds_since(start) + 0.5 * last_rep_s <= budget_s)) {
    const auto rep_start = Clock::now();
    time_run(config, false);
    if (traced) time_run(config, true);
    for (int i = 0; i < setups_per_rep; ++i) time_setup(setup, /*cold=*/false);
    ++reps;
    last_rep_s = seconds_since(rep_start);
  }
  std::printf("{\"event\":\"end\",\"peak_rss_mib\":%.6f}\n",
              proc_status_mib("VmHWM"));
  return 0;
}

// ---- layers: bench-side spans ------------------------------------------------

void print_layer(const char* name, double value) {
  std::printf("{\"event\":\"layer\",\"name\":\"%s\",\"value\":%.9g}\n", name,
              value);
  std::fflush(stdout);
}

/// A QTable with `entries` random (state, action) pairs.
qlearn::QTable random_table(int entries, std::uint64_t seed) {
  qlearn::QTable table;
  Rng rng(seed);
  for (int i = 0; i < entries; ++i) {
    const auto s = qlearn::State::from_index(
        static_cast<std::uint16_t>(rng.bounded(qlearn::kLevelPairCount)));
    const auto a = qlearn::Action::from_index(
        static_cast<std::uint16_t>(rng.bounded(qlearn::kLevelPairCount)));
    table.set(s, a, rng.uniform());
  }
  return table;
}

core::QTablePair random_pair(std::uint64_t seed) {
  return core::QTablePair{random_table(2048, seed), random_table(2048, seed + 1)};
}

double median(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  return v[v.size() / 2];
}

/// Median of `samples` timings of `fn`, each divided by `ops`, in ns.
template <typename Fn>
double median_ns_per_op(int samples, double ops, Fn&& fn) {
  std::vector<double> ns;
  for (int i = 0; i < samples; ++i) {
    const auto start = Clock::now();
    fn();
    ns.push_back(seconds_since(start) * 1e9 / ops);
  }
  return median(std::move(ns));
}

void layer_qlearn(std::uint64_t seed) {
  Rng rng(seed);
  qlearn::QTable table;
  const qlearn::QLearningParams params;
  constexpr int kUpdates = 200'000;
  std::vector<std::uint16_t> idx(3 * kUpdates);
  for (auto& i : idx)
    i = static_cast<std::uint16_t>(rng.bounded(qlearn::kLevelPairCount));
  print_layer("qlearn.update_ns", median_ns_per_op(5, kUpdates, [&] {
                for (int i = 0; i < kUpdates; ++i)
                  table.update(qlearn::State::from_index(idx[3 * i]),
                               qlearn::Action::from_index(idx[3 * i + 1]), 4.0,
                               qlearn::State::from_index(idx[3 * i + 2]),
                               params);
              }));
  if (table.empty()) std::abort();

  const qlearn::QTable a = random_table(2048, seed + 2);
  const qlearn::QTable b = random_table(2048, seed + 3);
  qlearn::QTable dst = a;
  constexpr int kMerges = 20'000;
  print_layer("qlearn.merge_average_ns", median_ns_per_op(5, kMerges, [&] {
                for (int i = 0; i < kMerges; ++i) dst.merge_average(b);
              }));
  double guard = 0.0;
  print_layer("qlearn.cosine_ns", median_ns_per_op(5, kMerges, [&] {
                for (int i = 0; i < kMerges; ++i)
                  guard += qlearn::cosine_similarity(a, dst);
              }));
  if (guard < 0.0) std::abort();
}

/// Last-level cache size from sysfs (bytes), or 105 MiB when unreadable.
std::size_t l3_bytes() {
  std::ifstream in("/sys/devices/system/cpu/cpu0/cache/index3/size");
  std::string text;
  if (in >> text && !text.empty()) {
    std::size_t v = std::strtoull(text.c_str(), nullptr, 10);
    if (text.back() == 'K') v <<= 10;
    if (text.back() == 'M') v <<= 20;
    if (v > 0) return v;
  }
  return std::size_t{105} << 20;
}

void layer_pair(std::uint64_t seed) {
  const std::size_t pair_bytes = sizeof(core::QTablePair);
  // Hot pool: two pairs that stay in L1/L2.
  std::vector<core::QTablePair> hot{random_pair(seed), random_pair(seed + 7)};
  constexpr int kHotOps = 20'000;
  print_layer("core.pair_copy_hot_ns", median_ns_per_op(5, kHotOps, [&] {
                for (int i = 0; i < kHotOps; ++i) hot[i & 1] = hot[(i + 1) & 1];
              }));

  // Cold pool: at least 4x the last-level cache, walked with a stride so
  // consecutive operations touch pairs far apart in memory.
  const std::size_t cold_count = 4 * l3_bytes() / pair_bytes + 1;
  std::vector<core::QTablePair> cold(cold_count, hot[0]);
  const std::size_t stride = cold_count / 2 + 1;
  const double cold_ops = static_cast<double>(cold_count);
  std::size_t cursor = 0;
  const double copy_ns = median_ns_per_op(3, cold_ops, [&] {
    for (std::size_t i = 0; i < cold_count; ++i) {
      const std::size_t next = (cursor + stride) % cold_count;
      cold[next] = cold[cursor];
      cursor = (cursor + 1) % cold_count;
    }
  });
  const double merge_ns = median_ns_per_op(3, cold_ops, [&] {
    for (std::size_t i = 0; i < cold_count; ++i) {
      cold[cursor].merge_average(cold[(cursor + stride) % cold_count]);
      cursor = (cursor + 1) % cold_count;
    }
  });
  if (cold[cursor].empty()) std::abort();
  print_layer("core.pair_copy_cold_ns", copy_ns);
  print_layer("core.pair_merge_cold_ns", merge_ns);
  // Computed bytes moved: a copy reads and writes one pair.
  print_layer("core.pair_copy_cold_gbps", 2.0 * pair_bytes / copy_ns);
  print_layer("core.pair_bytes", static_cast<double>(pair_bytes));
  print_layer("core.cold_pool_mib",
              static_cast<double>(cold_count * pair_bytes) / (1 << 20));
}

/// Protocol whose execute does nothing and which always votes to park:
/// isolates the engine's own per-node scheduling cost.
class NoopProtocol final : public sim::Protocol {
 public:
  void execute(sim::Engine&, sim::NodeId, const sim::PeerSet&) override {}
  bool can_quiesce(const sim::Engine&, sim::NodeId) const override {
    return true;
  }
};

void layer_engine(std::uint64_t seed) {
  constexpr std::size_t kNodes = 10'000;
  constexpr int kSteps = 50;
  auto make = [&](bool parked) {
    auto engine = std::make_unique<sim::Engine>(kNodes, seed);
    engine->add_protocol_pool<NoopProtocol>(
        [](sim::NodeId) { return NoopProtocol{}; });
    if (parked) {
      engine->enable_event_scheduler();
      engine->enable_quiescence();
      engine->step();  // every node votes to park after its first round
      if (engine->quiescent_count() != kNodes) std::abort();
    }
    return engine;
  };
  auto serial = make(false);
  print_layer("sim.step_serial_ns_per_node",
              median_ns_per_op(5, kSteps * kNodes, [&] {
                for (int i = 0; i < kSteps; ++i) serial->step();
              }));
  auto parked = make(true);
  print_layer("sim.step_parked_ns_per_node",
              median_ns_per_op(5, kSteps * kNodes, [&] {
                for (int i = 0; i < kSteps; ++i) parked->step();
              }));
}

void layer_net(std::uint64_t seed) {
  const harness::ExperimentConfig lossy = workload_config(
      "lossy-net-1k", harness::Algorithm::kGlap, seed);
  net::NetworkModel model(lossy.pm_count, lossy.network.default_rack_size,
                          lossy.network, lossy.datacenter.round_seconds, seed);
  Rng rng(seed);
  constexpr int kCalls = 200'000;
  constexpr int kPerRound = 2000;  // ~2 exchanges per PM per round
  std::vector<sim::NodeId> ends(2 * kCalls);
  for (auto& n : ends) n = static_cast<sim::NodeId>(rng.bounded(lossy.pm_count));
  sim::Round round = 0;
  std::uint64_t delivered = 0;
  print_layer("net.round_trip_ns", median_ns_per_op(5, kCalls, [&] {
                for (int i = 0; i < kCalls; ++i) {
                  if (i % kPerRound == 0) model.begin_round(round++);
                  const sim::NodeId a = ends[2 * i];
                  const sim::NodeId b = ends[2 * i + 1] == a
                                            ? (a + 1) % lossy.pm_count
                                            : ends[2 * i + 1];
                  delivered += model
                                   .round_trip(a, b, 2048, 2048,
                                               net::Channel::kConsolidation)
                                   .ok();
                }
              }));
  if (delivered == 0) std::abort();
}

void layer_cloud_and_trace(std::string_view workload, std::uint64_t seed) {
  // observe_demands / end_round at the baselines-2k fleet (4000 VMs),
  // demand streams from the workload's own mix.
  const harness::ExperimentConfig cell =
      workload_config("baselines-2k", harness::Algorithm::kGrmp, seed);
  const harness::ExperimentConfig own =
      workload_config(workload, harness::Algorithm::kGlap, seed);
  cloud::DataCenter dc(cell.pm_count, cell.vm_count(), cell.datacenter);
  Rng placement(seed);
  dc.place_randomly(placement);
  const trace::GoogleSynth synth(own.workload, seed);
  std::vector<trace::DemandModelPtr> models;
  for (std::size_t v = 0; v < cell.vm_count(); ++v)
    models.push_back(synth.make_model(v));
  // One sample per simulated round: demand draws, then the data center's
  // per-round calls, in the order the harness makes them.
  constexpr int kRounds = 40;
  std::vector<Resources> demands(cell.vm_count());
  std::vector<double> next_ns, observe_ns, end_ns;
  for (int r = 0; r < kRounds; ++r) {
    auto start = Clock::now();
    for (std::size_t v = 0; v < demands.size(); ++v)
      demands[v] = models[v]->next().clamped(0.0, 1.0);
    next_ns.push_back(seconds_since(start) * 1e9 / demands.size());
    start = Clock::now();
    dc.observe_demands(demands);
    observe_ns.push_back(seconds_since(start) * 1e9 / demands.size());
    start = Clock::now();
    dc.end_round();
    end_ns.push_back(seconds_since(start) * 1e9 / cell.pm_count);
  }
  print_layer("trace.demand_next_ns", median(next_ns));
  print_layer("cloud.observe_demands_ns_per_vm", median(observe_ns));
  print_layer("cloud.end_round_ns_per_pm", median(end_ns));
}

int cmd_layers(int argc, char** argv) {
  if (argc != 4) {
    std::fprintf(stderr, "usage: glap_perfbench layers <workload> <seed>\n");
    return 2;
  }
  const std::string_view workload = argv[2];
  const std::uint64_t seed = std::strtoull(argv[3], nullptr, 10);
  workload_config(workload, harness::Algorithm::kGlap, seed);  // validates
  layer_qlearn(seed);
  layer_pair(seed);
  layer_engine(seed);
  layer_net(seed);
  layer_cloud_and_trace(workload, seed);
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  const std::string_view cmd = argc > 1 ? argv[1] : "";
  if (cmd == "fingerprint") return cmd_fingerprint();
  if (cmd == "sim") return cmd_sim(argc, argv);
  if (cmd == "layers") return cmd_layers(argc, argv);
  std::fprintf(stderr, "usage: glap_perfbench fingerprint|sim|layers ...\n");
  return 2;
}
