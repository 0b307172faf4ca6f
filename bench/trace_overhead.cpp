// Trace-overhead smoke: the observability layer must be (near) free when
// it is off, and cheap when it is on.
//
// Every gate compares two arms of the same binary as interleaved pairs
// of runs: the arm order flips every pair, so slow host drift hits both
// arms alike, and the gate reads the median per-pair ratio, which one
// slow run cannot move. None depends on the host:
//
//   1. enabled-cost gate: at 150 PMs (the BENCH_engine.json glap_150pm
//      shape, 200 warmup + 150 eval rounds, serial engine), rounds/sec
//      with metrics + full JSONL tracing on over tracing off, median of
//      7 pairs >= --min-on-ratio (default 0.5);
//   2. flight-recorder gate: the always-on recorder's cost at 150 PMs,
//      recorder on (the default, tracing otherwise off) over off
//      (flight_recorder_rounds = 0), median of 7 pairs
//      >= --min-recorder-ratio (default 0.9);
//   3. metrics-only gate: at 1000 PMs, metrics on with tracing off over
//      metrics off, median of 5 pairs >= --min-metrics-ratio (default
//      0.9) — the registry's counters and histograms are the only
//      instrumentation on that path, and they must cost no more than a
//      few percent;
//   4. scale gate: at 10k PMs on the event engine with quiescence (the
//      CI scale-smoke shape), a sampled GTB trace (5% shuffle keep,
//      DESIGN.md §10.6) must come out at least --min-size-ratio (default
//      10) x smaller than the full JSONL trace of the same run, and
//      sampled over tracing-off rounds/sec, median of 5 pairs, must stay
//      >= --min-sampled-ratio (default 0.95) — compact sampled tracing is
//      near-free at scale.
//
// Each gate's median, min and max ratio and its per-pair table land in
// results/trace_overhead.json.
//
// scripts/ci.sh runs this as its trace-overhead stage:
//
//   build-release/bench/trace_overhead
//
// glap-lint: allow-file(wall-clock): this bench exists to measure wall-
// clock throughput ratios; timings are compared and reported, never fed
// back into simulation state.
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <sstream>
#include <string>
#include <vector>

#include "common/stats.hpp"
#include "harness/report.hpp"
#include "harness/runner.hpp"

namespace {

using namespace glap;
using Clock = std::chrono::steady_clock;

harness::ExperimentConfig overhead_config() {
  harness::ExperimentConfig config;
  config.algorithm = harness::Algorithm::kGlap;
  config.pm_count = 150;
  config.warmup_rounds = 200;
  config.rounds = 150;
  config.fit_glap_phases_to_warmup();
  return config;
}

harness::ExperimentConfig metrics_config(bool metrics_on) {
  harness::ExperimentConfig config = overhead_config();
  config.pm_count = 1000;
  config.warmup_rounds = 80;
  config.rounds = 60;
  config.fit_glap_phases_to_warmup();
  config.observability.metrics = metrics_on;
  return config;
}

/// The 10k-PM event-engine shape of the CI scale smoke; a non-null
/// `sink` receives the trace, sampled GTB when `sampled` is set.
harness::ExperimentConfig scale_config(std::ostringstream* sink,
                                       bool sampled) {
  harness::ExperimentConfig config;
  config.algorithm = harness::Algorithm::kGlap;
  config.pm_count = 10000;
  config.warmup_rounds = 40;
  config.rounds = 30;
  config.event_engine = true;
  config.glap.quiescence.enabled = true;
  config.glap.quiescence.demand_epsilon = 0.15;
  config.glap.quiescence.idle_rounds = 8;
  config.fit_glap_phases_to_warmup();
  if (sink != nullptr) {
    config.observability.trace_sink = sink;
    if (sampled) {
      config.observability.trace_format = trace::Format::kGtb;
      config.observability.trace_sample_shuffle = 0.05;
      config.observability.trace_sample_net = 0.05;
    }
  }
  return config;
}

/// Rounds/sec of one run of `config`; a trace sink in it is emptied first.
double rounds_per_sec(const harness::ExperimentConfig& config) {
  if (auto* sink = dynamic_cast<std::ostringstream*>(
          config.observability.trace_sink))
    sink->str({});
  const double total_rounds =
      static_cast<double>(config.warmup_rounds + config.rounds);
  const auto start = Clock::now();
  const auto result = harness::run_experiment(config);
  const double elapsed =
      std::chrono::duration<double>(Clock::now() - start).count();
  if (result.rounds.size() != config.rounds) std::abort();
  return total_rounds / elapsed;
}

/// One gate's measurement: arm `a` against arm `b` over interleaved
/// pairs, `a` first in the first pair and the order flipped every pair.
struct PairedRatio {
  std::string a_name, b_name;
  std::vector<double> a, b, ratio;  ///< rounds/sec per pair, and a / b
  double median = 0.0, min = 0.0, max = 0.0;
};

PairedRatio interleaved_pairs(const char* what, int pairs,
                              const std::string& a_name,
                              const harness::ExperimentConfig& a_config,
                              const std::string& b_name,
                              const harness::ExperimentConfig& b_config) {
  std::fprintf(stderr,
               "[trace_overhead] %s: %s/%s (%d interleaved pairs)...\n", what,
               a_name.c_str(), b_name.c_str(), pairs);
  PairedRatio r{a_name, b_name, {}, {}, {}, 0.0, 0.0, 0.0};
  for (int i = 0; i < pairs; ++i) {
    double a = 0.0, b = 0.0;
    if (i % 2 == 0) {
      a = rounds_per_sec(a_config);
      b = rounds_per_sec(b_config);
    } else {
      b = rounds_per_sec(b_config);
      a = rounds_per_sec(a_config);
    }
    r.a.push_back(a);
    r.b.push_back(b);
    r.ratio.push_back(a / b);
    std::fprintf(stderr,
                 "[trace_overhead]   pair %d: %s %.2f, %s %.2f rounds/sec "
                 "(%.3f)\n",
                 i + 1, a_name.c_str(), a, b_name.c_str(), b, a / b);
  }
  r.median = percentile(r.ratio, 50.0);
  const auto [lo, hi] = std::minmax_element(r.ratio.begin(), r.ratio.end());
  r.min = *lo;
  r.max = *hi;
  std::printf("[trace_overhead] %s %s/%s: median %.3f over %d pairs "
              "(min %.3f, max %.3f)\n",
              what, a_name.c_str(), b_name.c_str(), r.median, pairs, r.min,
              r.max);
  return r;
}

/// Fails the gate when the median ratio is below `floor`.
bool gate(const PairedRatio& r, double floor, const char* failure) {
  if (r.median >= floor) return true;
  std::fprintf(stderr, "[trace_overhead] FAIL: %s (median %s/%s %.3f < %.2f)\n",
               failure, r.a_name.c_str(), r.b_name.c_str(), r.median, floor);
  return false;
}

/// Publishes `<key>` (median), `<key>_min`, `<key>_max` and the per-pair
/// table `<key>_pairs`.
void publish(harness::BenchReport& report, const std::string& key,
             const PairedRatio& r) {
  char buf[64];
  for (const auto& [suffix, v] :
       {std::pair<const char*, double>{"", r.median}, {"_min", r.min},
        {"_max", r.max}}) {
    std::snprintf(buf, sizeof(buf), "%.3f", v);
    report.add_headline(key + suffix, buf);
  }
  std::vector<std::vector<std::string>> rows;
  for (std::size_t i = 0; i < r.ratio.size(); ++i) {
    std::vector<std::string> row{std::to_string(i + 1)};
    for (const double v : {r.a[i], r.b[i], r.ratio[i]}) {
      std::snprintf(buf, sizeof(buf), "%.3f", v);
      row.emplace_back(buf);
    }
    rows.push_back(std::move(row));
  }
  report.add_table(key + "_pairs",
                   {"pair", r.a_name + "_rounds_per_sec",
                    r.b_name + "_rounds_per_sec",
                    r.a_name + "_" + r.b_name + "_ratio"},
                   rows);
}

double arg_ratio(int argc, char** argv, const char* flag, double fallback) {
  for (int i = 1; i + 1 < argc; ++i)
    if (std::strcmp(argv[i], flag) == 0) return std::atof(argv[i + 1]);
  return fallback;
}

}  // namespace

int main(int argc, char** argv) {
  const double min_on_ratio = arg_ratio(argc, argv, "--min-on-ratio", 0.5);
  const double min_recorder_ratio =
      arg_ratio(argc, argv, "--min-recorder-ratio", 0.9);
  const double min_metrics_ratio =
      arg_ratio(argc, argv, "--min-metrics-ratio", 0.9);
  const double min_sampled_ratio =
      arg_ratio(argc, argv, "--min-sampled-ratio", 0.95);
  const double min_size_ratio = arg_ratio(argc, argv, "--min-size-ratio", 10.0);
  bool ok = true;

  std::ostringstream sink;
  harness::ExperimentConfig traced = overhead_config();
  traced.observability.metrics = true;
  traced.observability.trace_sink = &sink;
  const PairedRatio tracing = interleaved_pairs(
      "150 PMs, metrics + JSONL tracing", 7, "on", traced, "off",
      overhead_config());
  std::printf("[trace_overhead] trace bytes/run: %zu\n", sink.str().size());
  ok &= gate(tracing, min_on_ratio, "enabled tracing costs too much");

  harness::ExperimentConfig recorder_off = overhead_config();
  recorder_off.observability.flight_recorder_rounds = 0;
  const PairedRatio recorder = interleaved_pairs(
      "150 PMs, flight recorder", 7, "on", overhead_config(), "off",
      recorder_off);
  ok &= gate(recorder, min_recorder_ratio,
             "the always-on flight recorder costs too much");

  const PairedRatio metrics =
      interleaved_pairs("1000 PMs, metrics", 5, "on", metrics_config(true),
                        "off", metrics_config(false));
  ok &= gate(metrics, min_metrics_ratio,
             "metrics alone cost too much at 1000 PMs");

  std::fprintf(stderr, "[trace_overhead] 10k PMs, full JSONL (1 run)...\n");
  std::ostringstream full_sink;
  (void)rounds_per_sec(scale_config(&full_sink, false));
  const std::size_t full_bytes = full_sink.str().size();
  std::ostringstream sampled_sink;
  const PairedRatio sampled = interleaved_pairs(
      "10k PMs, tracing", 5, "sampled", scale_config(&sampled_sink, true),
      "off", scale_config(nullptr, false));
  const std::size_t sampled_bytes = sampled_sink.str().size();
  const double size_ratio =
      sampled_bytes > 0 ? static_cast<double>(full_bytes) /
                              static_cast<double>(sampled_bytes)
                        : 0.0;
  std::printf("[trace_overhead] 10k PMs full JSONL %zu bytes, sampled GTB "
              "%zu bytes (%.1fx smaller)\n",
              full_bytes, sampled_bytes, size_ratio);
  if (static_cast<double>(sampled_bytes) * min_size_ratio >
      static_cast<double>(full_bytes)) {
    std::fprintf(stderr,
                 "[trace_overhead] FAIL: sampled GTB trace is not %.0fx "
                 "smaller than full JSONL (%zu x %.0f > %zu)\n",
                 min_size_ratio, sampled_bytes, min_size_ratio, full_bytes);
    ok = false;
  }
  ok &= gate(sampled, min_sampled_ratio,
             "sampled GTB tracing costs too much at 10k PMs");

  harness::BenchReport report(
      "trace_overhead",
      "Trace overhead — rounds/sec off vs on (host-dependent)");
  publish(report, "tracing_on_off_ratio", tracing);
  publish(report, "flight_recorder_on_off_ratio", recorder);
  publish(report, "metrics_on_off_ratio_1000pm", metrics);
  publish(report, "sampled_off_ratio_10k", sampled);
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.1f", size_ratio);
  report.add_headline("full_over_sampled_bytes_10k", buf);
  report.add_headline("status", ok ? "OK" : "FAIL");
  report.write();

  return ok ? 0 : 1;
}
