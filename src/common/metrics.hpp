// MetricsRegistry: low-overhead counters, gauges, Welford histograms and
// per-round series that protocols, the DataCenter and the harness publish
// into during a run.
//
// Every instrument is written by the single thread that runs the
// simulation, in execution order, so metric output is a pure function of
// (config, seed) (DESIGN.md §10). Gauges and series are written by the harness between
// rounds; counters and histograms also from inside interactions.
//
// Instruments live in deques so the pointers callers cache stay stable.
// Snapshot output (JSON/CSV) iterates names in sorted order, so the output
// never depends on registration order.
#pragma once

#include <cstdint>
#include <deque>
#include <iosfwd>
#include <string>
#include <string_view>
#include <vector>

#include "common/stats.hpp"

namespace glap::metrics {

/// Monotonic integer counter.
class Counter {
 public:
  void inc(std::uint64_t delta = 1) noexcept { value_ += delta; }
  [[nodiscard]] std::uint64_t value() const noexcept { return value_; }
  void reset() noexcept { value_ = 0; }

 private:
  std::uint64_t value_ = 0;
};

/// Driver-only scalar; set at quiescent points (between rounds / end of run).
class Gauge {
 public:
  void set(double v) noexcept { v_ = v; }
  [[nodiscard]] double value() const noexcept { return v_; }

 private:
  double v_ = 0.0;
};

/// Welford histogram: running moments of every observed sample.
class Histogram {
 public:
  void observe(double v) { stats_.add(v); }
  [[nodiscard]] const RunningStats& stats() const noexcept { return stats_; }

 private:
  RunningStats stats_;
};

/// Driver-only per-round time series (one append per round).
class Series {
 public:
  void append(double v) { values_.push_back(v); }
  [[nodiscard]] const std::vector<double>& values() const noexcept {
    return values_;
  }

 private:
  std::vector<double> values_;
};

/// Named instrument registry. get-or-create is a linear scan (cold path —
/// callers cache the returned pointer); instruments are pointer-stable.
class MetricsRegistry {
 public:
  [[nodiscard]] Counter* counter(std::string_view name);
  [[nodiscard]] Gauge* gauge(std::string_view name);
  [[nodiscard]] Histogram* histogram(std::string_view name);
  [[nodiscard]] Series* series(std::string_view name);

  /// Full snapshot as a JSON object — counters, gauges, histogram moments,
  /// series — with names in sorted order. Byte-deterministic.
  void write_json(std::ostream& out) const;

  /// All series side by side as CSV (round index + one column per series,
  /// columns name-sorted). Series of different lengths pad with empty cells.
  void write_series_csv(std::ostream& out) const;

 private:
  template <typename T>
  struct Entry {
    std::string name;
    T instrument;
  };
  template <typename T>
  [[nodiscard]] T* get_or_create(std::deque<Entry<T>>& entries,
                                 std::string_view name);

  std::deque<Entry<Counter>> counters_;
  std::deque<Entry<Gauge>> gauges_;
  std::deque<Entry<Histogram>> histograms_;
  std::deque<Entry<Series>> series_;
};

}  // namespace glap::metrics
