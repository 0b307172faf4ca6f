// φ^io — the union of a PM's OUT and IN Q-tables, exchanged and merged as
// one unit by the aggregation phase (Algorithm 2 operates on
// φ_p^io = φ_p^in ∪ φ_p^out).
#pragma once

#include "qlearn/qtable.hpp"

namespace glap::core {

struct QTablePair {
  qlearn::QTable out;
  qlearn::QTable in;

  /// Algorithm 2's UPDATE applied to both component tables.
  void merge_average(const QTablePair& other) {
    out.merge_average(other.out);
    in.merge_average(other.in);
  }

  [[nodiscard]] std::size_t size() const noexcept {
    return out.size() + in.size();
  }
  [[nodiscard]] bool empty() const noexcept {
    return out.empty() && in.empty();
  }
  /// Bytes the pair occupies: both tables' inline parts and heap values.
  [[nodiscard]] std::size_t footprint_bytes() const noexcept {
    return out.footprint_bytes() + in.footprint_bytes();
  }
};

/// Cosine similarity over the concatenated (out, in) key spaces — the
/// Fig. 5 convergence metric.
[[nodiscard]] double cosine_similarity(const QTablePair& a,
                                       const QTablePair& b);

}  // namespace glap::core
