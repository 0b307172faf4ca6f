// Sparse Q-table over (PM-state, VM-action) pairs, stored packed.
//
// The key space is tiny and fixed (81 states × 81 actions = 6561 pairs),
// but a PM only ever visits a fraction of it: ~29% of the keys once
// aggregation has unioned the fleet's tables, ~7% during learning. So the
// table stores only the entries it holds:
//   - a 103-word presence bitmap (one bit per key);
//   - a 103-entry prefix rank: rank_[w] = present keys in words [0, w);
//   - the present values, packed in ascending key order.
// The inline part is ~1 KiB and each entry costs 8 bytes, so a PM's pair
// of tables holding the 3,804 entries measured at the end of a 10k-PM
// warm-up takes ~32 KiB (a dense 6561-double layout took ~104 KiB).
//
// Sparsity is semantically meaningful — the gossip aggregation phase
// unions sparse tables, so "no entry" means "this PM never observed that
// pair", not "value zero". A point lookup is a bit test plus the rank of
// its word plus one popcount. The linear kernels walk the bitmap with
// sequential value cursors (the Fig. 5 cosine, max_value, entries()) or,
// where two tables' keys differ in a word, place entries by word-local
// ranks read from a byte table (Algorithm 2's merge); none pays a
// popcount per entry.
#pragma once

#include <array>
#include <bit>
#include <cstdint>
#include <iterator>
#include <optional>
#include <utility>
#include <vector>

#include "qlearn/levels.hpp"

namespace glap::qlearn {

struct QLearningParams {
  double alpha = 0.5;  ///< learning rate
  double gamma = 0.8;  ///< discount factor
};

struct CosineTerms;
class QTable;
[[nodiscard]] CosineTerms cosine_terms(const QTable& a,
                                       const QTable& b) noexcept;

class QTable {
 public:
  using Key = std::uint32_t;

  /// Total (state, action) pairs: 81 × 81.
  static constexpr std::size_t kEntryCount =
      kLevelPairCount * kLevelPairCount;

  [[nodiscard]] static constexpr Key key_of(State s, Action a) noexcept {
    return static_cast<Key>(s.index()) * kLevelPairCount + a.index();
  }
  [[nodiscard]] static State state_of(Key k) noexcept {
    return State::from_index(static_cast<std::uint16_t>(k / kLevelPairCount));
  }
  [[nodiscard]] static Action action_of(Key k) noexcept {
    return Action::from_index(static_cast<std::uint16_t>(k % kLevelPairCount));
  }

  /// Q(s, a); 0 when the pair has never been visited.
  [[nodiscard]] double value(State s, Action a) const noexcept {
    const Key k = key_of(s, a);
    return present(k) ? values_[rank_of(k)] : 0.0;
  }

  /// Whether the pair has an entry.
  [[nodiscard]] bool contains(State s, Action a) const noexcept {
    return present(key_of(s, a));
  }

  void set(State s, Action a, double q);

  /// Bellman update (paper formula (1)):
  ///   Q(s,a) ← (1−α)·Q(s,a) + α·(R + γ·max_{a'} Q(s',a')).
  /// The max ranges over actions already known for s' (0 when none).
  void update(State s, Action a, double reward, State next,
              const QLearningParams& params);

  /// max_a Q(s, a) over known actions (0 when s has no entries).
  [[nodiscard]] double max_value(State s) const noexcept;

  /// Greedy action restricted to `available` (π_out): the available action
  /// with the greatest Q(s, ·). Unknown pairs count as Q = 0. Returns
  /// nullopt when `available` is empty. Ties break toward the first
  /// occurrence in `available`.
  [[nodiscard]] std::optional<Action> best_action(
      State s, const std::vector<Action>& available) const;

  /// Algorithm 2's UPDATE: average values present in both tables, adopt
  /// entries present in exactly one. A merge that adds entries leaves
  /// the value store sized to exactly the union when it had to grow it.
  void merge_average(const QTable& other);

  [[nodiscard]] std::size_t size() const noexcept { return values_.size(); }
  [[nodiscard]] bool empty() const noexcept { return values_.empty(); }
  /// Entries the value store holds room for without reallocating.
  [[nodiscard]] std::size_t capacity() const noexcept {
    return values_.capacity();
  }
  /// Bytes this table occupies: the inline bitmap, rank and vector header
  /// plus the value store's heap capacity.
  [[nodiscard]] std::size_t footprint_bytes() const noexcept {
    return sizeof(QTable) + values_.capacity() * sizeof(double);
  }
  void clear() noexcept {
    values_.clear();
    present_.fill(0);
    rank_.fill(0);
  }

  /// Iteration support for serialization/analysis: a forward range of
  /// (key, value) pairs over the *present* entries, in ascending key
  /// order (stable output without sorting).
  class EntryIterator {
   public:
    using value_type = std::pair<Key, double>;
    using difference_type = std::ptrdiff_t;
    using iterator_category = std::forward_iterator_tag;

    EntryIterator(const QTable* table, std::size_t index) noexcept
        : table_(table), bits_(table->present_[0]), index_(index) {
      settle();
    }
    [[nodiscard]] value_type operator*() const noexcept {
      return {static_cast<Key>(word_ * 64 + std::countr_zero(bits_)),
              table_->values_[index_]};
    }
    EntryIterator& operator++() noexcept {
      bits_ &= bits_ - 1;
      ++index_;
      settle();
      return *this;
    }
    EntryIterator operator++(int) noexcept {
      EntryIterator copy = *this;
      ++*this;
      return copy;
    }
    [[nodiscard]] friend bool operator==(const EntryIterator& a,
                                         const EntryIterator& b) noexcept {
      return a.index_ == b.index_;
    }

   private:
    void settle() noexcept {
      while (bits_ == 0 && word_ + 1 < kWordCount)
        bits_ = table_->present_[++word_];
    }
    const QTable* table_;
    std::size_t word_ = 0;
    std::uint64_t bits_;
    std::size_t index_;
  };

  class EntryRange {
   public:
    explicit EntryRange(const QTable* table) noexcept : table_(table) {}
    [[nodiscard]] EntryIterator begin() const noexcept { return {table_, 0}; }
    [[nodiscard]] EntryIterator end() const noexcept {
      return {table_, table_->size()};
    }

   private:
    const QTable* table_;
  };

  [[nodiscard]] EntryRange entries() const noexcept {
    return EntryRange{this};
  }

  /// Dense 6561-dim snapshot (unvisited pairs are 0).
  [[nodiscard]] std::vector<double> dense() const;

 private:
  friend CosineTerms cosine_terms(const QTable& a, const QTable& b) noexcept;

  static constexpr std::size_t kWordCount = (kEntryCount + 63) / 64;

  /// Set bits in `x`. The build targets baseline x86-64, which has no
  /// popcnt instruction; std::popcount becomes a libgcc call there, while
  /// this branch-free sum stays inline.
  [[nodiscard]] static constexpr std::size_t bit_count(std::uint64_t x) noexcept {
    x -= (x >> 1) & 0x5555555555555555u;
    x = (x & 0x3333333333333333u) + ((x >> 2) & 0x3333333333333333u);
    x = (x + (x >> 4)) & 0x0F0F0F0F0F0F0F0Fu;
    return static_cast<std::size_t>((x * 0x0101010101010101u) >> 56);
  }
  [[nodiscard]] bool present(Key k) const noexcept {
    return (present_[k >> 6] >> (k & 63)) & 1u;
  }
  /// Position of key `k` in values_: the number of present keys below it.
  [[nodiscard]] std::size_t rank_of(Key k) const noexcept {
    const std::uint64_t below = (std::uint64_t{1} << (k & 63)) - 1;
    return rank_[k >> 6] + bit_count(present_[k >> 6] & below);
  }
  /// Adds absent key `k` with value `q` at its rank `index`.
  void insert(Key k, std::size_t index, double q);

  std::array<std::uint64_t, kWordCount> present_{};
  std::array<std::uint16_t, kWordCount> rank_{};
  std::vector<double> values_;
};

/// Dot product and squared norms over two tables' shared key space (one
/// linear pass; absent entries contribute nothing). Building block for
/// the Fig. 5 convergence metric here and in core::QTablePair.
struct CosineTerms {
  double dot = 0.0;
  double norm_a = 0.0;
  double norm_b = 0.0;
};

/// Cosine similarity between two sparse tables over the union key space.
/// Two empty tables are identical (1); one empty table scores 0.
[[nodiscard]] double cosine_similarity(const QTable& a, const QTable& b);

}  // namespace glap::qlearn
