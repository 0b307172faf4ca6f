#include "qlearn/qtable.hpp"

#include <algorithm>
#include <cmath>

#include "common/assert.hpp"

namespace glap::qlearn {

void QTable::insert(Key k, std::size_t index, double q) {
  values_.insert(values_.begin() + static_cast<std::ptrdiff_t>(index), q);
  present_[k >> 6] |= std::uint64_t{1} << (k & 63);
  for (std::size_t w = (k >> 6) + 1; w < kWordCount; ++w) ++rank_[w];
}

void QTable::set(State s, Action a, double q) {
  const Key k = key_of(s, a);
  const std::size_t i = rank_of(k);
  if (present(k))
    values_[i] = q;
  else
    insert(k, i, q);
}

void QTable::update(State s, Action a, double reward, State next,
                    const QLearningParams& params) {
  GLAP_DEBUG_ASSERT(params.alpha >= 0.0 && params.alpha <= 1.0,
                    "alpha out of [0,1]");
  GLAP_DEBUG_ASSERT(params.gamma >= 0.0 && params.gamma <= 1.0,
                    "gamma out of [0,1]");
  const Key k = key_of(s, a);
  const double target = reward + params.gamma * max_value(next);
  const std::size_t i = rank_of(k);
  if (present(k))
    values_[i] = (1.0 - params.alpha) * values_[i] + params.alpha * target;
  else
    insert(k, i, (1.0 - params.alpha) * 0.0 + params.alpha * target);
}

double QTable::max_value(State s) const noexcept {
  // The state's action row is the key range [first, end): two or three
  // bitmap words whose present values sit contiguously from rank_of(first).
  const Key first = static_cast<Key>(s.index()) * kLevelPairCount;
  const Key end = first + static_cast<Key>(kLevelPairCount);
  std::size_t i = rank_of(first);
  double best = 0.0;
  bool found = false;
  for (std::size_t w = first >> 6; w * 64 < end; ++w) {
    std::uint64_t bits = present_[w];
    if (w == first >> 6) bits &= ~std::uint64_t{0} << (first & 63);
    if ((w + 1) * 64 > end) bits &= (std::uint64_t{1} << (end & 63)) - 1;
    for (; bits != 0; bits &= bits - 1) {
      const double q = values_[i++];
      if (!found || q > best) best = q;
      found = true;
    }
  }
  return found ? best : 0.0;
}

std::optional<Action> QTable::best_action(
    State s, const std::vector<Action>& available) const {
  std::optional<Action> best;
  double best_q = 0.0;
  for (const Action& a : available) {
    const double q = value(s, a);
    if (!best || q > best_q) {
      best = a;
      best_q = q;
    }
  }
  return best;
}

namespace {

/// kRankInByte[b][i] = set bits of byte b below bit i: with a per-byte
/// prefix, a word-local rank is two loads, where a popcount on the
/// baseline x86-64 target is a ~12-op bit-twiddle.
constexpr auto kRankInByte = [] {
  std::array<std::array<std::uint8_t, 8>, 256> table{};
  for (unsigned b = 0; b < 256; ++b)
    for (unsigned i = 1; i < 8; ++i)
      table[b][i] = static_cast<std::uint8_t>(table[b][i - 1] + ((b >> (i - 1)) & 1));
  return table;
}();

/// Rank of each bit within one bitmap word: below(bit) = set bits of the
/// word under `bit`, from per-byte prefixes computed once per word.
class WordRank {
 public:
  explicit WordRank(std::uint64_t word) noexcept {
    unsigned sum = 0;
    for (unsigned b = 0; b < 8; ++b) {
      const unsigned byte = (word >> (8 * b)) & 0xFF;
      bytes_[b] = static_cast<std::uint8_t>(byte);
      prefix_[b] = static_cast<std::uint8_t>(sum);
      sum += kRankInByte[byte][7] + (byte >> 7);
    }
  }
  [[nodiscard]] std::size_t below(unsigned bit) const noexcept {
    return prefix_[bit >> 3] + kRankInByte[bytes_[bit >> 3]][bit & 7];
  }

 private:
  std::array<std::uint8_t, 8> bytes_;
  std::array<std::uint8_t, 8> prefix_;
};

}  // namespace

void QTable::merge_average(const QTable& other) {
  // Union ranks first: they size the result and place each word's block.
  // Only the keys this table lacks need counting.
  std::array<std::uint16_t, kWordCount> union_rank;
  std::size_t added = 0;
  for (std::size_t w = 0; w < kWordCount; ++w) {
    union_rank[w] = static_cast<std::uint16_t>(rank_[w] + added);
    if (const std::uint64_t extra = other.present_[w] & ~present_[w])
      added += bit_count(extra);
  }
  const std::size_t union_size = size() + added;
  std::size_t mine_end = size();  // one past this word's old values
  // Exact capacity: a doubling slack would hand back much of what the
  // packed layout saves. (A self-merge never grows, so `other` keeps its
  // storage across the reserve.)
  values_.reserve(union_size);
  values_.resize(union_size);
  double* const v = values_.data();
  const double* const theirs_v = other.values_.data();

  // Words from the back: a word's merged block starts at or above its old
  // block, and every lower word's old values sit below both, so nothing
  // is overwritten before it is read.
  for (std::size_t w = kWordCount; w-- > 0;) {
    const std::uint64_t mine = present_[w];
    const std::uint64_t theirs = other.present_[w];
    const std::uint64_t all = mine | theirs;
    const std::size_t old_base = rank_[w];
    const std::size_t base = union_rank[w];
    const std::size_t n = mine_end - old_base;
    mine_end = old_base;
    if (mine == theirs) {
      // Same keys on both sides: the word's values align index to index.
      const double* const t = theirs_v + other.rank_[w];
      for (std::size_t k = n; k-- > 0;)
        v[base + k] = 0.5 * (v[old_base + k] + t[k]);
    } else {
      const WordRank rank(all);
      if (all == mine) {
        // The partner adds nothing here: the block only shifts.
        if (base != old_base)
          std::copy_backward(v + old_base, v + old_base + n, v + base + n);
      } else {
        // Spread this table's values to their union slots, highest first.
        std::size_t k = old_base + n;
        for (std::uint64_t bits = mine; bits != 0;) {
          const unsigned bit = 63u - static_cast<unsigned>(std::countl_zero(bits));
          bits ^= std::uint64_t{1} << bit;
          v[base + rank.below(bit)] = v[--k];
        }
      }
      // Then fold the partner's values in: average or adopt.
      const double* t = theirs_v + other.rank_[w];
      for (std::uint64_t bits = theirs; bits != 0; bits &= bits - 1) {
        const unsigned bit = static_cast<unsigned>(std::countr_zero(bits));
        double& slot = v[base + rank.below(bit)];
        const double q = *t++;
        slot = (mine >> bit) & 1u ? 0.5 * (slot + q) : q;
      }
    }
    present_[w] = all;
  }
  rank_ = union_rank;
}

std::vector<double> QTable::dense() const {
  std::vector<double> out(kEntryCount, 0.0);
  for (const auto& [key, q] : entries()) out[key] = q;
  return out;
}

CosineTerms cosine_terms(const QTable& a, const QTable& b) noexcept {
  // Same result, bit for bit, as a dense pass over two 6561-double arrays
  // holding 0.0 for absent keys: four accumulator chains per term, lane j
  // summing the keys k ≡ j (mod 4) in ascending order, combined as
  // (s0+s1)+(s2+s3), and the one key past the last full group of four
  // (6560) added afterwards. Skipping absent keys is exact: their dense
  // products are ±0, and an accumulator that starts at +0.0 never becomes
  // −0.0, so adding ±0 never changes it. (Non-finite values would differ:
  // inf·0 is NaN in the dense pass. Q-values are finite.)
  static_assert(QTable::kEntryCount % 4 == 1, "one tail key past the lanes");
  constexpr QTable::Key kTailKey = QTable::kEntryCount - 1;
  constexpr std::size_t kTailWord = kTailKey >> 6;
  constexpr std::uint64_t kLaneMask =
      (std::uint64_t{1} << (kTailKey & 63)) - 1;

  double dot[4] = {}, na[4] = {}, nb[4] = {};
  for (std::size_t w = 0; w < QTable::kWordCount; ++w) {
    std::uint64_t ma = a.present_[w];
    std::uint64_t mb = b.present_[w];
    if (w == kTailWord) {
      ma &= kLaneMask;
      mb &= kLaneMask;
    }
    std::size_t ia = a.rank_[w];
    std::size_t ib = b.rank_[w];
    if (ma == mb) {
      // Same keys on both sides: both cursors advance together.
      for (std::uint64_t bits = ma; bits != 0; bits &= bits - 1) {
        const unsigned lane = static_cast<unsigned>(std::countr_zero(bits)) & 3;
        const double va = a.values_[ia++];
        const double vb = b.values_[ib++];
        dot[lane] += va * vb;
        na[lane] += va * va;
        nb[lane] += vb * vb;
      }
      continue;
    }
    for (std::uint64_t bits = ma | mb; bits != 0; bits &= bits - 1) {
      const unsigned bit = static_cast<unsigned>(std::countr_zero(bits));
      const unsigned lane = bit & 3;
      const bool in_a = (ma >> bit) & 1u;
      const bool in_b = (mb >> bit) & 1u;
      const double va = in_a ? a.values_[ia++] : 0.0;
      const double vb = in_b ? b.values_[ib++] : 0.0;
      if (in_a) na[lane] += va * va;
      if (in_b) nb[lane] += vb * vb;
      if (in_a && in_b) dot[lane] += va * vb;
    }
  }
  CosineTerms t;
  t.dot = (dot[0] + dot[1]) + (dot[2] + dot[3]);
  t.norm_a = (na[0] + na[1]) + (na[2] + na[3]);
  t.norm_b = (nb[0] + nb[1]) + (nb[2] + nb[3]);
  const State tail_s = QTable::state_of(kTailKey);
  const Action tail_a = QTable::action_of(kTailKey);
  const bool tail_a_present = a.contains(tail_s, tail_a);
  const bool tail_b_present = b.contains(tail_s, tail_a);
  const double ta = a.value(tail_s, tail_a);
  const double tb = b.value(tail_s, tail_a);
  if (tail_a_present && tail_b_present) t.dot += ta * tb;
  if (tail_a_present) t.norm_a += ta * ta;
  if (tail_b_present) t.norm_b += tb * tb;
  return t;
}

double cosine_similarity(const QTable& a, const QTable& b) {
  if (a.empty() && b.empty()) return 1.0;
  if (a.empty() || b.empty()) return 0.0;
  const CosineTerms t = cosine_terms(a, b);
  if (t.norm_a == 0.0 && t.norm_b == 0.0) return 1.0;
  if (t.norm_a == 0.0 || t.norm_b == 0.0) return 0.0;
  return t.dot / (std::sqrt(t.norm_a) * std::sqrt(t.norm_b));
}

}  // namespace glap::qlearn
