#include "qlearn/levels.hpp"

#include <gtest/gtest.h>

#include <cstdint>

namespace glap::qlearn {
namespace {

// gtest prints a parameter with no printer as its raw bytes, and CTest
// puts that print into the test name. The padding is spelled out as a
// zeroed member so the name does not pick up stack garbage and stays the
// same from one build to the next.
struct BoundaryCase {
  double utilization;
  Level expected;
  std::uint8_t padding[7] = {};
};
static_assert(sizeof(BoundaryCase) ==
              sizeof(double) + sizeof(Level) + sizeof(BoundaryCase::padding));

class LevelBoundaryTest : public ::testing::TestWithParam<BoundaryCase> {};

TEST_P(LevelBoundaryTest, MapsToPaperLevel) {
  EXPECT_EQ(level_of(GetParam().utilization), GetParam().expected);
}

INSTANTIATE_TEST_SUITE_P(
    PaperThresholds, LevelBoundaryTest,
    ::testing::Values(
        // Exact boundaries from the paper's calibration table (§IV-A):
        // each threshold belongs to the lower level (x <= bound).
        BoundaryCase{0.0, Level::kLow}, BoundaryCase{0.2, Level::kLow},
        BoundaryCase{0.2000001, Level::kMedium},
        BoundaryCase{0.4, Level::kMedium}, BoundaryCase{0.45, Level::kHigh},
        BoundaryCase{0.5, Level::kHigh}, BoundaryCase{0.55, Level::kXHigh},
        BoundaryCase{0.6, Level::kXHigh}, BoundaryCase{0.65, Level::k2xHigh},
        BoundaryCase{0.7, Level::k2xHigh}, BoundaryCase{0.75, Level::k3xHigh},
        BoundaryCase{0.8, Level::k3xHigh}, BoundaryCase{0.85, Level::k4xHigh},
        BoundaryCase{0.9, Level::k4xHigh}, BoundaryCase{0.95, Level::k5xHigh},
        BoundaryCase{0.999, Level::k5xHigh},
        BoundaryCase{1.0, Level::kOverload},
        // Oversubscription is Overload too.
        BoundaryCase{1.3, Level::kOverload}));

TEST(Levels, PaperExampleVmAction) {
  // "a VM with average CPU and memory demand 0.85 and 0.56 ... indicates
  // an action (4xHigh, xHigh)".
  const LevelPair action = classify(0.85, 0.56);
  EXPECT_EQ(action.cpu, Level::k4xHigh);
  EXPECT_EQ(action.mem, Level::kXHigh);
}

TEST(Levels, PaperExamplePmState) {
  // Aggregated demands (0.95, 0.76) -> (5xHigh, 3xHigh).
  const LevelPair state = classify(0.95, 0.76);
  EXPECT_EQ(state.cpu, Level::k5xHigh);
  EXPECT_EQ(state.mem, Level::k3xHigh);
}

TEST(Levels, IndexRoundTripCoversAllPairs) {
  for (std::uint16_t i = 0; i < kLevelPairCount; ++i) {
    const LevelPair pair = LevelPair::from_index(i);
    EXPECT_EQ(pair.index(), i);
  }
}

TEST(Levels, IndexIsBijective) {
  std::vector<bool> seen(kLevelPairCount, false);
  for (std::size_t c = 0; c < kLevelCount; ++c)
    for (std::size_t m = 0; m < kLevelCount; ++m) {
      const LevelPair pair{static_cast<Level>(c), static_cast<Level>(m)};
      ASSERT_LT(pair.index(), kLevelPairCount);
      EXPECT_FALSE(seen[pair.index()]);
      seen[pair.index()] = true;
    }
}

TEST(Levels, MidpointsAreInsideBands) {
  for (std::size_t i = 0; i < kLevelCount; ++i) {
    const auto level = static_cast<Level>(i);
    EXPECT_EQ(level_of(level_midpoint(level)), level)
        << to_string(level);
  }
}

TEST(Levels, MidpointsIncrease) {
  for (std::size_t i = 1; i < kLevelCount; ++i)
    EXPECT_GT(level_midpoint(static_cast<Level>(i)),
              level_midpoint(static_cast<Level>(i - 1)));
}

TEST(Levels, AnyOverload) {
  EXPECT_TRUE((LevelPair{Level::kOverload, Level::kLow}).any_overload());
  EXPECT_TRUE((LevelPair{Level::kLow, Level::kOverload}).any_overload());
  EXPECT_FALSE((LevelPair{Level::k5xHigh, Level::k5xHigh}).any_overload());
}

TEST(Levels, ToStringNames) {
  EXPECT_EQ(to_string(Level::kLow), "Low");
  EXPECT_EQ(to_string(Level::k3xHigh), "3xHigh");
  EXPECT_EQ(to_string(Level::kOverload), "Overload");
  EXPECT_EQ(to_string(LevelPair{Level::kHigh, Level::kMedium}),
            "(High, Medium)");
}

TEST(Levels, Equality) {
  EXPECT_EQ((LevelPair{Level::kLow, Level::kHigh}),
            (LevelPair{Level::kLow, Level::kHigh}));
  EXPECT_FALSE((LevelPair{Level::kLow, Level::kHigh}) ==
               (LevelPair{Level::kHigh, Level::kLow}));
}

}  // namespace
}  // namespace glap::qlearn
