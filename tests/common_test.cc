// Tests for the common substrate: units, logging, RNG.
#include <gtest/gtest.h>

#include <set>

#include "common/logging.h"
#include "common/status.h"
#include "common/random.h"
#include "common/units.h"

namespace gts {
namespace {

// ----------------------------------------------------------------- Units

TEST(UnitsTest, FormatBytes) {
  EXPECT_EQ(FormatBytes(512), "512 B");
  EXPECT_EQ(FormatBytes(1536), "1.50 KiB");
  EXPECT_EQ(FormatBytes(3 * kMiB), "3.00 MiB");
  EXPECT_EQ(FormatBytes(kGiB + kGiB / 2), "1.50 GiB");
  EXPECT_EQ(FormatBytes(2 * kTiB), "2.00 TiB");
}

TEST(UnitsTest, FormatSeconds) {
  EXPECT_EQ(FormatSeconds(2.5), "2.500 s");
  EXPECT_EQ(FormatSeconds(0.0125), "12.500 ms");
  EXPECT_EQ(FormatSeconds(42e-6), "42.000 us");
}

// ------------------------------------------------------------------- RNG

TEST(RandomTest, SplitMix64KnownSequenceIsDeterministic) {
  SplitMix64 a(42);
  SplitMix64 b(42);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.Next(), b.Next());
}

TEST(RandomTest, XoshiroUniformish) {
  Xoshiro256 rng(7);
  int buckets[8] = {};
  constexpr int kDraws = 80000;
  for (int i = 0; i < kDraws; ++i) {
    ++buckets[rng.NextBounded(8)];
  }
  for (int b = 0; b < 8; ++b) {
    EXPECT_NEAR(buckets[b], kDraws / 8, kDraws / 80) << "bucket " << b;
  }
}

TEST(RandomTest, NextDoubleInUnitInterval) {
  Xoshiro256 rng(99);
  for (int i = 0; i < 10000; ++i) {
    const double d = rng.NextDouble();
    EXPECT_GE(d, 0.0);
    EXPECT_LT(d, 1.0);
  }
}

TEST(RandomTest, DifferentSeedsDiverge) {
  Xoshiro256 a(1);
  Xoshiro256 b(2);
  int equal = 0;
  for (int i = 0; i < 64; ++i) equal += a.Next() == b.Next();
  EXPECT_LT(equal, 2);
}

// --------------------------------------------------------------- Logging

TEST(LoggingTest, LevelFilterRoundTrips) {
  const LogLevel before = GetLogLevel();
  SetLogLevel(LogLevel::kError);
  EXPECT_EQ(GetLogLevel(), LogLevel::kError);
  GTS_LOG(Info) << "filtered out, must not crash";
  GTS_LOG(Error) << "emitted (stderr), must not crash";
  SetLogLevel(before);
}

TEST(LoggingTest, CheckPassesOnTrue) {
  GTS_CHECK(1 + 1 == 2) << "never evaluated";
  GTS_CHECK_OK(Status::OK());
}

TEST(LoggingDeathTest, CheckAbortsOnFalse) {
  EXPECT_DEATH(GTS_CHECK(false) << "boom", "Check failed");
}

TEST(LoggingDeathTest, CheckOkAbortsOnError) {
  EXPECT_DEATH(GTS_CHECK_OK(Status::Internal("bad")), "Internal");
}

}  // namespace
}  // namespace gts
