#include <gtest/gtest.h>

#include "core/intervals.h"
#include "core/rng.h"

namespace bismark {
namespace {

TimePoint T(double hours) { return TimePoint{0} + Hours(hours); }

TEST(IntervalTest, BasicProperties) {
  const Interval iv{T(1), T(3)};
  EXPECT_EQ(iv.length(), Hours(2));
  EXPECT_TRUE(iv.contains(T(1)));
  EXPECT_TRUE(iv.contains(T(2.999)));
  EXPECT_FALSE(iv.contains(T(3)));  // half-open
  EXPECT_FALSE(iv.contains(T(0.5)));
  EXPECT_FALSE(iv.empty());
  EXPECT_TRUE((Interval{T(3), T(3)}).empty());
  EXPECT_TRUE((Interval{T(3), T(1)}).empty());
}

TEST(IntervalSetTest, AddDisjointKeepsOrder) {
  IntervalSet s;
  s.add(T(5), T(6));
  s.add(T(1), T(2));
  s.add(T(3), T(4));
  ASSERT_EQ(s.size(), 3u);
  EXPECT_EQ(s.intervals()[0].start, T(1));
  EXPECT_EQ(s.intervals()[1].start, T(3));
  EXPECT_EQ(s.intervals()[2].start, T(5));
}

TEST(IntervalSetTest, AddMergesOverlapping) {
  IntervalSet s;
  s.add(T(1), T(3));
  s.add(T(2), T(5));
  ASSERT_EQ(s.size(), 1u);
  EXPECT_EQ(s.intervals()[0].start, T(1));
  EXPECT_EQ(s.intervals()[0].end, T(5));
}

TEST(IntervalSetTest, AddMergesTouching) {
  IntervalSet s;
  s.add(T(1), T(2));
  s.add(T(2), T(3));
  ASSERT_EQ(s.size(), 1u);
  EXPECT_EQ(s.intervals()[0].end, T(3));
}

TEST(IntervalSetTest, AddBridgesMultiple) {
  IntervalSet s;
  s.add(T(1), T(2));
  s.add(T(3), T(4));
  s.add(T(5), T(6));
  s.add(T(1.5), T(5.5));  // spans all three
  ASSERT_EQ(s.size(), 1u);
  EXPECT_EQ(s.intervals()[0].start, T(1));
  EXPECT_EQ(s.intervals()[0].end, T(6));
}

TEST(IntervalSetTest, EmptyIntervalIgnored) {
  IntervalSet s;
  s.add(T(2), T(2));
  s.add(T(3), T(1));
  EXPECT_TRUE(s.empty());
}

TEST(IntervalSetTest, ContainsAndContaining) {
  IntervalSet s;
  s.add(T(1), T(2));
  s.add(T(4), T(6));
  EXPECT_TRUE(s.contains(T(1)));
  EXPECT_FALSE(s.contains(T(2)));
  EXPECT_FALSE(s.contains(T(3)));
  EXPECT_TRUE(s.contains(T(5)));
  const Interval* iv = s.containing(T(5));
  ASSERT_NE(iv, nullptr);
  EXPECT_EQ(iv->start, T(4));
  EXPECT_EQ(s.containing(T(0)), nullptr);
  EXPECT_EQ(s.containing(T(3)), nullptr);
}

TEST(IntervalSetTest, TotalAndCoverage) {
  IntervalSet s;
  s.add(T(0), T(2));
  s.add(T(4), T(8));
  EXPECT_EQ(s.total(), Hours(6));
  EXPECT_EQ(s.covered_within(T(1), T(5)), Hours(2));  // [1,2) + [4,5)
  EXPECT_DOUBLE_EQ(s.coverage_fraction(T(0), T(8)), 0.75);
  EXPECT_DOUBLE_EQ(s.coverage_fraction(T(10), T(12)), 0.0);
  EXPECT_DOUBLE_EQ(s.coverage_fraction(T(5), T(5)), 0.0);  // degenerate window
}

TEST(IntervalSetTest, Intersect) {
  IntervalSet a;
  a.add(T(0), T(4));
  a.add(T(6), T(10));
  IntervalSet b;
  b.add(T(2), T(7));
  b.add(T(9), T(12));
  const IntervalSet both = a.intersect(b);
  ASSERT_EQ(both.size(), 3u);
  EXPECT_EQ(both.intervals()[0].start, T(2));
  EXPECT_EQ(both.intervals()[0].end, T(4));
  EXPECT_EQ(both.intervals()[1].start, T(6));
  EXPECT_EQ(both.intervals()[1].end, T(7));
  EXPECT_EQ(both.intervals()[2].start, T(9));
  EXPECT_EQ(both.intervals()[2].end, T(10));
}

TEST(IntervalSetTest, IntersectDisjointIsEmpty) {
  IntervalSet a;
  a.add(T(0), T(1));
  IntervalSet b;
  b.add(T(2), T(3));
  EXPECT_TRUE(a.intersect(b).empty());
  EXPECT_TRUE(a.intersect(IntervalSet{}).empty());
}

TEST(IntervalSetTest, Clipped) {
  IntervalSet s;
  s.add(T(0), T(10));
  s.add(T(20), T(30));
  const IntervalSet clipped = s.clipped(T(5), T(25));
  ASSERT_EQ(clipped.size(), 2u);
  EXPECT_EQ(clipped.intervals()[0].start, T(5));
  EXPECT_EQ(clipped.intervals()[0].end, T(10));
  EXPECT_EQ(clipped.intervals()[1].start, T(20));
  EXPECT_EQ(clipped.intervals()[1].end, T(25));
}

TEST(IntervalSetTest, PropertyRandomizedMergeInvariants) {
  // Whatever is added, the set stays sorted, disjoint and non-touching.
  Rng rng(77);
  IntervalSet s;
  for (int i = 0; i < 500; ++i) {
    const double start = rng.uniform(0.0, 100.0);
    const double len = rng.uniform(0.0, 10.0);
    s.add(T(start), T(start + len));
    Duration sum{0};
    for (std::size_t k = 0; k < s.size(); ++k) {
      const auto& iv = s.intervals()[k];
      EXPECT_LT(iv.start, iv.end);
      if (k > 0) {
        EXPECT_LT(s.intervals()[k - 1].end, iv.start);
      }
      sum += iv.length();
    }
    EXPECT_EQ(s.total(), sum);
  }
}

}  // namespace
}  // namespace bismark
