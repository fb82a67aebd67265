// Property tests for the streaming quantile sketch: the GK rank-error
// guarantee against exact order statistics, merge error budgeting, and
// batch insertion against one-at-a-time insertion.
#include <algorithm>
#include <cmath>
#include <limits>
#include <span>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "core/rng.h"
#include "core/stats.h"

namespace bismark {
namespace {

// The GK guarantee: quantile(q) returns a stream element whose true rank r
// satisfies |r - q*n| <= eps*n. With duplicates the returned value owns a
// rank *range*; the guarantee holds if any rank in that range qualifies.
void ExpectWithinRankError(const QuantileSketch& sketch, std::vector<double> data,
                           double eps_budget) {
  std::sort(data.begin(), data.end());
  const double n = static_cast<double>(data.size());
  const double slack = eps_budget * n + 1.0;  // +1: rank discretisation
  for (const double q : {0.0, 0.01, 0.1, 0.25, 0.5, 0.75, 0.9, 0.99, 1.0}) {
    const double v = sketch.quantile(q);
    const auto lo = std::lower_bound(data.begin(), data.end(), v);
    const auto hi = std::upper_bound(data.begin(), data.end(), v);
    ASSERT_NE(lo, hi) << "quantile(" << q << ") returned " << v
                      << ", which is not a stream element";
    // 1-based rank range occupied by v in the sorted sample.
    const double r_lo = static_cast<double>(lo - data.begin()) + 1.0;
    const double r_hi = static_cast<double>(hi - data.begin());
    const double target = q * n;
    const double dist = target < r_lo ? r_lo - target : (target > r_hi ? target - r_hi : 0.0);
    EXPECT_LE(dist, slack) << "quantile(" << q << ") = " << v << " has rank ["
                           << r_lo << ", " << r_hi << "], target " << target;
  }
}

TEST(QuantileSketch, UniformStreamWithinRankError) {
  Rng rng(7001);
  QuantileSketch sketch(0.005);
  std::vector<double> data;
  for (int i = 0; i < 50000; ++i) {
    const double v = rng.uniform(0.0, 1000.0);
    data.push_back(v);
    sketch.add(v);
  }
  EXPECT_EQ(sketch.count(), data.size());
  ExpectWithinRankError(sketch, data, sketch.eps());
}

TEST(QuantileSketch, HeavyTailedStreamWithinRankError) {
  Rng rng(7002);
  QuantileSketch sketch(0.005);
  std::vector<double> data;
  for (int i = 0; i < 50000; ++i) {
    const double v = rng.pareto(1.0, 1.2);  // flow-size-like tail
    data.push_back(v);
    sketch.add(v);
  }
  ExpectWithinRankError(sketch, data, sketch.eps());
}

TEST(QuantileSketch, SortedAndReversedStreams) {
  for (const bool reversed : {false, true}) {
    QuantileSketch sketch(0.01);
    std::vector<double> data;
    for (int i = 0; i < 20000; ++i) {
      const double v = reversed ? 20000.0 - i : static_cast<double>(i);
      data.push_back(v);
      sketch.add(v);
    }
    ExpectWithinRankError(sketch, data, sketch.eps());
  }
}

TEST(QuantileSketch, ManyDuplicates) {
  Rng rng(7003);
  QuantileSketch sketch(0.01);
  std::vector<double> data;
  for (int i = 0; i < 30000; ++i) {
    // Device-count-like integers: a handful of distinct values.
    const double v = std::floor(rng.uniform(0.0, 8.0));
    data.push_back(v);
    sketch.add(v);
  }
  ExpectWithinRankError(sketch, data, sketch.eps());
}

TEST(QuantileSketch, SketchStaysSublinear) {
  Rng rng(7004);
  QuantileSketch sketch(0.005);
  for (int i = 0; i < 200000; ++i) sketch.add(rng.uniform(0.0, 1.0));
  // O((1/eps) log(eps n)) tuples: generous ceiling far below the stream.
  EXPECT_LT(sketch.tuples(), 4000u);
  EXPECT_EQ(sketch.count(), 200000u);
}

TEST(QuantileSketch, MergeKeepsSummedErrorBudget) {
  Rng rng(7005);
  QuantileSketch a(0.005);
  QuantileSketch b(0.005);
  std::vector<double> data;
  for (int i = 0; i < 40000; ++i) {
    const double v = rng.exponential(10.0);
    data.push_back(v);
    (i % 2 ? a : b).add(v);
  }
  a.merge(b);
  EXPECT_EQ(a.count(), data.size());
  // Merging same-eps sketches doubles the rank tolerance (eps_a + eps_b).
  ExpectWithinRankError(a, data, 0.011);
}

TEST(QuantileSketch, MinMaxExact) {
  QuantileSketch sketch(0.01);
  Rng rng(7006);
  double lo = 1e300, hi = -1e300;
  for (int i = 0; i < 10000; ++i) {
    const double v = rng.normal(50.0, 20.0);
    lo = std::min(lo, v);
    hi = std::max(hi, v);
    sketch.add(v);
  }
  EXPECT_DOUBLE_EQ(sketch.min(), lo);
  EXPECT_DOUBLE_EQ(sketch.max(), hi);
}

// add(span) merges a run of values at once; it must leave the same bytes
// as add(double) on each value, for every stream shape, at every split of
// the stream around the compress period, and across merges that raise eps
// mid-period.
TEST(QuantileSketch, BatchAddMatchesSequentialBytes) {
  constexpr double kInf = std::numeric_limits<double>::infinity();
  struct Stream {
    const char* name;
    double (*draw)(Rng&, int i);
  };
  const Stream streams[] = {
      {"uniform", [](Rng& r, int) { return r.uniform(0.0, 1000.0); }},
      {"heavy-tailed", [](Rng& r, int) { return r.pareto(1.0, 1.2); }},
      {"ascending", [](Rng&, int i) { return static_cast<double>(i); }},
      {"descending", [](Rng&, int i) { return static_cast<double>(-i); }},
      {"constant", [](Rng&, int) { return 5.0; }},
      {"zero-heavy", [](Rng& r, int) {
         return r.bernoulli(0.6) ? 0.0 : static_cast<double>(r.uniform_int(1, 12));
       }},
      {"signed zeros", [](Rng& r, int) {
         if (r.bernoulli(0.2)) return static_cast<double>(r.uniform_int(-2, 2));
         return r.bernoulli(0.5) ? -0.0 : 0.0;
       }},
      {"infinities", [](Rng& r, int) {
         const double u = r.uniform();
         return u < 0.1 ? -kInf : (u < 0.25 ? kInf : std::floor(r.uniform(-50.0, 50.0)));
       }},
      // Drifts down, so most runs bring new minima in no particular order.
      {"new minima", [](Rng& r, int i) { return std::floor(r.uniform(0.0, 400.0)) - 3.0 * i; }},
      {"NaN", [](Rng& r, int) {
         return r.bernoulli(0.01) ? std::numeric_limits<double>::quiet_NaN() : r.uniform(0.0, 9.0);
       }},
  };
  constexpr int kValues = 1500;
  std::size_t checked = 0;
  for (const Stream& stream : streams) {
    for (const double eps : {0.005, 0.01, 0.05, 0.2, 0.5}) {
      const auto period = static_cast<std::size_t>(1.0 / (2.0 * eps));
      for (const std::size_t split :
           {std::size_t{1}, period - 1, period, period + 1, std::size_t{4096}}) {
        if (split == 0) continue;
        SCOPED_TRACE(std::string(stream.name) + " eps " + std::to_string(eps) + " split " +
                     std::to_string(split));
        Rng rng(7020);
        std::vector<double> values;
        for (int i = 0; i < kValues; ++i) values.push_back(stream.draw(rng, i));
        QuantileSketch each(eps);
        QuantileSketch batch(eps);
        std::size_t step = 0;
        for (std::size_t at = 0; at < values.size(); at += split, ++step) {
          const std::span<const double> chunk =
              std::span(values).subspan(at, std::min(split, values.size() - at));
          for (const double v : chunk) each.add(v);
          batch.add(chunk);
          ASSERT_EQ(batch.Serialize(), each.Serialize()) << "after adding at " << at;
          ++checked;
          if (step % 4 == 1) {
            // A merge raises eps, so since_compress_ can pass the new period.
            QuantileSketch other(0.03);
            for (int i = 0; i < 40; ++i) other.add(stream.draw(rng, i));
            each.merge(other);
            batch.merge(other);
            ASSERT_EQ(batch.Serialize(), each.Serialize()) << "after a merge at " << at;
            ++checked;
          }
        }
      }
    }
  }
  EXPECT_GT(checked, 10000u);
}

}  // namespace
}  // namespace bismark
