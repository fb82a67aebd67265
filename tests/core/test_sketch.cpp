// Property tests for the streaming quantile sketch: the GK rank-error
// guarantee against exact order statistics, merge error budgeting, and
// batch insertion against one-at-a-time insertion and against the frozen
// run insertion it replaced.
#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <iterator>
#include <limits>
#include <span>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "core/little_endian.h"
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

struct Stream {
  const char* name;
  double (*draw)(Rng&, int i);
};

// Stream shapes for the byte-identity tests: continuous, ordered, constant,
// duplicate-heavy, signed zeros, infinities, new minima and NaN.
const std::vector<Stream>& BatchStreams() {
  constexpr double kInf = std::numeric_limits<double>::infinity();
  static const std::vector<Stream> streams = {
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
  return streams;
}

// The run insertion add(span) used before the forward merge: each run is
// merged back to front with two fresh vectors and a (value, latest-first)
// tuple sort, and compress() fills a fresh vector. Kept verbatim, with the
// GKS1 bytes of QuantileSketch::Serialize, as the reference the current
// insertion must match byte for byte.
class ReferenceSketch {
 public:
  explicit ReferenceSketch(double eps) : eps_(std::clamp(eps, 1e-6, 0.5)) {}

  void add(std::span<const double> values) {
    // Amortize compression: every 1/(2 eps) inserts keeps the invariant
    // g + delta <= 2 eps n while touching the array O(1) amortized.
    const auto period = static_cast<std::size_t>(1.0 / (2.0 * eps_));
    while (!values.empty()) {
      // A run ends where one-at-a-time adds would compress. After a merge
      // raised eps, since_compress_ can already be past the period.
      const std::size_t room = since_compress_ < period ? period - since_compress_ : 1;
      const std::span<const double> run = values.first(std::min(values.size(), room));
      values = values.subspan(run.size());
      if (run.size() == 1 || tuples_.empty() || holds_nan_ ||
          std::any_of(run.begin(), run.end(), [](double v) { return std::isnan(v); })) {
        for (const double v : run) insert(v);
      } else {
        insert_run(run);
      }
      n_ += run.size();
      if ((since_compress_ += run.size()) >= period) {
        compress();
        since_compress_ = 0;
      }
    }
  }

  void merge(const ReferenceSketch& other) {
    if (other.n_ == 0) return;
    if (n_ == 0) {
      *this = other;
      return;
    }
    std::vector<Tuple> merged;
    merged.reserve(tuples_.size() + other.tuples_.size());
    std::merge(tuples_.begin(), tuples_.end(), other.tuples_.begin(), other.tuples_.end(),
               std::back_inserter(merged),
               [](const Tuple& a, const Tuple& b) { return a.v < b.v; });
    tuples_ = std::move(merged);
    n_ += other.n_;
    holds_nan_ = holds_nan_ || other.holds_nan_;
    eps_ = std::min(eps_ + other.eps_, 0.5);
    compress();
  }

  [[nodiscard]] std::string Serialize() const {
    std::string out("GKS1");
    core::StoreLe<8>(out, std::bit_cast<std::uint64_t>(eps_));
    core::StoreLe<8>(out, n_);
    core::StoreLe<8>(out, since_compress_);
    core::StoreLe<8>(out, tuples_.size());
    for (const Tuple& t : tuples_) {
      core::StoreLe<8>(out, std::bit_cast<std::uint64_t>(t.v));
      core::StoreLe<8>(out, t.g);
      core::StoreLe<8>(out, t.delta);
    }
    return out;
  }

 private:
  struct Tuple {
    double v;
    std::uint64_t g;
    std::uint64_t delta;
  };

  void insert(double v) {
    // Find insertion point: first tuple with value >= v.
    auto it = std::lower_bound(tuples_.begin(), tuples_.end(), v,
                               [](const Tuple& t, double x) { return t.v < x; });
    Tuple fresh{v, 1, 0};
    if (it != tuples_.begin() && it != tuples_.end()) {
      // Interior insert: the successor may carry mass folded up from values
      // below v, so the new tuple inherits that rank uncertainty. Extremes
      // (new min/max) are exact, which keeps min()/max() precise.
      fresh.delta = it->g + it->delta - 1;
    }
    tuples_.insert(it, fresh);
    holds_nan_ = holds_nan_ || std::isnan(v);
  }

  void insert_run(std::span<const double> run) {
    const Tuple front = tuples_.front();
    // The values <= front.v in list order reversed, so a new minimum, the
    // common case, is a push_back.
    std::vector<Tuple> low;
    // The values > front.v; delta holds the arrival index until the merge.
    std::vector<Tuple> high;
    high.reserve(run.size());
    for (std::size_t i = 0; i < run.size(); ++i) {
      const double x = run[i];
      if (x > front.v) {
        high.push_back({x, 1, i});
        continue;
      }
      // In `low`, x goes after every entry with v >= x: later arrivals go
      // first in list order.
      const auto at = std::partition_point(low.begin(), low.end(),
                                           [x](const Tuple& t) { return !(t.v < x); });
      std::uint64_t delta = 0;  // x is the new minimum
      if (at != low.end()) {
        const Tuple& succ = at == low.begin() ? front : at[-1];
        delta = succ.g + succ.delta - 1;
      }
      low.insert(at, {x, 1, delta});
    }
    std::sort(high.begin(), high.end(), [](const Tuple& a, const Tuple& b) {
      return a.v < b.v || (a.v == b.v && a.delta > b.delta);
    });

    // Merge from the back in place; the low values then take the front.
    const auto old_size = static_cast<std::ptrdiff_t>(tuples_.size());
    tuples_.resize(tuples_.size() + low.size() + high.size());
    auto old_end = tuples_.begin() + old_size;
    auto out = tuples_.end();
    std::uint64_t inherited = 0;  // delta of the pre-run tuple after `out`
    for (auto h = high.rbegin(); h != high.rend(); ++h) {
      // Stops at front at the latest, since h->v > front.v.
      while (!(old_end[-1].v < h->v)) {
        --old_end;
        inherited = old_end->g + old_end->delta - 1;
        *--out = *old_end;
      }
      *--out = Tuple{h->v, 1, inherited};
    }
    if (!low.empty()) {
      std::move_backward(tuples_.begin(), old_end, out);
      std::copy(low.rbegin(), low.rend(), tuples_.begin());
    }
  }

  void compress() {
    if (tuples_.size() < 3) return;
    const auto cap = static_cast<std::uint64_t>(2.0 * eps_ * static_cast<double>(n_));
    // Fold each tuple into its successor when the combined slack fits; the
    // first and last tuples are kept so min/max stay exact.
    std::vector<Tuple> out;
    out.reserve(tuples_.size());
    std::uint64_t carry = 0;
    out.push_back(tuples_.front());
    for (std::size_t i = 1; i < tuples_.size(); ++i) {
      Tuple t = tuples_[i];
      t.g += carry;
      carry = 0;
      const bool last = (i + 1 == tuples_.size());
      if (!last && t.g + tuples_[i + 1].g + tuples_[i + 1].delta < cap) {
        carry = t.g;  // fold this tuple into its successor
      } else {
        out.push_back(t);
      }
    }
    tuples_ = std::move(out);
  }

  double eps_;
  std::size_t n_{0};
  std::size_t since_compress_{0};
  std::vector<Tuple> tuples_;
  bool holds_nan_{false};
};

// Feeds each stream, at five eps and five splits of the stream around the
// compress period, to a QuantileSketch through add(span) and to a
// `Reference` through `feed`, and compares their bytes after every call.
// Every fourth call both also merge a small sketch of the same stream: a
// merge raises eps, so since_compress_ can pass the new period.
template <typename Reference, typename Feed>
void ExpectBytesMatchReference(const std::vector<Stream>& streams, std::uint64_t seed,
                               Feed feed, std::size_t* checked) {
  constexpr int kValues = 1500;
  for (const Stream& stream : streams) {
    for (const double eps : {0.005, 0.01, 0.05, 0.2, 0.5}) {
      const auto period = static_cast<std::size_t>(1.0 / (2.0 * eps));
      for (const std::size_t split :
           {std::size_t{1}, period - 1, period, period + 1, std::size_t{4096}}) {
        if (split == 0) continue;
        SCOPED_TRACE(std::string(stream.name) + " eps " + std::to_string(eps) + " split " +
                     std::to_string(split));
        Rng rng(seed);
        std::vector<double> values;
        for (int i = 0; i < kValues; ++i) values.push_back(stream.draw(rng, i));
        Reference reference(eps);
        QuantileSketch sketch(eps);
        std::size_t step = 0;
        for (std::size_t at = 0; at < values.size(); at += split, ++step) {
          const std::span<const double> chunk =
              std::span(values).subspan(at, std::min(split, values.size() - at));
          feed(reference, chunk);
          sketch.add(chunk);
          ASSERT_EQ(sketch.Serialize(), reference.Serialize()) << "after adding at " << at;
          ++*checked;
          if (step % 4 == 1) {
            std::vector<double> more;
            for (int i = 0; i < 40; ++i) more.push_back(stream.draw(rng, i));
            Reference reference_other(0.03);
            QuantileSketch other(0.03);
            feed(reference_other, more);
            other.add(more);
            reference.merge(reference_other);
            sketch.merge(other);
            ASSERT_EQ(sketch.Serialize(), reference.Serialize()) << "after a merge at " << at;
            ++*checked;
          }
        }
      }
    }
  }
}

// add(span) merges a run of values at once; it must leave the same bytes
// as add(double) on each value, for every stream shape.
TEST(QuantileSketch, BatchAddMatchesSequentialBytes) {
  std::size_t checked = 0;
  ExpectBytesMatchReference<QuantileSketch>(
      BatchStreams(), 7020,
      [](QuantileSketch& each, std::span<const double> chunk) {
        for (const double v : chunk) each.add(v);
      },
      &checked);
  EXPECT_GT(checked, 10000u);
}

// The batch shapes plus the inputs that pick the insertion's sort: the
// WiFi columns' whole numbers, whole numbers on both sides of the counting
// sort's bound, negative whole numbers, non-integers next to whole ones,
// and runs that mostly fall at or below the list's first tuple.
TEST(QuantileSketch, MatchesReferenceBytes) {
  std::vector<Stream> streams = BatchStreams();
  streams.push_back({"wifi", [](Rng& r, int) {
                       return r.bernoulli(0.12) ? 0.0 : static_cast<double>(r.uniform_int(1, 60));
                     }});
  streams.push_back(
      {"straddle 256", [](Rng& r, int) { return static_cast<double>(r.uniform_int(250, 260)); }});
  streams.push_back(
      {"negative whole", [](Rng& r, int) { return static_cast<double>(r.uniform_int(-60, -1)); }});
  streams.push_back(
      {"halves", [](Rng& r, int) { return static_cast<double>(r.uniform_int(0, 60)) + 0.5; }});
  streams.push_back({"below first", [](Rng& r, int i) {
                       return std::floor(r.uniform(-8.0, 8.0) - 0.05 * i);
                     }});
  std::size_t checked = 0;
  ExpectBytesMatchReference<ReferenceSketch>(
      streams, 7021,
      [](ReferenceSketch& reference, std::span<const double> chunk) { reference.add(chunk); },
      &checked);
  EXPECT_GT(checked, 15000u);
}

// The finish pass hands a consumer's batches to whichever worker thread is
// free, so one sketch takes its adds from several threads. Its insertion
// scratch belongs to the thread, so each call below first runs a decoy
// sketch on that thread; none of it may show in the shared sketch's bytes.
// Sketches on different threads must not share that scratch either.
TEST(QuantileSketch, AddsOnOtherThreadsMatchOneThread) {
  Rng rng(7022);
  std::vector<double> values;
  for (int i = 0; i < 40000; ++i) {
    values.push_back(rng.bernoulli(0.12) ? 0.0 : static_cast<double>(rng.uniform_int(1, 60)));
  }
  std::vector<double> decoy_values;
  for (int i = 0; i < 3000; ++i) decoy_values.push_back(rng.pareto(1.0, 1.2));

  QuantileSketch shared;
  QuantileSketch alone;
  constexpr std::size_t kBatch = 4096;
  for (std::size_t at = 0, call = 0; at < values.size(); at += kBatch, ++call) {
    const std::span<const double> batch =
        std::span(values).subspan(at, std::min(kBatch, values.size() - at));
    const auto feed = [&] {
      QuantileSketch decoy;
      decoy.add(std::span(decoy_values).first(1000 + 500 * (call % 4)));
      shared.add(batch);
    };
    // A fresh thread per call, joined before the next call starts.
    std::thread(feed).join();
    alone.add(batch);
    ASSERT_EQ(shared.Serialize(), alone.Serialize()) << "after call " << call;
  }
  EXPECT_EQ(shared.count(), values.size());

  // Two sketches fed at the same time, as the per-stripe summary's tasks
  // feed theirs, each match the one fed alone.
  QuantileSketch left;
  QuantileSketch right;
  const auto feed_all = [&](QuantileSketch* sketch) {
    for (std::size_t at = 0; at < values.size(); at += kBatch) {
      sketch->add(std::span(values).subspan(at, std::min(kBatch, values.size() - at)));
    }
  };
  std::thread left_thread(feed_all, &left);
  std::thread right_thread(feed_all, &right);
  left_thread.join();
  right_thread.join();
  EXPECT_EQ(left.Serialize(), alone.Serialize());
  EXPECT_EQ(right.Serialize(), alone.Serialize());
}

}  // namespace
}  // namespace bismark
