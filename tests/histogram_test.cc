// Tests for the striped latency histograms (src/obs/histogram.h):
// bucket-scheme invariants, the documented quantile accuracy bound,
// concurrent recording against a serial oracle, the enable-flag contract
// (off = true no-op), thread-exit folding, and snapshot deltas.
#include "obs/histogram.h"

#include <algorithm>
#include <cstdint>
#include <random>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

namespace mvstore {
namespace obs {
namespace {

TEST(BucketScheme, IndexesAreMonotoneAndInRange) {
  uint32_t prev = 0;
  for (uint64_t v = 0; v < 100000; ++v) {
    uint32_t idx = BucketIndex(v);
    ASSERT_LT(idx, kNumBuckets);
    ASSERT_GE(idx, prev) << "BucketIndex not monotone at " << v;
    prev = idx;
  }
  // Spot-check the top of the range.
  ASSERT_LT(BucketIndex(~uint64_t{0}), kNumBuckets);
  ASSERT_EQ(BucketIndex(~uint64_t{0}), kNumBuckets - 1);
}

TEST(BucketScheme, UpperBoundCoversValueWithin25Percent) {
  auto check = [](uint64_t v) {
    uint64_t upper = BucketUpperBound(BucketIndex(v));
    ASSERT_GE(upper, v) << "bucket upper bound under-reports " << v;
    // <= 25% over: upper < 1.25 * v (+1 for integer truncation at small v).
    ASSERT_LE(upper, v + v / 4 + 1) << "bucket upper bound too loose at " << v;
  };
  for (uint64_t v = 0; v < 100000; ++v) check(v);
  for (uint32_t shift = 17; shift < 63; ++shift) {
    check((uint64_t{1} << shift) - 1);
    check(uint64_t{1} << shift);
    check((uint64_t{1} << shift) + 1);
  }
}

TEST(BucketScheme, UpperBoundIsInclusive) {
  // Every bucket's upper bound must itself land in that bucket, and the
  // next value in the next bucket.
  for (uint32_t idx = 0; idx + 1 < kNumBuckets; ++idx) {
    uint64_t upper = BucketUpperBound(idx);
    ASSERT_EQ(BucketIndex(upper), idx);
    ASSERT_GT(BucketIndex(upper + 1), idx);
  }
}

TEST(HistogramData, QuantileAccuracyBound) {
  std::mt19937_64 rng(42);
  // Mix of scales: uniform-in-octave so every magnitude is exercised.
  std::vector<uint64_t> values;
  HistogramData hist;
  for (int i = 0; i < 20000; ++i) {
    uint32_t octave = static_cast<uint32_t>(rng() % 30);
    uint64_t v = rng() % (uint64_t{1} << octave);
    values.push_back(v);
    hist.Record(v);
  }
  std::sort(values.begin(), values.end());
  for (double q : {0.5, 0.9, 0.99, 0.999}) {
    size_t rank = static_cast<size_t>(q * static_cast<double>(values.size()));
    if (rank >= values.size()) rank = values.size() - 1;
    uint64_t truth = values[rank];
    uint64_t estimate = hist.ValueAtQuantile(q);
    EXPECT_GE(estimate, truth) << "q=" << q;
    EXPECT_LE(estimate, truth + truth / 4 + 1) << "q=" << q;
  }
  EXPECT_GE(hist.ValueAtQuantile(1.0), hist.max);
  EXPECT_LE(hist.ValueAtQuantile(1.0), hist.max + hist.max / 4 + 1);
}

TEST(HistogramData, SubtractYieldsIntervalDelta) {
  HistogramData base;
  for (uint64_t v : {1, 10, 100}) base.Record(v);
  HistogramData now = base;
  for (uint64_t v : {5, 50, 500}) now.Record(v);
  now.Subtract(base);
  EXPECT_EQ(now.count, 3u);
  EXPECT_EQ(now.sum, 555u);
  EXPECT_EQ(now.buckets[BucketIndex(5)], 1u);
  EXPECT_EQ(now.buckets[BucketIndex(1)], 0u);
}

TEST(LatencyHistograms, ConcurrentRecordMatchesSerialOracle) {
  constexpr int kThreads = 8;
  constexpr int kPerThread = 50000;
  LatencyHistograms hists;
  // Build the oracle first, from the exact per-thread sequences.
  HistogramData oracle;
  for (int t = 0; t < kThreads; ++t) {
    std::mt19937_64 rng(1000 + t);
    for (int i = 0; i < kPerThread; ++i) oracle.Record(rng() % 1000000);
  }
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&hists, t] {
      std::mt19937_64 rng(1000 + t);
      for (int i = 0; i < kPerThread; ++i) {
        hists.Record(Hist::kCommitTotal, rng() % 1000000);
      }
    });
  }
  for (auto& th : threads) th.join();
  HistogramData merged = hists.Snapshot(Hist::kCommitTotal);
  EXPECT_EQ(merged.count, oracle.count);
  EXPECT_EQ(merged.sum, oracle.sum);
  EXPECT_EQ(merged.max, oracle.max);
  for (uint32_t i = 0; i < kNumBuckets; ++i) {
    ASSERT_EQ(merged.buckets[i], oracle.buckets[i]) << "bucket " << i;
  }
  // Other histograms stayed empty.
  EXPECT_EQ(hists.Snapshot(Hist::kGcPass).count, 0u);
}

TEST(LatencyHistograms, ThreadExitKeepsCellForNextThread) {
  LatencyHistograms hists;
  std::thread recorder([&hists] {
    for (uint64_t v = 0; v < 100; ++v) hists.Record(Hist::kReadLatency, v);
  });
  recorder.join();
  // The exited thread's cell keeps its data.
  HistogramData snap = hists.Snapshot(Hist::kReadLatency);
  EXPECT_EQ(snap.count, 100u);
  EXPECT_EQ(snap.max, 99u);
  // Slot recycling: a second short-lived thread draws the same slot and
  // records into the same cell.
  uint32_t used = hists.UsedCells();
  std::thread again([&hists] { hists.Record(Hist::kReadLatency, 7); });
  again.join();
  EXPECT_EQ(hists.UsedCells(), used);
  EXPECT_EQ(hists.Snapshot(Hist::kReadLatency).count, 101u);
}

TEST(LatencyHistograms, DisabledIsATrueNoOp) {
  LatencyHistograms hists(/*enabled=*/false);
  EXPECT_FALSE(hists.enabled());
  for (uint64_t v = 0; v < 1000; ++v) hists.Record(Hist::kCommitTotal, v);
  // Nothing recorded, and no per-thread cell was even acquired.
  EXPECT_EQ(hists.Snapshot(Hist::kCommitTotal).count, 0u);
  EXPECT_EQ(hists.UsedCells(), 0u);
  // Flipping the flag on starts recording without re-construction.
  hists.SetEnabled(true);
  hists.Record(Hist::kCommitTotal, 5);
  EXPECT_EQ(hists.Snapshot(Hist::kCommitTotal).count, 1u);
  EXPECT_GE(hists.UsedCells(), 1u);
}

TEST(LatencyHistograms, ResetClearsAllCells) {
  LatencyHistograms hists;
  hists.Record(Hist::kCommitTotal, 123);
  std::thread other([&hists] { hists.Record(Hist::kCommitTotal, 456); });
  other.join();
  ASSERT_EQ(hists.Snapshot(Hist::kCommitTotal).count, 2u);
  hists.Reset();
  EXPECT_EQ(hists.Snapshot(Hist::kCommitTotal).count, 0u);
  EXPECT_EQ(hists.Snapshot(Hist::kCommitTotal).max, 0u);
}

TEST(TickClock, AdvancesAndCalibrates) {
  uint64_t a = NowTicks();
  uint64_t b = NowTicks();
  EXPECT_GE(b, a);
  double npt = NanosPerTick();
  EXPECT_GT(npt, 0.0);
  // Round-trip: 1ms of ticks converts back to ~1ms of nanos.
  uint64_t ticks = MicrosToTicks(1000);
  EXPECT_NEAR(TicksToMicros(ticks), 1000.0, 1.0);
}

}  // namespace
}  // namespace obs
}  // namespace mvstore
