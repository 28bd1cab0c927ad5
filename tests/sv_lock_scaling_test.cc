// 1V held-lock-set scaling guard (ctest label `perf`).
//
// A serializable 1V reader keeps every shared lock to commit, and each read
// first asks the transaction's held-lock set whether it already holds the
// key's lock. With a linearly searched set, that question costs O(rows read
// so far), so a long reader goes quadratic and holds its locks, and blocks
// the updaters queued behind them, far longer than its reads need (paper
// Figs 8/9 measure that blocking, not this bookkeeping).
//
// One thread runs a serializable read-only transaction over 2K and then
// over 32K distinct keys of a 100K-row table, alternating, three times each.
// The per-row time at 32K must stay within 2x the per-row time at 2K
// (medians); a linearly searched set read ~9x on a 4-vCPU Xeon VM, a
// hashed one ~1x. Both sides run on the same machine in the same process,
// so the ratio does not depend on the hardware. Each run draws fresh keys
// so that neither size reads a cache-warm key set.
#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <numeric>
#include <random>
#include <vector>

#include "sv/sv_engine.h"

namespace mvstore {
namespace {

constexpr uint64_t kRows = 100000;
constexpr size_t kSmall = 2000;
constexpr size_t kLarge = 32000;
constexpr int kRepeats = 3;
constexpr double kMaxRatio = 2.0;

struct Row {
  uint64_t key;
  uint64_t value;
};
uint64_t RowKey(const void* p) { return static_cast<const Row*>(p)->key; }

class SVLockScalingTest : public ::testing::Test {
 protected:
  SVLockScalingTest() {
    SVEngineOptions opts;
    opts.log_mode = LogMode::kDisabled;
    engine_ = std::make_unique<SVEngine>(opts);
    TableDef def;
    def.name = "rows";
    def.payload_size = sizeof(Row);
    def.indexes.push_back(IndexDef{&RowKey, kRows, true});
    table_ = engine_->CreateTable(def);
    for (uint64_t base = 0; base < kRows; base += 1000) {
      SVTransaction* t = engine_->Begin(IsolationLevel::kReadCommitted);
      for (uint64_t k = base; k < base + 1000; ++k) {
        Row row{k, k};
        EXPECT_TRUE(engine_->Insert(t, table_, &row).ok());
      }
      EXPECT_TRUE(engine_->Commit(t).ok());
    }
    keys_.resize(kRows);
    std::iota(keys_.begin(), keys_.end(), 0);
  }

  /// Nanoseconds per row of one serializable read-only transaction over
  /// `n` distinct random keys.
  double NsPerRow(size_t n) {
    std::shuffle(keys_.begin(), keys_.end(), rng_);
    Row row{};
    const auto start = std::chrono::steady_clock::now();
    SVTransaction* t = engine_->Begin(IsolationLevel::kSerializable,
                                      /*read_only=*/true);
    for (size_t i = 0; i < n; ++i) {
      EXPECT_TRUE(engine_->Read(t, table_, 0, keys_[i], &row).ok());
    }
    EXPECT_TRUE(engine_->Commit(t).ok());
    const auto elapsed = std::chrono::steady_clock::now() - start;
    return std::chrono::duration<double, std::nano>(elapsed).count() /
           static_cast<double>(n);
  }

  std::unique_ptr<SVEngine> engine_;
  TableId table_ = 0;
  std::vector<uint64_t> keys_;
  std::mt19937_64 rng_{7};
};

TEST_F(SVLockScalingTest, PerRowCostFlatInReadSetSize) {
  // Warm-up: grows the pooled handle's lock set and touches the table.
  (void)NsPerRow(kLarge);
  (void)NsPerRow(kSmall);

  double small[kRepeats], large[kRepeats];
  for (int rep = 0; rep < kRepeats; ++rep) {
    small[rep] = NsPerRow(kSmall);
    large[rep] = NsPerRow(kLarge);
  }
  std::sort(small, small + kRepeats);
  std::sort(large, large + kRepeats);
  const double ns_small = small[kRepeats / 2];
  const double ns_large = large[kRepeats / 2];
  testing::Test::RecordProperty("ns_per_row_2k", static_cast<int>(ns_small));
  testing::Test::RecordProperty("ns_per_row_32k", static_cast<int>(ns_large));
  EXPECT_LE(ns_large, kMaxRatio * ns_small)
      << "per-row read cost grows with the read set: " << ns_small
      << " ns/row at " << kSmall << " keys vs " << ns_large << " ns/row at "
      << kLarge << " keys";
}

}  // namespace
}  // namespace mvstore
