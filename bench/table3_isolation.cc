// Table 3: throughput at higher isolation levels, and percentage drop
// compared to Read Committed. Homogeneous workload (R=10, W=2), fixed
// multiprogramming level (paper: 24).
//
// Expected shape: RR/SR nearly free for 1V (~2%); MV/O pays ~8% for RR
// (read-set validation) and ~19% for SR (scan repetition); MV/L pays ~1%
// for RR and ~10% for SR (record + bucket locks).
#include "bench/harness.h"
#include "common/random.h"
#include "workload/homogeneous.h"

using namespace mvstore;
using namespace mvstore::bench;

int main(int argc, char** argv) {
  Flags flags(argc, argv, {"rows", "full", "seconds", "threads", "scheme",
                           "group", "json"});
  const uint64_t rows =
      flags.GetUint("rows", flags.Has("full") ? 10000000 : 200000);
  const double seconds = flags.GetDouble("seconds", 0.5);
  const uint32_t threads =
      static_cast<uint32_t>(flags.GetUint("threads", DefaultMaxThreads()));

  std::printf("# Table 3: isolation levels, R=10 W=2, N=%llu, MPL=%u\n",
              static_cast<unsigned long long>(rows), threads);
  std::printf("%-6s %16s %16s %8s %16s %8s\n", "", "ReadCommitted",
              "RepeatableRead", "drop", "Serializable", "drop");

  const IsolationLevel levels[] = {IsolationLevel::kReadCommitted,
                                   IsolationLevel::kRepeatableRead,
                                   IsolationLevel::kSerializable};
  const char* level_tags[] = {"RC", "RR", "SR"};
  JsonReporter json(flags, BenchSlug(argv[0]));

  for (Scheme scheme : SchemesToRun(flags)) {
    DatabaseOptions opts = MakeOptions(scheme, flags);
    Database db(opts);
    TableId table = workload::CreateAndLoadRows(db, rows);
    double tps[3] = {0, 0, 0};
    for (int level = 0; level < 3; ++level) {
      IsolationLevel iso = levels[level];
      RunResult r = RunFixedDuration(
          threads, seconds,
          [&](uint32_t tid, std::atomic<bool>& stop, WorkerCounters& c) {
            Random rng(0xBEEF + tid);
            while (!stop.load(std::memory_order_relaxed)) {
              Status s =
                  workload::RunUpdateTxn(db, table, rng, rows, 10, 2, iso);
              if (s.ok()) {
                ++c.committed;
              } else {
                ++c.aborted;
              }
            }
          });
      tps[level] = r.tps();
      json.AddRow(std::string(SchemeName(scheme)) + "@" + level_tags[level],
                  threads, tps[level], r.aborted);
    }
    auto drop = [&](int level) {
      return tps[0] > 0 ? 100.0 * (tps[0] - tps[level]) / tps[0] : 0.0;
    };
    std::printf("%-6s %16.0f %16.0f %7.1f%% %16.0f %7.1f%%\n",
                SchemeName(scheme), tps[0], tps[1], drop(1), tps[2], drop(2));
    std::fflush(stdout);
  }
  return 0;
}
